// Chunk reuse: what a capture serializes fresh versus what it copies.
//
// Every capture publishes a self-contained image, but a component whose
// version counter has not moved since the previous capture is not read at
// all: its chunk (payload and CRC) is copied from the previous image. This
// harness measures what that buys on the canonical "mostly cold state"
// profile: a guest that wrote a large burst of branch-store data early on
// (the cold chunk) and then settled into a timer-driven steady state. A full
// capture serializes the cold chunk every checkpoint; with reuse it is
// serialized once and copied afterwards.
//
// Each capture is held frozen and checked against a reference built at the
// same instant by a plain CheckpointImageBuilder::Add of every component:
// each component chunk of the published image must equal the reference's.
// The engine then resumes, and the published image is restored into a fresh
// node whose digest must equal the original node's after its resume.
//
//   $ ./build/bench/tab_delta_capture [--json]
//
// Exit code is non-zero when a chunk or a restore digest mismatches, no chunk
// is reused, a steady-state chunk was re-serialized although its bytes had
// not changed (a component without a working version counter), or the
// steady-state image-to-fresh-bytes ratio falls below 5x.

#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/checkpoint/local_checkpoint.h"
#include "src/guest/node.h"
#include "src/sim/image.h"
#include "src/sim/simulator.h"

using namespace tcsim;

namespace {

constexpr uint64_t kColdOps = 96;          // burst write operations
constexpr uint64_t kBlocksPerOp = 64;      // blocks per burst write
constexpr int kCaptures = 8;               // checkpoints in the steady phase
constexpr SimTime kCaptureSpacing = 500 * kMillisecond;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

NodeConfig BenchNodeConfig() {
  NodeConfig cfg;
  cfg.name = "delta-bench";
  cfg.id = 1;
  cfg.domain.memory_bytes = 128ull * 1024 * 1024;
  return cfg;
}

CheckpointPolicy BenchPolicy() {
  CheckpointPolicy policy;
  policy.resume_timer_latency = 0;  // digests must be reproducible
  return policy;
}

// Observable state of a node right after a resume; a restored node resumes
// at the saved instant, so its digest must equal the original's.
uint64_t NodeDigest(const Simulator& sim, ExperimentNode& node) {
  uint64_t h = 0xCBF29CE484222325ull;
  const auto mix = [&h](uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  };
  mix(static_cast<uint64_t>(sim.Now()));
  mix(static_cast<uint64_t>(node.domain().VirtualNow()));
  mix(static_cast<uint64_t>(node.kernel().GetTimeOfDay()));
  mix(node.store().current_delta_blocks());
  mix(node.store().aggregated_delta_blocks());
  return h;
}

using ChunkMap = std::map<std::string, std::vector<uint8_t>>;

ChunkMap ChunksOf(const std::vector<uint8_t>& image) {
  ChunkMap chunks;
  const CheckpointImageView view(image);
  for (const std::string& id : view.ChunkIds()) {
    chunks[id] = view.Chunk(id);
  }
  return chunks;
}

struct Capture {
  CaptureStats stats;
  double wall_s = 0;             // the capture itself, checks excluded
  double reference_s = 0;       // plain full serialization of the components
  bool chunks_match = false;    // published chunks == reference chunks
  size_t unchanged_chunks = 0;  // reference chunks equal to the previous ones
  uint64_t digest = 0;          // original node, right after resume
  std::shared_ptr<const std::vector<uint8_t>> image;
};

// Restores `image` into a fresh node and returns its state digest, or 0 on
// restore failure (0 never collides with a real digest in practice — the
// mixer never returns the FNV basis untouched).
uint64_t RestoreDigest(const std::vector<uint8_t>& image) {
  Simulator sim;
  ExperimentNode node(&sim, Rng(7), BenchNodeConfig());
  LocalCheckpointEngine engine(&sim, &node, BenchPolicy());
  if (!engine.RestoreImage(image)) {
    return 0;
  }
  engine.ResumeRestored();
  return NodeDigest(sim, node);
}

std::vector<Capture> RunCaptures() {
  Simulator sim;
  ExperimentNode node(&sim, Rng(7), BenchNodeConfig());
  LocalCheckpointEngine engine(&sim, &node, BenchPolicy());
  std::vector<Checkpointable*> components;
  node.AppendCheckpointables(&components);

  // Phase 1: the cold chunk — a burst of branch-store writes, chained on
  // completion so the block frontend is drained before any capture.
  uint64_t ops_done = 0;
  std::function<void()> issue = [&] {
    if (ops_done == kColdOps) {
      return;
    }
    std::vector<uint64_t> contents(kBlocksPerOp, 0xC01Dull + ops_done);
    node.kernel().block().Write(4096 + ops_done * kBlocksPerOp, contents, [&] {
      ++ops_done;
      issue();
    });
  };
  sim.Schedule(10 * kMillisecond, [&] { issue(); });

  // Phase 2: steady state — a timer loop with no further disk writes; the
  // branch-store chunk stops changing and is reused from then on.
  std::function<void()> tick = [&] {
    node.kernel().Usleep(5 * kMillisecond, [&] { tick(); });
  };
  sim.Schedule(20 * kMillisecond, [&] { tick(); });

  sim.RunUntil(2 * kSecond);

  std::vector<Capture> captures;
  ChunkMap previous_reference;
  for (int k = 0; k < kCaptures; ++k) {
    Capture cap;
    bool done = false;
    double check_s = 0;  // time spent on the comparisons below
    const auto t0 = std::chrono::steady_clock::now();
    engine.CheckpointAtLocal(
        node.clock().LocalNow() + kMillisecond,
        [&](const LocalCheckpointRecord&) {
          // Held: the state is frozen at the saved instant.
          const auto r0 = std::chrono::steady_clock::now();
          CheckpointImageBuilder reference;
          for (const Checkpointable* c : components) {
            reference.Add(*c);
          }
          const ChunkMap expected = ChunksOf(reference.Serialize());
          cap.reference_s = SecondsSince(r0);

          cap.image = engine.last_image();  // commits a two-phase capture
          cap.stats = engine.last_capture_stats();
          const auto c0 = std::chrono::steady_clock::now();
          ChunkMap published = ChunksOf(*cap.image);
          published.erase("sim.time");  // engine metadata, not a component
          cap.chunks_match = published == expected;
          for (const auto& [id, bytes] : expected) {
            const auto it = previous_reference.find(id);
            if (it != previous_reference.end() && it->second == bytes) {
              ++cap.unchanged_chunks;
            }
          }
          previous_reference = expected;
          check_s = cap.reference_s + SecondsSince(c0);

          engine.ResumeNow();
          cap.digest = NodeDigest(sim, node);
          done = true;
        });
    while (!done) {
      sim.RunUntil(sim.Now() + kMillisecond);
    }
    cap.wall_s = SecondsSince(t0) - check_s;
    captures.push_back(std::move(cap));
    sim.RunUntil(sim.Now() + kCaptureSpacing);
  }
  return captures;
}

// Mean of `field` over the steady-state captures (all but the first, which
// has no previous image to reuse from).
template <typename F>
double SteadyMean(const std::vector<Capture>& caps, F field) {
  double total = 0;
  for (size_t i = 1; i < caps.size(); ++i) {
    total += static_cast<double>(field(caps[i]));
  }
  return total / static_cast<double>(caps.size() - 1);
}

}  // namespace

int main(int argc, char** argv) {
  BenchMain bm(argc, argv, "tab_delta_capture");

  const std::vector<Capture> caps = RunCaptures();

  bool chunks_match = true;
  bool restores_match = true;
  size_t steady_reserialized = 0;  // unchanged chunks that were not reused
  for (size_t k = 0; k < caps.size(); ++k) {
    chunks_match = chunks_match && caps[k].chunks_match;
    const uint64_t restored = RestoreDigest(*caps[k].image);
    restores_match = restores_match && restored != 0 &&
                     restored == caps[k].digest;
    // A reused chunk is an unchanged one whenever the chunks match.
    if (k > 0 && caps[k].unchanged_chunks > caps[k].stats.reused_chunks) {
      steady_reserialized +=
          caps[k].unchanged_chunks - caps[k].stats.reused_chunks;
    }
  }

  const double image_bytes = SteadyMean(
      caps, [](const Capture& c) { return c.stats.serialized_bytes; });
  const double fresh_bytes =
      SteadyMean(caps, [](const Capture& c) { return c.stats.fresh_bytes; });
  const double ratio = fresh_bytes > 0 ? image_bytes / fresh_bytes : 0;
  const CaptureStats& last = caps.back().stats;

  PrintHeader("tab_delta_capture",
              "chunk reuse vs fresh serialization (cold burst + steady "
              "timers)");

  PrintSection("bytes per checkpoint (steady state)");
  PrintValue("published image", image_bytes, "B");
  PrintValue("serialized fresh", fresh_bytes, "B");
  PrintValue("reduction", ratio, "x");
  PrintValue("first capture serialized fresh",
             static_cast<double>(caps.front().stats.fresh_bytes), "B");

  PrintSection("capture latency (host wall clock, steady state)");
  PrintValue("capture with chunk reuse",
             1e3 * SteadyMean(caps, [](const Capture& c) { return c.wall_s; }),
             "ms");
  PrintValue("full serialization of the same state",
             1e3 * SteadyMean(caps,
                              [](const Capture& c) { return c.reference_s; }),
             "ms");

  PrintSection("chunk reuse (last capture)");
  PrintValue("payload chunks serialized",
             static_cast<double>(last.payload_chunks), "");
  PrintValue("reused chunks", static_cast<double>(last.reused_chunks), "");
  PrintValue("version-counter skips (no SaveState run)",
             static_cast<double>(last.version_skips), "");
  // With every registered component carrying a real version counter, an
  // unchanged chunk is reused, never re-serialized. A nonzero count means
  // some component lost (or never gained) its counter and pays a full
  // serialization per capture just to produce the same bytes.
  PrintValue("steady-state unchanged chunks re-serialized (must be 0)",
             static_cast<double>(steady_reserialized), "");

  PrintNote(chunks_match
                ? "every published chunk equals a fresh SaveState at the "
                  "same instant"
                : "CHUNK MISMATCH between published image and fresh "
                  "SaveState");
  PrintNote(restores_match
                ? "every image restores to the original's digest"
                : "RESTORE DIGEST MISMATCH");

  {
    std::string rows = "[\n";
    for (size_t k = 0; k < caps.size(); ++k) {
      const CaptureStats& s = caps[k].stats;
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "    {\"capture\": %zu, \"image_bytes\": %zu, "
                    "\"fresh_bytes\": %zu, \"payload_chunks\": %zu, "
                    "\"reused_chunks\": %zu, \"version_skips\": %zu}%s\n",
                    k, s.serialized_bytes, s.fresh_bytes, s.payload_chunks,
                    s.reused_chunks, s.version_skips,
                    k + 1 < caps.size() ? "," : "");
      rows += buf;
    }
    rows += "  ]";
    BenchReport& report = BenchReport::Instance();
    report.AddExtra("captures", rows);
    report.AddExtra("chunks_match", chunks_match ? "true" : "false");
    report.AddExtra("restores_match", restores_match ? "true" : "false");
    report.AddExtra("steady_reserialized_zero",
                    steady_reserialized == 0 ? "true" : "false");
  }

  const char* failure = !chunks_match               ? "published chunk mismatch"
                        : !restores_match           ? "restore digests mismatch"
                        : last.reused_chunks == 0   ? "no chunk reused"
                        : steady_reserialized != 0  ? "unchanged chunks re-serialized"
                        : ratio < 5.0               ? "bytes reduction below 5x"
                                                    : nullptr;
  if (failure != nullptr && !JsonQuiet()) {
    std::printf("\nFAIL: %s\n", failure);
  }
  return bm.Finish(failure == nullptr ? 0 : 1);
}
