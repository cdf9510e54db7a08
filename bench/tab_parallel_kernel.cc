// Parallel event kernel: events/sec and checkpoint-epoch cost vs partition
// count, with the digest-oracle identity check inline.
//
// For each partition count p in the sweep, the same generated topology (100
// hosts by default, fat-tree or multi-LAN zones) is run twice: once on the
// sequential oracle (workers = 0) and once on the worker pool (workers =
// p - 1, i.e. p-way including the coordinator). Both runs checkpoint at every
// epoch barrier. The bench FAILS (non-zero exit) unless, for every p, the
// parallel run's merged event digest AND the fold over all captured
// checkpoint images are bit-identical to the oracle's — the acceptance
// criterion of the partitioned kernel.
//
//   $ ./build/bench/tab_parallel_kernel [--json] [--hosts=N] [--partitions=P]
//        [--shape=fattree|zones] [--epoch-ms=E] [--sim-ms=T]
//
// Speedup is reported against the p=1 sequential baseline. On a single
// hardware thread the honest number is <= 1; the digest identity is the
// machine-independent claim.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/checkpoint/epoch_coordinator.h"
#include "src/net/topology.h"
#include "src/repo/checkpoint_repo.h"
#include "src/sim/digest.h"
#include "src/sim/scheduler.h"
#include "src/sim/time.h"
#include "tools/analyze.h"

using namespace tcsim;

namespace {

struct RunResult {
  uint64_t event_digest = 0;
  uint64_t behavior_digest = 0;
  uint64_t captures_digest = 0;
  uint64_t total_events = 0;
  uint64_t cross_events = 0;
  uint64_t windows = 0;
  uint64_t guard_violations = 0;
  uint64_t epoch_image_bytes = 0;  // per epoch (all partitions)
  double epoch_wall_ms = 0;        // mean capture cost per epoch
  size_t partitions = 0;
  size_t epochs = 0;
  double wall_s = 0;
  double events_per_sec = 0;
};

RunResult RunOnce(const GeneratedTopologyParams& params, uint32_t partitions,
                  uint32_t workers, SimTime horizon, SimTime epoch_period) {
  auto topo = GeneratedTopology::Build(params, partitions, workers);
  PartitionEpochCoordinator epochs(
      topo->scheduler(), epoch_period,
      [&topo](Partition* p) { return topo->CapturePartitionImage(p->id()); });

  const auto start = std::chrono::steady_clock::now();
  epochs.RunUntil(horizon);
  const auto stop = std::chrono::steady_clock::now();

  RunResult r;
  r.event_digest = topo->EventDigest();
  r.behavior_digest = topo->BehaviorDigest();
  r.captures_digest = epochs.CapturesDigest();
  r.total_events = topo->TotalEvents();
  r.cross_events = topo->scheduler()->stats().cross_events;
  r.windows = topo->scheduler()->stats().windows;
  r.guard_violations = topo->scheduler()->GuardViolations();
  r.partitions = topo->partition_count();
  r.epochs = epochs.history().size();
  for (const auto& rec : epochs.history()) {
    r.epoch_image_bytes += rec.image_bytes;
    r.epoch_wall_ms += rec.wall_ms;
  }
  if (r.epochs > 0) {
    r.epoch_image_bytes /= r.epochs;
    r.epoch_wall_ms /= static_cast<double>(r.epochs);
  }
  r.wall_s = std::chrono::duration<double>(stop - start).count();
  r.events_per_sec =
      r.wall_s > 0 ? static_cast<double>(r.total_events) / r.wall_s : 0;
  return r;
}

uint64_t FlagU64(int argc, char** argv, const char* flag, uint64_t fallback) {
  const char* v = FlagValue(argc, argv, flag);
  return (v != nullptr && *v != '\0') ? std::strtoull(v, nullptr, 10)
                                      : fallback;
}

// Epoch spill cost: the same checkpointed run with a durable repository
// attached to the coordinator — every epoch's captures group-commit through
// the shared write batch while the workers stage concurrently. Run in both
// capture modes: synchronous (serialize + commit inside the barrier) and
// two-phase (freeze only; serialize/commit on the background thread). The
// captures digest must match between them.
struct SpillRunResult {
  size_t epochs = 0;
  uint64_t epoch_image_bytes = 0;  // mean per epoch
  double capture_ms = 0;           // mean per epoch
  double spill_ms = 0;             // mean per epoch (the group commit)
  double frozen_ms = 0;            // mean barrier occupancy per epoch
  uint64_t captures_digest = 0;
  bool spill_ok = true;            // every epoch committed
  bool reopen_ok = false;          // a fresh process saw identical bytes
  tools::LedgerAttribution ledger;
};

SpillRunResult RunSpill(GeneratedTopologyParams params, uint32_t hosts,
                        bool async, SimTime horizon, SimTime epoch_period) {
  namespace fs = std::filesystem;
  params.hosts = hosts;
  const fs::path dir = fs::temp_directory_path() /
                       ("tcsim_bench_parallel_spill_" + std::to_string(hosts) +
                        (async ? "_async" : "_sync"));
  std::error_code ec;
  fs::remove_all(dir, ec);
  std::string err;
  SpillRunResult r;
  std::unique_ptr<CheckpointRepo> repo =
      CheckpointRepo::Open(dir.string(), RepoOptions{}, &err);
  if (repo == nullptr) {
    r.spill_ok = false;
    return r;
  }
  auto topo = GeneratedTopology::Build(params, /*partitions=*/4, /*workers=*/3);
  PartitionEpochCoordinator epochs(
      topo->scheduler(), epoch_period,
      [&topo](Partition* p) { return topo->CapturePartitionImage(p->id()); });
  if (async) {
    epochs.EnableAsyncCapture([&topo](Partition* p, StagedCapture* out) {
      topo->SnapshotPartition(p->id(), out);
    });
  }
  epochs.AttachRepository(repo.get());
  r.ledger =
      tools::AttributeRun([&epochs, horizon] { epochs.RunUntil(horizon); });

  r.epochs = epochs.history().size();
  for (const auto& rec : epochs.history()) {
    r.epoch_image_bytes += rec.image_bytes;
    r.capture_ms += rec.wall_ms;
    r.spill_ms += rec.spill_wall_ms;
    r.frozen_ms += async ? rec.frozen_wall_ms + rec.commit_wait_ms
                         : rec.wall_ms + rec.spill_wall_ms;
    r.spill_ok = r.spill_ok && rec.spill_ok;
  }
  if (r.epochs > 0) {
    r.epoch_image_bytes /= r.epochs;
    r.capture_ms /= static_cast<double>(r.epochs);
    r.spill_ms /= static_cast<double>(r.epochs);
    r.frozen_ms /= static_cast<double>(r.epochs);
  }
  r.captures_digest = epochs.CapturesDigest();

  auto fold = [](CheckpointRepo* c) {
    Fnv1aDigest folded;
    for (const uint64_t handle : c->LiveHandles()) {
      const std::vector<uint8_t> out = c->Materialize(handle);
      folded.MixBytes(out.data(), out.size());
    }
    return folded.value();
  };
  const uint64_t before = fold(repo.get());
  repo.reset();
  std::unique_ptr<CheckpointRepo> reopened =
      CheckpointRepo::Open(dir.string(), RepoOptions{}, &err);
  r.reopen_ok = reopened != nullptr && fold(reopened.get()) == before;
  reopened.reset();
  fs::remove_all(dir, ec);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  BenchMain bm(argc, argv, "tab_parallel_kernel");

  GeneratedTopologyParams params;
  params.hosts = static_cast<uint32_t>(FlagU64(argc, argv, "--hosts", 100));
  const char* shape = FlagValue(argc, argv, "--shape");
  if (shape != nullptr && std::string(shape) == "zones") {
    params.shape = TopologyShape::kMultiLanZones;
  }
  const uint32_t max_partitions =
      static_cast<uint32_t>(FlagU64(argc, argv, "--partitions", 4));
  const SimTime horizon =
      static_cast<SimTime>(FlagU64(argc, argv, "--sim-ms", 200)) * kMillisecond;
  const SimTime epoch_period =
      static_cast<SimTime>(FlagU64(argc, argv, "--epoch-ms", 50)) * kMillisecond;

  std::vector<uint32_t> sweep;
  for (uint32_t p = 1; p <= max_partitions; p *= 2) {
    sweep.push_back(p);
  }
  if (sweep.back() != max_partitions) {
    sweep.push_back(max_partitions);
  }

  PrintHeader("tab_parallel_kernel",
              "partitioned kernel: digest oracle, events/sec and "
              "checkpoint-epoch cost vs partition count");

  bool ok = true;
  double baseline_eps = 0;
  std::string rows = "[\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const uint32_t p = sweep[i];
    const RunResult oracle = RunOnce(params, p, /*workers=*/0, horizon,
                                     epoch_period);
    const RunResult parallel = RunOnce(params, p, /*workers=*/p - 1, horizon,
                                       epoch_period);

    const bool digest_ok = oracle.event_digest == parallel.event_digest &&
                           oracle.captures_digest == parallel.captures_digest &&
                           oracle.behavior_digest == parallel.behavior_digest &&
                           oracle.total_events == parallel.total_events;
    const bool guards_ok =
        oracle.guard_violations == 0 && parallel.guard_violations == 0;
    ok = ok && digest_ok && guards_ok;
    if (p == 1) {
      baseline_eps = oracle.events_per_sec;
    }
    const double speedup =
        baseline_eps > 0 ? parallel.events_per_sec / baseline_eps : 0;

    char section[96];
    std::snprintf(section, sizeof section, "partitions = %u (%zu effective)",
                  p, oracle.partitions);
    PrintSection(section);
    PrintValue("events", static_cast<double>(oracle.total_events), "");
    PrintValue("cross-partition events",
               static_cast<double>(oracle.cross_events), "");
    PrintValue("conservative windows", static_cast<double>(oracle.windows), "");
    PrintValue("oracle events/sec", oracle.events_per_sec, "ev/s");
    PrintValue("parallel events/sec", parallel.events_per_sec, "ev/s");
    PrintValue("speedup vs p=1 sequential", speedup, "x");
    PrintValue("checkpoint epochs", static_cast<double>(parallel.epochs), "");
    PrintValue("epoch image bytes",
               static_cast<double>(parallel.epoch_image_bytes), "B");
    PrintValue("epoch capture cost (parallel)", parallel.epoch_wall_ms, "ms");
    PrintValue("epoch capture cost (oracle)", oracle.epoch_wall_ms, "ms");
    PrintNote(digest_ok ? "digest merge bit-identical to sequential oracle"
                        : "DIGEST MISMATCH vs sequential oracle");
    if (!guards_ok) {
      PrintNote("QUEUE GUARD VIOLATIONS detected");
    }
    BenchReport::Instance().RecordDigest(parallel.event_digest);

    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "    {\"partitions\": %u, \"effective\": %zu, \"events\": %llu, "
        "\"cross_events\": %llu, \"windows\": %llu, "
        "\"oracle_events_per_sec\": %.0f, \"parallel_events_per_sec\": %.0f, "
        "\"speedup\": %.3f, \"epochs\": %zu, \"epoch_image_bytes\": %llu, "
        "\"epoch_wall_ms\": %.3f, \"digest_ok\": %s}%s\n",
        p, oracle.partitions, static_cast<unsigned long long>(oracle.total_events),
        static_cast<unsigned long long>(oracle.cross_events),
        static_cast<unsigned long long>(oracle.windows),
        oracle.events_per_sec, parallel.events_per_sec, speedup,
        parallel.epochs, static_cast<unsigned long long>(parallel.epoch_image_bytes),
        parallel.epoch_wall_ms, digest_ok ? "true" : "false",
        i + 1 < sweep.size() ? "," : "");
    rows += buf;
  }
  rows += "  ]";
  BenchReport::Instance().AddExtra("partition_sweep", rows);
  BenchReport::Instance().AddExtra("digest_oracle_ok", ok ? "true" : "false");

  // Epoch spill cost at 100 and 1000 hosts: 4 partitions, 3 workers, one
  // group commit per epoch, gated by a byte-identical cross-process reopen.
  // Both capture modes run; the two-phase run's captures digest must match
  // the synchronous one's (async_capture_ok).
  bool async_ok = true;
  bool coverage_ok = true;
  double min_coverage = 1.0;
  std::string spill_rows = "[\n";
  const uint32_t spill_hosts[] = {100, 1000};
  for (size_t i = 0; i < 2; ++i) {
    const SpillRunResult spill = RunSpill(params, spill_hosts[i],
                                          /*async=*/false, horizon,
                                          epoch_period);
    const SpillRunResult aspill = RunSpill(params, spill_hosts[i],
                                           /*async=*/true, horizon,
                                           epoch_period);
    const bool mode_ok = spill.captures_digest == aspill.captures_digest &&
                         spill.epochs == aspill.epochs;
    async_ok = async_ok && mode_ok && aspill.spill_ok && aspill.reopen_ok;
    ok = ok && spill.spill_ok && spill.reopen_ok && mode_ok;

    char section[64];
    std::snprintf(section, sizeof section, "epoch spill, %u hosts",
                  spill_hosts[i]);
    PrintSection(section);
    PrintValue("epochs spilled", static_cast<double>(spill.epochs), "");
    PrintValue("epoch image bytes",
               static_cast<double>(spill.epoch_image_bytes), "B");
    PrintValue("epoch capture cost", spill.capture_ms, "ms");
    PrintValue("epoch spill cost (group commit)", spill.spill_ms, "ms");
    PrintValue("frozen window, sync", spill.frozen_ms, "ms");
    PrintValue("frozen window, two-phase", aspill.frozen_ms, "ms");
    PrintValue("ledger coverage (two-phase, min epoch)",
               aspill.ledger.min_coverage, "");
    PrintValue("straggler slack (mean)", aspill.ledger.straggler_slack_ms,
               "ms");
    const bool cover_ok = spill.ledger.ok && aspill.ledger.ok &&
                          spill.ledger.min_coverage >= 0.95 &&
                          aspill.ledger.min_coverage >= 0.95;
    coverage_ok = coverage_ok && cover_ok;
    min_coverage = std::min(
        {min_coverage, spill.ledger.min_coverage, aspill.ledger.min_coverage});
    PrintNote(spill.spill_ok && spill.reopen_ok
                  ? "all epochs committed; reopen byte-identical"
                  : "EPOCH SPILL FAILED OR DIVERGED ON REOPEN");
    PrintNote(mode_ok ? "two-phase captures digest matches synchronous"
                      : "ASYNC CAPTURE DIVERGED from synchronous");

    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "    {\"hosts\": %u, \"epochs\": %zu, \"epoch_image_bytes\": %llu, "
        "\"capture_ms\": %.3f, \"spill_ms\": %.3f, \"sync_frozen_ms\": %.3f, "
        "\"async_frozen_ms\": %.3f, \"spill_ok\": %s, \"reopen_ok\": %s, "
        "\"async_capture_ok\": %s, \"ledger_coverage\": %.3f, "
        "\"straggler_partition\": %d, \"straggler_slack_ms\": %.3f}%s\n",
        spill_hosts[i], spill.epochs,
        static_cast<unsigned long long>(spill.epoch_image_bytes),
        spill.capture_ms, spill.spill_ms, spill.frozen_ms, aspill.frozen_ms,
        spill.spill_ok ? "true" : "false",
        spill.reopen_ok ? "true" : "false", mode_ok ? "true" : "false",
        aspill.ledger.min_coverage, aspill.ledger.straggler_partition,
        aspill.ledger.straggler_slack_ms, i == 0 ? "," : "");
    spill_rows += buf;
  }
  spill_rows += "  ]";
  BenchReport::Instance().AddExtra("epoch_spill", spill_rows);
  BenchReport::Instance().AddExtra("async_capture_ok",
                                   async_ok ? "true" : "false");
  {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", min_coverage);
    BenchReport::Instance().AddExtra("ledger_min_coverage", buf);
  }
  BenchReport::Instance().AddExtra("ledger_coverage_ok",
                                   coverage_ok ? "true" : "false");
  ok = ok && coverage_ok;

  if (!ok && !JsonQuiet()) {
    std::printf("\nFAIL: %s\n",
                coverage_ok
                    ? "parallel run diverged from the sequential oracle"
                    : "ledger attribution below 95% of epoch wall time");
  }
  return bm.Finish(ok ? 0 : 1);
}
