// tcsim_perf: one seeded tcsim experiment per process, timed from outside.
//
// Each workload drives the simulator only through its public API
// (GeneratedTopology, PartitionEpochCoordinator::StepEpoch, CheckpointRepo,
// ha::MicroCheckpointer, Experiment::StatefulSwapOut/In), times those calls
// with a steady clock, checks the experiment's outputs, and prints one JSON
// object of raw samples on stdout. Percentiles, failure ratios and the
// metric names live in run.py, which reads this object; nothing here
// aggregates a timing beyond summing it.
//
//   tcsim_perf --workload W --seed N --seconds S --workdir DIR [--spans FILE]
//
// --seconds sizes the work, not a deadline: every workload maps it to a fixed
// amount of simulated work (kNominal* below), so two builds run identical
// experiments and differ only in how long they take. --spans turns on the
// traced run: one span per public call, kept in memory and written to FILE
// as JSON lines at exit.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/diskbench.h"
#include "src/checkpoint/epoch_coordinator.h"
#include "src/emulab/experiment.h"
#include "src/emulab/experiment_spec.h"
#include "src/emulab/external_observer.h"
#include "src/emulab/testbed.h"
#include "src/ha/fault_injector.h"
#include "src/ha/micro_checkpointer.h"
#include "src/net/topology.h"
#include "src/repo/checkpoint_repo.h"
#include "src/sim/digest.h"
#include "src/sim/image.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/staging.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"

#ifndef TCSIM_PERF_BUILD_TYPE
#define TCSIM_PERF_BUILD_TYPE "unknown"
#endif

namespace tcsim {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// Kernel parallelism of every partitioned workload: four partitions, run by
// the coordinator thread plus three workers (a 4-core host).
constexpr uint32_t kPartitions = 4;
constexpr uint32_t kWorkers = 3;

// Work per requested second, measured on a 4-core x86 host at the commit
// that introduced this benchmark (RelWithDebInfo, asserts on).
constexpr double kNominalFattreeSimMsPerSecond = 50.0;
constexpr double kNominalEpochRoundSeconds = 25.0;
constexpr double kNominalHaProtectRoundSeconds = 2.5;
constexpr double kNominalHaFailoverRoundSeconds = 12.0;
constexpr double kNominalSwapRoundSeconds = 1.9;

// Set-up is repeated this many times per run (each round sets up once, extra
// set-ups make up the rest); setup_s is the median of their process CPU
// times. Set-ups take milliseconds, so one sample alone is mostly noise.
constexpr int kSetups = 41;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// CPU time of the whole process (every thread), in ms.
double CpuMs() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof usage);
  getrusage(RUSAGE_SELF, &usage);
  return (static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1e3 +
          static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e3);
}

// --- Spans ----------------------------------------------------------------------
//
// The traced run's record of public calls. Spans of one epoch,
// micro-checkpoint period or swap cycle share a group id; a span's parent is
// the span open on the same thread, or the one named explicitly for work a
// call fans out to worker threads. Everything stays in memory until WriteSpans.

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t group = 0;
  const char* layer = "";
  const char* name = "";
  const char* phase = "";
  uint32_t thread = 0;
  double t0_ms = 0;
  double t1_ms = 0;
};

class SpanLog {
 public:
  static SpanLog& Get() {
    static SpanLog log;
    return log;
  }

  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  // Phase of the run new spans belong to: "setup", "timed" or "check".
  void SetPhase(const char* phase) { phase_.store(phase); }
  void SetGroup(uint64_t group) { group_.store(group); }
  uint64_t group() const { return group_.load(); }

  double NowMs() const { return MsSince(origin_); }

  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

  void Record(Span span) {
    span.phase = phase_.load();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"id\": %llu, \"parent\": %llu, \"group\": %llu, "
                   "\"layer\": \"%s\", \"name\": \"%s\", \"phase\": \"%s\", "
                   "\"thread\": %u, \"t0_ms\": %.6f, \"t1_ms\": %.6f}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.group), s.layer, s.name,
                   s.phase, s.thread, s.t0_ms, s.t1_ms);
    }
    return std::fclose(f) == 0;
  }

 private:
  SpanLog() = default;

  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::atomic<const char*> phase_{"setup"};
  std::atomic<uint64_t> group_{0};
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

thread_local uint64_t t_open_span = 0;

// Records one span around its scope when tracing is on; a no-op otherwise.
class ScopedSpan {
 public:
  ScopedSpan(const char* layer, const char* name, uint64_t parent = 0) {
    SpanLog& log = SpanLog::Get();
    if (!log.enabled()) {
      return;
    }
    span_.id = log.NextId();
    span_.parent = parent != 0 ? parent : t_open_span;
    span_.group = log.group();
    span_.layer = layer;
    span_.name = name;
    span_.thread = ThreadIndex();
    saved_open_ = t_open_span;
    t_open_span = span_.id;
    span_.t0_ms = log.NowMs();
  }

  ~ScopedSpan() {
    if (span_.id == 0) {
      return;
    }
    SpanLog& log = SpanLog::Get();
    span_.t1_ms = log.NowMs();
    t_open_span = saved_open_;
    log.Record(span_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Span span_;
  uint64_t saved_open_ = 0;
};

// --- Result ---------------------------------------------------------------------

struct Result {
  std::vector<double> setup_s;
  std::vector<double> round_peak_rss_mb;  // one per timed round
  double timed_s = 0;  // host wall of the timed sections, summed
  double sim_ms = 0;   // simulated ms those sections advanced
  std::vector<bool> op_ok;  // one entry per attempted operation
  std::vector<std::string> failures;
  std::map<std::string, std::vector<double>> samples;  // raw, per operation
  std::map<std::string, double> values;
  std::map<std::string, std::string> threads;

  void Fail(const std::string& why) { failures.push_back(why); }
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string JsonNumbers(const std::vector<double>& vs) {
  std::string out = "[";
  for (size_t i = 0; i < vs.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonNumber(vs[i]);
  }
  return out + "]";
}

// Whether ResetPeakRss could restart the kernel's peak-RSS count; if not,
// every round's peak is the process peak so far.
bool g_peak_rss_reset = true;

// Peak resident set since the last ResetPeakRss (or since the start), in MB.
double PeakRssMb() {
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kib = -1;
    while (kib < 0 && std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) {
        kib = std::atof(line + 6);
      }
    }
    std::fclose(f);
    if (kib >= 0) {
      return kib / 1024.0;
    }
  }
  struct rusage usage;
  std::memset(&usage, 0, sizeof usage);
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Starts a new peak-RSS interval. Freed heap is handed back first: what the
// worker threads' malloc arenas kept from an earlier round would otherwise
// add a varying amount (up to ~40 MB on ha_protect) to the next one's peak.
void ResetPeakRss() {
  malloc_trim(0);
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  // "5" resets the peak resident set to the current one.
  if (f == nullptr || std::fputs("5", f) < 0) {
    g_peak_rss_reset = false;
  }
  if (f != nullptr && std::fclose(f) != 0) {
    g_peak_rss_reset = false;
  }
}

void PrintResult(const std::string& workload, uint64_t seed,
                 const Result& r) {
  std::string out = "{";
  out += "\"workload\": " + JsonString(workload);
  out += ", \"seed\": " + std::to_string(seed);
  out += ", \"fingerprint\": {\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"build_type\": " + JsonString(TCSIM_PERF_BUILD_TYPE) +
#ifdef NDEBUG
         ", \"asserts\": false" +
#else
         ", \"asserts\": true" +
#endif
#ifdef __clang__
         ", \"compiler\": " + JsonString("clang " __clang_version__) +
#else
         ", \"compiler\": " + JsonString("gcc " __VERSION__) +
#endif
         ", \"peak_rss_reset\": " + (g_peak_rss_reset ? "true" : "false") +
         ", \"threads\": {";
  bool first = true;
  for (const auto& [k, v] : r.threads) {
    out += (first ? "" : ", ") + JsonString(k) + ": " + v;
    first = false;
  }
  out += "}}";
  out += ", \"setup_s\": " + JsonNumbers(r.setup_s);
  out += ", \"timed_s\": " + JsonNumber(r.timed_s);
  out += ", \"sim_ms\": " + JsonNumber(r.sim_ms);
  out += ", \"round_peak_rss_mb\": " + JsonNumbers(r.round_peak_rss_mb);
  out += ", \"op_ok\": [";
  for (size_t i = 0; i < r.op_ok.size(); ++i) {
    out += (i == 0 ? "" : ", ") + std::string(r.op_ok[i] ? "true" : "false");
  }
  out += "], \"failures\": [";
  for (size_t i = 0; i < r.failures.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(r.failures[i]);
  }
  out += "], \"samples\": {";
  first = true;
  for (const auto& [k, v] : r.samples) {
    out += (first ? "" : ", ") + JsonString(k) + ": " + JsonNumbers(v);
    first = false;
  }
  out += "}, \"values\": {";
  first = true;
  for (const auto& [k, v] : r.values) {
    out += (first ? "" : ", ") + JsonString(k) + ": " + JsonNumber(v);
    first = false;
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
}

// --- Shared helpers ---------------------------------------------------------------

struct KernelCounters {
  uint64_t events = 0;
  uint64_t windows = 0;
  uint64_t cross_events = 0;
  uint64_t delivered = 0;
  uint64_t sent = 0;
};

KernelCounters ReadCounters(GeneratedTopology* topo) {
  KernelCounters c;
  c.events = topo->TotalEvents();
  c.windows = topo->scheduler()->stats().windows;
  c.cross_events = topo->scheduler()->stats().cross_events;
  c.delivered = topo->PacketsDelivered();
  c.sent = topo->PacketsSent();
  return c;
}

// Stores the timed section's kernel and packet-path counters (the sim and net
// layers' work) as values.
void RecordKernel(GeneratedTopology* topo, const KernelCounters& before,
                  Result* r) {
  const KernelCounters after = ReadCounters(topo);
  r->values["sim.events"] += static_cast<double>(after.events - before.events);
  r->values["sim.windows"] +=
      static_cast<double>(after.windows - before.windows);
  r->values["sim.cross_events"] +=
      static_cast<double>(after.cross_events - before.cross_events);
  r->values["net.packets_delivered"] +=
      static_cast<double>(after.delivered - before.delivered);
  r->values["net.packets_sent"] +=
      static_cast<double>(after.sent - before.sent);
  uint64_t max_events = 0;
  uint64_t total = 0;
  for (size_t i = 0; i < topo->partition_count(); ++i) {
    const uint64_t e = topo->partition_sim(i)->events_processed();
    max_events = std::max(max_events, e);
    total += e;
  }
  if (total > 0) {
    r->samples["sim.partition_skew"].push_back(
        static_cast<double>(max_events) * static_cast<double>(topo->partition_count()) /
        static_cast<double>(total));
  }
}

// Number of fixed-shape rounds a run of `seconds` holds.
int RoundsFor(double seconds, double nominal_round_seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds / nominal_round_seconds)));
}

// Runs the timed rounds (each sets up once) and enough extra set-ups that
// setup_s gets kSetups samples. The extras are spread before, between and
// after the rounds, so the median samples the machine over the whole run.
// Each round's peak resident set goes to r->round_peak_rss_mb.
void RunRounds(int rounds, const std::function<void()>& extra_setup,
               const std::function<void()>& round, Result* r) {
  const int extras = std::max(0, kSetups - rounds);
  int done = 0;
  for (int i = 0; i <= rounds; ++i) {
    for (const int until = extras * (i + 1) / (rounds + 1); done < until; ++done) {
      extra_setup();
    }
    if (i < rounds) {
      ResetPeakRss();
      round();
      r->round_peak_rss_mb.push_back(PeakRssMb());
    }
  }
}

// --- fattree_kernel -----------------------------------------------------------------
//
// 4k-host fat tree, default traffic, no checkpoints: the event kernel and the
// packet path do nearly all the work. The bench advances the run in
// lookahead-sized RunUntil slices. Check: at a prefix instant the event and
// behaviour digests equal those of the workers = 0 oracle over the same
// slices, and no queue guard fired over the whole run.

constexpr SimTime kFattreeOpTime = 10 * kMillisecond;

GeneratedTopologyParams FattreeParams(uint64_t seed) {
  GeneratedTopologyParams p;
  p.shape = TopologyShape::kFatTree;
  p.hosts = 4000;
  p.seed = seed;
  return p;
}

struct SliceDigest {
  uint64_t events = 0;
  uint64_t behavior = 0;
};

// Runs `topo` from 0 to `horizon` in lookahead slices, timing each (wall and
// process CPU) when the sample vectors are given. `check_at` is the slice
// boundary whose digests the caller compares with the oracle.
SliceDigest RunSlices(GeneratedTopology* topo, SimTime horizon,
                      SimTime check_at, std::vector<double>* slice_ms,
                      std::vector<double>* slice_cpu_ms) {
  const SimTime slice = topo->scheduler()->lookahead();
  SliceDigest d;
  SpanLog& log = SpanLog::Get();
  uint64_t index = 0;
  for (SimTime t = slice; t <= horizon; t += slice) {
    if (log.enabled()) {
      log.SetGroup(++index);
    }
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = slice_cpu_ms != nullptr ? CpuMs() : 0;
    {
      ScopedSpan span("sim", "GeneratedTopology::RunUntil");
      topo->RunUntil(t);
    }
    if (slice_ms != nullptr) {
      slice_ms->push_back(MsSince(t0));
      slice_cpu_ms->push_back(CpuMs() - cpu0);
    }
    if (t == check_at) {
      d.events = topo->EventDigest();
      d.behavior = topo->BehaviorDigest();
    }
  }
  return d;
}

void RunFattree(double seconds, uint64_t seed, Result* r) {
  const GeneratedTopologyParams params = FattreeParams(seed);
  r->threads = {{"partitions", std::to_string(kPartitions)},
                {"kernel_workers", std::to_string(kWorkers)},
                {"repo_hash_threads", "0"},
                {"commit_threads", "0"}};

  const auto build = [&params, r] {
    SpanLog::Get().SetPhase("setup");
    const double cpu0 = CpuMs();
    ScopedSpan span("net", "GeneratedTopology::Build");
    auto topo = GeneratedTopology::Build(params, kPartitions, kWorkers);
    r->setup_s.push_back((CpuMs() - cpu0) / 1000.0);
    return topo;
  };
  // One operation is kFattreeOpTime of simulated time: single lookahead
  // slices are too short to time steadily (sim.slice_ms keeps them).
  const auto ops = static_cast<SimTime>(std::max(
      20.0, std::round(seconds * kNominalFattreeSimMsPerSecond *
                       static_cast<double>(kMillisecond) /
                       static_cast<double>(kFattreeOpTime))));
  const SimTime horizon = ops * kFattreeOpTime;
  // The oracle replays the first tenth sequentially (about as long as the
  // parallel run takes for all of it).
  const SimTime check_at = std::max<SimTime>(1, ops / 10) * kFattreeOpTime;

  SliceDigest parallel;
  uint64_t guard_violations = 0;
  RunRounds(/*rounds=*/1, [&build] { build(); }, [&] {
    std::unique_ptr<GeneratedTopology> topo = build();
    const auto slices_per_op = static_cast<size_t>(
        kFattreeOpTime / topo->scheduler()->lookahead());
    SpanLog::Get().SetPhase("timed");
    const KernelCounters before = ReadCounters(topo.get());
    std::vector<double>& slice_ms = r->samples["sim.slice_ms"];
    std::vector<double> slice_cpu_ms;
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = CpuMs();
    parallel = RunSlices(topo.get(), horizon, check_at, &slice_ms, &slice_cpu_ms);
    r->timed_s = MsSince(t0) / 1000.0;
    r->values["timed_cpu_s"] += (CpuMs() - cpu0) / 1000.0;
    r->sim_ms = ToMilliseconds(horizon);
    RecordKernel(topo.get(), before, r);
    for (size_t i = 0; i + slices_per_op <= slice_ms.size(); i += slices_per_op) {
      double wall = 0, cpu = 0;
      for (size_t j = i; j < i + slices_per_op; ++j) {
        wall += slice_ms[j];
        cpu += slice_cpu_ms[j];
      }
      r->samples["op_ms"].push_back(wall);
      r->samples["op_cpu_ms"].push_back(cpu);
    }
    guard_violations = topo->scheduler()->GuardViolations();
  }, r);

  SpanLog::Get().SetPhase("check");
  auto oracle = GeneratedTopology::Build(params, kPartitions, /*workers=*/0);
  const SliceDigest expected =
      RunSlices(oracle.get(), check_at, check_at, nullptr, nullptr);
  bool ok = true;
  if (parallel.events != expected.events ||
      parallel.behavior != expected.behavior) {
    r->Fail("fattree_kernel: digest differs from the workers=0 oracle at " +
            std::to_string(ToMilliseconds(check_at)) + " sim ms");
    ok = false;
  }
  if (guard_violations != 0) {
    r->Fail("fattree_kernel: " + std::to_string(guard_violations) +
            " queue-guard violations");
    ok = false;
  }
  r->op_ok.push_back(ok);
}

// --- epoch_spill ----------------------------------------------------------------------
//
// 1k hosts with sparse traffic, 1 ms two-phase epochs stepped one at a time,
// every epoch group-committed into a CheckpointRepo (fsync off). Checkpoint,
// staging and repo dominate; the kernel is nearly idle. Check: every epoch
// spill_ok; the repo holds exactly the captured bytes (its materialized
// images fold to the coordinator's captures digest); and after close, a
// reopened repo materializes every image byte-identically.

constexpr size_t kEpochsPerRound = 200;
constexpr SimTime kEpochPeriod = kMillisecond;

GeneratedTopologyParams EpochParams(uint64_t seed) {
  GeneratedTopologyParams p;
  p.hosts = 1000;
  p.mean_send_gap = 2 * kMillisecond;
  p.seed = seed;
  return p;
}

// Members are declared before the coordinator that uses them, so it is
// destroyed (joining its commit thread) first.
struct EpochSetup {
  std::unique_ptr<CheckpointRepo> repo;
  std::unique_ptr<GeneratedTopology> topo;
  // Per-partition snapshot wall times, filled only on the traced run.
  std::mutex snapshot_mu;
  std::vector<double> snapshot_ms;  // guarded by snapshot_mu
  std::atomic<uint64_t> step_span{0};
  std::unique_ptr<PartitionEpochCoordinator> epochs;
};

std::unique_ptr<EpochSetup> BuildEpochSetup(const GeneratedTopologyParams& params,
                                            const fs::path& dir,
                                            Result* r) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  auto s = std::make_unique<EpochSetup>();
  const double cpu0 = CpuMs();
  std::string err;
  {
    ScopedSpan span("repo", "CheckpointRepo::Open");
    s->repo = CheckpointRepo::Open(dir.string(), RepoOptions{}, &err);
  }
  if (s->repo == nullptr) {
    r->Fail("epoch_spill: cannot open repository: " + err);
    return nullptr;
  }
  {
    ScopedSpan span("net", "GeneratedTopology::Build");
    s->topo = GeneratedTopology::Build(params, kPartitions, kWorkers);
  }
  GeneratedTopology* topo = s->topo.get();
  s->epochs = std::make_unique<PartitionEpochCoordinator>(
      topo->scheduler(), kEpochPeriod,
      [topo](Partition* p) { return topo->CapturePartitionImage(p->id()); });
  EpochSetup* raw = s.get();
  s->epochs->EnableAsyncCapture([topo, raw](Partition* p, StagedCapture* out) {
    if (!SpanLog::Get().enabled()) {
      topo->SnapshotPartition(p->id(), out);
      return;
    }
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span("ckpt", "GeneratedTopology::SnapshotPartition",
                      raw->step_span.load());
      topo->SnapshotPartition(p->id(), out);
    }
    const double ms = MsSince(t0);
    std::lock_guard<std::mutex> lock(raw->snapshot_mu);
    raw->snapshot_ms.push_back(ms);
  });
  s->epochs->AttachRepository(s->repo.get());
  r->setup_s.push_back((CpuMs() - cpu0) / 1000.0);
  return s;
}

// Materializes every live image of `repo` in handle order: per-handle digests
// (and wall ms, when `ms` is given) plus the fold of all bytes in that order.
std::map<uint64_t, uint64_t> MaterializeAll(CheckpointRepo* repo,
                                            Fnv1aDigest* fold,
                                            std::vector<double>* ms) {
  std::map<uint64_t, uint64_t> digests;
  for (uint64_t h : repo->LiveHandles()) {
    const Clock::time_point t0 = Clock::now();
    std::vector<uint8_t> bytes;
    {
      ScopedSpan span("repo", "CheckpointRepo::Materialize");
      bytes = repo->Materialize(h);
    }
    if (ms != nullptr) {
      ms->push_back(MsSince(t0));
    }
    Fnv1aDigest d;
    d.MixBytes(bytes.data(), bytes.size());
    digests[h] = bytes.empty() ? 0 : d.value();
    if (fold != nullptr) {
      // The repository re-frames images with its own header; rebuilt from
      // their chunks, captured images come back as the coordinator made them.
      const CheckpointImageView view(bytes);
      CheckpointImageBuilder rebuilt;
      if (view.ok()) {
        for (const std::string& id : view.ChunkIds()) {
          rebuilt.AddChunk(id, view.Chunk(id));
        }
      }
      const std::vector<uint8_t> captured = rebuilt.Serialize();
      fold->MixBytes(captured.data(), captured.size());
    }
  }
  return digests;
}

void RunEpochRound(const GeneratedTopologyParams& params, const fs::path& dir,
                   Result* r) {
  SpanLog& log = SpanLog::Get();
  log.SetPhase("setup");
  std::unique_ptr<EpochSetup> s = BuildEpochSetup(params, dir, r);
  if (s == nullptr) {
    r->op_ok.insert(r->op_ok.end(), kEpochsPerRound, false);
    return;
  }
  PartitionEpochCoordinator* epochs = s->epochs.get();
  const SimTime horizon = static_cast<SimTime>(kEpochsPerRound) * kEpochPeriod;

  log.SetPhase("timed");
  const KernelCounters before = ReadCounters(s->topo.get());
  const uint64_t written_before = s->repo->bytes_written();
  std::vector<double>& epoch_ms = r->samples["op_ms"];
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = CpuMs();
  for (size_t k = 1; k <= kEpochsPerRound; ++k) {
    log.SetGroup(k);
    const Clock::time_point e0 = Clock::now();
    const double e0_cpu = CpuMs();
    {
      ScopedSpan span("ckpt", "PartitionEpochCoordinator::StepEpoch");
      s->step_span.store(span.id());
      epochs->StepEpoch(horizon);
    }
    epoch_ms.push_back(MsSince(e0));
    r->samples["op_cpu_ms"].push_back(CpuMs() - e0_cpu);
  }
  {
    ScopedSpan span("ckpt", "PartitionEpochCoordinator::FinishCommits");
    epochs->FinishCommits();
  }
  r->timed_s += MsSince(t0) / 1000.0;
  r->values["timed_cpu_s"] += (CpuMs() - cpu0) / 1000.0;
  r->sim_ms += ToMilliseconds(horizon);
  RecordKernel(s->topo.get(), before, r);

  log.SetPhase("check");
  // A copy: the coordinator is destroyed before the repository is reopened.
  const std::vector<PartitionEpochCoordinator::EpochRecord> history =
      epochs->history();
  r->values["repo.bytes_written"] +=
      static_cast<double>(s->repo->bytes_written() - written_before);
  r->values["epochs"] += static_cast<double>(history.size());
  r->values["repo.logical_put_bytes"] +=
      static_cast<double>(s->repo->logical_put_bytes());
  r->values["repo.physical_put_bytes"] +=
      static_cast<double>(s->repo->physical_put_bytes());
  std::vector<double> spill_ms;
  for (const auto& rec : history) {
    r->samples["ckpt.frozen_ms"].push_back(rec.frozen_wall_ms);
    r->samples["ckpt.background_ms"].push_back(rec.background_wall_ms);
    r->samples["ckpt.commit_wait_ms"].push_back(rec.commit_wait_ms);
    r->samples["ckpt.image_bytes"].push_back(static_cast<double>(rec.image_bytes));
    spill_ms.push_back(rec.spill_wall_ms);
  }
  r->samples["repo.spill_ms"].insert(r->samples["repo.spill_ms"].end(),
                                     spill_ms.begin(), spill_ms.end());
  // Growth of the group commit over the run: mean spill of the last tenth of
  // epochs over the first tenth.
  const size_t tenth = std::max<size_t>(1, spill_ms.size() / 10);
  if (spill_ms.size() >= 2 * tenth) {
    double head = 0, tail = 0;
    for (size_t i = 0; i < tenth; ++i) {
      head += spill_ms[i];
      tail += spill_ms[spill_ms.size() - 1 - i];
    }
    if (head > 0) {
      r->samples["repo.spill_growth"].push_back(tail / head);
    }
  }
  {
    std::lock_guard<std::mutex> lock(s->snapshot_mu);
    r->samples["ckpt.snapshot_ms"].insert(r->samples["ckpt.snapshot_ms"].end(),
                                          s->snapshot_ms.begin(),
                                          s->snapshot_ms.end());
  }

  // Per-epoch accounting: the epoch's spill committed, and every image it
  // published reads back identically from the reopened repository.
  std::vector<bool> ok(kEpochsPerRound, false);
  for (size_t k = 0; k < history.size() && k < kEpochsPerRound; ++k) {
    ok[k] = history[k].spill_ok;
  }
  if (history.size() != kEpochsPerRound) {
    r->Fail("epoch_spill: " + std::to_string(history.size()) + " of " +
            std::to_string(kEpochsPerRound) + " epochs captured");
  }
  Fnv1aDigest fold;
  const std::map<uint64_t, uint64_t> live =
      MaterializeAll(s->repo.get(), &fold, nullptr);
  const bool captured_ok = fold.value() == epochs->CapturesDigest();
  if (!captured_ok) {
    r->Fail("epoch_spill: repository bytes differ from the captured images");
  }
  s->epochs.reset();
  s->repo.reset();

  std::string err;
  const Clock::time_point o0 = Clock::now();
  std::unique_ptr<CheckpointRepo> reopened;
  {
    ScopedSpan span("repo", "CheckpointRepo::Open");
    reopened = CheckpointRepo::Open(dir.string(), RepoOptions{}, &err);
  }
  r->samples["repo.reopen_ms"].push_back(MsSince(o0));
  std::map<uint64_t, uint64_t> again;
  if (reopened == nullptr) {
    r->Fail("epoch_spill: reopen failed: " + err);
  } else {
    again = MaterializeAll(reopened.get(), nullptr,
                           &r->samples["repo.materialize_ms"]);
  }
  // Batches publish handles in epoch order, spill_images per epoch.
  uint64_t next_handle = live.empty() ? 1 : live.begin()->first;
  for (size_t k = 0; k < history.size() && k < kEpochsPerRound; ++k) {
    for (size_t i = 0; i < history[k].spill_images; ++i, ++next_handle) {
      auto a = live.find(next_handle);
      auto b = again.find(next_handle);
      if (a == live.end() || b == again.end() || a->second == 0 ||
          a->second != b->second) {
        ok[k] = false;
      }
    }
    if (history[k].spill_images == 0) {
      ok[k] = false;
    }
  }
  size_t bad = 0;
  for (size_t k = 0; k < kEpochsPerRound; ++k) {
    const bool epoch_ok = ok[k] && captured_ok;
    bad += epoch_ok ? 0 : 1;
    r->op_ok.push_back(epoch_ok);
  }
  if (bad > 0) {
    r->Fail("epoch_spill: " + std::to_string(bad) +
            " epochs failed spill or reopen verification");
  }
  reopened.reset();
  std::error_code ec;
  fs::remove_all(dir, ec);
}

void RunEpochSpill(double seconds, uint64_t seed, const fs::path& workdir,
                   Result* r) {
  r->threads = {{"partitions", std::to_string(kPartitions)},
                {"kernel_workers", std::to_string(kWorkers)},
                {"repo_hash_threads", std::to_string(RepoOptions{}.hash_threads)},
                {"commit_threads", "1"}};
  const GeneratedTopologyParams params = EpochParams(seed);
  const int rounds = RoundsFor(seconds, kNominalEpochRoundSeconds);
  const fs::path dir = workdir / "repo";
  RunRounds(
      rounds,
      [&] {
        SpanLog::Get().SetPhase("setup");
        BuildEpochSetup(params, dir, r);
      },
      [&] { RunEpochRound(params, dir, r); }, r);
}

// --- ha_protect and ha_failover -------------------------------------------------------
//
// 1k hosts (10 hosts/LAN, 25 LANs/zone), 50 Hz micro-checkpoints with lag 1
// and output buffering. The bench steps MicroCheckpointer::RunUntil one
// period at a time; a step is an operation.
//
// ha_protect runs no faults: the standing cost of HA protection (capture,
// commit and output hold). Check: the external-observer trace and behaviour
// digest equal those of an untimed run of the same seed on the workers = 0
// kernel, and the output buffer discarded, replayed and suppressed nothing.
//
// ha_failover adds a seeded schedule of 100 partition kills; an operation is
// a kill (per-kill CPU time cannot be taken from outside). Check: every
// recovery ok, and the external-observer trace and behaviour digest equal
// an untimed fault-free run of the same seed. It is not a BENCHMARK.json
// workload: on about one seed in five the failover is visible to the
// observer (same-instant releases of two links come out in another order),
// which is a fault of src/ha, not of the bench. It stays runnable to
// reproduce that.

constexpr uint32_t kKillsPerRound = 100;
constexpr SimTime kHaPeriod = 20 * kMillisecond;
constexpr SimTime kHaHorizon = 400 * kMillisecond;  // one round

GeneratedTopologyParams HaParams(uint64_t seed) {
  GeneratedTopologyParams p;
  p.hosts = 1000;
  p.hosts_per_lan = 10;
  p.lans_per_zone = 25;
  p.seed = seed;
  return p;
}

struct HaSetup {
  std::unique_ptr<GeneratedTopology> topo;
  std::unique_ptr<emulab::ExternalObserver> observer;
  std::unique_ptr<ha::FaultInjector> faults;
  std::unique_ptr<ha::MicroCheckpointer> mc;
};

// Schedules `kills` partition kills over the round. Records its CPU time in
// `r` unless null (the untimed reference runs).
HaSetup BuildHaSetup(const GeneratedTopologyParams& params, uint64_t seed,
                     uint32_t workers, uint32_t kills, Result* r) {
  const double cpu0 = CpuMs();
  HaSetup s;
  {
    ScopedSpan span("net", "GeneratedTopology::Build");
    s.topo = GeneratedTopology::Build(params, kPartitions, workers);
  }
  s.observer = std::make_unique<emulab::ExternalObserver>();
  ha::MicroCheckpointPolicy policy;
  policy.period = kHaPeriod;
  policy.max_in_flight_epochs = 1;
  policy.buffer_output = true;
  {
    ScopedSpan span("ha", "MicroCheckpointer::MicroCheckpointer");
    s.mc = std::make_unique<ha::MicroCheckpointer>(s.topo.get(), policy);
  }
  s.mc->SetObserver(s.observer.get());
  if (kills > 0) {
    s.faults = std::make_unique<ha::FaultInjector>(seed);
    s.faults->GenerateKillSchedule(kPartitions, kills, kHaHorizon);
    s.mc->SetFaultInjector(s.faults.get());
  }
  if (r != nullptr) {
    r->setup_s.push_back((CpuMs() - cpu0) / 1000.0);
  }
  return s;
}

uint64_t HaBehavior(GeneratedTopology* topo) {
  Fnv1aDigest d;
  for (size_t i = 0; i < topo->node_count(); ++i) {
    topo->node(i)->MixBehavior(&d);
  }
  return d.value();
}

// What a round of either HA workload leaves for its check.
struct HaRun {
  TraceLog trace;
  uint64_t behavior = 0;
  std::vector<ha::RecoveryRecord> recoveries;
};

// The timed section of one HA round: RunUntil per period up to kHaHorizon,
// each call a sample of op_ms / op_cpu_ms / ha.step_ms, then the coordinator's
// per-epoch records and the recoveries as samples.
HaRun StepHa(HaSetup* s, Result* r) {
  SpanLog& log = SpanLog::Get();
  log.SetPhase("timed");
  const KernelCounters before = ReadCounters(s->topo.get());
  double held_max = 0;
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = CpuMs();
  uint64_t step = 0;
  for (SimTime t = kHaPeriod; t <= kHaHorizon; t += kHaPeriod) {
    log.SetGroup(++step);
    const Clock::time_point p0 = Clock::now();
    const double p0_cpu = CpuMs();
    {
      ScopedSpan span("ha", "MicroCheckpointer::RunUntil");
      s->mc->RunUntil(t);
    }
    r->samples["op_cpu_ms"].push_back(CpuMs() - p0_cpu);
    r->samples["op_ms"].push_back(MsSince(p0));
    r->samples["ha.step_ms"].push_back(r->samples["op_ms"].back());
    if (log.enabled()) {
      held_max = std::max(
          held_max, static_cast<double>(s->mc->output_buffer()->held_count()));
    }
  }
  r->timed_s += MsSince(t0) / 1000.0;
  r->values["timed_cpu_s"] += (CpuMs() - cpu0) / 1000.0;
  r->sim_ms += ToMilliseconds(kHaHorizon);
  RecordKernel(s->topo.get(), before, r);

  log.SetPhase("check");
  r->values["ha.held_pkts_max"] =
      std::max(r->values["ha.held_pkts_max"], held_max);
  for (const auto& rec : s->mc->coordinator()->history()) {
    r->samples["ckpt.frozen_ms"].push_back(rec.frozen_wall_ms);
    r->samples["ckpt.background_ms"].push_back(rec.background_wall_ms);
    r->samples["ckpt.commit_wait_ms"].push_back(rec.commit_wait_ms);
    r->samples["ckpt.image_bytes"].push_back(static_cast<double>(rec.image_bytes));
  }
  HaRun run;
  run.trace = s->observer->trace();
  run.behavior = HaBehavior(s->topo.get());
  run.recoveries = s->mc->failover()->recoveries();
  for (const auto& rec : run.recoveries) {
    r->samples["recovery_ms"].push_back(rec.wall_ms);
  }
  return run;
}

void SetHaThreads(Result* r) {
  r->threads = {{"partitions", std::to_string(kPartitions)},
                {"kernel_workers", std::to_string(kWorkers)},
                {"repo_hash_threads", "0"},
                {"commit_threads", "1"}};
}

// Fold of every record of `trace`, in order.
uint64_t TraceDigest(const TraceLog& trace) {
  Fnv1aDigest d;
  for (const TraceRecord& rec : trace.records()) {
    d.Mix(static_cast<uint64_t>(rec.virtual_time));
    d.Mix(rec.tag.size());
    d.MixBytes(rec.tag.data(), rec.tag.size());
    uint64_t value_bits = 0;
    std::memcpy(&value_bits, &rec.value, sizeof value_bits);
    d.Mix(value_bits);
  }
  return d.value();
}

void RunHaProtect(double seconds, uint64_t seed, Result* r) {
  SetHaThreads(r);
  const GeneratedTopologyParams params = HaParams(seed);
  const auto build = [&] {
    SpanLog::Get().SetPhase("setup");
    return BuildHaSetup(params, seed, kWorkers, /*kills=*/0, r);
  };
  // Rounds keep digests only (whole traces would add to later rounds'
  // peak_rss_mb); the first round's trace is kept for the record-by-record
  // comparison with the reference.
  struct Round {
    uint64_t trace = 0;
    uint64_t behavior = 0;
    uint64_t buffer_faults = 0;  // discarded + replayed + suppressed
  };
  std::vector<Round> rounds;
  TraceLog first_trace;
  RunRounds(RoundsFor(seconds, kNominalHaProtectRoundSeconds),
            [&build] { build(); }, [&] {
              HaSetup s = build();
              HaRun run = StepHa(&s, r);
              ha::OutputCommitBuffer* buffer = s.mc->output_buffer();
              rounds.push_back({TraceDigest(run.trace), run.behavior,
                                buffer->discarded_total() +
                                    buffer->replayed_total() +
                                    buffer->suppressed_total()});
              if (rounds.size() == 1) {
                first_trace = std::move(run.trace);
              }
            }, r);

  // Untimed reference of the same seed on the sequential kernel.
  HaSetup ref = BuildHaSetup(params, seed, /*workers=*/0, /*kills=*/0, nullptr);
  ref.mc->RunUntil(kHaHorizon);
  const uint64_t ref_behavior = HaBehavior(ref.topo.get());
  const TraceDiff diff = first_trace.Compare(ref.observer->trace());
  const bool first_ok = diff.comparable && diff.max_time_delta == 0 &&
                        diff.max_value_delta == 0 &&
                        rounds.front().behavior == ref_behavior;
  if (!first_ok) {
    r->Fail("ha_protect: output differs from the workers=0 run (" +
            diff.Describe() + ", max time delta " +
            std::to_string(diff.max_time_delta) + " ns, behaviour digest " +
            (rounds.front().behavior == ref_behavior ? "equal" : "differs") +
            ")");
  }
  const auto periods = static_cast<size_t>(kHaHorizon / kHaPeriod);
  for (size_t i = 0; i < rounds.size(); ++i) {
    // A failed check fails every period of its round: the round's output is
    // wrong as a whole.
    bool ok = first_ok;
    if (rounds[i].trace != rounds.front().trace ||
        rounds[i].behavior != rounds.front().behavior) {
      r->Fail("ha_protect: round " + std::to_string(i) +
              "'s output differs from the first round's");
      ok = false;
    }
    if (rounds[i].buffer_faults != 0) {
      r->Fail("ha_protect: the output buffer discarded, replayed or "
              "suppressed " + std::to_string(rounds[i].buffer_faults) +
              " packets without a fault");
      ok = false;
    }
    r->op_ok.insert(r->op_ok.end(), periods, ok);
  }
}

// Marks the kills a non-transparent run is blamed on. Each observer record
// that differs from the fault-free trace (tag "src>dst", src a partition)
// blames the latest kill of partition src at or before its release. Where
// the record sequences part (a tag differs), the first differing record
// blames its kill and every later kill is blamed too: the rest of the trace
// cannot be lined up. Differing behaviour digests blame every kill. Returns
// the number of kills blamed.
size_t BlameKills(const TraceLog& faulty, const TraceLog& clean,
                  const TraceDiff& diff, bool behavior_equal,
                  const std::vector<ha::RecoveryRecord>& recoveries,
                  std::vector<bool>* ok) {
  const size_t kills = std::min(ok->size(), recoveries.size());
  std::vector<bool> blamed(ok->size(), !behavior_equal);
  // Latest kill of partition `src` at or before `t`; kills when there is none.
  const auto culprit = [&](const std::string& tag, SimTime t) {
    const auto src = static_cast<uint32_t>(std::strtoul(tag.c_str(), nullptr, 10));
    size_t k = kills;
    for (size_t i = 0; i < kills; ++i) {
      if (recoveries[i].killed_at <= t && recoveries[i].partition == src) {
        k = i;
      }
    }
    return k;
  };
  const auto& a = faulty.records();
  const auto& b = clean.records();
  const size_t aligned =
      diff.comparable ? a.size() : std::min(diff.first_mismatch, a.size());
  for (size_t i = 0; i < aligned && i < b.size(); ++i) {
    if (a[i].virtual_time == b[i].virtual_time && a[i].value == b[i].value) {
      continue;
    }
    const size_t k = culprit(a[i].tag, a[i].virtual_time);
    if (k == kills) {
      blamed.assign(ok->size(), true);
      break;
    }
    blamed[k] = true;
  }
  if (!diff.comparable) {
    const TraceRecord& first = aligned < a.size() ? a[aligned] : b[aligned];
    const size_t k = culprit(first.tag, first.virtual_time);
    for (size_t i = k == kills ? 0 : k; i < ok->size(); ++i) {
      blamed[i] = true;
    }
  }
  size_t n = 0;
  for (size_t k = 0; k < ok->size(); ++k) {
    if (blamed[k]) {
      (*ok)[k] = false;
      ++n;
    }
  }
  return n;
}

void RunHaFailover(double seconds, uint64_t seed, Result* r) {
  SetHaThreads(r);
  const GeneratedTopologyParams params = HaParams(seed);
  const auto build = [&] {
    SpanLog::Get().SetPhase("setup");
    return BuildHaSetup(params, seed, kWorkers, kKillsPerRound, r);
  };
  std::vector<HaRun> runs;
  RunRounds(RoundsFor(seconds, kNominalHaFailoverRoundSeconds),
            [&build] { build(); }, [&] {
              HaSetup s = build();
              runs.push_back(StepHa(&s, r));
            }, r);

  // Untimed fault-free reference of the same seed.
  HaSetup clean = BuildHaSetup(params, seed, kWorkers, /*kills=*/0, nullptr);
  clean.mc->RunUntil(kHaHorizon);
  const TraceLog& clean_trace = clean.observer->trace();
  const uint64_t clean_behavior = HaBehavior(clean.topo.get());

  for (const HaRun& f : runs) {
    // One operation per scheduled kill: failed if it never recovered, if its
    // recovery was not ok, or if it broke transparency.
    std::vector<bool> ok(kKillsPerRound, false);
    for (size_t k = 0; k < kKillsPerRound && k < f.recoveries.size(); ++k) {
      ok[k] = f.recoveries[k].ok;
    }
    if (f.recoveries.size() != kKillsPerRound) {
      r->Fail("ha_failover: " + std::to_string(f.recoveries.size()) + " of " +
              std::to_string(kKillsPerRound) + " kills recovered");
    }
    const TraceDiff diff = f.trace.Compare(clean_trace);
    const bool transparent = diff.comparable && diff.max_time_delta == 0 &&
                             diff.max_value_delta == 0 &&
                             f.behavior == clean_behavior;
    if (!transparent) {
      const size_t blamed =
          BlameKills(f.trace, clean_trace, diff, f.behavior == clean_behavior,
                     f.recoveries, &ok);
      r->Fail("ha_failover: failover visible to the external observer (" +
              diff.Describe() + ", max time delta " +
              std::to_string(diff.max_time_delta) + " ns, behaviour digest " +
              (f.behavior == clean_behavior ? "equal" : "differs") + "), " +
              std::to_string(blamed) + " kills blamed");
    }
    r->op_ok.insert(r->op_ok.end(), ok.begin(), ok.end());
  }
}

// --- swap_cycles ---------------------------------------------------------------------------
//
// A three-node Emulab experiment joined by two shaped links (so two delay
// nodes are checkpointed too), a repository attached to the testbed, and
// eight consecutive lazy stateful swap cycles, each after a fixed session of
// disk writes on every node. Exercises emulab, storage, the local checkpoint
// engine and the repository's read side. Check: every swap verifies its
// images against the repository (SwapRecord::repo_verified).

constexpr int kCyclesPerRound = 8;
constexpr uint64_t kSessionBytesPerNode = 32ull * 1024 * 1024;
const char* const kSwapNodes[] = {"pc1", "pc2", "pc3"};

ExperimentSpec SwapSpec(uint64_t seed) {
  // The seed shapes the two links; the session data is fixed.
  Rng rng(seed);
  static const uint64_t kBandwidths[] = {10'000'000, 100'000'000,
                                         1'000'000'000};
  ExperimentSpec spec("swap");
  for (const char* n : kSwapNodes) {
    spec.AddNode(n);
  }
  for (int i = 0; i < 2; ++i) {
    const uint64_t bw = kBandwidths[rng.UniformInt(0, 2)];
    const SimTime delay = static_cast<SimTime>(rng.UniformInt(1, 10)) * kMillisecond;
    spec.AddLink(kSwapNodes[i], kSwapNodes[i + 1], bw, delay);
  }
  return spec;
}

// Runs `sim` in one-second steps until `done` or an hour of simulated time.
void RunUntilFlag(Simulator* sim, const bool& done) {
  const SimTime deadline = sim->Now() + 3600 * kSecond;
  while (!done && sim->Now() < deadline) {
    sim->RunUntil(sim->Now() + kSecond);
  }
}

struct SwapSetup {
  std::unique_ptr<CheckpointRepo> repo;
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<Testbed> testbed;  // declared after what it points to
  Experiment* experiment = nullptr;
};

// Opens the repository, maps the experiment and swaps it in.
std::unique_ptr<SwapSetup> BuildSwapSetup(uint64_t seed, const fs::path& dir,
                                          Result* r) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  const double cpu0 = CpuMs();
  auto s = std::make_unique<SwapSetup>();
  std::string err;
  {
    ScopedSpan span("repo", "CheckpointRepo::Open");
    s->repo = CheckpointRepo::Open(dir.string(), RepoOptions{}, &err);
  }
  if (s->repo == nullptr) {
    r->Fail("swap_cycles: cannot open repository: " + err);
    return nullptr;
  }
  s->sim = std::make_unique<Simulator>();
  s->testbed = std::make_unique<Testbed>(s->sim.get(), seed);
  s->testbed->AttachRepository(s->repo.get());
  s->experiment = s->testbed->CreateExperiment(SwapSpec(seed));
  {
    ScopedSpan span("emulab", "Experiment::SwapIn");
    bool in = false;
    s->experiment->SwapIn(/*golden_cached=*/true, [&in] { in = true; });
    RunUntilFlag(s->sim.get(), in);
    s->sim->RunUntil(s->sim->Now() + 30 * kSecond);
  }
  r->setup_s.push_back((CpuMs() - cpu0) / 1000.0);
  return s;
}

void RunSwapRound(uint64_t seed, const fs::path& dir, Result* r) {
  SpanLog& log = SpanLog::Get();
  log.SetPhase("setup");
  std::unique_ptr<SwapSetup> s = BuildSwapSetup(seed, dir, r);
  if (s == nullptr) {
    r->op_ok.insert(r->op_ok.end(), 2 * kCyclesPerRound, false);
    return;
  }
  Simulator& sim = *s->sim;
  Experiment* experiment = s->experiment;
  CheckpointRepo* repo = s->repo.get();

  log.SetPhase("timed");
  const uint64_t events_before = sim.events_processed();
  const SimTime sim_before = sim.Now();
  std::vector<double> swap_in_ms;
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = CpuMs();
  uint64_t next_area = 100'000;
  for (int cycle = 0; cycle < kCyclesPerRound; ++cycle) {
    log.SetGroup(static_cast<uint64_t>(cycle) + 1);
    const uint64_t cycle_events = sim.events_processed();
    const Clock::time_point c0 = Clock::now();

    // The session: every node writes a fixed amount of new data.
    {
      ScopedSpan span("storage", "FileCopyApp::Start");
      int pending = 0;
      std::vector<std::shared_ptr<FileCopyApp>> writers;
      for (const char* n : kSwapNodes) {
        FileCopyApp::Params wp;
        wp.total_bytes = kSessionBytesPerNode;
        wp.start_block = next_area;
        auto w = std::make_shared<FileCopyApp>(experiment->node(n), wp);
        ++pending;
        w->Start([&pending] { --pending; });
        writers.push_back(std::move(w));
      }
      next_area += kSessionBytesPerNode / kBlockSize + 1024;
      const SimTime deadline = sim.Now() + 3600 * kSecond;
      while (pending > 0 && sim.Now() < deadline) {
        sim.RunUntil(sim.Now() + kSecond);
      }
    }
    r->samples["storage.session_write_ms"].push_back(MsSince(c0));

    SwapRecord out_rec;
    bool out = false;
    Clock::time_point out_done;
    const double swap_cpu0 = CpuMs();
    const Clock::time_point o0 = Clock::now();
    {
      ScopedSpan span("emulab", "Experiment::StatefulSwapOut");
      experiment->StatefulSwapOut(/*eager_precopy=*/true,
                                  [&](const SwapRecord& rec) {
                                    out_rec = rec;
                                    out_done = Clock::now();
                                    out = true;
                                  });
      RunUntilFlag(&sim, out);
    }
    const double out_ms =
        out ? std::chrono::duration<double, std::milli>(out_done - o0).count()
            : MsSince(o0);

    SwapRecord in_rec;
    bool in = false;
    Clock::time_point in_done;
    const Clock::time_point i0 = Clock::now();
    {
      ScopedSpan span("emulab", "Experiment::StatefulSwapIn");
      experiment->StatefulSwapIn(/*lazy=*/true, [&](const SwapRecord& rec) {
        in_rec = rec;
        in_done = Clock::now();
        in = true;
      });
      RunUntilFlag(&sim, in);
    }
    const double in_ms =
        in ? std::chrono::duration<double, std::milli>(in_done - i0).count()
           : MsSince(i0);
    r->samples["op_cpu_ms"].push_back(CpuMs() - swap_cpu0);

    // The lazy background copy-in finishes before the next session.
    const Clock::time_point d0 = Clock::now();
    {
      ScopedSpan span("storage", "MirrorVolume::drain");
      for (const char* n : kSwapNodes) {
        ExperimentNode* node = experiment->node(n);
        const SimTime deadline = sim.Now() + 3600 * kSecond;
        while (node->mirror().pending_blocks() > 0 && sim.Now() < deadline) {
          sim.RunUntil(sim.Now() + kSecond);
        }
      }
      sim.RunUntil(sim.Now() + 5 * kSecond);
    }
    r->samples["storage.drain_ms"].push_back(MsSince(d0));

    r->samples["swap_out_ms"].push_back(out_ms);
    r->samples["swap_in_ms"].push_back(in_ms);
    r->samples["op_ms"].push_back(out_ms + in_ms);
    swap_in_ms.push_back(in_ms);
    r->samples["swap_in_sim_s"].push_back(ToSeconds(in_rec.duration()));
    r->samples["emulab.swap_bytes"].push_back(
        static_cast<double>(out_rec.bytes_transferred + in_rec.bytes_transferred));
    r->samples["repo.swap_bytes_written"].push_back(
        static_cast<double>(out_rec.repo_bytes_written + in_rec.repo_bytes_written));
    r->samples["repo.swap_bytes_read"].push_back(
        static_cast<double>(out_rec.repo_bytes_read + in_rec.repo_bytes_read));
    r->samples["swap.events_per_cycle"].push_back(
        static_cast<double>(sim.events_processed() - cycle_events));

    // Two operations per cycle: the swap-out and the swap-in.
    r->op_ok.push_back(out && out_rec.repo_verified);
    r->op_ok.push_back(in && in_rec.repo_verified && in_rec.lazy);
    if (!out || !out_rec.repo_verified) {
      r->Fail("swap_cycles: swap-out " + std::to_string(cycle + 1) +
              (out ? " failed repository verification" : " never completed"));
    }
    if (!in || !in_rec.repo_verified || !in_rec.lazy) {
      r->Fail("swap_cycles: swap-in " + std::to_string(cycle + 1) +
              (in ? " failed repository verification" : " never completed"));
    }
  }
  r->timed_s += MsSince(t0) / 1000.0;
  r->values["timed_cpu_s"] += (CpuMs() - cpu0) / 1000.0;
  r->sim_ms += ToMilliseconds(sim.Now() - sim_before);
  r->values["sim.events"] +=
      static_cast<double>(sim.events_processed() - events_before);
  if (swap_in_ms.size() >= 2 && swap_in_ms.front() > 0) {
    r->samples["swap.cycle_growth"].push_back(swap_in_ms.back() /
                                              swap_in_ms.front());
  }
  r->values["repo.logical_put_bytes"] +=
      static_cast<double>(repo->logical_put_bytes());
  r->values["repo.physical_put_bytes"] +=
      static_cast<double>(repo->physical_put_bytes());
  log.SetPhase("check");
  s.reset();
  std::error_code ec;
  fs::remove_all(dir, ec);
}

void RunSwapCycles(double seconds, uint64_t seed, const fs::path& workdir,
                   Result* r) {
  r->threads = {{"partitions", "1"},
                {"kernel_workers", "0"},
                {"repo_hash_threads", std::to_string(RepoOptions{}.hash_threads)},
                {"commit_threads", "0"}};
  const int rounds = RoundsFor(seconds, kNominalSwapRoundSeconds);
  const fs::path dir = workdir / "repo";
  RunRounds(
      rounds,
      [&] {
        SpanLog::Get().SetPhase("setup");
        BuildSwapSetup(seed, dir, r);
      },
      [&] { RunSwapRound(seed, dir, r); }, r);
}

const char* FlagValue(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      return argv[i + 1];
    }
  }
  return nullptr;
}

int Main(int argc, char** argv) {
  const char* workload = FlagValue(argc, argv, "--workload");
  const char* seed_arg = FlagValue(argc, argv, "--seed");
  const char* seconds_arg = FlagValue(argc, argv, "--seconds");
  const char* workdir_arg = FlagValue(argc, argv, "--workdir");
  const char* spans = FlagValue(argc, argv, "--spans");
  if (workload == nullptr || seed_arg == nullptr || seconds_arg == nullptr ||
      workdir_arg == nullptr) {
    std::fprintf(stderr,
                 "usage: tcsim_perf --workload W --seed N --seconds S "
                 "--workdir DIR [--spans FILE]\n");
    return 2;
  }
  char* end = nullptr;
  const uint64_t seed = std::strtoull(seed_arg, &end, 10);
  if (end == seed_arg || *end != '\0') {
    std::fprintf(stderr, "tcsim_perf: bad --seed '%s'\n", seed_arg);
    return 2;
  }
  const double seconds = std::strtod(seconds_arg, &end);
  if (end == seconds_arg || *end != '\0' || !(seconds > 0) || seconds > 3600) {
    std::fprintf(stderr, "tcsim_perf: bad --seconds '%s'\n", seconds_arg);
    return 2;
  }
  const fs::path workdir = workdir_arg;
  std::error_code ec;
  fs::create_directories(workdir, ec);
  if (spans != nullptr) {
    SpanLog::Get().Enable();
  }

  Result r;
  const std::string w = workload;
  if (w == "fattree_kernel") {
    RunFattree(seconds, seed, &r);
  } else if (w == "epoch_spill") {
    RunEpochSpill(seconds, seed, workdir, &r);
  } else if (w == "ha_protect") {
    RunHaProtect(seconds, seed, &r);
  } else if (w == "ha_failover") {
    RunHaFailover(seconds, seed, &r);
  } else if (w == "swap_cycles") {
    RunSwapCycles(seconds, seed, workdir, &r);
  } else {
    std::fprintf(stderr, "tcsim_perf: unknown workload '%s'\n", workload);
    return 2;
  }
  if (spans != nullptr && !SpanLog::Get().Write(spans)) {
    std::fprintf(stderr, "tcsim_perf: cannot write spans to %s\n", spans);
    return 1;
  }
  PrintResult(w, seed, r);
  return 0;
}

}  // namespace
}  // namespace tcsim

int main(int argc, char** argv) { return tcsim::Main(argc, argv); }
