// HA failover: recovery latency and output hold time under continuous
// micro-checkpointing at 100 and 1000 hosts, with the external-observer
// transparency gate inline.
//
// For each scale the same seeded experiment runs twice under the HA
// subsystem (two-phase capture, output-commit buffering): once fault-free
// and once with a seeded partition-kill schedule. The bench FAILS (non-zero
// exit) unless every kill recovers from the newest committed image AND the
// faulty run's external-observer trace is bit-identical to the fault-free
// one — same record sequence, zero time delta, zero value delta — with equal
// per-node behavior digests. Recovery latency (wall) and output hold time
// (simulated) are the reported costs of that transparency.
//
//   $ ./build/bench/tab_failover [--json] [--mc-hz=N] [--kills=K] [--seed=S]
//        [--sim-ms=T] [--sync]
//
// --mc-hz sets the micro-checkpoint frequency in simulated hertz (default
// 50, i.e. a 20 ms epoch); --sync switches to synchronous capture (lag 0),
// the digest-oracle configuration. Hold time is a function of the commit
// lag, so --sync roughly halves it; recovery latency is dominated by image
// restore + replay and is what the trajectory baseline tracks.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/emulab/external_observer.h"
#include "src/ha/fault_injector.h"
#include "src/ha/micro_checkpointer.h"
#include "src/net/topology.h"
#include "src/sim/digest.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"
#include "tools/analyze.h"

using namespace tcsim;

namespace {

struct Scale {
  uint32_t hosts;
  uint32_t hosts_per_lan;
  uint32_t lans_per_zone;
};

struct HaRun {
  TraceLog trace;
  uint64_t behavior_digest = 0;
  uint64_t epochs = 0;
  uint64_t released = 0;
  uint64_t replayed = 0;
  uint64_t discarded = 0;
  uint64_t suppressed = 0;
  double hold_ms_mean = 0;
  double hold_ms_p99 = 0;
  double recovery_ms_mean = 0;
  double recovery_ms_max = 0;
  double rollback_ms_mean = 0;
  size_t recoveries = 0;
  bool recovered_ok = true;
  double wall_s = 0;
  tools::LedgerAttribution ledger;
};

HaRun RunOnce(const Scale& scale, SimTime period, SimTime horizon,
              bool sync_mode, ha::FaultInjector* faults) {
  obs::MetricsRegistry::Global().ResetAll();
  GeneratedTopologyParams params;
  params.hosts = scale.hosts;
  params.hosts_per_lan = scale.hosts_per_lan;
  params.lans_per_zone = scale.lans_per_zone;
  auto topo = GeneratedTopology::Build(params, /*partitions=*/4, /*workers=*/3);
  emulab::ExternalObserver observer;
  ha::MicroCheckpointPolicy policy;
  policy.period = period;
  policy.max_in_flight_epochs = sync_mode ? 0 : 1;
  policy.buffer_output = true;
  ha::MicroCheckpointer mc(topo.get(), policy);
  mc.SetObserver(&observer);
  if (faults != nullptr) {
    mc.SetFaultInjector(faults);
  }

  HaRun r;
  std::chrono::steady_clock::time_point start, stop;
  r.ledger = tools::AttributeRun([&] {
    start = std::chrono::steady_clock::now();
    mc.RunUntil(horizon);
    stop = std::chrono::steady_clock::now();
  });
  r.trace = observer.trace();
  Fnv1aDigest behavior;
  for (size_t i = 0; i < topo->node_count(); ++i) {
    topo->node(i)->MixBehavior(&behavior);
  }
  r.behavior_digest = behavior.value();
  r.epochs = mc.epochs_committed();
  r.released = mc.output_buffer()->released_total();
  r.replayed = mc.output_buffer()->replayed_total();
  r.discarded = mc.output_buffer()->discarded_total();
  r.suppressed = mc.output_buffer()->suppressed_total();
  const obs::Histogram* hold =
      obs::MetricsRegistry::Global().FindHistogram("ha.buffer.hold_time_us");
  r.hold_ms_mean = hold->mean() / 1000.0;
  r.hold_ms_p99 = hold->ApproxPercentile(99) / 1000.0;
  for (const ha::RecoveryRecord& rec : mc.failover()->recoveries()) {
    r.recovered_ok = r.recovered_ok && rec.ok;
    r.recovery_ms_mean += rec.wall_ms;
    r.recovery_ms_max = std::max(r.recovery_ms_max, rec.wall_ms);
    r.rollback_ms_mean += static_cast<double>(rec.killed_at - rec.restored_to) /
                          static_cast<double>(kMillisecond);
  }
  r.recoveries = mc.failover()->recoveries().size();
  if (r.recoveries > 0) {
    r.recovery_ms_mean /= static_cast<double>(r.recoveries);
    r.rollback_ms_mean /= static_cast<double>(r.recoveries);
  }
  r.wall_s = std::chrono::duration<double>(stop - start).count();
  return r;
}

uint64_t FlagU64(int argc, char** argv, const char* flag, uint64_t fallback) {
  const char* v = FlagValue(argc, argv, flag);
  return (v != nullptr && *v != '\0') ? std::strtoull(v, nullptr, 10)
                                      : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  BenchMain bm(argc, argv, "tab_failover");

  const uint64_t mc_hz = FlagU64(argc, argv, "--mc-hz", 50);
  const uint32_t kills =
      static_cast<uint32_t>(FlagU64(argc, argv, "--kills", 3));
  const uint64_t seed = FlagU64(argc, argv, "--seed", 9);
  const SimTime horizon =
      static_cast<SimTime>(FlagU64(argc, argv, "--sim-ms", 200)) * kMillisecond;
  const bool sync_mode = HasFlag(argc, argv, "--sync");
  const SimTime period =
      std::max<SimTime>(1, kSecond / static_cast<SimTime>(mc_hz));

  PrintHeader("tab_failover",
              "HA failover: recovery latency, hold time, and the "
              "external-observer transparency gate");

  const Scale scales[] = {{100, 5, 5}, {1000, 10, 25}};
  bool ok = true;
  bool coverage_ok = true;
  double min_coverage = 1.0;
  std::string coverage_failures;  // one line per run below the floor
  double recovery_ms_worst_mean = 0;
  std::string rows = "[\n";
  for (size_t i = 0; i < 2; ++i) {
    const Scale& scale = scales[i];
    const HaRun clean = RunOnce(scale, period, horizon, sync_mode, nullptr);
    ha::FaultInjector faults(seed);
    faults.GenerateKillSchedule(/*partitions=*/4, kills, horizon);
    const HaRun faulty = RunOnce(scale, period, horizon, sync_mode, &faults);

    const TraceDiff diff = faulty.trace.Compare(clean.trace);
    const bool transparent =
        diff.comparable && diff.max_time_delta == 0 &&
        diff.max_value_delta == 0 &&
        faulty.behavior_digest == clean.behavior_digest &&
        faulty.recovered_ok && faulty.recoveries == kills;
    ok = ok && transparent;
    recovery_ms_worst_mean =
        std::max(recovery_ms_worst_mean, faulty.recovery_ms_mean);

    char section[96];
    std::snprintf(section, sizeof section,
                  "%u hosts, %llu Hz micro-checkpoints, %u kills", scale.hosts,
                  static_cast<unsigned long long>(mc_hz), kills);
    PrintSection(section);
    PrintValue("epochs committed", static_cast<double>(faulty.epochs), "");
    PrintValue("output released", static_cast<double>(faulty.released), "pkts");
    PrintValue("hold time mean", faulty.hold_ms_mean, "ms");
    PrintValue("hold time p99", faulty.hold_ms_p99, "ms");
    PrintValue("recovery latency mean", faulty.recovery_ms_mean, "ms");
    PrintValue("recovery latency max", faulty.recovery_ms_max, "ms");
    PrintValue("rollback depth mean", faulty.rollback_ms_mean, "sim ms");
    PrintValue("deliveries replayed", static_cast<double>(faulty.replayed), "");
    PrintValue("holds discarded", static_cast<double>(faulty.discarded), "");
    PrintValue("re-emissions suppressed",
               static_cast<double>(faulty.suppressed), "");
    PrintValue("ledger coverage (faulty, min epoch)",
               faulty.ledger.min_coverage, "");
    PrintValue("ledger coverage (fault-free, min epoch)",
               clean.ledger.min_coverage, "");
    PrintValue("straggler slack (mean)", faulty.ledger.straggler_slack_ms,
               "ms");
    PrintValue("ledger hold p99", faulty.ledger.hold_p99_us / 1000.0, "ms");
    const bool cover_ok = faulty.ledger.ok && clean.ledger.ok &&
                          faulty.ledger.min_coverage >= 0.95 &&
                          clean.ledger.min_coverage >= 0.95;
    coverage_ok = coverage_ok && cover_ok;
    for (const auto& [run, name] :
         {std::pair<const HaRun*, const char*>{&faulty, "faulty"},
          {&clean, "fault-free"}}) {
      if (!run->ledger.ok || run->ledger.min_coverage < 0.95) {
        char line[160];
        std::snprintf(line, sizeof line,
                      "  %u hosts, %s run: min epoch coverage %.3f%s\n",
                      scale.hosts, name, run->ledger.min_coverage,
                      run->ledger.ok ? "" : " (ledger analysis failed)");
        coverage_failures += line;
      }
    }
    min_coverage = std::min(
        {min_coverage, faulty.ledger.min_coverage, clean.ledger.min_coverage});
    PrintNote(transparent
                  ? "faulty trace bit-identical to fault-free at the "
                    "external observer"
                  : std::string("TRANSPARENCY FAILED: ") + diff.Describe());
    BenchReport::Instance().RecordDigest(faulty.behavior_digest);

    char buf[768];
    std::snprintf(
        buf, sizeof buf,
        "    {\"hosts\": %u, \"mc_hz\": %llu, \"kills\": %u, \"epochs\": %llu, "
        "\"released\": %llu, \"hold_ms_mean\": %.4f, \"hold_ms_p99\": %.4f, "
        "\"recovery_ms\": %.4f, \"recovery_ms_max\": %.4f, "
        "\"rollback_sim_ms\": %.4f, \"replayed\": %llu, \"discarded\": %llu, "
        "\"suppressed\": %llu, \"transparent\": %s, "
        "\"ledger_coverage\": %.3f, \"ledger_coverage_clean\": %.3f, "
        "\"straggler_partition\": %d, "
        "\"straggler_slack_ms\": %.3f, \"ledger_hold_p99_ms\": %.4f}%s\n",
        scale.hosts, static_cast<unsigned long long>(mc_hz), kills,
        static_cast<unsigned long long>(faulty.epochs),
        static_cast<unsigned long long>(faulty.released), faulty.hold_ms_mean,
        faulty.hold_ms_p99, faulty.recovery_ms_mean, faulty.recovery_ms_max,
        faulty.rollback_ms_mean,
        static_cast<unsigned long long>(faulty.replayed),
        static_cast<unsigned long long>(faulty.discarded),
        static_cast<unsigned long long>(faulty.suppressed),
        transparent ? "true" : "false", faulty.ledger.min_coverage,
        clean.ledger.min_coverage, faulty.ledger.straggler_partition,
        faulty.ledger.straggler_slack_ms, faulty.ledger.hold_p99_us / 1000.0, i == 0 ? "," : "");
    rows += buf;
  }
  rows += "  ]";
  BenchReport::Instance().AddExtra("failover", rows);
  {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.4f", recovery_ms_worst_mean);
    BenchReport::Instance().AddExtra("recovery_ms", buf);
  }
  BenchReport::Instance().AddExtra("transparency_ok", ok ? "true" : "false");
  {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", min_coverage);
    BenchReport::Instance().AddExtra("ledger_min_coverage", buf);
  }
  BenchReport::Instance().AddExtra("ledger_coverage_ok",
                                   coverage_ok ? "true" : "false");

  if (!JsonQuiet()) {
    if (!ok) {
      std::printf("\nFAIL: failover was visible to the external observer\n");
    } else if (!coverage_ok) {
      std::printf("\nFAIL: ledger attribution below 95%% of epoch wall time\n%s",
                  coverage_failures.c_str());
    }
  } else if (!coverage_ok) {
    // Stdout carries the JSON document; name the runs on stderr.
    std::fprintf(stderr, "tab_failover: ledger coverage below 0.95:\n%s",
                 coverage_failures.c_str());
  }
  return bm.Finish(ok && coverage_ok ? 0 : 1);
}
