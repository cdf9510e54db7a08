#include "src/ha/failover.h"

#include <cassert>
#include <chrono>

#include "src/obs/trace_session.h"
#include "src/sim/simulator.h"

namespace tcsim {
namespace ha {

FailoverManager::FailoverManager(GeneratedTopology* topo,
                                 OutputCommitBuffer* buffer)
    : topo_(topo), buffer_(buffer) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  failovers_counter_ = reg.FindCounter("ha.failover.count");
  recovery_ms_ = reg.FindHistogram("ha.failover.recovery_ms");
  rollback_us_ = reg.FindHistogram("ha.failover.rollback_us");
}

RecoveryRecord FailoverManager::KillAndRestore(uint32_t victim, SimTime now,
                                               const CommittedEpoch& target) {
  assert(victim < topo_->partition_count());
  assert(target.at <= now);
  // Post-fault forensics: when the flight recorder is armed, dump the
  // pre-kill window before recovery mutates anything — not only on the first
  // invariant violation.
  obs::TraceSession::Global().DumpRingNow("failover recovery start");
  obs::Span span("ha", "failover", "fault", target.at);
  span.SetPartition(static_cast<int32_t>(victim));
  const auto start = std::chrono::steady_clock::now();
  RecoveryRecord rec;
  rec.partition = victim;
  rec.killed_at = now;
  rec.restored_to = target.at;
  rec.epoch = target.epoch;

  if (buffer_ != nullptr) {
    rec.discarded = buffer_->DiscardUnreleasedFrom(victim, target.epoch);
  }
  topo_->partition_sim(victim)->ResetForRestore(target.at);
  // Epoch 0's bootstrap images exist even when the run is younger than one
  // period, so a restore target is always available.
  rec.ok = victim < target.images.size() && target.images[victim] != nullptr &&
           topo_->RestoreHaPartition(victim, *target.images[victim]);
  if (rec.ok && buffer_ != nullptr) {
    rec.replayed = buffer_->ReplayInbound(victim, target.at);
  }

  rec.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  failovers_counter_->Increment();
  recovery_ms_->Observe(rec.wall_ms);
  rollback_us_->Observe(static_cast<double>(now - target.at) /
                        static_cast<double>(kMicrosecond));
  span.Arg("partition", static_cast<double>(victim));
  span.Arg("epoch", static_cast<double>(target.epoch));
  span.Arg("replayed", static_cast<double>(rec.replayed));
  span.Arg("discarded", static_cast<double>(rec.discarded));
  span.End(now);

  recoveries_.push_back(rec);
  return rec;
}

}  // namespace ha
}  // namespace tcsim
