#include "src/ha/output_buffer.h"

#include <algorithm>
#include <cassert>

#include "src/obs/trace_session.h"

#include "src/sim/simulator.h"

namespace tcsim {
namespace ha {

OutputCommitBuffer::OutputCommitBuffer(GeneratedTopology* topo) : topo_(topo) {
  held_.resize(topo->partition_count());
  emit_pos_.assign(topo->partition_count(), 0);
  released_floor_.assign(topo->partition_count(), 0);
  shard_stats_.resize(topo->partition_count());
  epoch_seq_[0] = emit_pos_;  // the bootstrap capture's watermark
  for (size_t i = 0; i < topo->interior_wire_count(); ++i) {
    Wire* w = topo->interior_wire(i);
    if (w->is_cross_partition()) {
      w->SetEgressTap(this);
    }
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  held_packets_counter_ = reg.FindCounter("ha.buffer.held_packets");
  held_bytes_counter_ = reg.FindCounter("ha.buffer.held_bytes");
  released_counter_ = reg.FindCounter("ha.buffer.released_packets");
  discarded_counter_ = reg.FindCounter("ha.buffer.discarded_packets");
  replayed_counter_ = reg.FindCounter("ha.buffer.replayed_packets");
  suppressed_counter_ = reg.FindCounter("ha.buffer.suppressed_packets");
  hold_time_us_ = reg.FindHistogram("ha.buffer.hold_time_us");
}

OutputCommitBuffer::~OutputCommitBuffer() {
  for (size_t i = 0; i < topo_->interior_wire_count(); ++i) {
    Wire* w = topo_->interior_wire(i);
    if (w->is_cross_partition()) {
      w->SetEgressTap(nullptr);
    }
  }
}

bool OutputCommitBuffer::OnCrossEgress(Wire* wire, const Packet& pkt,
                                       SimTime deliver_at,
                                       uint32_t src_partition,
                                       uint32_t dst_partition) {
  const uint64_t pos = emit_pos_[src_partition]++;
  ShardStats& stats = shard_stats_[src_partition];
  if (pos < released_floor_[src_partition]) {
    // A replaying victim re-emitting output that already escaped: the
    // original of this emission was released before the kill (it postdated
    // the restored capture — e.g. a forward of a delivery injected at the
    // restore barrier itself — so replay regenerates it), and deterministic
    // replay makes this copy byte-identical. It must not escape twice.
    ++stats.suppressed;
    return true;
  }
  Held h;
  h.send_time = topo_->partition_sim(src_partition)->Now();
  h.deliver_at = deliver_at;
  h.src_partition = src_partition;
  h.dst_partition = dst_partition;
  h.seq = pos;
  h.pkt = pkt;
  h.sink = wire->sink();
  held_[src_partition].push_back(std::move(h));
  ++stats.held_packets;
  stats.held_bytes += pkt.size_bytes;
  return true;
}

void OutputCommitBuffer::FlushShardTelemetry() {
  for (ShardStats& s : shard_stats_) {
    held_packets_counter_->Add(s.held_packets);
    held_bytes_counter_->Add(s.held_bytes);
    suppressed_counter_->Add(s.suppressed);
    suppressed_total_ += s.suppressed;
    s = ShardStats{};
  }
}

size_t OutputCommitBuffer::ReleaseUpTo(SimTime cutoff, SimTime barrier) {
  obs::Span span("ha", "output_release", "epoch_commit");
  FlushShardTelemetry();
  // Send times within one shard are monotone (a partition's clock never runs
  // backward within a timeline, and after a restore the shard was already
  // truncated to the restore point), so the releasable set is a prefix.
  std::vector<Held> batch;
  for (size_t p = 0; p < held_.size(); ++p) {
    auto& shard = held_[p];
    while (!shard.empty() && shard.front().send_time <= cutoff) {
      released_floor_[p] = shard.front().seq + 1;
      batch.push_back(std::move(shard.front()));
      shard.pop_front();
    }
  }
  // Total deterministic order, independent of which shard produced what
  // first: arrival instant, then source partition, then source sequence.
  std::sort(batch.begin(), batch.end(), [](const Held& a, const Held& b) {
    if (a.deliver_at != b.deliver_at) return a.deliver_at < b.deliver_at;
    if (a.src_partition != b.src_partition)
      return a.src_partition < b.src_partition;
    return a.seq < b.seq;
  });
  double hold_us_max = 0.0;
  double hold_us_sum = 0.0;
  for (Held& h : batch) {
    const SimTime inject_at = std::max(h.deliver_at, barrier);
    PacketHandler* sink = h.sink;
    const Packet pkt = h.pkt;
    topo_->partition_sim(h.dst_partition)
        ->ScheduleAt(inject_at, [sink, pkt] { sink->HandlePacket(pkt); });
    if (observer_ != nullptr) {
      observer_->Observe(pkt, inject_at, h.src_partition, h.dst_partition);
    }
    const double hold_us = static_cast<double>(inject_at - h.send_time) /
                           static_cast<double>(kMicrosecond);
    hold_us_sum += hold_us;
    if (hold_us > hold_us_max) {
      hold_us_max = hold_us;
    }
    hold_time_us_->Observe(hold_us);
    Released rec;
    rec.inject_at = inject_at;
    rec.release_barrier = barrier;
    rec.dst_partition = h.dst_partition;
    rec.pkt = std::move(h.pkt);
    rec.sink = sink;
    released_.push_back(std::move(rec));
  }
  released_total_ += batch.size();
  released_counter_->Add(batch.size());
  // Simulated hold times ride along as args: the analyzer's output-hold
  // percentiles come from these per-release samples.
  const double released = static_cast<double>(batch.size());
  span.Arg("released", released);
  span.Arg("hold_max_us", hold_us_max);
  span.Arg("hold_mean_us", batch.empty() ? 0.0 : hold_us_sum / released);
  return batch.size();
}

void OutputCommitBuffer::MarkEpoch(uint64_t epoch) {
  FlushShardTelemetry();
  epoch_seq_[epoch] = emit_pos_;
  // Only the newest committed epoch (and, early on, the bootstrap) is ever a
  // restore target; anything two epochs stale is dead.
  while (!epoch_seq_.empty() && epoch_seq_.begin()->first + 2 < epoch) {
    epoch_seq_.erase(epoch_seq_.begin());
  }
}

size_t OutputCommitBuffer::DiscardUnreleasedFrom(uint32_t victim,
                                                 uint64_t epoch) {
  const auto it = epoch_seq_.find(epoch);
  assert(it != epoch_seq_.end() && "restore target epoch was never marked");
  const uint64_t watermark = it->second[victim];
  auto& shard = held_[victim];
  size_t discarded = 0;
  // Emission positions within a shard are monotone, so the post-capture
  // entries are a suffix.
  while (!shard.empty() && shard.back().seq >= watermark) {
    shard.pop_back();
    ++discarded;
  }
  // Replay restarts the victim's emission stream at the capture point;
  // re-emissions reclaim their original positions so the released floor can
  // identify (and suppress) the ones whose originals already escaped.
  emit_pos_[victim] = watermark;
  discarded_total_ += discarded;
  discarded_counter_->Add(discarded);
  return discarded;
}

size_t OutputCommitBuffer::ReplayInbound(uint32_t victim, SimTime restored_to) {
  Simulator* sim = topo_->partition_sim(victim);
  assert(sim->Now() == restored_to && "reset the victim before replaying");
  size_t replayed = 0;
  // Released entries are re-injected in their original release order; an
  // entry whose delivery fired before the restore-point capture (inject_at
  // earlier than the barrier, or at an earlier barrier's injection that the
  // epoch's RunUntil consumed) is already part of the image and skipped.
  for (const Released& rec : released_) {
    if (rec.dst_partition != victim) {
      continue;
    }
    if (rec.inject_at <= restored_to && rec.release_barrier < restored_to) {
      continue;  // consumed before the restored image was captured
    }
    PacketHandler* sink = rec.sink;
    const Packet pkt = rec.pkt;
    sim->ScheduleAt(rec.inject_at, [sink, pkt] { sink->HandlePacket(pkt); });
    ++replayed;
  }
  replayed_total_ += replayed;
  replayed_counter_->Add(replayed);
  return replayed;
}

void OutputCommitBuffer::PruneReplayLog(SimTime floor) {
  while (!released_.empty()) {
    const Released& rec = released_.front();
    // Mirror of the ReplayInbound skip rule: an entry no restore at or after
    // `floor` can need is dead.
    if (rec.inject_at <= floor && rec.release_barrier < floor) {
      released_.pop_front();
    } else {
      break;
    }
  }
}

size_t OutputCommitBuffer::held_count() const {
  size_t n = 0;
  for (const auto& shard : held_) {
    n += shard.size();
  }
  return n;
}

uint64_t OutputCommitBuffer::held_bytes() const {
  uint64_t n = 0;
  for (const auto& shard : held_) {
    for (const Held& h : shard) {
      n += h.pkt.size_bytes;
    }
  }
  return n;
}

}  // namespace ha
}  // namespace tcsim
