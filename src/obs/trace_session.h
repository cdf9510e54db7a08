// The telemetry layer's one recorder: every span, instant and epoch-pipeline
// phase goes through it, and every exporter reads its one record stream.
//
// A record carries both clocks:
//   - an optional *simulated* interval — the only clock that means anything
//     inside the modelled testbed;
//   - a *wall* interval, in ms of steady_clock since recording started —
//     where the host's time went inside each checkpoint epoch's pipeline.
// Besides the clocks: a track (one per node, plus one per layer:
// "checkpoint", "repo", "ha", "emulab", "coordinator"), a literal name, a
// literal cause, the epoch and partition of the recording thread's binding,
// and up to kMaxArgs numeric args.
//
// Storage is one single-writer shard per partition plus a coordinator shard
// and a commit shard. A thread writes the shard it is bound to
// (BindThread / ThreadBinding): the epoch coordinator binds itself to the
// coordinator shard per epoch, partition workers bind to their partition's
// shard inside a ForEachPartition phase, and the background-commit thread
// binds to the commit shard. The thread that started recording owns the
// coordinator shard until it binds elsewhere; any other unbound thread's
// records are dropped and counted. No shard ever has two writers, so the
// record path needs no lock and no atomic read-modify-write.
//
// Exporters (call only when no record is in flight — after the joins):
//   - Chrome trace JSON and the summary table cover records with a sim
//     interval, in (track name, sim begin, id) order;
//   - the ledger JSONL (and LedgerRecords(), which tools/analyze consumes)
//     covers records made under an epoch binding, in (epoch, phase rank,
//     partition) order;
//   - DumpTail / the flight-recorder dump read only the calling thread's
//     shard, so they never read a shard another thread is writing.
//
// Modes: kOff (a span costs one relaxed load: no clock read, no
// allocation), kFull (every record kept), kRing (each shard keeps its newest
// N records — the crash flight recorder; InstallAuditDump dumps the tail on
// the first invariant violation).
//
// The perturbation-free rule: recording never schedules events, never reads
// the RNG, never mutates anything a component observes. A run with recording
// on must leave every digest bit-identical to the same run with it off;
// tests/obs_test.cc, tests/ledger_test.cc and tests/ha_test.cc enforce it.

#ifndef TCSIM_SRC_OBS_TRACE_SESSION_H_
#define TCSIM_SRC_OBS_TRACE_SESSION_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <new>
#include <string>
#include <string_view>
#include <set>
#include <thread>
#include <vector>

#include "src/sim/time.h"

namespace tcsim {
namespace obs {

// Identifies an open span. 0 = invalid (recording was off at Begin, the
// thread had no shard, or the ring has since overwritten the record); every
// operation on it is a no-op, so callers never need to test it.
using SpanId = uint64_t;

// Sim-time arguments: a wall-only record, or "the recording shard's latest
// sim time" for layers with no simulator at hand (repository I/O happens
// inside a capture event; stamping it there keeps causality readable).
inline constexpr SimTime kNoSimTime = std::numeric_limits<SimTime>::min();
inline constexpr SimTime kShardSimTime = kNoSimTime + 1;

// One numeric annotation. `key` must outlive the session (string literals).
struct TraceArg {
  const char* key;
  double value;
};

struct TraceRecord {
  static constexpr size_t kMaxArgs = 6;

  SpanId id = 0;
  const char* track = "";  // interned by the owning shard
  const char* name = "";
  const char* cause = "";
  uint8_t kind = 0;  // 0 = span, 1 = instant
  uint8_t nargs = 0;
  int32_t partition = -1;  // -1 = system-wide
  uint64_t epoch = 0;      // 0 = not under an epoch binding
  SimTime sim_begin = kNoSimTime;
  SimTime sim_end = kNoSimTime;
  double wall_begin_ms = 0.0;
  double wall_end_ms = -1.0;  // spans: -1 while open
  TraceArg args[kMaxArgs];

  bool has_sim() const { return sim_begin != kNoSimTime; }
  bool open() const { return wall_end_ms < 0.0; }
};

class TraceSession {
 public:
  enum class Mode { kOff, kFull, kRing };

  static constexpr size_t kDefaultRingCapacity = 4096;
  static constexpr uint32_t kMaxPartitionShards = 61;
  static constexpr uint32_t kCoordinatorShard = kMaxPartitionShards;
  static constexpr uint32_t kCommitShard = kMaxPartitionShards + 1;
  static constexpr uint32_t kShards = kMaxPartitionShards + 2;

  TraceSession() = default;
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  // The process-wide session every layer records into.
  static TraceSession& Global() {
    // Static storage, never destroyed: no heap allocation, and threads still
    // recording at exit never see a destroyed session.
    alignas(TraceSession) static unsigned char storage[sizeof(TraceSession)];
    static TraceSession* const session = new (storage) TraceSession();
    return *session;
  }

  // Starting clears held records, re-bases the wall clock and makes the
  // calling thread the coordinator shard's default owner. Must not race
  // in-flight records (call between runs).
  void StartFull();
  void StartRing(size_t capacity_per_shard = kDefaultRingCapacity);
  // Stops recording; held records stay exportable.
  void Stop() { mode_.store(Mode::kOff, std::memory_order_relaxed); }
  // Stops recording and drops every held record.
  void Clear();

  Mode mode() const { return mode_.load(std::memory_order_relaxed); }
  bool enabled() const { return mode() != Mode::kOff; }

  // Wall milliseconds since the last Start.
  double NowMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - base_)
        .count();
  }

  // --- Thread binding -------------------------------------------------------

  // Binds the calling thread to `shard` with `epoch` as the label of its
  // records (0 = no epoch). Partition shards label records with their index
  // as the partition; an out-of-range shard drops the thread's records.
  static void BindThread(uint32_t shard, uint64_t epoch);
  static void UnbindThread();
  // The epoch bound to this thread (0 when unbound).
  static uint64_t BoundEpoch();
  // Partition p's shard; partitions beyond the shard budget drop (counted)
  // rather than share a shard with another writer.
  static constexpr uint32_t PartitionShard(uint32_t p) {
    return p < kMaxPartitionShards ? p : kShards;
  }

  // --- Recording --------------------------------------------------------------
  // Names, causes and arg keys must be string literals (stored by pointer).
  // A begin or instant time may be kNoSimTime (wall-only) or kShardSimTime;
  // a span ended without a sim time ends at its sim begin.

  SpanId BeginSpan(std::string_view track, const char* name, SimTime t,
                   const char* cause = "");
  void EndSpan(SpanId id, SimTime t = kNoSimTime);
  void AddSpanArg(SpanId id, const char* key, double value);
  void Instant(std::string_view track, const char* name, SimTime t,
               std::initializer_list<TraceArg> args = {});
  // A finished wall-only phase with explicit bounds (NowMs() values).
  void Stamp(std::string_view track, const char* name, const char* cause,
             double wall_begin_ms, double wall_end_ms,
             std::initializer_list<TraceArg> args = {});

  // The largest sim time the calling thread's shard has recorded.
  SimTime LastSimTime() const;

  // --- Introspection ----------------------------------------------------------

  size_t recorded() const;        // held records, all shards
  uint64_t total_events() const;  // records ever placed, all shards
  // Records not held: overwritten by the ring, or made by a thread with no
  // shard.
  uint64_t dropped() const;

  // --- Export -----------------------------------------------------------------

  std::string ExportChromeJson() const;
  std::string ExportSummaryTable() const;
  // Records made under an epoch binding, ordered by (epoch, phase rank,
  // partition, shard, emission order).
  std::vector<TraceRecord> LedgerRecords() const;
  // One JSON object per line:
  //   {"epoch": k, "partition": p, "phase": "...", "begin_ms": b,
  //    "end_ms": e, "cause": "...", "args": {...}}
  std::string ExportJsonl() const;
  bool WriteJsonl(const std::string& path) const;
  // Rank of a pipeline phase in the ledger order; unknown phases rank last.
  static int PhaseRank(const char* phase);

  // The calling thread's shard's newest `n` records, oldest first.
  std::string DumpTail(size_t n) const;
  // In ring mode, writes the calling thread's newest `tail` records
  // (prefixed with `reason`) through the audit-dump sink. No-op otherwise,
  // so recovery paths call it unconditionally.
  void DumpRingNow(const char* reason, size_t tail = 64) const;
  // The first invariant violation any InvariantRegistry records dumps the
  // violating thread's newest `tail` records through the audit-dump sink
  // (stderr by default). Later violations do not re-dump.
  void InstallAuditDump(size_t tail = 64);
  // Redirects the audit dump (tests). Null restores stderr.
  static void SetAuditDumpSink(std::function<void(const std::string&)> sink);

 private:
  friend class Span;

  // Written only by the thread bound to it; the alignment keeps shards off
  // each other's cache lines.
  struct alignas(64) Shard {
    std::vector<TraceRecord> records;
    uint64_t placed = 0;
    SimTime last_sim = 0;
    std::set<std::string, std::less<>> tracks;  // interned; nodes are stable
  };

  // The calling thread's shard index, or kShards when it has none.
  uint32_t CallerShard() const;
  // Places a record in the caller's shard (epoch, partition and id filled
  // in). Null when the caller has no shard (counted as dropped).
  TraceRecord* Place(std::string_view track, const char* name,
                     const char* cause, uint8_t kind, SimTime t,
                     std::initializer_list<TraceArg> args);
  // The record `id` names, if the caller owns its shard and it is held.
  TraceRecord* Find(SpanId id);
  const TraceRecord& Chrono(const Shard& shard, size_t i) const;
  // Held records passing `keep`, shard by shard, oldest first.
  std::vector<const TraceRecord*> Held(bool (*keep)(const TraceRecord&)) const;
  std::vector<const TraceRecord*> SimRecordsSorted() const;
  void SetSpanPartition(SpanId id, int32_t partition);

  std::atomic<Mode> mode_{Mode::kOff};
  std::atomic<std::thread::id> owner_{};
  std::atomic<uint64_t> unbound_drops_{0};
  size_t capacity_ = 0;  // ring mode only
  std::chrono::steady_clock::time_point base_ =
      std::chrono::steady_clock::now();
  std::array<Shard, kShards> shards_;
};

// Binds the calling thread for a scope, restoring its previous binding.
class ThreadBinding {
 public:
  ThreadBinding(uint32_t shard, uint64_t epoch);
  ~ThreadBinding();
  ThreadBinding(const ThreadBinding&) = delete;
  ThreadBinding& operator=(const ThreadBinding&) = delete;

 private:
  uint32_t shard_;
  uint64_t epoch_;
  bool bound_;
};

// A scoped span in the global session: wall clock from construction to
// End() (or destruction); sim interval from `sim_begin` (kNoSimTime:
// wall-only) to End's argument, or to `sim_begin` when End has none.
class Span {
 public:
  Span(std::string_view track, const char* name, const char* cause = "",
       SimTime sim_begin = kNoSimTime) {
    TraceSession& session = TraceSession::Global();
    if (session.enabled()) {
      id_ = session.BeginSpan(track, name, sim_begin, cause);
    }
  }
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void Arg(const char* key, double value) {
    if (id_ != 0) TraceSession::Global().AddSpanArg(id_, key, value);
  }
  // Overrides the binding's partition (work done for one partition from a
  // system-wide thread).
  void SetPartition(int32_t partition) {
    if (id_ != 0) TraceSession::Global().SetSpanPartition(id_, partition);
  }
  void End(SimTime sim_end = kNoSimTime) {
    if (id_ != 0) {
      TraceSession::Global().EndSpan(id_, sim_end);
      id_ = 0;
    }
  }

 private:
  SpanId id_ = 0;
};

}  // namespace obs
}  // namespace tcsim

#endif  // TCSIM_SRC_OBS_TRACE_SESSION_H_
