// Guest-observable trace recording.
//
// The transparency property at the heart of the paper is "a run of the system
// with checkpointing is the same as it would be without checkpointing *as
// observed from within the system*". Tests capture that observation stream as
// a TraceLog of (virtual timestamp, tag, value) records and diff two runs.

#ifndef TCSIM_SRC_SIM_TRACE_H_
#define TCSIM_SRC_SIM_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace tcsim {

// One observation made from inside the system under test.
struct TraceRecord {
  SimTime virtual_time = 0;  // timestamp as seen by the guest
  std::string tag;           // what was observed (e.g. "iter", "recv")
  double value = 0.0;        // observation payload (e.g. measured latency)
};

// Result of comparing two traces record-by-record.
struct TraceDiff {
  // No record index.
  static constexpr size_t kNoMismatch = static_cast<size_t>(-1);

  bool comparable = false;       // same length and same tag sequence
  SimTime max_time_delta = 0;    // max |virtual_time difference|
  double max_value_delta = 0.0;  // max |value difference|
  size_t records = 0;

  // When comparable == false, where the traces diverged: the index of the
  // first record whose tags differ, or — if the common prefix agrees — the
  // length of the shorter trace (one side simply ended). The two mismatching
  // tags are captured for the failure message; a trace that ran out of
  // records reports "<end-of-trace>". kNoMismatch when comparable.
  size_t first_mismatch = kNoMismatch;
  std::string mismatch_a;
  std::string mismatch_b;

  // When comparable == true, the first record whose value or virtual time
  // differs between the traces: its index (kNoMismatch if the traces are
  // identical), its tag, and both sides' virtual time and value.
  struct RecordMismatch {
    size_t index = kNoMismatch;
    std::string tag;
    SimTime time_a = 0;
    SimTime time_b = 0;
    double value_a = 0.0;
    double value_b = 0.0;
  };
  RecordMismatch first_value_mismatch;

  // "comparable" for identical traces, "same shape, but record N 'x' differs:
  // ..." when only times or values differ, or "diverged at record N: 'x' vs
  // 'y'" — the one-line explanation transparency-test failures print.
  std::string Describe() const;
};

// Append-only log of guest observations.
class TraceLog {
 public:
  void Record(SimTime virtual_time, std::string tag, double value) {
    records_.push_back({virtual_time, std::move(tag), value});
  }

  const std::vector<TraceRecord>& records() const { return records_; }
  size_t size() const { return records_.size(); }
  void Clear() { records_.clear(); }

  // Record-by-record comparison with another trace. Traces of different
  // lengths or differing tag sequences yield comparable == false.
  TraceDiff Compare(const TraceLog& other) const;

 private:
  std::vector<TraceRecord> records_;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_SIM_TRACE_H_
