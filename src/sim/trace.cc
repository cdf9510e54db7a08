#include "src/sim/trace.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace tcsim {

namespace {
constexpr const char* kEndOfTrace = "<end-of-trace>";
}  // namespace

std::string TraceDiff::Describe() const {
  const RecordMismatch& m = first_value_mismatch;
  if (comparable && m.index == kNoMismatch) {
    return "comparable";
  }
  std::ostringstream out;
  if (comparable) {
    out << "same shape, but record " << m.index << " '" << m.tag
        << "' differs: value " << m.value_a << " vs " << m.value_b
        << ", virtual time " << m.time_a << " vs " << m.time_b << " ns";
  } else {
    out << "diverged at record " << first_mismatch << ": '" << mismatch_a
        << "' vs '" << mismatch_b << "'";
  }
  return out.str();
}

TraceDiff TraceLog::Compare(const TraceLog& other) const {
  TraceDiff diff;
  const size_t common = std::min(records_.size(), other.records_.size());
  for (size_t i = 0; i < common; ++i) {
    const TraceRecord& a = records_[i];
    const TraceRecord& b = other.records_[i];
    if (a.tag != b.tag) {
      // First tag divergence: pinpoint it even when the lengths also differ
      // (a shape change usually starts with one extra or missing record).
      diff.first_mismatch = i;
      diff.mismatch_a = a.tag;
      diff.mismatch_b = b.tag;
      return diff;
    }
    diff.max_time_delta =
        std::max(diff.max_time_delta, std::abs(a.virtual_time - b.virtual_time));
    diff.max_value_delta = std::max(diff.max_value_delta, std::abs(a.value - b.value));
    TraceDiff::RecordMismatch& m = diff.first_value_mismatch;
    if (m.index == TraceDiff::kNoMismatch &&
        (a.value != b.value || a.virtual_time != b.virtual_time)) {
      m = {i, a.tag, a.virtual_time, b.virtual_time, a.value, b.value};
    }
  }
  if (records_.size() != other.records_.size()) {
    // The common prefix agrees; one side simply has more records.
    diff.first_mismatch = common;
    diff.mismatch_a = common < records_.size() ? records_[common].tag : kEndOfTrace;
    diff.mismatch_b =
        common < other.records_.size() ? other.records_[common].tag : kEndOfTrace;
    return diff;
  }
  diff.comparable = true;
  diff.records = records_.size();
  return diff;
}

}  // namespace tcsim
