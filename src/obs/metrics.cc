#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace tcsim {
namespace obs {

void Histogram::Observe(double v) {
  ++buckets_[BucketIndex(v)];
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }
  ++count_;
  sum_ += v;
}

size_t Histogram::BucketIndex(double v) {
  if (!(v >= 1.0)) {  // negatives and NaN land in bucket 0 with v < 1
    return 0;
  }
  int exp = 0;
  std::frexp(v, &exp);  // v = m * 2^exp with m in [0.5, 1)
  const size_t index = static_cast<size_t>(exp);  // v in [2^(exp-1), 2^exp)
  return index < kBuckets ? index : kBuckets - 1;
}

double Histogram::BucketUpperBound(size_t i) {
  return i == 0 ? 1.0 : std::ldexp(1.0, static_cast<int>(i));
}

double Histogram::ApproxPercentile(double p) const {
  if (count_ == 0) {
    return 0.0;
  }
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  const uint64_t rank =
      static_cast<uint64_t>(p / 100.0 * static_cast<double>(count_ - 1));
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen > rank) {
      // A bucket's upper bound can lie past every sample (100 holds of
      // 40 ms would read 65.536 ms): no percentile leaves the observed range.
      return std::clamp(BucketUpperBound(i), min_, max_);
    }
  }
  return max_;
}

void Histogram::Reset() {
  buckets_.fill(0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::FindCounter(const std::string& name) {
  std::unique_ptr<Counter>& slot = counters_[name];
  if (!slot) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Gauge* MetricsRegistry::FindGauge(const std::string& name) {
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (!slot) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

Histogram* MetricsRegistry::FindHistogram(const std::string& name) {
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>();
  }
  return slot.get();
}

void MetricsRegistry::ResetAll() {
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

std::string MetricsRegistry::ExportTable() const {
  std::ostringstream out;
  char line[192];
  for (const auto& [name, c] : counters_) {
    std::snprintf(line, sizeof line, "%-52s %20llu\n", name.c_str(),
                  static_cast<unsigned long long>(c->value()));
    out << line;
  }
  for (const auto& [name, g] : gauges_) {
    std::snprintf(line, sizeof line, "%-52s %20.6g\n", name.c_str(), g->value());
    out << line;
  }
  for (const auto& [name, h] : histograms_) {
    std::snprintf(line, sizeof line,
                  "%-52s n=%llu mean=%.6g min=%.6g p50=%.6g p99=%.6g "
                  "p999=%.6g max=%.6g\n",
                  name.c_str(), static_cast<unsigned long long>(h->count()),
                  h->mean(), h->min(), h->ApproxPercentile(50),
                  h->ApproxPercentile(99), h->ApproxPercentile(99.9),
                  h->max());
    out << line;
  }
  return out.str();
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::ExportJson() const {
  std::ostringstream out;
  char buf[256];
  out << "{\"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": %llu", first ? "" : ", ",
                  JsonEscape(name).c_str(),
                  static_cast<unsigned long long>(c->value()));
    out << buf;
    first = false;
  }
  out << "}, \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.6g", first ? "" : ", ",
                  JsonEscape(name).c_str(), g->value());
    out << buf;
    first = false;
  }
  out << "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"count\": %llu, \"sum\": %.6g, \"mean\": %.6g, "
                  "\"min\": %.6g, \"max\": %.6g, \"p50\": %.6g, \"p99\": %.6g, "
                  "\"p999\": %.6g}",
                  first ? "" : ", ", JsonEscape(name).c_str(),
                  static_cast<unsigned long long>(h->count()), h->sum(),
                  h->mean(), h->min(), h->max(), h->ApproxPercentile(50),
                  h->ApproxPercentile(99), h->ApproxPercentile(99.9));
    out << buf;
    first = false;
  }
  out << "}}";
  return out.str();
}

void CaptureSimulatorMetrics(const Simulator& sim) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const double events = static_cast<double>(sim.events_processed());
  reg.FindGauge("sim.queue.events_dispatched")->SetMax(events);
  const double sim_seconds = ToSeconds(sim.Now());
  if (sim_seconds > 0.0) {
    reg.FindGauge("sim.queue.events_per_sim_sec")->SetMax(events / sim_seconds);
  }
  reg.FindGauge("sim.queue.depth_high_water")
      ->SetMax(static_cast<double>(sim.pending_high_water()));
  reg.FindGauge("sim.queue.slot_capacity")
      ->SetMax(static_cast<double>(sim.slot_capacity()));
  reg.FindGauge("sim.queue.slot_reuses")
      ->SetMax(static_cast<double>(sim.slot_reuses()));
}

}  // namespace obs
}  // namespace tcsim
