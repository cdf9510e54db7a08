#include "src/obs/trace_session.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>

#include "src/sim/invariants.h"

namespace tcsim {
namespace obs {

namespace {

struct Binding {
  uint32_t shard = 0;
  uint64_t epoch = 0;
  bool bound = false;
};

thread_local Binding t_binding;

// Span ids: the shard's placement sequence above, shard index + 1 below.
constexpr int kShardBits = 6;
static_assert(TraceSession::kShards < (1u << kShardBits));

SpanId MakeId(uint32_t shard, uint64_t seq) {
  return (seq << kShardBits) | (shard + 1);
}
uint32_t IdShard(SpanId id) {
  return static_cast<uint32_t>(id & ((1u << kShardBits) - 1)) - 1;
}
uint64_t IdSeq(SpanId id) { return id >> kShardBits; }

std::function<void(const std::string&)>& AuditDumpSink() {
  static std::function<void(const std::string&)> sink;
  return sink;
}

void WriteDump(const std::string& text) {
  if (AuditDumpSink()) {
    AuditDumpSink()(text);
  } else {
    std::fputs(text.c_str(), stderr);
  }
}

// `"key": value` pairs, comma-separated — the body of a JSON args object.
void FormatArgs(const TraceRecord& rec, std::string* out) {
  char buf[160];
  for (uint8_t a = 0; a < rec.nargs; ++a) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.6g", a ? ", " : "",
                  rec.args[a].key, rec.args[a].value);
    *out += buf;
  }
}

void FormatRecord(const TraceRecord& rec, std::string* out) {
  char buf[256];
  if (!rec.has_sim()) {
    std::snprintf(buf, sizeof buf, "  [%s] %s @ wall %.3f ms %s%.3f ms",
                  rec.track, rec.name, rec.wall_begin_ms,
                  rec.open() ? "(open) " : "dur ",
                  rec.open() ? 0.0 : rec.wall_end_ms - rec.wall_begin_ms);
  } else if (rec.kind == 1) {
    std::snprintf(buf, sizeof buf, "  [%s] %s @ %.3f us", rec.track, rec.name,
                  ToMicroseconds(rec.sim_begin));
  } else if (rec.open()) {
    std::snprintf(buf, sizeof buf, "  [%s] %s @ %.3f us (open)", rec.track,
                  rec.name, ToMicroseconds(rec.sim_begin));
  } else {
    std::snprintf(buf, sizeof buf, "  [%s] %s @ %.3f us dur %.3f us",
                  rec.track, rec.name, ToMicroseconds(rec.sim_begin),
                  ToMicroseconds(rec.sim_end - rec.sim_begin));
  }
  *out += buf;
  for (uint8_t a = 0; a < rec.nargs; ++a) {
    std::snprintf(buf, sizeof buf, " %s=%.6g", rec.args[a].key,
                  rec.args[a].value);
    *out += buf;
  }
  *out += '\n';
}

}  // namespace

void TraceSession::StartFull() {
  Clear();
  capacity_ = 0;
  base_ = std::chrono::steady_clock::now();
  owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  mode_.store(Mode::kFull, std::memory_order_relaxed);
}

void TraceSession::StartRing(size_t capacity_per_shard) {
  StartFull();
  capacity_ = capacity_per_shard > 0 ? capacity_per_shard : 1;
  mode_.store(Mode::kRing, std::memory_order_relaxed);
}

void TraceSession::Clear() {
  Stop();
  unbound_drops_.store(0, std::memory_order_relaxed);
  for (Shard& shard : shards_) {
    shard.records.clear();
    shard.placed = 0;
    shard.last_sim = 0;
    shard.tracks.clear();
  }
}

void TraceSession::BindThread(uint32_t shard, uint64_t epoch) {
  t_binding = Binding{shard, epoch, true};
}

void TraceSession::UnbindThread() { t_binding = Binding{}; }

uint64_t TraceSession::BoundEpoch() {
  return t_binding.bound ? t_binding.epoch : 0;
}

ThreadBinding::ThreadBinding(uint32_t shard, uint64_t epoch)
    : shard_(t_binding.shard),
      epoch_(t_binding.epoch),
      bound_(t_binding.bound) {
  TraceSession::BindThread(shard, epoch);
}

ThreadBinding::~ThreadBinding() { t_binding = Binding{shard_, epoch_, bound_}; }

uint32_t TraceSession::CallerShard() const {
  if (t_binding.bound) {
    return std::min(t_binding.shard, kShards);
  }
  return owner_.load(std::memory_order_relaxed) == std::this_thread::get_id()
             ? kCoordinatorShard
             : kShards;
}

TraceRecord* TraceSession::Place(std::string_view track, const char* name,
                                 const char* cause, uint8_t kind, SimTime t,
                                 std::initializer_list<TraceArg> args) {
  const uint32_t index = CallerShard();
  if (index >= kShards) {
    // No shard this thread may write without racing its owner: dropping
    // (counted) beats breaking the single-writer discipline.
    unbound_drops_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  Shard& shard = shards_[index];
  TraceRecord rec;
  rec.id = MakeId(index, shard.placed);
  auto it = shard.tracks.find(track);
  if (it == shard.tracks.end()) {
    it = shard.tracks.emplace(track).first;
  }
  rec.track = it->c_str();
  rec.name = name;
  rec.cause = cause;
  rec.kind = kind;
  if (t_binding.bound) {
    rec.epoch = t_binding.epoch;
    rec.partition =
        index < kMaxPartitionShards ? static_cast<int32_t>(index) : -1;
  }
  if (t == kShardSimTime) {
    t = shard.last_sim;
  } else if (t != kNoSimTime) {
    shard.last_sim = std::max(shard.last_sim, t);
  }
  rec.sim_begin = t;
  rec.wall_begin_ms = NowMs();
  for (const TraceArg& arg : args) {
    if (rec.nargs < TraceRecord::kMaxArgs) {
      rec.args[rec.nargs++] = arg;
    }
  }
  TraceRecord* slot;
  if (capacity_ > 0 && shard.records.size() >= capacity_) {
    slot = &shard.records[shard.placed % capacity_];
    *slot = rec;
  } else {
    shard.records.push_back(rec);
    slot = &shard.records.back();
  }
  ++shard.placed;
  return slot;
}

TraceRecord* TraceSession::Find(SpanId id) {
  if (id == 0 || IdShard(id) != CallerShard()) {
    return nullptr;
  }
  Shard& shard = shards_[IdShard(id)];
  const uint64_t seq = IdSeq(id);
  const size_t slot =
      static_cast<size_t>(capacity_ > 0 ? seq % capacity_ : seq);
  if (slot >= shard.records.size() || shard.records[slot].id != id) {
    return nullptr;  // stale ids were overwritten
  }
  return &shard.records[slot];
}

const TraceRecord& TraceSession::Chrono(const Shard& shard, size_t i) const {
  if (capacity_ > 0 && shard.records.size() >= capacity_) {
    // The ring is full: the oldest survivor is the next one to overwrite.
    return shard.records[(shard.placed + i) % capacity_];
  }
  return shard.records[i];
}

SpanId TraceSession::BeginSpan(std::string_view track, const char* name,
                               SimTime t, const char* cause) {
  if (!enabled()) {
    return 0;
  }
  TraceRecord* rec = Place(track, name, cause, 0, t, {});
  return rec != nullptr ? rec->id : 0;
}

void TraceSession::EndSpan(SpanId id, SimTime t) {
  TraceRecord* rec = Find(id);
  if (rec == nullptr || rec->kind != 0 || !rec->open()) {
    return;
  }
  rec->wall_end_ms = NowMs();
  if (rec->has_sim()) {
    if (t == kNoSimTime || t == kShardSimTime) {
      t = rec->sim_begin;  // no sim end given: the span took no sim time
    }
    Shard& shard = shards_[IdShard(id)];
    shard.last_sim = std::max(shard.last_sim, t);
    rec->sim_end = std::max(t, rec->sim_begin);
  }
}

void TraceSession::AddSpanArg(SpanId id, const char* key, double value) {
  TraceRecord* rec = Find(id);
  if (rec != nullptr && rec->nargs < TraceRecord::kMaxArgs) {
    rec->args[rec->nargs++] = TraceArg{key, value};
  }
}

void TraceSession::SetSpanPartition(SpanId id, int32_t partition) {
  if (TraceRecord* rec = Find(id)) {
    rec->partition = partition;
  }
}

void TraceSession::Instant(std::string_view track, const char* name, SimTime t,
                           std::initializer_list<TraceArg> args) {
  if (TraceRecord* rec = enabled() ? Place(track, name, "", 1, t, args)
                                   : nullptr) {
    rec->sim_end = rec->sim_begin;
    rec->wall_end_ms = rec->wall_begin_ms;
  }
}

void TraceSession::Stamp(std::string_view track, const char* name,
                         const char* cause, double wall_begin_ms,
                         double wall_end_ms,
                         std::initializer_list<TraceArg> args) {
  if (TraceRecord* rec =
          enabled() ? Place(track, name, cause, 0, kNoSimTime, args)
                    : nullptr) {
    rec->wall_begin_ms = wall_begin_ms;
    rec->wall_end_ms = wall_end_ms;
  }
}

SimTime TraceSession::LastSimTime() const {
  const uint32_t index = CallerShard();
  return index < kShards ? shards_[index].last_sim : 0;
}

size_t TraceSession::recorded() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    n += shard.records.size();
  }
  return n;
}

uint64_t TraceSession::total_events() const {
  uint64_t n = 0;
  for (const Shard& shard : shards_) {
    n += shard.placed;
  }
  return n;
}

uint64_t TraceSession::dropped() const {
  return unbound_drops_.load(std::memory_order_relaxed) + total_events() -
         recorded();
}

std::vector<const TraceRecord*> TraceSession::Held(
    bool (*keep)(const TraceRecord&)) const {
  // Shard order and each shard's emission order are fixed, so a stable sort
  // of this concatenation is deterministic whatever the interleaving.
  std::vector<const TraceRecord*> out;
  for (const Shard& shard : shards_) {
    for (size_t i = 0; i < shard.records.size(); ++i) {
      if (keep(Chrono(shard, i))) {
        out.push_back(&Chrono(shard, i));
      }
    }
  }
  return out;
}

std::vector<const TraceRecord*> TraceSession::SimRecordsSorted() const {
  // Track names, not intern order, lead.
  std::vector<const TraceRecord*> out =
      Held([](const TraceRecord& rec) { return rec.has_sim(); });
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceRecord* a, const TraceRecord* b) {
                     const int c = std::strcmp(a->track, b->track);
                     if (c != 0) return c < 0;
                     if (a->sim_begin != b->sim_begin) {
                       return a->sim_begin < b->sim_begin;
                     }
                     return a->id < b->id;
                   });
  return out;
}

std::string TraceSession::ExportChromeJson() const {
  const std::vector<const TraceRecord*> ordered = SimRecordsSorted();
  std::vector<const char*> tracks;  // sorted, unique: index = tid
  for (const TraceRecord* rec : ordered) {
    if (tracks.empty() || std::strcmp(tracks.back(), rec->track) != 0) {
      tracks.push_back(rec->track);
    }
  }
  std::string out = "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  char buf[256];
  const char* sep = "";
  for (size_t i = 0; i < tracks.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"ph\": \"M\", \"pid\": 0, \"tid\": %zu, \"name\": "
                  "\"thread_name\", \"args\": {\"name\": \"%s\"}}",
                  sep, i, tracks[i]);
    out += buf;
    sep = ",\n";
  }
  size_t tid = 0;
  for (const TraceRecord* rec : ordered) {
    while (std::strcmp(tracks[tid], rec->track) != 0) {
      ++tid;
    }
    const bool open = rec->kind == 0 && rec->open();
    if (rec->kind == 1) {
      std::snprintf(buf, sizeof buf,
                    "%s{\"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \"tid\": %zu, "
                    "\"cat\": \"tcsim\", \"name\": \"%s\", \"ts\": %.3f",
                    sep, tid, rec->name, ToMicroseconds(rec->sim_begin));
    } else {
      std::snprintf(buf, sizeof buf,
                    "%s{\"ph\": \"X\", \"pid\": 0, \"tid\": %zu, \"cat\": "
                    "\"tcsim\", \"name\": \"%s\", \"ts\": %.3f, \"dur\": %.3f",
                    sep, tid, rec->name, ToMicroseconds(rec->sim_begin),
                    open ? 0.0 : ToMicroseconds(rec->sim_end - rec->sim_begin));
    }
    out += buf;
    sep = ",\n";
    if (rec->nargs > 0 || open) {
      out += ", \"args\": {";
      FormatArgs(*rec, &out);
      if (open) {
        out += rec->nargs ? ", \"open\": 1" : "\"open\": 1";
      }
      out += "}";
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

std::string TraceSession::ExportSummaryTable() const {
  struct Agg {
    uint64_t count = 0;
    SimTime total = 0;
    SimTime max = 0;
    bool instant = true;
  };
  std::map<std::pair<std::string, std::string>, Agg> by_name;
  for (const TraceRecord* rec : SimRecordsSorted()) {
    Agg& agg = by_name[{rec->track, rec->name}];
    ++agg.count;
    if (rec->kind == 0 && !rec->open()) {
      agg.instant = false;
      agg.total += rec->sim_end - rec->sim_begin;
      agg.max = std::max(agg.max, rec->sim_end - rec->sim_begin);
    }
  }
  std::ostringstream out;
  char line[192];
  std::snprintf(line, sizeof line, "%-16s %-24s %8s %12s %12s %12s\n", "track",
                "span", "count", "total_ms", "mean_ms", "max_ms");
  out << line;
  for (const auto& [key, agg] : by_name) {
    if (agg.instant) {
      std::snprintf(line, sizeof line, "%-16s %-24s %8llu %12s %12s %12s\n",
                    key.first.c_str(), key.second.c_str(),
                    static_cast<unsigned long long>(agg.count), "-", "-", "-");
    } else {
      const double total_ms = ToSeconds(agg.total) * 1e3;
      std::snprintf(line, sizeof line,
                    "%-16s %-24s %8llu %12.3f %12.3f %12.3f\n",
                    key.first.c_str(), key.second.c_str(),
                    static_cast<unsigned long long>(agg.count), total_ms,
                    total_ms / static_cast<double>(agg.count),
                    ToSeconds(agg.max) * 1e3);
    }
    out << line;
  }
  return out.str();
}

int TraceSession::PhaseRank(const char* phase) {
  // The serial chain first (in pipeline order), then the parallel freeze /
  // capture details, then the overlapped background commit's internals.
  static constexpr const char* kOrder[] = {
      "epoch",          "window",           "commit_wait",
      "freeze",         "capture",          "spill",
      "commit_launch",  "epoch_commit",     "output_release",
      "failover",       "freeze.partition", "capture.partition",
      "commit",         "serialize.partition", "repo.hash_wait",
      "repo.append",    "repo.fsync",       "repo.journal",
  };
  const int n = static_cast<int>(sizeof(kOrder) / sizeof(kOrder[0]));
  for (int i = 0; i < n; ++i) {
    if (std::strcmp(phase, kOrder[i]) == 0) {
      return i;
    }
  }
  return n;
}

std::vector<TraceRecord> TraceSession::LedgerRecords() const {
  std::vector<TraceRecord> out;
  for (const TraceRecord* rec :
       Held([](const TraceRecord& r) { return r.epoch != 0; })) {
    out.push_back(*rec);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     if (a.epoch != b.epoch) return a.epoch < b.epoch;
                     const int ra = PhaseRank(a.name);
                     const int rb = PhaseRank(b.name);
                     if (ra != rb) return ra < rb;
                     return a.partition < b.partition;
                   });
  return out;
}

std::string TraceSession::ExportJsonl() const {
  std::string out;
  char buf[256];
  for (const TraceRecord& rec : LedgerRecords()) {
    std::snprintf(buf, sizeof buf,
                  "{\"epoch\": %llu, \"partition\": %d, \"phase\": \"%s\", "
                  "\"begin_ms\": %.6f, \"end_ms\": %.6f, \"cause\": \"%s\"",
                  static_cast<unsigned long long>(rec.epoch), rec.partition,
                  rec.name, rec.wall_begin_ms, rec.wall_end_ms, rec.cause);
    out += buf;
    if (rec.nargs > 0) {
      out += ", \"args\": {";
      FormatArgs(rec, &out);
      out += "}";
    }
    out += "}\n";
  }
  return out;
}

bool TraceSession::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string text = ExportJsonl();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

std::string TraceSession::DumpTail(size_t n) const {
  const uint32_t index = CallerShard();
  std::string out;
  if (index >= kShards) {
    return out;
  }
  const Shard& shard = shards_[index];
  const size_t held = shard.records.size();
  for (size_t i = held > n ? held - n : 0; i < held; ++i) {
    FormatRecord(Chrono(shard, i), &out);
  }
  return out;
}

void TraceSession::DumpRingNow(const char* reason, size_t tail) const {
  if (mode() != Mode::kRing) {
    return;
  }
  const std::string records = DumpTail(tail);
  WriteDump(std::string("=== flight recorder: ") + reason + " ===\n" +
            (records.empty() ? "  (no telemetry records held)\n" : records));
}

void TraceSession::SetAuditDumpSink(std::function<void(const std::string&)> sink) {
  AuditDumpSink() = std::move(sink);
}

void TraceSession::InstallAuditDump(size_t tail) {
  auto dumped = std::make_shared<bool>(false);
  InvariantRegistry::SetGlobalViolationHook(
      [tail, dumped](const InvariantViolation& violation) {
        if (*dumped) {
          return;
        }
        *dumped = true;
        std::ostringstream out;
        out << "=== flight recorder: invariant [" << violation.invariant
            << "] violated at t=" << ToSeconds(violation.time)
            << "s: " << violation.detail << " ===\n";
        const std::string records = TraceSession::Global().DumpTail(tail);
        out << (records.empty() ? "  (no telemetry records held)\n" : records);
        WriteDump(out.str());
      });
}

}  // namespace obs
}  // namespace tcsim
