// Shared output helpers for the figure/table reproduction harnesses.
//
// Every binary in bench/ regenerates one table or figure from the paper's
// evaluation (Section 7) and prints (a) the paper's reported values, (b) the
// values measured in this reproduction, in a stable plain-text format that
// EXPERIMENTS.md quotes.
//
// All helpers also record into a process-wide BenchReport. When the binary is
// invoked with --json, the plain-text output is suppressed and BenchMain
// emits the recorded report as one JSON object on stdout instead — the same
// numbers, machine-readable, consumed by bench/run_all.sh to build a
// consolidated JSON document (BENCH_PR<N>.json; see bench/run_all.sh).
//
// Telemetry flags: --trace[=FILE] and --ledger[=FILE] arm the one recorder
// (obs::TraceSession) in full mode; they differ only in the exporter that
// writes at exit — Chrome trace JSON (open at chrome://tracing) to FILE or
// <name>_trace.json, or the epoch ledger's JSONL (feed it to
// tools/tcsim_analyze) to FILE or <name>_ledger.jsonl. --metrics prints the
// metric registry and the span summary table after the run. Under --audit
// with neither, the harness arms the ring-buffer flight recorder instead, so
// the first invariant violation dumps the timeline that led up to it. With
// --json the metric registry is always folded into the emitted object under
// "telemetry" — "metrics" is taken by the paper-vs-measured rows EmitJson
// writes, and emitting both under one key produced a duplicate-key object
// whose parse depended on the reader's last-wins/first-wins policy.
//
// Benches that compute attribution columns in-process restart the recorder
// for each measured run (tools::AttributeRun), so both exports hold the last
// such run onward.

#ifndef TCSIM_BENCH_BENCH_UTIL_H_
#define TCSIM_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace_session.h"
#include "src/sim/invariants.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace tcsim {

// True when `flag` (e.g. "--audit") appears among the arguments.
inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return true;
    }
  }
  return false;
}

// Value of `--flag` / `--flag=value` among the arguments: null when absent,
// "" for the bare flag, the text after '=' otherwise.
inline const char* FlagValue(int argc, char** argv, const char* flag) {
  const size_t len = std::strlen(flag);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], flag, len) == 0) {
      if (argv[i][len] == '\0') {
        return "";
      }
      if (argv[i][len] == '=') {
        return argv[i] + len + 1;
      }
    }
  }
  return nullptr;
}

// Process-wide recorder behind the Print* helpers. Benches never touch it
// directly except through BenchMain (below) or AddExtra() for bench-specific
// structured payloads.
class BenchReport {
 public:
  static BenchReport& Instance() {
    static BenchReport report;
    return report;
  }

  bool json_mode() const { return json_mode_; }
  void SetJsonMode(bool on) { json_mode_ = on; }
  void SetName(std::string name) { name_ = std::move(name); }

  void RecordHeader(const std::string& id, const std::string& title) {
    id_ = id;
    title_ = title;
  }
  void RecordSection(const std::string& name) { section_ = name; }
  void RecordMetric(const std::string& label, bool has_paper, double paper,
                    double measured, const std::string& unit) {
    metrics_.push_back({section_, label, unit, paper, measured, has_paper});
  }
  void RecordNote(const std::string& note) { notes_.push_back(note); }
  void RecordDigest(uint64_t digest) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(digest));
    digests_.push_back(buf);
  }
  void RecordAudit(bool ok) {
    audit_seen_ = true;
    audit_ok_ = audit_ok_ && ok;
  }
  void RecordSeries(const std::string& name, const TimeSeries& series,
                    size_t stride) {
    series_.push_back({name, {}});
    for (size_t i = 0; i < series.size(); i += stride) {
      series_.back().points.push_back(
          {ToSeconds(series.points()[i].time), series.points()[i].value});
    }
  }

  // Attaches a bench-specific raw JSON value (object or array) under `key`.
  // The caller is responsible for `raw` being valid JSON.
  void AddExtra(const std::string& key, const std::string& raw) {
    extras_.push_back({key, raw});
  }

  // Emits the whole report as one JSON object. `rc` is the process exit code
  // the bench is about to return; "ok" reflects it.
  void EmitJson(int rc) const {
    std::printf("{\n  \"bench\": \"%s\",\n", Escape(name_).c_str());
    if (!id_.empty()) {
      std::printf("  \"id\": \"%s\",\n  \"title\": \"%s\",\n",
                  Escape(id_).c_str(), Escape(title_).c_str());
    }
    std::printf("  \"metrics\": [");
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::printf("%s\n    {\"section\": \"%s\", \"label\": \"%s\", "
                  "\"unit\": \"%s\", ",
                  i ? "," : "", Escape(m.section).c_str(),
                  Escape(m.label).c_str(), Escape(m.unit).c_str());
      if (m.has_paper) {
        std::printf("\"paper\": %.6g, ", m.paper);
      }
      std::printf("\"measured\": %.6g}", m.measured);
    }
    std::printf("%s],\n", metrics_.empty() ? "" : "\n  ");
    std::printf("  \"digests\": [");
    for (size_t i = 0; i < digests_.size(); ++i) {
      std::printf("%s\"%s\"", i ? ", " : "", digests_[i].c_str());
    }
    std::printf("],\n");
    if (!series_.empty()) {
      std::printf("  \"series\": {");
      for (size_t i = 0; i < series_.size(); ++i) {
        std::printf("%s\n    \"%s\": [", i ? "," : "",
                    Escape(series_[i].name).c_str());
        for (size_t j = 0; j < series_[i].points.size(); ++j) {
          std::printf("%s[%.3f, %.6g]", j ? ", " : "",
                      series_[i].points[j].t, series_[i].points[j].v);
        }
        std::printf("]");
      }
      std::printf("\n  },\n");
    }
    if (!notes_.empty()) {
      std::printf("  \"notes\": [");
      for (size_t i = 0; i < notes_.size(); ++i) {
        std::printf("%s\"%s\"", i ? ", " : "", Escape(notes_[i]).c_str());
      }
      std::printf("],\n");
    }
    for (const Extra& e : extras_) {
      std::printf("  \"%s\": %s,\n", Escape(e.key).c_str(), e.raw.c_str());
    }
    if (audit_seen_) {
      std::printf("  \"audit_ok\": %s,\n", audit_ok_ ? "true" : "false");
    }
    std::printf("  \"ok\": %s\n}\n", rc == 0 ? "true" : "false");
  }

 private:
  struct Metric {
    std::string section, label, unit;
    double paper, measured;
    bool has_paper;
  };
  struct Point {
    double t, v;
  };
  struct Series {
    std::string name;
    std::vector<Point> points;
  };
  struct Extra {
    std::string key, raw;
  };

  static std::string Escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  }

  bool json_mode_ = false;
  std::string name_, id_, title_, section_;
  std::vector<Metric> metrics_;
  std::vector<std::string> digests_;
  std::vector<std::string> notes_;
  std::vector<Series> series_;
  std::vector<Extra> extras_;
  bool audit_seen_ = false;
  bool audit_ok_ = true;
};

// Per-binary entry/exit shim: parses --json, names the report, and at the end
// of main emits the JSON object when requested.
//
//   int main(int argc, char** argv) {
//     tcsim::BenchMain bm(argc, argv, "fig4_sleep_loop");
//     return bm.Finish(tcsim::Run(tcsim::HasFlag(argc, argv, "--audit")));
//   }
class BenchMain {
 public:
  BenchMain(int argc, char** argv, const char* name) {
    BenchReport::Instance().SetName(name);
    BenchReport::Instance().SetJsonMode(HasFlag(argc, argv, "--json"));
    metrics_ = HasFlag(argc, argv, "--metrics");
    const char* trace = FlagValue(argc, argv, "--trace");
    if (trace != nullptr) {
      trace_file_ = *trace != '\0' ? trace : std::string(name) + "_trace.json";
    }
    const char* ledger = FlagValue(argc, argv, "--ledger");
    if (ledger != nullptr) {
      ledger_file_ =
          *ledger != '\0' ? ledger : std::string(name) + "_ledger.jsonl";
    }
    obs::TraceSession& session = obs::TraceSession::Global();
    if (trace != nullptr || ledger != nullptr) {
      session.StartFull();
    } else if (HasFlag(argc, argv, "--audit")) {
      // No export requested but audits are on: arm the flight recorder so a
      // violation comes with the timeline that led up to it.
      session.StartRing();
    }
    if (session.enabled()) {
      session.InstallAuditDump();
    }
  }

  int Finish(int rc) const {
    obs::TraceSession& trace = obs::TraceSession::Global();
    if (!trace_file_.empty()) {
      std::FILE* f = std::fopen(trace_file_.c_str(), "w");
      if (f != nullptr) {
        const std::string json = trace.ExportChromeJson();
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        if (!BenchReport::Instance().json_mode()) {
          std::printf("\ntrace: %zu events -> %s (open in chrome://tracing)\n",
                      trace.recorded(), trace_file_.c_str());
        }
      } else {
        std::fprintf(stderr, "cannot write trace file %s\n", trace_file_.c_str());
      }
    }
    if (metrics_ && !BenchReport::Instance().json_mode()) {
      std::printf("\n--- metrics ---\n%s",
                  obs::MetricsRegistry::Global().ExportTable().c_str());
      if (trace.recorded() > 0) {
        std::printf("\n--- spans ---\n%s", trace.ExportSummaryTable().c_str());
      }
    }
    if (!ledger_file_.empty()) {
      if (trace.WriteJsonl(ledger_file_)) {
        if (!BenchReport::Instance().json_mode()) {
          std::printf("\nledger: %zu records -> %s (analyze with "
                      "tcsim_analyze)\n",
                      trace.LedgerRecords().size(), ledger_file_.c_str());
        }
      } else {
        std::fprintf(stderr, "cannot write ledger file %s\n",
                     ledger_file_.c_str());
      }
    }
    if (BenchReport::Instance().json_mode()) {
      BenchReport::Instance().AddExtra("telemetry",
                                       obs::MetricsRegistry::Global().ExportJson());
      BenchReport::Instance().EmitJson(rc);
    }
    return rc;
  }

 private:
  bool metrics_ = false;
  std::string trace_file_;
  std::string ledger_file_;
};

// True while --json is active: helpers keep recording but stop printing.
inline bool JsonQuiet() { return BenchReport::Instance().json_mode(); }

// Prints the run's event-dispatch digest. Two runs of the same scenario with
// the same seed must print the same value — the deterministic-replay check.
inline void PrintDigest(const Simulator& sim) {
  BenchReport::Instance().RecordDigest(sim.Digest());
  obs::CaptureSimulatorMetrics(sim);
  if (JsonQuiet()) {
    return;
  }
  std::printf("\nevent digest: %016llx\n",
              static_cast<unsigned long long>(sim.Digest()));
}

// Ends an audit pass: runs the final end-of-run audits, prints the summary,
// and returns the process exit code (0 = all audits pass).
inline int FinishAudit(InvariantRegistry* reg) {
  if (reg == nullptr) {
    return 0;
  }
  reg->FinishRun();
  BenchReport::Instance().RecordAudit(reg->ok());
  if (!JsonQuiet()) {
    std::printf("\n--- audit ---\n%s\n", reg->Summary().c_str());
  }
  return reg->ok() ? 0 : 1;
}

// Accumulator for benches that run several independent simulations: combines
// each run's digest (XOR — deterministic and order-independent) and audit
// outcome into one printout / exit code.
struct MultiRunAudit {
  bool enabled = false;
  int rc = 0;
  uint64_t digest = 0;

  explicit MultiRunAudit(bool audit) : enabled(audit) {}

  // Call once per finished simulation; `reg` may be null (no audit run).
  void Collect(const Simulator& sim, InvariantRegistry* reg = nullptr) {
    digest ^= sim.Digest();
    obs::CaptureSimulatorMetrics(sim);
    if (reg != nullptr) {
      rc |= FinishAudit(reg);
    }
  }

  // Prints the combined digest and returns the exit code.
  int Finish() const {
    BenchReport::Instance().RecordDigest(digest);
    if (!JsonQuiet()) {
      std::printf("\nevent digest (combined): %016llx\n",
                  static_cast<unsigned long long>(digest));
    }
    return rc;
  }
};

inline void PrintHeader(const std::string& id, const std::string& title) {
  BenchReport::Instance().RecordHeader(id, title);
  if (JsonQuiet()) {
    return;
  }
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("==============================================================\n");
}

inline void PrintSection(const std::string& name) {
  BenchReport::Instance().RecordSection(name);
  if (JsonQuiet()) {
    return;
  }
  std::printf("\n--- %s ---\n", name.c_str());
}

inline void PrintRow(const std::string& label, double paper, double measured,
                     const std::string& unit) {
  BenchReport::Instance().RecordMetric(label, true, paper, measured, unit);
  if (JsonQuiet()) {
    return;
  }
  std::printf("%-44s paper: %10.3f %-8s measured: %10.3f %s\n", label.c_str(), paper,
              unit.c_str(), measured, unit.c_str());
}

inline void PrintValue(const std::string& label, double value, const std::string& unit) {
  BenchReport::Instance().RecordMetric(label, false, 0.0, value, unit);
  if (JsonQuiet()) {
    return;
  }
  std::printf("%-44s %10.3f %s\n", label.c_str(), value, unit.c_str());
}

inline void PrintNote(const std::string& note) {
  BenchReport::Instance().RecordNote(note);
  if (JsonQuiet()) {
    return;
  }
  std::printf("note: %s\n", note.c_str());
}

// Prints a (time, value) series downsampled to at most `max_points` rows —
// the data behind a figure, reproducible with any plotting tool.
inline void PrintSeries(const std::string& name, const TimeSeries& series,
                        size_t max_points = 40) {
  const size_t stride = series.size() > max_points ? series.size() / max_points : 1;
  BenchReport::Instance().RecordSeries(name, series, stride);
  if (JsonQuiet()) {
    return;
  }
  std::printf("\nseries %s (t_seconds value), %zu points", name.c_str(), series.size());
  std::printf(stride > 1 ? ", downsampled x%zu:\n" : ":\n", stride);
  for (size_t i = 0; i < series.size(); i += stride) {
    std::printf("  %9.3f  %10.4f\n", ToSeconds(series.points()[i].time),
                series.points()[i].value);
  }
}

}  // namespace tcsim

#endif  // TCSIM_BENCH_BENCH_UTIL_H_
