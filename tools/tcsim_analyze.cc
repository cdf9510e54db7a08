// tcsim_analyze — epoch-ledger critical-path analysis.
//
//   tcsim_analyze LEDGER.jsonl                per-epoch attribution report
//   tcsim_analyze LEDGER.jsonl --json         same, machine-readable
//   tcsim_analyze LEDGER.jsonl --self-check   structural validation (CI)
//   tcsim_analyze LEDGER.jsonl --diff BASE.jsonl   aggregate comparison
//
// The ledger comes from any bench run with --ledger=<file> (bench/bench_util.h)
// or from obs::TraceSession::WriteJsonl directly. Exit codes: 0 ok, 1 analysis
// or load failure, 2 usage.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "tools/analyze.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: tcsim_analyze LEDGER.jsonl [--json] [--self-check] "
               "[--diff BASELINE.jsonl]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string ledger_path;
  std::string diff_path;
  bool json = false;
  bool self_check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--self-check") == 0) {
      self_check = true;
    } else if (std::strcmp(argv[i], "--diff") == 0) {
      if (i + 1 >= argc) {
        return Usage();
      }
      diff_path = argv[++i];
    } else if (argv[i][0] == '-') {
      return Usage();
    } else if (ledger_path.empty()) {
      ledger_path = argv[i];
    } else {
      return Usage();
    }
  }
  if (ledger_path.empty()) {
    return Usage();
  }

  using tcsim::tools::Analyze;
  using tcsim::tools::AnalyzerRecord;
  using tcsim::tools::LedgerAnalysis;

  std::vector<AnalyzerRecord> records;
  std::string err;
  if (!tcsim::tools::LoadJsonl(ledger_path, &records, &err)) {
    std::fprintf(stderr, "tcsim_analyze: %s\n", err.c_str());
    return 1;
  }
  const LedgerAnalysis analysis = Analyze(records);

  if (self_check) {
    for (const std::string& e : analysis.errors) {
      std::fprintf(stderr, "self-check: %s\n", e.c_str());
    }
    if (!analysis.ok()) {
      return 1;
    }
    std::printf(
        "self-check ok: %zu records, %zu epochs, min coverage %.3f\n",
        analysis.records, analysis.epochs.size(), analysis.min_coverage);
    return 0;
  }

  if (!diff_path.empty()) {
    std::vector<AnalyzerRecord> base_records;
    if (!tcsim::tools::LoadJsonl(diff_path, &base_records, &err)) {
      std::fprintf(stderr, "tcsim_analyze: %s\n", err.c_str());
      return 1;
    }
    const LedgerAnalysis baseline = Analyze(base_records);
    std::fputs(tcsim::tools::DiffText(baseline, analysis).c_str(), stdout);
    return analysis.ok() ? 0 : 1;
  }

  std::fputs((json ? tcsim::tools::ReportJson(analysis) + "\n"
                   : tcsim::tools::ReportText(analysis))
                 .c_str(),
             stdout);
  return analysis.ok() ? 0 : 1;
}
