// perfgate — the CI performance-regression gate.
//
// Compares a freshly generated run-report (obs::run_report_json document,
// e.g. bench_two_process under CIL_RUN_REPORT) against a committed baseline
// and fails when a watched metric regressed by more than the allowed
// fraction. Metric paths are '/'-separated because report keys themselves
// contain dots: "samples/steps.random/p50" means
// report["samples"]["steps.random"]["p50"].
//
//   ./tools/perfgate --baseline=bench/baselines/bench_two_process.json \
//       --current=artifacts/bench_two_process.json \
//       --metric=samples/steps.random/p50 --max-regress=0.25
//
// Metrics are lower-is-better (step counts, latencies). Exit 0 when every
// metric is within bound, 1 on any regression, 2 on usage/IO errors.
//
// --diff narrates instead of gating: every numeric leaf under "samples" and
// "values" shared by the two reports (or just the --metric paths, if given)
// is printed as a human-readable delta line, biggest movement first, e.g.
//
//   samples/steps.random/p99 +12.0%  (34 -> 38.08)
//
// and the exit code is always 0 — CI echoes the narration into the job
// summary next to the gate verdict.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/json.h"
#include "tools/cli_util.h"

using namespace cil;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfgate --baseline=FILE --current=FILE\n"
               "                --metric=a/b/c [--metric=...]\n"
               "                [--max-regress=0.25]\n"
               "       perfgate --diff --baseline=FILE --current=FILE\n"
               "                [--metric=a/b/c ...]\n");
  return 2;
}

bool load_json(const std::string& path, obs::Json& out) {
  std::string text;
  if (!obs::read_text_file(path, text)) {
    std::fprintf(stderr, "perfgate: cannot open %s\n", path.c_str());
    return false;
  }
  try {
    out = obs::Json::parse(text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfgate: %s: %s\n", path.c_str(), e.what());
    return false;
  }
  return true;
}

/// Walk a '/'-separated path through nested JSON objects.
bool lookup(const obs::Json& doc, const std::string& path, double& out) {
  const obs::Json* cur = &doc;
  std::size_t begin = 0;
  while (begin <= path.size()) {
    const std::size_t end = path.find('/', begin);
    const std::string key =
        path.substr(begin, end == std::string::npos ? end : end - begin);
    cur = cur->find(key);
    if (cur == nullptr) return false;
    if (end == std::string::npos) break;
    begin = end + 1;
  }
  if (!cur->is_number()) return false;
  out = cur->as_number();
  return true;
}

/// Collect the '/'-paths of every numeric leaf below `node` into `out`.
void collect_numeric_leaves(const obs::Json& node, const std::string& prefix,
                            std::vector<std::string>& out) {
  if (node.is_number()) {
    out.push_back(prefix);
    return;
  }
  if (!node.is_object()) return;
  for (const auto& [key, child] : node.as_object())
    collect_numeric_leaves(child, prefix.empty() ? key : prefix + "/" + key,
                           out);
}

/// --diff: narrate metric movements between two reports, largest first.
int run_diff(const obs::Json& baseline, const obs::Json& current,
             std::vector<std::string> metrics) {
  if (metrics.empty()) {
    // No explicit paths: every numeric leaf under the two report sections
    // that carry headline numbers — union of both reports, so metrics that
    // only exist on one side still show up (as missing).
    for (const obs::Json* doc : {&baseline, &current}) {
      for (const char* section : {"samples", "values"}) {
        const obs::Json* node = doc->find(section);
        if (node != nullptr) collect_numeric_leaves(*node, section, metrics);
      }
    }
    std::sort(metrics.begin(), metrics.end());
    metrics.erase(std::unique(metrics.begin(), metrics.end()), metrics.end());
  }

  struct Delta {
    std::string path;
    double base = 0, cur = 0, pct = 0;
  };
  std::vector<Delta> deltas;
  int missing = 0, unchanged = 0;
  for (const std::string& m : metrics) {
    double base = 0, cur = 0;
    if (!lookup(baseline, m, base) || !lookup(current, m, cur)) {
      ++missing;
      continue;
    }
    if (base == cur) {
      ++unchanged;
      continue;
    }
    const double pct = base != 0 ? (cur - base) / base * 100.0
                                 : (cur > 0 ? 100.0 : -100.0);
    deltas.push_back({m, base, cur, pct});
  }
  std::sort(deltas.begin(), deltas.end(), [](const Delta& a, const Delta& b) {
    return std::fabs(a.pct) > std::fabs(b.pct);
  });

  std::printf("perfgate diff: %zu metric(s) compared, %zu moved, %d"
              " unchanged, %d missing\n",
              metrics.size(), deltas.size(), unchanged, missing);
  for (const Delta& d : deltas) {
    // Lower is better for everything we watch except throughput rates.
    const bool higher_is_better =
        d.path.find("steps_per_sec") != std::string::npos;
    const bool improved = higher_is_better ? d.cur > d.base : d.cur < d.base;
    std::printf("  %-44s %+7.1f%%  (%g -> %g)%s\n", d.path.c_str(), d.pct,
                d.base, d.cur, improved ? "  [improved]" : "");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  cli::FlagSet flags(argc, argv);
  std::string baseline_path, current_path;
  double max_regress = 0.25;
  const bool diff = flags.take_switch("diff");
  flags.take_string("baseline", baseline_path);
  flags.take_string("current", current_path);
  flags.take_double("max-regress", max_regress);
  const std::vector<std::string> metrics = flags.take_all("metric");
  if (!flags.finish() || baseline_path.empty() || current_path.empty() ||
      (metrics.empty() && !diff))
    return usage();

  obs::Json baseline, current;
  if (!load_json(baseline_path, baseline) || !load_json(current_path, current))
    return 2;

  if (diff) return run_diff(baseline, current, metrics);

  std::printf("%-36s %12s %12s %9s %s\n", "metric", "baseline", "current",
              "delta", "verdict");
  int regressions = 0, missing = 0;
  for (const std::string& m : metrics) {
    double base = 0, cur = 0;
    if (!lookup(baseline, m, base) || !lookup(current, m, cur)) {
      std::printf("%-36s %12s %12s %9s MISSING\n", m.c_str(), "-", "-", "-");
      ++missing;
      continue;
    }
    // Lower is better; a zero baseline tolerates only a zero current.
    const bool regressed =
        base > 0 ? (cur - base) / base > max_regress : cur > 0;
    const double delta = base > 0 ? (cur - base) / base * 100.0 : 0.0;
    std::printf("%-36s %12.4f %12.4f %+8.1f%% %s\n", m.c_str(), base, cur,
                delta, regressed ? "REGRESSED" : "ok");
    regressions += regressed;
  }
  if (missing > 0) {
    std::fprintf(stderr,
                 "perfgate: %d metric path(s) missing from a report\n",
                 missing);
    return 2;
  }
  if (regressions > 0) {
    std::fprintf(stderr,
                 "perfgate: %d metric(s) regressed more than %.0f%%\n",
                 regressions, max_regress * 100.0);
    return 1;
  }
  std::printf("perfgate: all %zu metric(s) within %.0f%% of baseline\n",
              metrics.size(), max_regress * 100.0);
  return 0;
}
