// traceview — turn recorded observability artifacts back into human views.
//
// Render mode (default): read a JSONL event log (obs/export.h write_jsonl
// format, as emitted by `chaos --trace=` or any RecordingSink dump) and
// re-render it through the same aligned text table the simulator's
// TraceRecorder uses. The event log is protocol-agnostic, so register cells
// show raw words and the per-process column shows the observable lifecycle
// (phase / decision / crash) instead of protocol debug strings.
//
// Check mode: `traceview --check FILE...` validates that every named file
// is well-formed JSON (each line, for .jsonl files; the whole document
// otherwise). CI uses this to fail the build on malformed exported
// artifacts without needing an external JSON tool.
//
//   ./tools/traceview run/sim_events.jsonl
//   ./tools/traceview --check run/report.json run/sim_events.jsonl
#include <algorithm>
#include <cstdio>
#include <deque>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/events.h"
#include "obs/export.h"
#include "obs/json.h"
#include "sched/trace.h"
#include "tools/cli_util.h"

using namespace cil;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: traceview EVENTS.jsonl        render an event log\n"
               "       traceview --check FILE...     validate JSON files\n");
  return 2;
}

/// Validate one file: every line must parse for .jsonl, the whole body
/// otherwise. Empty files and empty lines are rejected loudly — an empty
/// artifact means the producer silently failed.
bool check_file(const std::string& path) {
  std::string body;
  if (!obs::read_text_file(path, body)) {
    std::fprintf(stderr, "traceview: cannot open %s\n", path.c_str());
    return false;
  }
  if (body.find_first_not_of(" \t\r\n") == std::string::npos) {
    std::fprintf(stderr, "traceview: %s is empty\n", path.c_str());
    return false;
  }
  const bool jsonl =
      path.size() >= 6 && path.compare(path.size() - 6, 6, ".jsonl") == 0;
  try {
    if (jsonl) {
      std::istringstream lines(body);
      std::string line;
      int lineno = 0;
      while (std::getline(lines, line)) {
        ++lineno;
        if (line.empty()) continue;
        try {
          (void)obs::Json::parse(line);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "traceview: %s:%d: %s\n", path.c_str(), lineno,
                       e.what());
          return false;
        }
      }
    } else {
      (void)obs::Json::parse(body);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "traceview: %s: %s\n", path.c_str(), e.what());
    return false;
  }
  std::printf("OK %s\n", path.c_str());
  return true;
}

/// Rebuild TraceEntry rows from a recorded event stream. Register cells are
/// the raw words from write events ("?" until first written); the process
/// column tracks phase transitions, decisions, and crashes.
std::deque<TraceEntry> entries_from_events(
    const std::vector<obs::Event>& events) {
  int num_procs = 0;
  RegisterId num_regs = 0;
  for (const obs::Event& e : events) {
    num_procs = std::max(num_procs, e.pid + 1);
    num_regs = std::max(num_regs, e.reg + 1);
  }

  std::vector<std::string> regs(static_cast<std::size_t>(num_regs), "?");
  std::vector<std::string> procs(static_cast<std::size_t>(num_procs),
                                 "phase=0");
  std::deque<TraceEntry> out;
  std::int64_t synthetic_step = 0;  // threaded logs carry total_step == 0
  for (const obs::Event& e : events) {
    switch (e.kind) {
      case obs::EventKind::kRegisterWrite:
        regs[static_cast<std::size_t>(e.reg)] = std::to_string(e.value);
        break;
      case obs::EventKind::kPhaseChange:
        procs[static_cast<std::size_t>(e.pid)] =
            "phase=" + std::to_string(e.arg);
        break;
      case obs::EventKind::kDecision:
        procs[static_cast<std::size_t>(e.pid)] =
            "decided=" + std::to_string(e.arg);
        break;
      case obs::EventKind::kCrash:
        procs[static_cast<std::size_t>(e.pid)] = "CRASHED";
        break;
      case obs::EventKind::kRecover:
        procs[static_cast<std::size_t>(e.pid)] =
            "RECOVERED(+" + std::to_string(e.arg) + ")";
        break;
      case obs::EventKind::kStep: {
        ++synthetic_step;
        TraceEntry entry;
        entry.step = e.total_step != 0 ? e.total_step : synthetic_step;
        entry.actor = e.pid;
        entry.registers = regs;
        entry.processes = procs;
        out.push_back(std::move(entry));
        break;
      }
      default:
        break;
    }
  }
  return out;
}

int render_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    std::fprintf(stderr, "traceview: cannot open %s\n", path.c_str());
    return 1;
  }
  std::vector<obs::Event> events;
  try {
    events = obs::read_jsonl(is);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "traceview: %s: %s\n", path.c_str(), e.what());
    return 1;
  }
  if (events.empty()) {
    std::fprintf(stderr, "traceview: %s holds no events\n", path.c_str());
    return 1;
  }

  std::int64_t per_kind[obs::kNumEventKinds] = {};
  for (const obs::Event& e : events)
    ++per_kind[static_cast<std::size_t>(e.kind)];
  std::printf("%s: %zu events (", path.c_str(), events.size());
  bool first = true;
  for (int k = 0; k < obs::kNumEventKinds; ++k) {
    if (per_kind[k] == 0) continue;
    const std::string name{obs::kind_name(static_cast<obs::EventKind>(k))};
    std::printf("%s%s=%lld", first ? "" : " ", name.c_str(),
                static_cast<long long>(per_kind[k]));
    first = false;
  }
  std::printf(")\n\n%s",
              render_trace_table(entries_from_events(events)).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  cli::FlagSet flags(argc, argv);
  const bool check = flags.take_switch("check");
  if (!flags.finish()) return usage();
  const auto& files = flags.positionals();
  if (check) {
    if (files.empty()) return usage();
    bool ok = true;
    for (const std::string& f : files) ok &= check_file(f);
    return ok ? 0 : 1;
  }
  if (files.size() != 1) return usage();
  return render_file(files.front());
}
