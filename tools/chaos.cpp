// chaos — the fault-injection soak driver.
//
// Sweeps fault rates x register backends x protocols x crash counts across
// THREE execution substrates (the serialized simulator, the threaded
// runtime, and message-passing Ben-Or under network chaos) and tabulates
// survival: did the survivors decide, did they agree, how many runs tripped
// the online consistency checker, how many timed out, how many faults were
// actually injected. The simulator sweep also covers crash-RECOVERY: plans
// whose crashed processors restart from their persistent registers
// (Protocol::recover), which must never cost consistency.
//
// Faults that stay inside the atomic-register envelope (crashes, stalls,
// write-dwell, cell-level garbage underneath the constructions) must never
// cost a run its consistency — a violation there is a real bug. Word-level
// stale/flicker faults demote the registers below atomic, so inconsistent
// runs in those rows are *findings about the register model*, reported as
// data rather than failures.
//
//   ./tools/chaos                 # full sweep
//   ./tools/chaos --quick         # CI smoke: fixed seed, ~10 s
//   ./tools/chaos --trials=100    # more seeds per cell
//   ./tools/chaos --report=r.json # machine-readable run-report (obs)
//   ./tools/chaos --trace=DIR     # exemplar instrumented sim+threaded runs:
//                                 # JSONL event logs + Perfetto traces
//
// On any unexpected outcome the offending FaultPlan string is printed —
// paste it back through FaultPlan::parse to reproduce the exact run.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/unbounded.h"
#include "fault/fault_plan.h"
#include "fault/sim_faults.h"
#include "msg/ben_or.h"
#include "msg/msg_faults.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "runtime/threaded.h"
#include "sched/schedulers.h"
#include "sched/simulation.h"
#include "tools/cli_util.h"

using namespace cil;

namespace {

struct Args {
  bool quick = false;
  int trials = 60;
  std::uint64_t seed = 1;
  std::string report_path;  ///< --report=: run-report JSON destination
  std::string trace_dir;    ///< --trace=: exemplar trace destination dir
};

bool parse(int argc, char** argv, Args& args) {
  cli::FlagSet flags(argc, argv);
  if (flags.take_switch("quick")) {
    args.quick = true;
    args.trials = 25;
  }
  flags.take_int("trials", args.trials);
  flags.take_uint64("seed", args.seed);
  flags.take_string("report", args.report_path);
  flags.take_string("trace", args.trace_dir);
  if (!flags.finish()) return false;
  if (args.trials <= 0) {
    std::fprintf(stderr, "--trials must be positive\n");
    return false;
  }
  return true;
}

struct ProtocolCase {
  std::string name;
  std::unique_ptr<Protocol> protocol;
  std::vector<Value> inputs;
};

std::vector<ProtocolCase> protocol_cases() {
  std::vector<ProtocolCase> out;
  out.push_back({"two-process", registry::make_protocol("two", 2), {0, 1}});
  out.push_back(
      {"unbounded-3", registry::make_protocol("unbounded", 3), {0, 1, 1}});
  out.push_back(
      {"bounded-3", registry::make_protocol("bounded", 3), {1, 0, 1}});
  return out;
}

/// A named word/cell fault mix plus where it is meaningful. The envelope
/// flags are per-substrate: threaded "dwell" is a slow-but-atomic write,
/// while the simulator's analogue is delayed *visibility* (later reads
/// still see the old value), which is already outside the atomic envelope.
struct FaultLevel {
  std::string name;
  fault::RegisterFaultConfig reg;
  bool in_sim = true;           ///< flicker/cells have no simulator analogue
  bool sim_atomic_safe = true;  ///< sim runs must stay consistent
  bool thr_atomic_safe = true;  ///< threaded runs must stay consistent
};

std::vector<FaultLevel> make_levels() {
  std::vector<FaultLevel> out;
  out.push_back({"none", {}, true, true, true});

  FaultLevel dwell{"dwell", {}, true, false, true};
  dwell.reg.delay_prob = 0.2;
  dwell.reg.delay_window = 50;
  out.push_back(dwell);

  FaultLevel cells{"cell-garbage", {}, false, true, true};  // constructions
  cells.reg.cells.garbage_prob = 0.5;
  cells.reg.cells.garbage_rounds = 2;
  cells.reg.cells.settle_spins = 1;
  out.push_back(cells);

  FaultLevel stale{"stale-reads", {}, true, false, false};  // regular only
  stale.reg.stale_prob = 0.25;
  stale.reg.stale_depth = 3;
  out.push_back(stale);

  FaultLevel flicker{"flicker", {}, false, false, false};  // safe-register
  flicker.reg.flicker_prob = 0.2;
  flicker.reg.flicker_burst = 2;
  out.push_back(flicker);
  return out;
}

struct Counts {
  int runs = 0;
  int decided = 0;     ///< every survivor decided
  int consistent = 0;  ///< no two survivors disagreed
  int violations = 0;  ///< simulator's online checker fired
  int timeouts = 0;
  long long faults = 0;
};

void report_unexpected(const char* what, const fault::FaultPlan& plan) {
  std::fprintf(stderr, "  !! %s — repro: %s\n", what,
               plan.serialize().c_str());
}

fault::FaultPlan plan_for(std::uint64_t seed, int n, int crashes,
                          const fault::RegisterFaultConfig& reg,
                          int recoveries = 0) {
  // Horizon 12: early enough that planned crashes fire before decisions in
  // essentially every run, so the crash column means what it says.
  return fault::FaultPlan::random(seed, n, crashes, /*num_stalls=*/1,
                                  /*horizon=*/12, /*max_stall_duration=*/500,
                                  reg, recoveries,
                                  /*max_recovery_delay=*/32);
}

void run_sim_cell(const ProtocolCase& pc, const FaultLevel& level, int crashes,
                  const Args& args, bool expect_consistent, Counts& c) {
  const int n = pc.protocol->num_processes();
  // One pooled Simulation per cell: constructed at trial 0, reset() for the
  // rest. Fresh fault hook and schedulers per trial keep every RNG stream
  // exactly what a fresh construction would have drawn.
  std::optional<Simulation> sim;
  for (int t = 0; t < args.trials; ++t) {
    const std::uint64_t seed = args.seed + 1000u * static_cast<unsigned>(t);
    const fault::FaultPlan plan = plan_for(seed, n, crashes, level.reg);
    if (!sim) {
      sim.emplace(*pc.protocol, pc.inputs, SimOptions{.seed = seed});
    } else {
      sim->reset(pc.inputs, SimOptions{.seed = seed});
    }
    fault::SimRegisterFaults hook(plan.registers, plan.seed,
                                  sim->regs().size());
    if (plan.registers.any_word_faults())
      sim->mutable_regs().set_fault_hook(&hook);
    RandomScheduler inner(seed);
    fault::FaultPlanScheduler sched(inner, plan);
    ++c.runs;
    try {
      const SimResult r = sim->run(sched);
      if (r.all_decided) ++c.decided;
      ++c.consistent;  // the online checker did not fire
    } catch (const CoordinationViolation&) {
      ++c.violations;
      if (expect_consistent) report_unexpected("consistency violation", plan);
    }
    c.faults += hook.faults_injected() + sched.crashes_fired() +
                sched.stalls_fired();
    sim->mutable_regs().set_fault_hook(nullptr);  // hook dies with this trial
  }
}

/// Crash-recovery cells: every crashed processor restarts from its
/// persistent registers a few global steps later (Protocol::recover's
/// conservative re-read). Consistency must survive — the recovered state is
/// a legal automaton state — and with everyone eventually back, every
/// processor whose recovery fired should decide.
void run_recovery_cell(const ProtocolCase& pc, int crashes, const Args& args,
                       Counts& c) {
  const int n = pc.protocol->num_processes();
  std::optional<Simulation> sim;  // pooled across trials, like run_sim_cell
  for (int t = 0; t < args.trials; ++t) {
    const std::uint64_t seed = args.seed + 1000u * static_cast<unsigned>(t);
    const fault::FaultPlan plan =
        plan_for(seed, n, crashes, {}, /*recoveries=*/crashes);
    if (!sim) {
      sim.emplace(*pc.protocol, pc.inputs, SimOptions{.seed = seed});
    } else {
      sim->reset(pc.inputs, SimOptions{.seed = seed});
    }
    RandomScheduler inner(seed);
    fault::FaultPlanScheduler sched(inner, plan);
    ++c.runs;
    try {
      const SimResult r = sim->run(sched);
      if (r.all_decided) ++c.decided;
      ++c.consistent;
    } catch (const CoordinationViolation&) {
      ++c.violations;
      report_unexpected("consistency violation under recovery", plan);
    }
    c.faults += sched.crashes_fired() + sched.stalls_fired() +
                sched.recoveries_fired();
  }
}

/// A named message-fault mix for the Ben-Or sweep.
struct MsgLevel {
  std::string name;
  fault::MessageFaultConfig msg;
};

std::vector<MsgLevel> make_msg_levels() {
  std::vector<MsgLevel> out;
  out.push_back({"none", {}});
  out.push_back({"drop", {.drop_prob = 0.15}});
  out.push_back({"dup", {.dup_prob = 0.25}});
  out.push_back({"delay", {.delay_prob = 0.3, .delay_max = 12}});
  out.push_back({"drop+dup+delay",
                 {.drop_prob = 0.1, .dup_prob = 0.15, .delay_prob = 0.2,
                  .delay_max = 8}});
  return out;
}

/// Ben-Or (n=3, t=1) under network chaos. Agreement must survive every mix
/// — drop/dup/delay all stay inside the asynchronous model once delivery
/// is at-most-once per sender — so ANY violation here is unexpected.
/// Liveness is only guaranteed with crashes <= t and is reported as data.
void run_msg_cell(const msg::BenOrProtocol& protocol,
                  const std::vector<Value>& inputs, const MsgLevel& level,
                  int crashes, const Args& args, Counts& c) {
  const int n = protocol.num_processes();
  for (int t = 0; t < args.trials; ++t) {
    const std::uint64_t seed = args.seed + 1000u * static_cast<unsigned>(t);
    fault::FaultPlan plan = plan_for(seed, n, crashes, {});
    plan.stalls.clear();      // no registers, no stalls: delay owns slowness
    plan.recoveries.clear();  // message processes cannot recover
    plan.messages = level.msg;
    ++c.runs;
    const msg::MsgChaosResult r =
        msg::run_msg_chaos(protocol, inputs, plan, seed, /*max_picks=*/50'000);
    if (r.violation) {
      ++c.violations;
      report_unexpected("message-passing agreement violation", plan);
    } else {
      ++c.consistent;
    }
    if (r.result.all_live_decided) ++c.decided;
    if (r.signals.timed_out) ++c.timeouts;
    c.faults += r.drops + r.dups + r.delays + r.crashes_fired;
  }
}

void run_threaded_cell(const ProtocolCase& pc, const FaultLevel& level,
                       rt::RegisterBackend backend, int crashes,
                       const Args& args, bool expect_consistent, Counts& c) {
  const int n = pc.protocol->num_processes();
  for (int t = 0; t < args.trials; ++t) {
    const std::uint64_t seed = args.seed + 1000u * static_cast<unsigned>(t);
    const fault::FaultPlan plan = plan_for(seed, n, crashes, level.reg);
    rt::ThreadedOptions options;
    options.seed = seed;
    options.backend = backend;
    options.fault_plan = &plan;
    options.watchdog_ms = 10'000;
    ++c.runs;
    const auto r = rt::run_threaded(*pc.protocol, pc.inputs, options);
    if (r.all_decided) ++c.decided;
    if (r.consistent) {
      ++c.consistent;
    } else if (expect_consistent) {
      report_unexpected("survivors disagreed", plan);
    }
    if (r.timed_out) {
      ++c.timeouts;
      report_unexpected("watchdog timeout", plan);
    }
    c.faults += r.faults_injected;
  }
}

void print_row(const std::string& protocol, const char* substrate,
               const std::string& level, int crashes, const Counts& c) {
  std::printf("%-12s %-16s %-13s %7d %5d %7d/%d %9d/%d %6d %6d %9lld\n",
              protocol.c_str(), substrate, level.c_str(), crashes, c.runs,
              c.decided, c.runs, c.consistent, c.runs, c.violations,
              c.timeouts, c.faults);
}

/// Folds one sweep cell into the run-report aggregates: global counters in
/// `registry` plus a per-cell row in the `cells` JSON array.
void record_cell(obs::MetricsRegistry& registry, obs::Json& cells,
                 const std::string& protocol, const char* substrate,
                 const std::string& level, int crashes, const Counts& c) {
  registry.counter("chaos.runs").inc(c.runs);
  registry.counter("chaos.decided").inc(c.decided);
  registry.counter("chaos.consistent").inc(c.consistent);
  registry.counter("chaos.violations").inc(c.violations);
  registry.counter("chaos.timeouts").inc(c.timeouts);
  registry.counter("chaos.faults_injected").inc(c.faults);

  obs::Json cell = obs::Json::object();
  cell["protocol"] = obs::Json(protocol);
  cell["substrate"] = obs::Json(substrate);
  cell["faults"] = obs::Json(level);
  cell["crashes"] = obs::Json(crashes);
  cell["runs"] = obs::Json(c.runs);
  cell["decided"] = obs::Json(c.decided);
  cell["consistent"] = obs::Json(c.consistent);
  cell["violations"] = obs::Json(c.violations);
  cell["timeouts"] = obs::Json(c.timeouts);
  cell["faults_injected"] = obs::Json(static_cast<std::int64_t>(c.faults));
  cells.push_back(std::move(cell));
}

/// Writes one instrumented simulator run and one instrumented threaded run
/// (both with a planned crash + stall) into `dir` as JSONL event logs plus
/// Chrome/Perfetto trace JSON. Returns false if any file failed to write.
bool write_exemplar_traces(const Args& args, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best-effort; open reports
  const int n = 3;
  UnboundedProtocol protocol(n);
  const std::vector<Value> inputs = {0, 1, 1};
  const fault::FaultPlan plan =
      plan_for(args.seed, n, /*crashes=*/1, fault::RegisterFaultConfig{});

  bool ok = true;
  const auto emit = [&](const char* stem, const std::vector<obs::Event>& ev,
                        const char* process_name) {
    std::ostringstream jsonl;
    obs::write_jsonl(jsonl, ev);
    ok &= obs::write_text_file_atomic(dir + "/" + stem + "_events.jsonl",
                               jsonl.str());
    ok &= obs::write_text_file_atomic(
        dir + "/" + stem + "_trace.json",
        obs::perfetto_trace_json(ev, process_name) + "\n");
  };

  {
    // The simulator exemplar streams its JSONL log DURING the run through a
    // JsonlStreamSink (the long-hunt sink: no unbounded in-memory buffer);
    // a RecordingSink rides along only to feed the Perfetto exporter.
    obs::JsonlStreamSink stream(dir + "/sim_events.jsonl");
    obs::RecordingSink rec;
    obs::MultiSink fan;
    fan.add(&stream);
    fan.add(&rec);
    SimOptions options;
    options.seed = args.seed;
    options.max_total_steps = 100'000;
    options.obs.sink = &fan;
    Simulation sim(protocol, inputs, options);
    RandomScheduler inner(args.seed);
    fault::FaultPlanScheduler sched(inner, plan);
    sched.set_event_sink(&fan);
    sim.run(sched);
    ok &= stream.close();
    ok &= obs::write_text_file_atomic(
        dir + "/sim_trace.json",
        obs::perfetto_trace_json(rec.events(), "chaos sim (unbounded-3)") +
            "\n");
  }
  {
    obs::RecordingSink rec;
    rt::ThreadedOptions options;
    options.seed = args.seed;
    options.fault_plan = &plan;
    options.watchdog_ms = 10'000;
    options.obs.sink = &rec;
    rt::run_threaded(protocol, inputs, options);
    emit("threaded", rec.events(), "chaos threaded (unbounded-3)");
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return 2;

  std::printf("chaos sweep: trials=%d seed=%llu%s\n\n", args.trials,
              static_cast<unsigned long long>(args.seed),
              args.quick ? " (quick)" : "");
  std::printf("%-12s %-16s %-13s %7s %5s %9s %11s %6s %6s %9s\n", "protocol",
              "substrate", "faults", "crashes", "runs", "decided",
              "consistent", "viol", "tmout", "injected");

  int unexpected_bad = 0;
  obs::MetricsRegistry registry;
  obs::Json cells = obs::Json::array();
  const auto protocols = protocol_cases();
  const auto levels = make_levels();

  for (const auto& pc : protocols) {
    const int n = pc.protocol->num_processes();
    for (const auto& level : levels) {
      // In --quick mode sweep only the extreme crash counts.
      std::vector<int> crash_counts;
      for (int k = 0; k <= n - 1; ++k)
        if (!args.quick || k == 0 || k == n - 1) crash_counts.push_back(k);

      for (const int k : crash_counts) {
        if (level.in_sim) {
          Counts c;
          run_sim_cell(pc, level, k, args, level.sim_atomic_safe, c);
          print_row(pc.name, "sim", level.name, k, c);
          record_cell(registry, cells, pc.name, "sim", level.name, k, c);
          if (level.sim_atomic_safe)
            unexpected_bad += c.violations + (c.runs - c.decided);
        }
        // Raw backend: word-level faults only (no cells to degrade).
        if (level.reg.cells.garbage_prob == 0) {
          Counts c;
          run_threaded_cell(pc, level, rt::RegisterBackend::kRawAtomic, k,
                            args, level.thr_atomic_safe, c);
          print_row(pc.name, "thread-raw", level.name, k, c);
          record_cell(registry, cells, pc.name, "thread-raw", level.name, k,
                      c);
          if (level.thr_atomic_safe)
            unexpected_bad +=
                (c.runs - c.consistent) + c.timeouts + (c.runs - c.decided);
        }
        // Constructed backend: the full stack masks cell faults; skip it
        // for the heavier word-fault rows in --quick mode to stay fast.
        if (!args.quick || level.thr_atomic_safe) {
          Counts c;
          run_threaded_cell(pc, level, rt::RegisterBackend::kConstructed, k,
                            args, level.thr_atomic_safe, c);
          print_row(pc.name, "thread-cons", level.name, k, c);
          record_cell(registry, cells, pc.name, "thread-cons", level.name, k,
                      c);
          if (level.thr_atomic_safe)
            unexpected_bad +=
                (c.runs - c.consistent) + c.timeouts + (c.runs - c.decided);
        }
      }
    }

    // Crash-recovery rows (simulator only): every crash gets a matching
    // recovery. Conservative re-read recovery must preserve consistency.
    for (int k = 1; k <= n - 1; ++k) {
      if (args.quick && k != n - 1) continue;
      Counts c;
      run_recovery_cell(pc, k, args, c);
      print_row(pc.name, "sim", "crash-recover", k, c);
      record_cell(registry, cells, pc.name, "sim", "crash-recover", k, c);
      unexpected_bad += c.violations + (c.runs - c.decided);
    }
  }

  // Message-passing sweep: Ben-Or (n=3, t=1) under network chaos. Any
  // agreement violation is unexpected; liveness (decided column) is
  // guaranteed only for crashes <= t and lossless-enough networks, so
  // undecided runs count as findings only at the "none" level.
  {
    const msg::BenOrProtocol ben_or(3, 1);
    const std::vector<Value> inputs = {0, 1, 1};
    for (const MsgLevel& level : make_msg_levels()) {
      for (int k = 0; k <= ben_or.tolerated_crashes(); ++k) {
        if (args.quick && k != 0 && level.name != "none") continue;
        Counts c;
        run_msg_cell(ben_or, inputs, level, k, args, c);
        print_row("ben-or-3", "msg", level.name, k, c);
        record_cell(registry, cells, "ben-or-3", "msg", level.name, k, c);
        unexpected_bad += c.violations;
        if (level.name == "none") unexpected_bad += c.runs - c.decided;
      }
    }
  }

  std::printf("\n%s\n", unexpected_bad == 0
                            ? "OK: no unexpected violations, undecided "
                              "survivors, or timeouts"
                            : "FAIL: unexpected bad outcomes (see !! lines)");

  if (!args.report_path.empty()) {
    obs::Json extra = obs::Json::object();
    extra["cells"] = std::move(cells);
    extra["unexpected_bad"] = obs::Json(unexpected_bad);
    std::map<std::string, std::string> meta;
    meta["trials"] = std::to_string(args.trials);
    meta["seed"] = std::to_string(args.seed);
    meta["quick"] = args.quick ? "true" : "false";
    const std::string report =
        obs::run_report_json("chaos", meta, registry, extra);
    const auto parent =
        std::filesystem::path(args.report_path).parent_path();
    if (!parent.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(parent, ec);
    }
    if (!obs::write_text_file_atomic(args.report_path, report + "\n")) return 2;
    std::printf("run-report written to %s\n", args.report_path.c_str());
  }
  if (!args.trace_dir.empty()) {
    if (!write_exemplar_traces(args, args.trace_dir)) return 2;
    std::printf("exemplar traces written to %s\n", args.trace_dir.c_str());
  }
  return unexpected_bad == 0 ? 0 : 1;
}
