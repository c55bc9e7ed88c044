// The simulation engine: serializes a system execution under a Scheduler,
// enforcing the paper's model (one register op per step, fail-stop crashes,
// adaptive adversaries with full state knowledge) and checking the
// coordination properties — consistency and nontriviality — online after
// every step (or, for large sweeps, at a configurable sparser cadence; see
// SimOptions::check_every).
//
// The per-step path is deliberately flat: activation is a bitmap plus a
// running list of distinct activated inputs, liveness is a maintained sorted
// active list updated only on crash/recover/decide transitions (no O(n)
// scans — idle crashed pids cost nothing), the coin source and step context
// are constructed once per run, SystemView and the register file's checked
// read/write are inline, and the unobserved fast path shares one
// accounting block with the observed path instead of duplicating it.
// Simulation::reset() re-initializes everything in place (construction is
// a reset of fresh objects) and run_into() fills a caller-owned SimResult,
// so sweeps reuse one allocation across seeds: the pooled ScalarRig
// (sched/lane_engine.h) re-arms the Simulation, the fault plan's scheduler
// and register hook per seed for BatchRunner and LaneEngine alike.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/events.h"
#include "sched/protocol.h"
#include "util/rng.h"

namespace cil {

class Scheduler;

struct SimOptions {
  std::int64_t max_total_steps = 1'000'000;
  std::uint64_t seed = 1;
  bool check_consistency = true;
  bool check_nontriviality = true;
  bool record_schedule = false;
  /// Property-check cadence in global steps. 1 (the default) checks online
  /// after every step — exactly the historical semantics. k > 1 defers the
  /// consistency/nontriviality checks of any decision to the next global
  /// step divisible by k (and to the end of run()), trading detection
  /// latency for throughput on large-n sweeps; a violation is still always
  /// caught, just up to k-1 steps late, and the violating run may take up
  /// to k-1 more steps before the throw. Decisions are latched at decision
  /// time regardless, so nothing is lost to the deferral.
  std::int64_t check_every = 1;
  /// Observability (src/obs): with a sink set, the engine narrates the run
  /// as a structured event stream — step, register read/write, coin flip,
  /// decision, crash, fault-injected, phase-change. Null sink = off, at the
  /// cost of one branch per step. The same ObsOptions drives the threaded
  /// runtime (rt::ThreadedOptions::obs) with an identical event schema;
  /// simulator timestamps are virtual (total_step), wall_us stays 0.
  obs::ObsOptions obs;
};

struct SimResult {
  /// True iff every non-crashed processor decided within the step budget.
  bool all_decided = false;
  /// The common decision value, if at least one processor decided.
  std::optional<Value> decision;
  std::vector<Value> decisions;  ///< per process; kNoValue if undecided
  std::vector<std::int64_t> steps_per_process;
  std::int64_t total_steps = 0;
  std::vector<ProcessId> schedule;  ///< recorded iff requested
  int max_register_bits = 0;  ///< high-water mark (Theorem 9 probe)
  std::int64_t recoveries = 0;  ///< crash-recoveries applied during the run
};

class Simulation {
 public:
  /// `inputs` supplies one input value (>= 0) per processor.
  Simulation(const Protocol& protocol, std::vector<Value> inputs,
             SimOptions options = {});

  /// Re-initialize in place for a new run — same protocol, new inputs and
  /// options — reusing every allocation (register file, Process objects via
  /// Protocol::reset_process, bookkeeping vectors at their capacity). The
  /// resulting run is bit-identical to one on a freshly constructed
  /// Simulation(protocol, inputs, options): same PRNG stream, same schedule,
  /// same results (pinned by batch_test). Any fault hook is cleared; sinks
  /// are rebuilt from the new options (attach_sink again if needed).
  void reset(const std::vector<Value>& inputs, SimOptions options = {});

  /// Run one step chosen by `sched`. Returns false when nothing is active
  /// (everyone decided or crashed) — no step is taken in that case.
  bool step_once(Scheduler& sched);

  /// Drive to completion (or the step budget). May be called after some
  /// step_once() calls. Flushes any check deferred by check_every > 1
  /// before returning.
  SimResult run(Scheduler& sched) {
    SimResult r;
    run_into(sched, r);
    return r;
  }
  /// run() into a caller-owned result, reusing its vectors' capacity: the
  /// pooled sweeps' form (sched/lane_engine.h ScalarRig).
  void run_into(Scheduler& sched, SimResult& out);

  /// Fail-stop a processor: it will never be scheduled again (unless a
  /// recovery brings it back).
  void crash(ProcessId p);

  /// Crash-recovery: restart crashed processor `p` from its persistent
  /// registers via Protocol::recover (volatile state wiped). Returns false
  /// — and leaves the processor down — when it had already decided before
  /// crashing: its decision is already part of the run's output, and a
  /// restarted automaton could only re-decide. Emits kRecover on success.
  bool recover(ProcessId p);

  // Introspection (also used by SystemView).
  const Protocol& protocol() const { return protocol_; }
  const RegisterFile& regs() const { return regs_; }
  RegisterFile& mutable_regs() { return regs_; }
  const Process& process(ProcessId p) const { return *procs_[p]; }
  bool crashed(ProcessId p) const { return crashed_[p]; }
  bool active(ProcessId p) const {
    CIL_EXPECTS(p >= 0 && p < num_processes());
    return !crashed_[p] && !procs_[p]->decided();
  }
  int num_processes() const { return static_cast<int>(procs_.size()); }
  /// Number of active (not crashed, not decided) processes — O(1).
  int num_active() const { return static_cast<int>(active_list_.size()); }
  /// The maintained active list: ascending pids, updated on transitions.
  const std::vector<ProcessId>& active_list() const { return active_list_; }
  std::int64_t total_steps() const { return total_steps_; }
  std::int64_t steps_of(ProcessId p) const { return steps_[p]; }
  std::int64_t recoveries() const { return recoveries_; }

  /// Summarize the current state into a SimResult.
  SimResult result() const {
    SimResult r;
    result_into(r);
    return r;
  }
  /// result() into a caller-owned buffer, reusing its vectors' capacity.
  void result_into(SimResult& out) const;

  /// Run the deferred property check now, if one is pending (check_every
  /// > 1 only; a no-op otherwise). run() calls this before returning;
  /// callers driving step_once() manually may flush at their own cadence.
  void flush_property_checks();

  /// Attach/detach an event sink in addition to the SimOptions one —
  /// TraceRecorder subscribes this way. Sinks are borrowed and must
  /// outlive the simulation (or detach first).
  void attach_sink(obs::EventSink* sink);
  void detach_sink(obs::EventSink* sink);

  /// Dispatch an event to every attached sink (no-op when unobserved).
  /// Public for the engine's own instrumentation helpers; regular callers
  /// consume events through a sink instead of emitting them.
  void emit(const obs::Event& e);

 private:
  /// The engine's CoinSource over the run's PRNG stream — constructed once,
  /// not per step.
  class RngCoinSource final : public CoinSource {
   public:
    explicit RngCoinSource(Rng& rng) : rng_(rng) {}
    bool flip() override { return rng_.flip(); }

   private:
    Rng& rng_;
  };

  void active_insert(ProcessId p);
  void active_erase(ProcessId p);
  void check_properties_after_step(ProcessId p);
  /// Pairwise check over every decision ever latched (the check_every > 1
  /// checkpoint form; stepped-processor identity is no longer known).
  void check_properties_deferred();
  /// Throw unless `v`, decided by `p`, is some activated processor's input.
  void check_nontrivial(ProcessId p, Value v) const;
  /// An event about `p`, stamped with its own-step and the global step.
  obs::Event event_of(obs::EventKind kind, ProcessId p,
                      std::int64_t arg = 0) const;
  void note_activation(ProcessId p);
  void on_decided(ProcessId p);
  void emit_after_step(ProcessId p, std::int64_t faults_before);
  /// Emit a kActiveSet sample (arg = num_active) if ObsOptions::active_set
  /// asked for the track; pid = the transitioning processor (-1 baseline).
  void emit_active_set(ProcessId pid);
  std::int64_t phase_of(ProcessId p) const;
  void init_phase_baseline();

  const Protocol& protocol_;
  SimOptions options_;
  RegisterFile regs_;
  std::vector<std::unique_ptr<Process>> procs_;
  std::vector<Value> inputs_;
  std::vector<bool> crashed_;
  std::vector<std::int64_t> steps_;
  /// total_steps_ at each processor's crash (-1 = never crashed); feeds
  /// RecoveryContext::steps_missed.
  std::vector<std::int64_t> crash_total_step_;
  /// First decision each processor ever announced (kNoValue = none). The
  /// consistency check compares against this latch, not just live Process
  /// objects, so a recovered processor contradicting any *past* decision —
  /// including its own — is caught even after objects were replaced.
  std::vector<Value> decisions_ever_;
  std::int64_t recoveries_ = 0;
  std::vector<ProcessId> schedule_;
  std::vector<std::uint8_t> activated_;  ///< bitmap: took >= 1 step
  /// Distinct inputs of activated processes, in activation order — the
  /// nontriviality check scans this short list, not the activation set.
  std::vector<Value> activated_inputs_;
  std::int64_t total_steps_ = 0;
  /// Maintained list of active pids (!crashed && !decided), kept sorted
  /// ascending so it always equals what an index-order scan would produce.
  /// Updated on crash/recover/decide only — O(active) bookkeeping, so a
  /// sweep with thousands of idle crashed pids pays nothing per pick.
  std::vector<ProcessId> active_list_;
  int num_crashed_ = 0;   ///< maintained: crashed_[p] == true
  bool check_pending_ = false;  ///< a decision awaits its checkpoint
  Rng rng_;
  RngCoinSource coins_{rng_};
  DirectStepContext step_ctx_;
  RecoveryContext recovery_ctx_;  ///< recover()'s scratch, reused
  std::vector<obs::EventSink*> sinks_;
  std::vector<std::int64_t> phase_;  ///< last observed leading state word
                                     ///< (filled lazily on first sink)
};

/// What a scheduler is allowed to see: everything (the paper's strongest
/// adversary — registers, internal states, past coins via those states).
/// Inline throughout: schedulers consult the view on every step.
class SystemView {
 public:
  explicit SystemView(const Simulation& sim) : sim_(sim) {}

  int num_processes() const { return sim_.num_processes(); }
  const RegisterFile& regs() const { return sim_.regs(); }
  const Process& process(ProcessId p) const { return sim_.process(p); }
  bool crashed(ProcessId p) const { return sim_.crashed(p); }
  /// Active = not crashed and not decided (a decided processor has quit).
  bool active(ProcessId p) const { return sim_.active(p); }
  /// Number of active processes — O(1), maintained by the engine.
  int num_active() const { return sim_.num_active(); }
  /// The engine's maintained active list (ascending pids), updated on
  /// crash/recover/decide transitions only and valid until the next one.
  /// Schedulers index or filter it in place: a pick copies nothing and
  /// pays nothing for idle crashed pids.
  const std::vector<ProcessId>& active_list() const {
    return sim_.active_list();
  }
  std::int64_t total_steps() const { return sim_.total_steps(); }
  /// Own-step count of processor `p` (fault plans key events on it).
  std::int64_t steps_of(ProcessId p) const { return sim_.steps_of(p); }
  /// Crash-recoveries applied so far; with regs().write_version() this gives
  /// lookahead caches a complete cheap change-detector for system state.
  std::int64_t recoveries() const { return sim_.recoveries(); }

 private:
  const Simulation& sim_;
};

/// The adversary. pick() must return an active process (checked). crashes()
/// is consulted before each pick and may fail-stop processes (up to n-1 can
/// die over a run; the engine enforces at least one survivor, matching the
/// paper's t <= n-1 fault model).
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual ProcessId pick(const SystemView& view) = 0;
  virtual std::vector<ProcessId> crashes(const SystemView& view) {
    (void)view;
    return {};
  }
  /// Consulted before crashes() each step: crashed pids to restart via
  /// Protocol::recover (crash-recovery fault model). Consulted even when
  /// nothing is active, so a plan whose last survivor(s) decided can still
  /// bring a crashed processor back and keep the run going.
  virtual std::vector<ProcessId> recoveries(const SystemView& view) {
    (void)view;
    return {};
  }
  /// True iff a restart is scheduled but not yet due. When nothing is
  /// active, the engine idles the global clock forward (one tick per
  /// step_once, still bounded by max_total_steps) instead of ending the run,
  /// so a delayed recovery fires at its planned due step and steps_missed
  /// honestly reflects the planned outage — time does not compress just
  /// because every survivor already decided.
  virtual bool recovery_pending(const SystemView& view) const {
    (void)view;
    return false;
  }
};


/// Thrown when a run violates consistency or nontriviality — i.e. when the
/// protocol under test is *wrong* (used deliberately in tests of the flawed
/// strawmen).
class CoordinationViolation : public std::runtime_error {
 public:
  explicit CoordinationViolation(const std::string& what)
      : std::runtime_error(what) {}
};

}  // namespace cil
