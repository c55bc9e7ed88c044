// Fault injection for the serialized simulator (src/sched), driven by a
// FaultPlan:
//
//   * SimRegisterFaults — a RegisterFaultHook that serves bounded-stale
//     reads and delayed write visibility (the regular-but-not-atomic
//     envelope of Hadzilacos–Hu–Toueg-style weaker registers). Flicker is
//     a no-op here: the simulator serializes steps, so no read ever
//     overlaps a write and safe-register garbage has no legal window —
//     that fault only exists in the threaded FaultyRegisters decorator.
//
//   * FaultPlanScheduler — wraps any Scheduler and applies the plan's
//     crash events (fail-stop pid after its at_step-th own step — the
//     identical semantics run_threaded applies on real threads) and stall
//     events (hold the pid unscheduled for `duration` global steps).
//
// Both are deterministic: same plan + same inner scheduler = same run.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "fault/fault_plan.h"
#include "obs/events.h"
#include "sched/simulation.h"
#include "util/rng.h"

namespace cil::fault {

/// Stale/delayed-read injector for the simulator's RegisterFile. Install
/// with sim.mutable_regs().set_fault_hook(&hook); keep alive for the run.
class SimRegisterFaults final : public RegisterFaultHook {
 public:
  /// Stale reads reach back at most this many writes (config clamp).
  static constexpr int kMaxStaleDepth = 16;

  SimRegisterFaults(const RegisterFaultConfig& config, std::uint64_t seed,
                    int num_registers);
  /// Back to the state the constructor leaves (same config and register
  /// count, fault stream restarted from `seed`); allocates nothing.
  void rearm(std::uint64_t seed);

  void on_write(RegisterId r, ProcessId p, Word value) override;
  Word on_read(RegisterId r, ProcessId p, Word actual) override;

  std::int64_t faults_injected() const override { return faults_; }

 private:
  static constexpr std::int64_t kRing = kMaxStaleDepth + 1;
  struct PerRegister {
    std::array<Word, kRing> ring{};  ///< committed values, by write count
    std::int64_t writes = 0;
    int serving_old = 0;        ///< reads left that still see the old value
    Word old_value = 0;         ///< value visible while serving_old > 0

    /// The value committed `age` writes before the latest (age < writes).
    Word recent(std::int64_t age) const {
      return ring[static_cast<std::size_t>((writes - 1 - age) % kRing)];
    }
  };

  RegisterFaultConfig config_;
  Rng rng_;
  std::vector<PerRegister> regs_;
  std::int64_t faults_ = 0;
};

/// Scheduler decorator applying a FaultPlan's processor faults in the
/// simulator. Crash events fire through crashes() (the engine fail-stops
/// the pid); stall events hold the pid unscheduled for `duration` global
/// steps by picking uniformly among the non-stalled active processes
/// (falling back to the inner scheduler when everyone else is done).
class FaultPlanScheduler final : public Scheduler {
 public:
  FaultPlanScheduler(Scheduler& inner, const FaultPlan& plan);
  /// Restore exactly the state FaultPlanScheduler(inner, plan) starts in —
  /// event cursors, crash log, counters, stall stream, no event sink —
  /// reusing the buffers already held, so pooled sweeps re-arm per seed
  /// without allocating once warm.
  void rearm(Scheduler& inner, const FaultPlan& plan);

  ProcessId pick(const SystemView& view) override;
  std::vector<ProcessId> crashes(const SystemView& view) override;
  /// Recovery events fire exactly `delay` global steps after their pid's
  /// crash fired. When the plan kills the last undecided processor the
  /// engine idles the clock forward (Scheduler::recovery_pending) until the
  /// due step, so steps_missed always reflects the planned outage.
  std::vector<ProcessId> recoveries(const SystemView& view) override;
  bool recovery_pending(const SystemView& view) const override;

  std::int64_t crashes_fired() const { return crashes_fired_; }
  std::int64_t stalls_fired() const { return stalls_fired_; }
  std::int64_t recoveries_fired() const { return recoveries_fired_; }

  /// Optional observability: emit a kStall event (pid, own-step,
  /// total_step, arg = duration in global steps) whenever a stall
  /// activates. Crash events are emitted by the engine itself. Borrowed;
  /// null disables.
  void set_event_sink(obs::EventSink* sink) { sink_ = sink; }
  /// (pid, own-step) pairs in firing order — the reproducibility witness
  /// compared against the threaded runtime's crash record.
  const std::vector<CrashEvent>& crash_log() const { return crash_log_; }

 private:
  struct PendingStall {
    StallEvent event;
    bool started = false;
    std::int64_t until_total_step = 0;
  };
  struct PendingRecovery {
    RecoveryEvent event;
    bool armed = false;  ///< true once the matching crash fired
    std::int64_t due_total_step = 0;
  };
  bool stalled(const SystemView& view, ProcessId p) const;

  Scheduler* inner_;
  obs::EventSink* sink_ = nullptr;
  std::vector<CrashEvent> pending_crashes_;
  std::vector<PendingStall> stalls_;
  std::vector<PendingRecovery> recoveries_;
  std::vector<CrashEvent> crash_log_;
  std::vector<ProcessId> runnable_;  ///< scratch, reused across picks
  Rng rng_;
  std::int64_t crashes_fired_ = 0;
  std::int64_t stalls_fired_ = 0;
  std::int64_t recoveries_fired_ = 0;
  int armed_recoveries_ = 0;  ///< recoveries_ entries with armed set
};

}  // namespace cil::fault
