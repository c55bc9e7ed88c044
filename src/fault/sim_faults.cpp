#include "fault/sim_faults.h"

#include <algorithm>

#include "util/check.h"

namespace cil::fault {

SimRegisterFaults::SimRegisterFaults(const RegisterFaultConfig& config,
                                     std::uint64_t seed, int num_registers)
    : config_(config),
      rng_(0),
      regs_(static_cast<std::size_t>(num_registers)) {
  CIL_EXPECTS(num_registers >= 1);
  // Clamp the stale-read history so pathological configs stay bounded.
  config_.stale_depth = std::clamp(config_.stale_depth, 1, kMaxStaleDepth);
  rearm(seed);
}

void SimRegisterFaults::rearm(std::uint64_t seed) {
  rng_.reseed(seed ^ 0x51f4a7e9d2c3b1ULL);
  std::fill(regs_.begin(), regs_.end(), PerRegister{});
  faults_ = 0;
}

void SimRegisterFaults::on_write(RegisterId r, ProcessId, Word value) {
  PerRegister& reg = regs_[static_cast<std::size_t>(r)];
  if (config_.delay_prob > 0 && reg.writes > 0 &&
      rng_.with_probability(config_.delay_prob)) {
    // Readers keep seeing the pre-write value for the next delay_window
    // reads of this register — the write "hasn't propagated yet".
    reg.serving_old = config_.delay_window;
    reg.old_value = reg.recent(0);
  }
  reg.ring[static_cast<std::size_t>(reg.writes++ % kRing)] = value;
}

Word SimRegisterFaults::on_read(RegisterId r, ProcessId, Word actual) {
  PerRegister& reg = regs_[static_cast<std::size_t>(r)];
  if (reg.serving_old > 0) {
    --reg.serving_old;
    ++faults_;
    return reg.old_value;
  }
  // The history a stale read may reach: the last stale_depth + 1 writes.
  const auto held = std::min<std::int64_t>(reg.writes, config_.stale_depth + 1);
  if (config_.stale_prob > 0 && held >= 2 &&
      rng_.with_probability(config_.stale_prob)) {
    const auto age = 1 + rng_.below(static_cast<std::uint64_t>(held - 1));
    ++faults_;
    return reg.recent(static_cast<std::int64_t>(age));
  }
  return actual;
}

FaultPlanScheduler::FaultPlanScheduler(Scheduler& inner, const FaultPlan& plan)
    : inner_(&inner), rng_(0) {
  rearm(inner, plan);
}

void FaultPlanScheduler::rearm(Scheduler& inner, const FaultPlan& plan) {
  inner_ = &inner;
  sink_ = nullptr;
  pending_crashes_.assign(plan.crashes.begin(), plan.crashes.end());
  stalls_.clear();
  for (const StallEvent& e : plan.stalls) stalls_.push_back({e, false, 0});
  recoveries_.clear();
  for (const RecoveryEvent& e : plan.recoveries)
    recoveries_.push_back({e, false, 0});
  crash_log_.clear();
  rng_.reseed(plan.seed ^ 0x57a11e4d5c8e2fULL);
  crashes_fired_ = stalls_fired_ = recoveries_fired_ = 0;
  armed_recoveries_ = 0;
}

std::vector<ProcessId> FaultPlanScheduler::crashes(const SystemView& view) {
  std::vector<ProcessId> out;
  if (pending_crashes_.empty()) return out;
  std::erase_if(pending_crashes_, [&](const CrashEvent& e) {
    if (view.crashed(e.pid)) return true;  // already dead (duplicate plan)
    // Short of its step: wait — unless the pid decided, since a decided
    // processor takes no further steps and the crash is moot (retired).
    if (view.steps_of(e.pid) < e.at_step)
      return view.process(e.pid).decided();
    out.push_back(e.pid);
    crash_log_.push_back({e.pid, view.steps_of(e.pid)});
    ++crashes_fired_;
    // Arm this pid's recovery (if the plan has one): it fires `delay`
    // global steps from now.
    for (PendingRecovery& r : recoveries_) {
      if (r.event.pid == e.pid && !r.armed) {
        r.armed = true;
        r.due_total_step = view.total_steps() + r.event.delay;
        ++armed_recoveries_;
      }
    }
    return true;
  });
  return out;
}

std::vector<ProcessId> FaultPlanScheduler::recoveries(const SystemView& view) {
  std::vector<ProcessId> out;
  if (armed_recoveries_ == 0) return out;
  std::erase_if(recoveries_, [&](const PendingRecovery& r) {
    if (!r.armed) return false;
    if (view.crashed(r.event.pid)) {
      if (view.total_steps() < r.due_total_step) return false;
      out.push_back(r.event.pid);
      ++recoveries_fired_;
    }  // else: already back somehow — drop it
    --armed_recoveries_;
    return true;
  });
  return out;
}

bool FaultPlanScheduler::recovery_pending(const SystemView& view) const {
  if (armed_recoveries_ == 0) return false;
  for (const PendingRecovery& r : recoveries_) {
    if (r.armed && view.crashed(r.event.pid) &&
        view.total_steps() < r.due_total_step)
      return true;
  }
  return false;
}

bool FaultPlanScheduler::stalled(const SystemView& view, ProcessId p) const {
  for (const PendingStall& s : stalls_) {
    if (s.event.pid != p) continue;
    if (s.started && view.total_steps() < s.until_total_step) return true;
  }
  return false;
}

ProcessId FaultPlanScheduler::pick(const SystemView& view) {
  if (stalls_.empty()) return inner_->pick(view);
  // Activate stalls whose trigger step has been reached.
  for (PendingStall& s : stalls_) {
    if (!s.started && view.steps_of(s.event.pid) >= s.event.at_step) {
      s.started = true;
      s.until_total_step = view.total_steps() + s.event.duration;
      ++stalls_fired_;
      if (sink_ != nullptr) {
        obs::Event e;
        e.kind = obs::EventKind::kStall;
        e.pid = s.event.pid;
        e.step = view.steps_of(s.event.pid);
        e.total_step = view.total_steps();
        e.arg = s.event.duration;
        sink_->on_event(e);
      }
    }
  }

  runnable_.clear();
  for (const ProcessId p : view.active_list())
    if (!stalled(view, p)) runnable_.push_back(p);
  // Holding a pid back is only possible while someone else can run; the
  // asynchronous model never lets the adversary stop the whole system.
  if (runnable_.size() == view.active_list().size() || runnable_.empty())
    return inner_->pick(view);
  return runnable_[rng_.below(runnable_.size())];
}

}  // namespace cil::fault
