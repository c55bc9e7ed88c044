#include "sched/schedulers.h"

#include <algorithm>

#include "util/check.h"

namespace cil {

ProcessId RoundRobinScheduler::pick(const SystemView& view) {
  const int n = view.num_processes();
  for (int tries = 0; tries < n; ++tries) {
    const ProcessId p = next_;
    next_ = (next_ + 1) % n;
    if (view.active(p)) return p;
  }
  throw ContractViolation("RoundRobinScheduler: no active process");
}

ProcessId RandomScheduler::pick(const SystemView& view) {
  // Index the engine's maintained list directly: O(1) per pick, and the
  // same ascending order the scratch-copy path produced, so picks (and the
  // PRNG stream) are bit-identical to the historical behavior.
  const std::vector<ProcessId>& active = view.active_list();
  CIL_CHECK_MSG(!active.empty(), "RandomScheduler: no active process");
  return active[rng_.below(active.size())];
}

bool StarvingScheduler::is_starved(ProcessId p) const {
  return std::find(starved_.begin(), starved_.end(), p) != starved_.end();
}

ProcessId StarvingScheduler::pick(const SystemView& view) {
  const std::vector<ProcessId>& active = view.active_list();
  preferred_.clear();
  for (ProcessId p : active)
    if (!is_starved(p)) preferred_.push_back(p);
  if (preferred_.empty()) {
    // Only starved processes remain; the engine requires a legal pick.
    CIL_CHECK_MSG(!active.empty(), "StarvingScheduler: no active process");
    return active[rng_.below(active.size())];
  }
  return preferred_[rng_.below(preferred_.size())];
}

ProcessId ReplayScheduler::pick(const SystemView& view) {
  while (next_ < schedule_.size()) {
    const ProcessId p = schedule_[next_++];
    if (view.active(p)) return p;
  }
  return fallback_.pick(view);
}

std::vector<ProcessId> CrashingScheduler::crashes(const SystemView& view) {
  std::vector<ProcessId> out;
  for (const auto& [when, pid] : plan_) {
    if (view.total_steps() >= when && !view.crashed(pid)) out.push_back(pid);
  }
  // Drop already-crashed entries so we do not re-report them.
  std::erase_if(plan_, [&](const auto& e) {
    return view.total_steps() >= e.first;
  });
  return out;
}

}  // namespace cil
