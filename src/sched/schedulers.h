// Basic (non-lookahead) schedulers: benign interleavings, starvation,
// replay, and fail-stop crash injection. The adaptive adversaries that use
// one-step lookahead live in adversary.h.
#pragma once

#include <utility>
#include <vector>

#include "sched/simulation.h"
#include "util/rng.h"

namespace cil {

/// Cycles through processes in index order, skipping inactive ones. The
/// benign "fair" schedule.
class RoundRobinScheduler final : public Scheduler {
 public:
  ProcessId pick(const SystemView& view) override;
  /// Back to the initial cursor — pooled sweeps re-arm instead of
  /// reconstructing (BatchRunner scheduler factories).
  void reset() { next_ = 0; }

 private:
  ProcessId next_ = 0;
};

/// Picks uniformly at random among active processes — models an agnostic
/// asynchronous environment.
class RandomScheduler final : public Scheduler {
 public:
  explicit RandomScheduler(std::uint64_t seed) : rng_(seed) {}
  ProcessId pick(const SystemView& view) override;
  /// Restart the pick stream exactly as a fresh RandomScheduler(seed) would.
  void reseed(std::uint64_t seed) { rng_.reseed(seed); }

 private:
  Rng rng_;
};

/// Never schedules the processes in `starved` while anyone else is active.
/// This is the legal-but-hostile schedule the paper's termination condition
/// is explicitly strong against: the remaining processes must still decide.
/// (With the flawed naive protocol of §5 they never do.)
class StarvingScheduler final : public Scheduler {
 public:
  StarvingScheduler(std::vector<ProcessId> starved, std::uint64_t seed)
      : starved_(std::move(starved)), rng_(seed) {}
  ProcessId pick(const SystemView& view) override;

 private:
  bool is_starved(ProcessId p) const;
  std::vector<ProcessId> starved_;
  Rng rng_;
  std::vector<ProcessId> preferred_;  ///< scratch, reused across picks
};

/// Replays a fixed schedule; afterwards falls back to round-robin. Used to
/// re-execute schedules found by the analysis module and in tests.
class ReplayScheduler final : public Scheduler {
 public:
  explicit ReplayScheduler(std::vector<ProcessId> schedule)
      : schedule_(std::move(schedule)) {}
  ProcessId pick(const SystemView& view) override;

 private:
  std::vector<ProcessId> schedule_;
  std::size_t next_ = 0;
  RoundRobinScheduler fallback_;
};

/// Wraps another scheduler and fail-stops given processes when the run
/// reaches given step counts (the paper's t <= n-1 crash model).
class CrashingScheduler final : public Scheduler {
 public:
  /// plan: (total_step_count, pid) pairs; each pid crashes at that time.
  CrashingScheduler(Scheduler& inner,
                    std::vector<std::pair<std::int64_t, ProcessId>> plan)
      : inner_(inner), plan_(std::move(plan)) {}

  ProcessId pick(const SystemView& view) override { return inner_.pick(view); }
  std::vector<ProcessId> crashes(const SystemView& view) override;

  /// Re-arm with a fresh plan (crashes() consumes entries as they fire);
  /// reuses the plan vector's capacity for pooled sweeps.
  void set_plan(const std::vector<std::pair<std::int64_t, ProcessId>>& plan) {
    plan_.assign(plan.begin(), plan.end());
  }

 private:
  Scheduler& inner_;
  std::vector<std::pair<std::int64_t, ProcessId>> plan_;
};

}  // namespace cil
