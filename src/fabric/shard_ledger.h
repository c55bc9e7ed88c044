// The shard ledger: the one lease/retry/commit state machine of everything
// that cuts a seed range into shards and survives crashed workers — the
// fork supervisor (run_supervised) and the fleet dispatcher. A plain
// data structure: no threads, no I/O, no clock reads; the caller passes
// `now` and serializes access.
//
//   pending   --lease-------------> in flight --succeed--> done
//   in flight --fail, budget left--> pending (behind its backoff gate)
//   in flight --fail, budget spent-> exhausted
//   exhausted --lease_local--------> in flight (the fleet's local fallback)
//
// The retry budget counts retries after the first try: a budget of 3
// allows 4 tries. An exhausted shard is incomplete for the supervisor.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sched/batch.h"

namespace cil::fabric {

/// One unit of sharded work: shard `index` of the sweep, covering `range`.
struct ShardTask {
  int index = 0;
  SeedRange range;
};

/// What happened to one shard across all its attempts.
struct ShardOutcome {
  int index = 0;
  int attempts = 0;      ///< leases; 0 when resumed from checkpoint
  bool completed = false;
  bool resumed = false;  ///< satisfied by the checkpoint, never leased
  std::string last_error;  ///< the last failure: "exit=N" | "signal=N" |
                           ///< "timeout" | "shard file invalid" | "" if none
};

struct SweepOutcome {
  std::vector<ShardOutcome> shards;  ///< one per task, index order
  std::int64_t retries = 0;          ///< total requeues across all shards
  std::vector<int> incomplete_shards;  ///< indexes not done, ascending

  bool complete() const { return incomplete_shards.empty(); }
};

/// A shard handed to one worker. `attempt` is 0 on the first try and
/// counts every earlier lease of the shard.
struct ShardLease {
  ShardTask task;
  int attempt = 0;
};

/// The retry backoff schedule: min(max_seconds, initial_seconds * 2^attempt).
double backoff_seconds(double initial_seconds, double max_seconds,
                       int attempt);

class ShardLedger {
 public:
  using Clock = std::chrono::steady_clock;

  /// One shard per task (unique indexes). Shards whose index is in
  /// `committed` start done and resumed; other committed indexes are
  /// ignored. A shard that fails attempt k waits
  /// backoff_seconds(backoff_initial_seconds, backoff_max_seconds, k).
  ShardLedger(const std::vector<ShardTask>& tasks,
              const std::vector<int>& committed, int retry_budget,
              double backoff_initial_seconds, double backoff_max_seconds);

  /// The lowest-index pending shard whose backoff gate is open at `now`,
  /// now in flight; nullopt when none is ready.
  std::optional<ShardLease> lease(Clock::time_point now);

  /// The local fallback: the lowest-index exhausted shard or, with
  /// `take_pending`, the lowest-index exhausted or pending one, backoff
  /// ignored. Local execution does not fail, so it never waits out a gate.
  std::optional<ShardLease> lease_local(bool take_pending);

  /// Mark an in-flight shard done. False, and no change, if it already is:
  /// a late duplicate result.
  bool succeed(int index);

  /// Record the failed attempt of an in-flight shard. Requeues it behind
  /// its backoff gate and returns true, or — its budget spent — marks it
  /// exhausted and returns false.
  bool fail(int index, const std::string& reason, Clock::time_point now);

  /// No shard pending or in flight: each is done or exhausted.
  bool finished() const { return open_ == 0; }

  SweepOutcome outcome() const;

 private:
  enum class State { kPending, kInFlight, kDone, kExhausted };
  struct Slot {
    ShardTask task;
    ShardOutcome outcome;
    State state = State::kPending;
    Clock::time_point ready_at = Clock::time_point::min();
  };

  Slot& in_flight(int index);  ///< precondition: shard `index` is in flight
  ShardLease hand_out(Slot& s);

  std::map<int, Slot> slots_;  ///< by shard index: lowest first
  int retry_budget_;
  double backoff_initial_seconds_;
  double backoff_max_seconds_;
  std::size_t open_ = 0;  ///< pending + in flight
  std::int64_t retries_ = 0;
};

}  // namespace cil::fabric
