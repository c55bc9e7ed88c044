// A fork-based worker supervisor for sharded sweeps.
//
// run_supervised() drives a fleet of up to `workers` child processes over a
// list of shard tasks. Each child executes the caller's ShardWorker (which
// runs the shard through BatchRunner and persists it via
// CheckpointStore::write_shard) and _exit()s; the parent reaps, commits
// successful shards into the manifest, and handles every failure mode a
// real fleet has:
//
//   * CRASH (nonzero exit or a signal — including the fabric's own
//     --chaos-kill-prob fault injection): the shard is requeued with
//     exponential backoff, up to `retry_budget` retries after the first
//     try, by the ShardLedger (shard_ledger.h) the fleet dispatcher shares.
//   * HANG (`shard_timeout_seconds` exceeded): the child is SIGKILLed and
//     treated as a crash.
//   * BUDGET EXHAUSTED: the shard lands in SweepOutcome::incomplete_shards
//     and the sweep degrades gracefully — every other shard still completes
//     and the caller reports a partial summary with explicit gaps.
//
// Process-model contract: the parent must be effectively single-threaded
// when it calls run_supervised (fork() in a multithreaded process clones
// only the calling thread; a child could then deadlock on a lock held by a
// thread that no longer exists). Children may spawn BatchRunner threads
// freely — they fork before threading. Windows has no fork(); there the
// fabric runs shards in-process, serially (still checkpointed and retried).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "fabric/checkpoint.h"
#include "fabric/shard_ledger.h"
#include "sched/batch.h"

namespace cil::fabric {

struct SupervisorOptions {
  int workers = 2;                  ///< max concurrent child processes
  double shard_timeout_seconds = 120.0;  ///< <= 0: no timeout
  int retry_budget = 3;             ///< retries per shard after the first try
  double backoff_initial_seconds = 0.1;  ///< doubles per retry, up to 5 s
  bool verbose = false;             ///< per-event lines on stderr
};

/// The shard body, run INSIDE the forked child. Must compute the shard and
/// persist it with store.write_shard(task.index, ...), then return the
/// child's exit code (0 = success). `attempt` is 0 on the first try and
/// increments per retry — chaos injection uses it so a retried shard draws
/// a fresh kill decision. Never returns to the parent's control flow: the
/// supervisor _exit()s with the returned code immediately after.
using ShardWorker = std::function<int(const ShardTask& task, int attempt)>;

/// Drive `tasks` to completion (or budget exhaustion) with at most
/// options.workers concurrent forked children, lowest ready index first.
/// Tasks already committed in `store` are skipped and marked resumed.
/// Successful children's shards are validated and committed into the
/// manifest as they are reaped, so a
/// SIGKILL of the SUPERVISOR itself loses at most the commit of in-flight
/// shards — which the next open() adopts back as orphans.
SweepOutcome run_supervised(const std::vector<ShardTask>& tasks,
                            const SupervisorOptions& options,
                            CheckpointStore& store, const ShardWorker& worker);

}  // namespace cil::fabric
