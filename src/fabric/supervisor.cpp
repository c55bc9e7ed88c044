#include "fabric/supervisor.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <thread>

#ifndef _WIN32
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "util/check.h"

namespace cil::fabric {

namespace {

using Clock = ShardLedger::Clock;

constexpr double kBackoffMaxSeconds = 5.0;

/// The shard body's exit code: the worker's return value, or 71 if it
/// threw.
int run_worker(const ShardWorker& worker, const ShardLease& lease) {
  try {
    return worker(lease.task, lease.attempt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fabric: shard %d attempt %d threw: %s\n",
                 lease.task.index, lease.attempt, e.what());
  } catch (...) {
  }
  return 71;
}

}  // namespace

SweepOutcome run_supervised(const std::vector<ShardTask>& tasks,
                            const SupervisorOptions& options,
                            CheckpointStore& store,
                            const ShardWorker& worker) {
  CIL_EXPECTS(options.workers >= 1);
  CIL_EXPECTS(worker != nullptr);

  ShardLedger ledger(tasks, store.completed(), options.retry_budget,
                     options.backoff_initial_seconds, kBackoffMaxSeconds);

  // Commit a finished attempt (error "" = the worker reported success),
  // or hand its failure to the ledger.
  const auto settle = [&](const ShardLease& lease, std::string error) {
    const int index = lease.task.index;
    if (error.empty() && !store.commit_shard(index))
      error = "shard file invalid";  // success claimed, no valid shard file
    if (error.empty()) {
      ledger.succeed(index);
      if (options.verbose)
        std::fprintf(stderr, "fabric: shard %d committed\n", index);
      return;
    }
    if (options.verbose)
      std::fprintf(stderr, "fabric: shard %d attempt %d failed (%s)\n", index,
                   lease.attempt, error.c_str());
    if (!ledger.fail(index, error, Clock::now()) && options.verbose)
      std::fprintf(stderr, "fabric: shard %d retry budget exhausted\n", index);
  };

#ifndef _WIN32
  // A forked worker: the lease it runs and its kill deadline.
  struct Child {
    ShardLease lease;
    Clock::time_point deadline;  ///< time_point::max() when no timeout
    bool killed = false;         ///< SIGKILLed at the deadline; not reaped
  };
  std::map<pid_t, Child> children;

  while (!ledger.finished()) {
    // Launch everything whose backoff has elapsed, up to the worker cap.
    const Clock::time_point now = Clock::now();
    while (children.size() < static_cast<std::size_t>(options.workers)) {
      const std::optional<ShardLease> lease = ledger.lease(now);
      if (!lease) break;
      if (options.verbose)
        std::fprintf(stderr, "fabric: shard %d attempt %d launching\n",
                     lease->task.index, lease->attempt);
      std::fflush(nullptr);  // don't let children replay buffered output
      const pid_t pid = ::fork();
      CIL_CHECK_MSG(pid >= 0, "fabric: fork() failed");
      if (pid == 0) {
        // Child: leave without unwinding the parent's state (no atexit
        // handlers, no static destructors).
        const int code = run_worker(worker, *lease);
        std::fflush(nullptr);
        ::_exit(code);
      }
      const Clock::time_point deadline =
          options.shard_timeout_seconds > 0.0
              ? now + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              options.shard_timeout_seconds))
              : Clock::time_point::max();
      children.emplace(pid, Child{*lease, deadline});
    }

    // Enforce timeouts: SIGKILL, then reap through the normal path below.
    for (auto& [pid, child] : children) {
      if (!child.killed && Clock::now() >= child.deadline) {
        child.killed = true;
        ::kill(pid, SIGKILL);
      }
    }

    // Reap without blocking; a child may finish while others still run.
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, WNOHANG);
    if (pid > 0) {
      const auto it = children.find(pid);
      if (it != children.end()) {
        const Child child = it->second;
        children.erase(it);
        if (child.killed)
          settle(child.lease, "timeout");
        else if (WIFEXITED(status))
          settle(child.lease,
                 WEXITSTATUS(status) == 0
                     ? ""
                     : "exit=" + std::to_string(WEXITSTATUS(status)));
        else if (WIFSIGNALED(status))
          settle(child.lease, "signal=" + std::to_string(WTERMSIG(status)));
        else
          settle(child.lease, "unknown wait status");
      }
      continue;  // drain further finished children before sleeping
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
#else
  // No fork(): run each shard in-process, one at a time. Chaos-kill and
  // timeouts do not apply.
  while (!ledger.finished()) {
    if (const std::optional<ShardLease> lease = ledger.lease(Clock::now())) {
      const int code = run_worker(worker, *lease);
      settle(*lease, code == 0 ? "" : "exit=" + std::to_string(code));
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));  // backoff
    }
  }
#endif
  return ledger.outcome();
}

}  // namespace cil::fabric
