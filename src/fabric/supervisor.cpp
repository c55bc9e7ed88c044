#include "fabric/supervisor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
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

double backoff_seconds(double initial_seconds, double max_seconds,
                       int attempt) {
  return std::min(max_seconds, std::ldexp(initial_seconds, attempt));
}

namespace {

using Clock = std::chrono::steady_clock;

struct Pending {
  ShardTask task;
  int attempt = 0;
  Clock::time_point ready_at;  ///< backoff gate; immediate on first try
};

}  // namespace

#ifndef _WIN32

namespace {

struct Running {
  ShardTask task;
  int attempt = 0;
  Clock::time_point deadline;  ///< time_point::max() when no timeout
  bool timed_out = false;      ///< SIGKILL sent; awaiting the reap
};

}  // namespace

SweepOutcome run_supervised(const std::vector<ShardTask>& tasks,
                            const SupervisorOptions& options,
                            CheckpointStore& store,
                            const ShardWorker& worker) {
  CIL_EXPECTS(options.workers >= 1);
  CIL_EXPECTS(worker != nullptr);

  SweepOutcome out;
  out.shards.resize(tasks.size());
  std::map<int, std::size_t> slot_of_index;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    out.shards[i].index = tasks[i].index;
    slot_of_index[tasks[i].index] = i;
  }

  std::deque<Pending> pending;
  for (const ShardTask& task : tasks) {
    if (store.is_complete(task.index)) {
      ShardOutcome& so = out.shards[slot_of_index[task.index]];
      so.completed = true;
      so.resumed = true;
      if (options.verbose)
        std::fprintf(stderr, "fabric: shard %d resumed from checkpoint\n",
                     task.index);
      continue;
    }
    pending.push_back({task, 0, Clock::now()});
  }

  std::map<pid_t, Running> running;

  const auto launch = [&](const Pending& p) {
    ShardOutcome& so = out.shards[slot_of_index[p.task.index]];
    ++so.attempts;
    if (options.verbose)
      std::fprintf(stderr, "fabric: shard %d attempt %d launching\n",
                   p.task.index, p.attempt);
    std::fflush(nullptr);  // don't let children replay buffered output
    const pid_t pid = ::fork();
    CIL_CHECK_MSG(pid >= 0, "fabric: fork() failed");
    if (pid == 0) {
      // Child. Run the shard body and leave without unwinding the parent's
      // state (no atexit handlers, no static destructors).
      int code = 70;
      try {
        code = worker(p.task, p.attempt);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "fabric: shard %d attempt %d threw: %s\n",
                     p.task.index, p.attempt, e.what());
        code = 71;
      } catch (...) {
        code = 71;
      }
      std::fflush(nullptr);
      ::_exit(code);
    }
    Running r;
    r.task = p.task;
    r.attempt = p.attempt;
    r.deadline = options.shard_timeout_seconds > 0.0
                     ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(
                                              options.shard_timeout_seconds))
                     : Clock::time_point::max();
    running.emplace(pid, r);
  };

  const auto fail = [&](const Running& r, const std::string& reason) {
    ShardOutcome& so = out.shards[slot_of_index[r.task.index]];
    so.last_error = reason;
    if (options.verbose)
      std::fprintf(stderr, "fabric: shard %d attempt %d failed (%s)\n",
                   r.task.index, r.attempt, reason.c_str());
    if (r.attempt < options.retry_budget) {
      ++out.retries;
      const double delay =
          backoff_seconds(options.backoff_initial_seconds,
                          options.backoff_max_seconds, r.attempt);
      pending.push_back(
          {r.task, r.attempt + 1,
           Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(delay))});
    } else {
      out.incomplete_shards.push_back(r.task.index);
      if (options.verbose)
        std::fprintf(stderr, "fabric: shard %d retry budget exhausted\n",
                     r.task.index);
    }
  };

  while (!pending.empty() || !running.empty()) {
    // Launch everything whose backoff has elapsed, up to the worker cap.
    const Clock::time_point now = Clock::now();
    for (auto it = pending.begin();
         it != pending.end() &&
         running.size() < static_cast<std::size_t>(options.workers);) {
      if (it->ready_at <= now) {
        launch(*it);
        it = pending.erase(it);
      } else {
        ++it;
      }
    }

    // Enforce timeouts: SIGKILL, then reap through the normal path below.
    for (auto& [pid, r] : running) {
      if (!r.timed_out && Clock::now() >= r.deadline) {
        r.timed_out = true;
        ::kill(pid, SIGKILL);
      }
    }

    // Reap without blocking; a child may finish while others still run.
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, WNOHANG);
    if (pid > 0) {
      const auto it = running.find(pid);
      if (it != running.end()) {
        const Running r = it->second;
        running.erase(it);
        if (r.timed_out) {
          fail(r, "timeout");
        } else if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
          if (store.commit_shard(r.task.index)) {
            out.shards[slot_of_index[r.task.index]].completed = true;
            if (options.verbose)
              std::fprintf(stderr, "fabric: shard %d committed\n",
                           r.task.index);
          } else {
            // Exit 0 but no valid shard file: treat as a crash.
            fail(r, "shard file invalid");
          }
        } else if (WIFEXITED(status)) {
          fail(r, "exit=" + std::to_string(WEXITSTATUS(status)));
        } else if (WIFSIGNALED(status)) {
          fail(r, "signal=" + std::to_string(WTERMSIG(status)));
        } else {
          fail(r, "unknown wait status");
        }
      }
      continue;  // drain further finished children before sleeping
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  std::sort(out.incomplete_shards.begin(), out.incomplete_shards.end());
  return out;
}

#else  // _WIN32

// No fork(): run each shard in-process, serially. Checkpointing and retry
// semantics still hold; chaos-kill and timeouts do not apply.
SweepOutcome run_supervised(const std::vector<ShardTask>& tasks,
                            const SupervisorOptions& options,
                            CheckpointStore& store,
                            const ShardWorker& worker) {
  CIL_EXPECTS(options.workers >= 1);
  CIL_EXPECTS(worker != nullptr);
  SweepOutcome out;
  out.shards.resize(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    ShardOutcome& so = out.shards[i];
    so.index = tasks[i].index;
    if (store.is_complete(tasks[i].index)) {
      so.completed = so.resumed = true;
      continue;
    }
    for (int attempt = 0; attempt <= options.retry_budget; ++attempt) {
      ++so.attempts;
      if (attempt > 0) ++out.retries;
      int code = 70;
      try {
        code = worker(tasks[i], attempt);
      } catch (...) {
        code = 71;
      }
      if (code == 0 && store.commit_shard(tasks[i].index)) {
        so.completed = true;
        break;
      }
      so.last_error = code == 0 ? "shard file invalid"
                                : "exit=" + std::to_string(code);
    }
    if (!so.completed) out.incomplete_shards.push_back(tasks[i].index);
  }
  return out;
}

#endif

}  // namespace cil::fabric
