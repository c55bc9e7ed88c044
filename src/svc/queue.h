// The async job queue: the decoupling layer between protocol I/O and
// simulation work.
//
// The epoll loop (svc/server.h) must never block on a sweep, and a sweep
// must never block on a slow socket — so jobs cross from the loop thread to
// a fixed pool of worker threads as JobTickets, and every byte a worker
// produces crosses back through the server's outbox (the Post callback),
// never by touching a session directly. A session may be destroyed while
// its job runs; the ticket's atomic cancel flag is the only shared state,
// and the outbox drops frames whose session is gone.
//
// Terminal frames are owned here: the worker emits the job's done frame (or
// error + done on failure) and marks the post `job_finished`, so the server
// knows to pump the session's next pending request. Exactly one finished
// post per ticket, on every path — completed, failed, cancelled, or
// drained at shutdown.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "svc/job.h"
#include "svc/wire.h"

namespace cil::svc {

/// One submitted job. Shared between the server loop (which may set cancel
/// and then forget the ticket) and the worker executing it.
struct JobTicket {
  std::uint64_t session_id = 0;
  JobSpec spec;
  std::atomic<bool> cancel{false};
};

struct QueueStats {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;     ///< job threw; error frame sent
  std::int64_t cancelled = 0;  ///< cancel observed before/while running
  std::int64_t active = 0;     ///< currently executing on a worker
  std::int64_t queued = 0;     ///< submitted, not yet picked up
};

class JobQueue {
 public:
  /// Frame delivery toward a session, called from worker threads.
  /// `job_finished` is true on the last post for a ticket, and
  /// `job_completed` on that post when the job ran to completion (it was
  /// counted in QueueStats::completed).
  using Post =
      std::function<void(std::uint64_t session_id, std::string frames,
                         bool job_finished, bool job_completed)>;

  /// `fleet` (optional, borrowed, must outlive the queue) routes
  /// fleet-tagged sweeps; see svc::FleetRunner.
  JobQueue(int workers, JobLimits limits, Post post,
           FleetRunner* fleet = nullptr);
  ~JobQueue();  ///< calls stop()

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Enqueue; wakes one worker. Never blocks (the queue is unbounded — the
  /// per-session pipeline depth is the server's concern, not the pool's).
  void submit(std::shared_ptr<JobTicket> ticket);

  /// Stop accepting, cancel + drain pending tickets (each still gets its
  /// finished post), join workers. Idempotent.
  void stop();

  QueueStats stats() const;

 private:
  void worker_main();

  const JobLimits limits_;
  const Post post_;
  FleetRunner* const fleet_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<JobTicket>> pending_;
  bool stopping_ = false;
  QueueStats stats_;

  std::vector<std::thread> workers_;
};

}  // namespace cil::svc
