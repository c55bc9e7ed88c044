#include "svc/queue.h"

#include "sched/batch.h"
#include "util/check.h"

namespace cil::svc {

JobQueue::JobQueue(int workers, JobLimits limits, Post post,
                   FleetRunner* fleet)
    : limits_(limits), post_(std::move(post)), fleet_(fleet) {
  CIL_EXPECTS(workers >= 1);
  CIL_EXPECTS(post_ != nullptr);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_main(); });
}

JobQueue::~JobQueue() { stop(); }

void JobQueue::submit(std::shared_ptr<JobTicket> ticket) {
  CIL_EXPECTS(ticket != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    CIL_CHECK_MSG(!stopping_, "JobQueue: submit after stop");
    pending_.push_back(std::move(ticket));
    ++stats_.submitted;
    ++stats_.queued;
  }
  cv_.notify_one();
}

void JobQueue::stop() {
  std::deque<std::shared_ptr<JobTicket>> drained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
    drained.swap(pending_);
    stats_.queued = 0;
    // In-flight jobs finish fast: every runner polls its cancel flag.
    for (const auto& t : drained) t->cancel.store(true);
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
  // Never-started tickets still owe their finished post.
  for (const auto& t : drained) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.cancelled;
    }
    post_(t->session_id, std::string(), true, false);
  }
}

QueueStats JobQueue::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void JobQueue::worker_main() {
  for (;;) {
    std::shared_ptr<JobTicket> ticket;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !pending_.empty(); });
      if (pending_.empty()) return;  // stopping
      ticket = std::move(pending_.front());
      pending_.pop_front();
      --stats_.queued;
      ++stats_.active;
    }

    const std::string& id = ticket->spec.id;
    const EmitFrame emit = [&](std::string frames) {
      post_(ticket->session_id, std::move(frames), false, false);
    };

    enum class Outcome { kCompleted, kFailed, kCancelled };
    Outcome outcome = Outcome::kCompleted;
    std::string last;
    try {
      run_job(ticket->spec, ticket->cancel, limits_, emit, fleet_);
      last = frame_done(id);
    } catch (const JobCancelled&) {
      outcome = Outcome::kCancelled;
    } catch (const BatchCancelled&) {
      outcome = Outcome::kCancelled;
    } catch (const std::exception& e) {
      outcome = Outcome::kFailed;
      last = frame_error(id, e.what()) + frame_done(id);
    }
    // Count the outcome before the finished post: a client that has seen
    // its done frame must never read stats that miss the job.
    {
      std::lock_guard<std::mutex> lock(mu_);
      --stats_.active;
      if (outcome == Outcome::kCompleted) ++stats_.completed;
      else if (outcome == Outcome::kFailed) ++stats_.failed;
      else ++stats_.cancelled;
    }
    // Cancelled jobs post no frames: the only cancellation sources are a
    // dead session and shutdown, and in both cases nobody is listening.
    post_(ticket->session_id, std::move(last), true,
          outcome == Outcome::kCompleted);
  }
}

}  // namespace cil::svc
