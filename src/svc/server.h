// The coordination service's front end: a long-lived nonblocking TCP server
// on an epoll event loop.
//
// Architecture (one loop thread + a worker pool, three seams):
//
//   accept   — the listen socket accepts into nonblocking per-connection
//              Session objects; the hello frame is queued immediately.
//   protocol — readable sessions yield complete request lines; each parses
//              under obs::ParseLimits::untrusted() into a JobSpec. Pings
//              answer inline. Jobs enter the session's pending pipeline and
//              flow one-at-a-time into the JobQueue, so a connection's
//              frames never interleave across its own requests.
//   results  — workers post frames into the outbox (mutex + eventfd); the
//              loop drains it, appends to the owning session's bounded
//              write buffer, and arms EPOLLOUT only while bytes wait. A
//              missing session drops the frames on the floor — the ticket
//              was cancelled when the session died, this is just the tail.
//
// Failure policy: a malformed line gets an error frame and the connection
// lives on (framing is intact); a line-length overflow or transport error
// evicts; a write-buffer overflow evicts (slow consumer); a client that
// disconnects mid-job has its ticket cancelled — BatchRunner notices within
// one run (BatchOptions::cancel) and the pooled Simulation unwinds with the
// worker's stack, leak-free (pinned by svc_test).
//
// Thread safety: run() owns every Session exclusively. stop() and stats()
// are callable from any thread (atomic flag + eventfd wake; atomic
// counters). The epoll readiness model is level-triggered with
// demand-armed EPOLLOUT — the classic shape that cannot lose a wakeup.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"
#include "svc/job.h"
#include "svc/queue.h"
#include "svc/session.h"

namespace cil::svc {

/// Handles one inbound peer control frame (a parsed JSON object tagged
/// "peer") and returns the complete reply line. Runs on the loop thread —
/// must not block. Throwing yields the standard error frame.
using PeerHandler = std::function<std::string(const obs::Json& doc)>;

struct ServerOptions {
  std::string listen_addr = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral; read the bound port from port()
  int backlog = 511;
  int job_workers = 2;
  std::size_t max_sessions = 65'536;
  std::size_t max_line_bytes = 1u << 20;     ///< request framing cap
  std::size_t max_write_buffer = 4u << 20;   ///< per-session backpressure cap
  /// Close connections that sit connected but jobless (no in-flight or
  /// pending work) with no inbound traffic for this long. 0 disables. The
  /// close is graceful: an error frame explains it, and sessions with any
  /// job activity are never reaped no matter how long the job runs.
  double idle_timeout_seconds = 0.0;
  JobLimits job_limits;
  /// Routes lines tagged "peer" (fleet control frames) instead of the job
  /// parser; unset, such lines get a bad-request error. Installed by the
  /// fleet layer via tools/coordd.
  PeerHandler peer_handler;
  /// Executes fleet-tagged sweeps (borrowed; must outlive the server).
  FleetRunner* fleet = nullptr;
  bool verbose = false;
};

/// Monotonic counters; `active_*` and `queue_*` are instantaneous.
struct ServerStats {
  std::int64_t sessions_accepted = 0;
  std::int64_t sessions_closed = 0;
  std::int64_t sessions_evicted = 0;   ///< slow consumer / overflow / error
  std::int64_t sessions_rejected = 0;  ///< over max_sessions
  std::int64_t sessions_idle_closed = 0;  ///< reaped by the idle timeout
  std::int64_t accept_backoffs = 0;    ///< accept paused on fd exhaustion
  std::int64_t peer_frames = 0;        ///< lines routed to the peer handler
  std::int64_t requests = 0;           ///< well-formed specs (incl. pings)
  std::int64_t bad_requests = 0;       ///< parse/validation failures
  std::int64_t frames_sent = 0;        ///< enqueue() calls that stuck
  std::int64_t bytes_in = 0;
  std::int64_t bytes_out = 0;
  std::int64_t active_sessions = 0;
  // Job pool (mirrors JobQueue::stats at snapshot time):
  std::int64_t jobs_submitted = 0;
  /// Ran to completion AND its terminal frame reached the session's write
  /// buffer.
  std::int64_t jobs_completed = 0;
  /// Ran to completion, but the session was gone (evicted or closed) before
  /// all its frames were queued — e.g. a result frame larger than
  /// max_write_buffer. Not counted in jobs_completed.
  std::int64_t jobs_undelivered = 0;
  std::int64_t jobs_failed = 0;
  std::int64_t jobs_cancelled = 0;
  std::int64_t jobs_active = 0;
  std::int64_t jobs_queued = 0;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + create the epoll/eventfd plumbing and the worker
  /// pool. Returns false (with a stderr report) on any setup failure.
  /// port() is valid afterwards.
  bool start();

  /// The bound port (after start()).
  int port() const { return port_; }

  /// The event loop: blocks until stop(). Call start() first.
  void run();

  /// Request shutdown from any thread (or a signal handler: the two calls
  /// are an atomic store and an eventfd write). run() drains, cancels
  /// in-flight jobs, and returns.
  void stop();

  ServerStats stats() const;

 private:
  struct LoopState;  // epoll bookkeeping, defined in server.cpp

  // The bool-returning helpers report liveness: false means the session was
  // closed (and destroyed) during the call — the caller must drop its
  // reference immediately.
  void accept_ready();
  /// Stop accepting for a while after fd exhaustion (EMFILE/ENFILE/...):
  /// disarm the listen fd's EPOLLIN so a full backlog cannot spin the
  /// loop, and re-arm after an exponentially growing pause.
  void pause_accepting();
  void maybe_resume_accepting();
  /// Close sessions idle past ServerOptions::idle_timeout_seconds.
  void reap_idle_sessions();
  /// The epoll_wait timeout: -1 unless the idle reaper or the accept
  /// re-arm deadline needs the loop to wake on its own.
  int loop_timeout_ms() const;
  void session_readable(Session& s);
  void session_writable(Session& s);
  bool handle_line(Session& s, const std::string& line);
  bool pump_pipeline(Session& s);
  void drain_outbox();
  void close_session(Session& s, bool evicted);
  void update_interest(Session& s);
  bool enqueue_or_evict(Session& s, std::string frames);
  /// Close the session once everything it will ever get is flushed; true if
  /// it closed.
  bool maybe_finish(Session& s);

  ServerOptions options_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: outbox posts and stop() wake the loop
  int port_ = 0;
  std::atomic<bool> stopping_{false};

  // Accept backoff state (loop thread only).
  bool accept_paused_ = false;
  std::chrono::steady_clock::time_point accept_resume_at_{};
  int accept_backoff_ms_ = 0;  ///< doubles per consecutive exhaustion

  // Ids below 16 are reserved for the listen socket and wake eventfd tags
  // in epoll_event.data.u64.
  std::uint64_t next_session_id_ = 16;
  std::map<std::uint64_t, std::unique_ptr<Session>> sessions_;

  struct Outbox {
    struct Msg {
      std::uint64_t session_id;
      std::string frames;
      bool job_finished;
      bool job_completed;
    };
    std::mutex mu;
    std::vector<Msg> msgs;
  };
  Outbox outbox_;

  std::unique_ptr<JobQueue> queue_;

  // Loop-side counters, atomic so stats() is callable from test threads.
  struct AtomicStats {
    std::atomic<std::int64_t> sessions_accepted{0};
    std::atomic<std::int64_t> sessions_closed{0};
    std::atomic<std::int64_t> sessions_evicted{0};
    std::atomic<std::int64_t> sessions_rejected{0};
    std::atomic<std::int64_t> sessions_idle_closed{0};
    std::atomic<std::int64_t> accept_backoffs{0};
    std::atomic<std::int64_t> peer_frames{0};
    std::atomic<std::int64_t> requests{0};
    std::atomic<std::int64_t> bad_requests{0};
    std::atomic<std::int64_t> frames_sent{0};
    std::atomic<std::int64_t> bytes_in{0};
    std::atomic<std::int64_t> bytes_out{0};
    std::atomic<std::int64_t> active_sessions{0};
    std::atomic<std::int64_t> jobs_undelivered{0};
  };
  AtomicStats stats_;
};

}  // namespace cil::svc
