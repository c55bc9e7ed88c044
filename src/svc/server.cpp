#include "svc/server.h"

#ifndef _WIN32

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "util/check.h"
#include "util/net.h"

namespace cil::svc {

namespace {

// epoll_event.data.u64 tags for the two non-session fds.
constexpr std::uint64_t kListenTag = 0;
constexpr std::uint64_t kWakeTag = 1;

// Accept-backoff pause bounds after fd exhaustion.
constexpr int kAcceptBackoffMinMs = 50;
constexpr int kAcceptBackoffMaxMs = 5'000;

using SteadyClock = std::chrono::steady_clock;

std::int64_t count_lines(const std::string& frames) {
  std::int64_t n = 0;
  for (const char c : frames)
    if (c == '\n') ++n;
  return n;
}

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {}

Server::~Server() {
  if (queue_) queue_->stop();
  sessions_.clear();
  if (listen_fd_ >= 0) (void)net::close_retry(listen_fd_);
  if (wake_fd_ >= 0) (void)net::close_retry(wake_fd_);
  if (epoll_fd_ >= 0) (void)net::close_retry(epoll_fd_);
}

bool Server::start() {
  net::ignore_sigpipe();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    std::perror("svc: socket");
    return false;
  }
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.listen_addr.c_str(), &addr.sin_addr) !=
      1) {
    std::fprintf(stderr, "svc: bad listen address '%s'\n",
                 options_.listen_addr.c_str());
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    std::perror("svc: bind");
    return false;
  }
  if (::listen(listen_fd_, options_.backlog) != 0) {
    std::perror("svc: listen");
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    std::perror("svc: getsockname");
    return false;
  }
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    std::perror("svc: epoll_create1");
    return false;
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    std::perror("svc: eventfd");
    return false;
  }

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    std::perror("svc: epoll_ctl(listen)");
    return false;
  }
  ev.data.u64 = kWakeTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    std::perror("svc: epoll_ctl(wake)");
    return false;
  }

  // Workers post toward sessions only through the outbox; the eventfd write
  // is the one syscall they share with the loop.
  queue_ = std::make_unique<JobQueue>(
      options_.job_workers, options_.job_limits,
      [this](std::uint64_t session_id, std::string frames,
             bool job_finished, bool job_completed) {
        {
          std::lock_guard<std::mutex> lock(outbox_.mu);
          outbox_.msgs.push_back(
              {session_id, std::move(frames), job_finished, job_completed});
        }
        const std::uint64_t tick = 1;
        (void)net::write_retry(wake_fd_, &tick, sizeof tick);
      },
      options_.fleet);
  return true;
}

void Server::stop() {
  stopping_.store(true, std::memory_order_relaxed);
  const std::uint64_t tick = 1;
  (void)net::write_retry(wake_fd_, &tick, sizeof tick);
}

void Server::run() {
  CIL_EXPECTS(epoll_fd_ >= 0);  // start() first
  std::array<epoll_event, 256> events;
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()),
                               loop_timeout_ms());
    if (n < 0) {
      if (errno == EINTR) continue;
      std::perror("svc: epoll_wait");
      break;
    }
    maybe_resume_accepting();
    reap_idle_sessions();
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      const std::uint32_t ev = events[i].events;
      if (tag == kListenTag) {
        accept_ready();
        continue;
      }
      if (tag == kWakeTag) {
        std::uint64_t drained = 0;
        while (::read(wake_fd_, &drained, sizeof drained) > 0) {
        }
        drain_outbox();
        continue;
      }
      // The session may have been closed by an earlier event in this same
      // batch — tags, not pointers, in data.u64 make that a clean miss.
      auto it = sessions_.find(tag);
      if (it == sessions_.end()) continue;
      if (ev & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
        session_readable(*it->second);
        it = sessions_.find(tag);
        if (it == sessions_.end()) continue;
      }
      if (ev & EPOLLOUT) session_writable(*it->second);
    }
  }

  // Shutdown: cancel everything in flight, join the workers (their finished
  // posts land in the outbox and die with it), drop the sessions.
  for (auto& [id, s] : sessions_) {
    if (s->active_job) s->active_job->cancel.store(true);
  }
  queue_->stop();
  const auto n_open = static_cast<std::int64_t>(sessions_.size());
  sessions_.clear();
  stats_.sessions_closed += n_open;
  stats_.active_sessions.store(0);
}

ServerStats Server::stats() const {
  ServerStats out;
  out.sessions_accepted = stats_.sessions_accepted.load();
  out.sessions_closed = stats_.sessions_closed.load();
  out.sessions_evicted = stats_.sessions_evicted.load();
  out.sessions_rejected = stats_.sessions_rejected.load();
  out.sessions_idle_closed = stats_.sessions_idle_closed.load();
  out.accept_backoffs = stats_.accept_backoffs.load();
  out.peer_frames = stats_.peer_frames.load();
  out.requests = stats_.requests.load();
  out.bad_requests = stats_.bad_requests.load();
  out.frames_sent = stats_.frames_sent.load();
  out.bytes_in = stats_.bytes_in.load();
  out.bytes_out = stats_.bytes_out.load();
  out.active_sessions = stats_.active_sessions.load();
  if (queue_) {
    // Undelivered first: a job is counted completed by the queue before it
    // can become undelivered, so this order never makes the difference
    // negative.
    out.jobs_undelivered = stats_.jobs_undelivered.load();
    const QueueStats q = queue_->stats();
    out.jobs_submitted = q.submitted;
    out.jobs_completed = q.completed - out.jobs_undelivered;
    out.jobs_failed = q.failed;
    out.jobs_cancelled = q.cancelled;
    out.jobs_active = q.active;
    out.jobs_queued = q.queued;
  }
  return out;
}

void Server::accept_ready() {
  for (;;) {
    const int fd = net::accept_retry(listen_fd_);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Resource exhaustion: the pending connection stays in the backlog,
        // so a level-triggered EPOLLIN would re-fire immediately and spin
        // the loop at 100% CPU. Disarm and retry after a growing pause.
        pause_accepting();
        return;
      }
      if (options_.verbose) std::perror("svc: accept");
      return;
    }
    accept_backoff_ms_ = 0;  // a successful accept ends the exhaustion
    if (sessions_.size() >= options_.max_sessions) {
      // Best-effort courtesy frame; the close is the real answer.
      const std::string line = frame_error("", "server full");
      (void)net::send_nosignal(fd, line.data(), line.size());
      (void)net::close_retry(fd);
      ++stats_.sessions_rejected;
      continue;
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    const std::uint64_t id = next_session_id_++;
    auto session = std::make_unique<Session>(
        fd, id, options_.max_line_bytes, options_.max_write_buffer);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      if (options_.verbose) std::perror("svc: epoll_ctl(add session)");
      ++stats_.sessions_rejected;
      continue;  // ~Session closes the fd
    }
    session->epoll_interest = EPOLLIN;
    session->last_activity = SteadyClock::now();
    Session& s = *session;
    sessions_.emplace(id, std::move(session));
    ++stats_.sessions_accepted;
    ++stats_.active_sessions;
    (void)enqueue_or_evict(s, frame_hello());
  }
}

void Server::pause_accepting() {
  accept_backoff_ms_ = accept_backoff_ms_ == 0
                           ? kAcceptBackoffMinMs
                           : std::min(accept_backoff_ms_ * 2,
                                      kAcceptBackoffMaxMs);
  if (!accept_paused_) {
    epoll_event ev{};
    ev.events = 0;  // keep registered, wake for nothing
    ev.data.u64 = kListenTag;
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, &ev);
    accept_paused_ = true;
  }
  accept_resume_at_ =
      SteadyClock::now() + std::chrono::milliseconds(accept_backoff_ms_);
  ++stats_.accept_backoffs;
  if (options_.verbose)
    std::fprintf(stderr, "svc: accept paused %dms (fd exhaustion)\n",
                 accept_backoff_ms_);
}

void Server::maybe_resume_accepting() {
  if (!accept_paused_ || SteadyClock::now() < accept_resume_at_) return;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, &ev);
  accept_paused_ = false;
  // If fds are still exhausted the next accept re-pauses with a doubled
  // backoff; accept_backoff_ms_ carries across for exactly that reason.
}

void Server::reap_idle_sessions() {
  if (options_.idle_timeout_seconds <= 0.0) return;
  const auto deadline =
      SteadyClock::now() -
      std::chrono::duration_cast<SteadyClock::duration>(
          std::chrono::duration<double>(options_.idle_timeout_seconds));
  // Collect ids first: close_session mutates sessions_.
  std::vector<std::uint64_t> idle;
  for (const auto& [id, s] : sessions_) {
    if (s->active_job != nullptr || !s->pending_jobs.empty()) continue;
    if (s->last_activity > deadline) continue;
    idle.push_back(id);
  }
  for (const std::uint64_t id : idle) {
    auto it = sessions_.find(id);
    if (it == sessions_.end()) continue;
    Session& s = *it->second;
    // Courtesy frame, best effort — the enqueue may itself evict, in which
    // case the session is already gone and the idle count still applies.
    ++stats_.sessions_idle_closed;
    if (!enqueue_or_evict(s, frame_error("", "idle timeout"))) continue;
    (void)s.flush();
    close_session(s, /*evicted=*/false);
  }
}

int Server::loop_timeout_ms() const {
  int timeout = -1;
  if (options_.idle_timeout_seconds > 0.0) timeout = 250;
  if (accept_paused_) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          accept_resume_at_ - SteadyClock::now())
                          .count();
    const int ms = static_cast<int>(std::clamp<long long>(left, 1, 60'000));
    timeout = timeout < 0 ? ms : std::min(timeout, ms);
  }
  return timeout;
}

void Server::session_readable(Session& s) {
  std::vector<std::string> lines;
  const std::int64_t before = s.bytes_in();
  const Session::IoStatus st = s.read_lines(lines);
  if (s.bytes_in() != before) s.last_activity = SteadyClock::now();
  stats_.bytes_in += s.bytes_in() - before;
  for (const std::string& line : lines) {
    if (!handle_line(s, line)) return;  // session closed under us
  }
  if (s.line_overflow() || st == Session::IoStatus::kError) {
    close_session(s, /*evicted=*/true);
    return;
  }
  if (st == Session::IoStatus::kClosed) {
    // Half-close: the client is done talking but still owed every frame of
    // its in-flight and pending jobs.
    if (maybe_finish(s)) return;
  }
  update_interest(s);
}

void Server::session_writable(Session& s) {
  const std::int64_t before = s.bytes_out();
  const Session::IoStatus st = s.flush();
  stats_.bytes_out += s.bytes_out() - before;
  if (st == Session::IoStatus::kError) {
    close_session(s, /*evicted=*/true);
    return;
  }
  if (maybe_finish(s)) return;
  update_interest(s);
}

bool Server::handle_line(Session& s, const std::string& line) {
  if (line.empty()) return true;  // tolerate keep-alive blank lines
  JobSpec spec;
  try {
    const obs::Json doc =
        obs::Json::parse(line, obs::ParseLimits::untrusted());
    // Fleet control frames ride the same listener but skip the job layer
    // entirely: the handler answers inline on the loop thread.
    if (doc.is_object() && doc.find("peer") != nullptr) {
      if (!options_.peer_handler) throw std::runtime_error(
          "peer frame refused: this daemon is not in a fleet");
      ++stats_.peer_frames;
      return enqueue_or_evict(s, options_.peer_handler(doc));
    }
    spec = job_spec_from_json(doc);
  } catch (const std::exception& e) {
    // Framing is intact (we got a complete line), so the connection
    // survives its own bad request.
    ++stats_.bad_requests;
    return enqueue_or_evict(s, frame_error("", e.what()));
  }
  ++stats_.requests;
  if (spec.kind == "ping") return enqueue_or_evict(s, frame_pong(spec.id));
  s.pending_jobs.push_back(std::move(spec));
  return pump_pipeline(s);
}

bool Server::pump_pipeline(Session& s) {
  if (s.active_job != nullptr || s.pending_jobs.empty()) return true;
  JobSpec spec = std::move(s.pending_jobs.front());
  s.pending_jobs.pop_front();
  // Accepted goes straight into the write buffer, ahead of any worker
  // frame: the worker only starts after submit() below.
  if (!enqueue_or_evict(s, frame_accepted(spec))) return false;
  auto ticket = std::make_shared<JobTicket>();
  ticket->session_id = s.id();
  ticket->spec = std::move(spec);
  s.active_job = ticket;
  queue_->submit(std::move(ticket));
  return true;
}

void Server::drain_outbox() {
  std::vector<Outbox::Msg> msgs;
  {
    std::lock_guard<std::mutex> lock(outbox_.mu);
    msgs.swap(outbox_.msgs);
  }
  for (Outbox::Msg& m : msgs) {
    // A completed job whose terminal frames find no session (it died, or
    // dies right here on a frame over max_write_buffer) was not delivered.
    auto it = sessions_.find(m.session_id);
    if (it == sessions_.end()) {  // session died; drop the tail
      if (m.job_completed) ++stats_.jobs_undelivered;
      continue;
    }
    Session& s = *it->second;
    if (!m.frames.empty() && !enqueue_or_evict(s, std::move(m.frames))) {
      if (m.job_completed) ++stats_.jobs_undelivered;
      continue;
    }
    if (m.job_finished) {
      s.active_job.reset();
      s.last_activity = SteadyClock::now();  // job end restarts the clock
      if (!pump_pipeline(s)) continue;
      if (maybe_finish(s)) continue;
    }
    update_interest(s);
  }
}

bool Server::enqueue_or_evict(Session& s, std::string frames) {
  const std::int64_t n_frames = count_lines(frames);
  if (!s.enqueue(std::move(frames))) {
    // Slow consumer: the bounded buffer is the backpressure policy, and
    // eviction beats silently corrupting the JSONL stream.
    close_session(s, /*evicted=*/true);
    return false;
  }
  stats_.frames_sent += n_frames;
  // Opportunistic flush: most frames fit the socket buffer and never need
  // an EPOLLOUT round-trip.
  const std::int64_t before = s.bytes_out();
  const Session::IoStatus st = s.flush();
  stats_.bytes_out += s.bytes_out() - before;
  if (st == Session::IoStatus::kError) {
    close_session(s, /*evicted=*/true);
    return false;
  }
  update_interest(s);
  return true;
}

bool Server::maybe_finish(Session& s) {
  if (!s.read_closed()) return false;
  if (s.active_job != nullptr || !s.pending_jobs.empty()) return false;
  if (s.wants_write()) return false;
  close_session(s, /*evicted=*/false);
  return true;
}

void Server::update_interest(Session& s) {
  const std::uint32_t want =
      EPOLLIN | (s.wants_write() ? EPOLLOUT : 0u);
  if (want == s.epoll_interest) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = s.id();
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, s.fd(), &ev) == 0)
    s.epoll_interest = want;
}

void Server::close_session(Session& s, bool evicted) {
  if (s.active_job) {
    s.active_job->cancel.store(true);
    s.active_job.reset();
  }
  s.pending_jobs.clear();
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, s.fd(), nullptr);
  ++(evicted ? stats_.sessions_evicted : stats_.sessions_closed);
  --stats_.active_sessions;
  sessions_.erase(s.id());  // destroys s; closes the fd
}

}  // namespace cil::svc

#endif  // _WIN32
