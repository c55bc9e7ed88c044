// ladder_probe mix: the svc-mix client. One thread drives a closed loop of
// sessions against one coordd over loopback, the frontend of a fleet: each
// session sends its next job only after the previous one ended (done frame,
// eviction or timeout). Jobs come in rounds of a fixed class mix, shuffled
// per round; once started, a round is always issued in full, so every run
// measures whole rounds.
//
// Result frames are kept raw while the loop runs, so parsing them does not
// delay other sessions' reads, and are parsed afterwards with the trusted
// (default) parse limits: a 10^5-seed summary is far beyond
// ParseLimits::untrusted(). A connection the daemon closes before the job's
// done frame is recorded as an eviction and the session reconnects.
//
// After the loop every delivered summary is recomputed by the scalar
// BatchRunner; each job's line carries both, and the caller gates them.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <string_view>
#include <thread>

#include "probe.h"
#include "util/check.h"
#include "util/rng.h"

namespace ladder {

using cil::obs::Json;

namespace {

struct Job {
  std::string id;
  const JobClass* cls = nullptr;
  std::uint64_t first_seed = 0;
  int session = -1;
  std::int64_t submit_ns = 0, written_ns = 0, progress_ns = 0, done_ns = 0;
  std::int64_t frames = 0, bytes = 0, result_bytes = 0;
  std::string status = "pending";  ///< ok | evicted | error | timeout
  std::string error;
  std::string result_line;  ///< raw result frame, parsed after the loop
  Json summary, ref;
};

struct Session {
  int port = 0;
  int fd = -1;
  std::string rbuf, wbuf;
  Job* job = nullptr;
};

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  CIL_CHECK_MSG(fd >= 0, "mix: socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    CIL_CHECK_MSG(false, "mix: cannot connect to port " + std::to_string(port));
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

std::string request_line(const Job& job) {
  Json j = Json::object();
  j["job"] = Json("cilcoord.job.v1");
  j["kind"] = Json("sweep");
  j["id"] = Json(job.id);
  j["protocol"] = Json(job.cls->protocol);
  j["n"] = Json(job.cls->n);
  j["adversary"] = Json("random");
  j["first_seed"] = Json(std::to_string(job.first_seed));
  j["seeds"] = Json(job.cls->seeds);
  j["steps"] = Json(kSteps);
  if (job.cls->fleet) j["fleet"] = Json(true);
  return j.dump() + "\n";
}

/// The event name of a frame line, read without parsing the whole line.
/// Frames are objects with sorted keys, so "event" sits within the first
/// few small members (after "decided" and "done" in a progress frame).
std::string event_of(const std::string& line) {
  static const std::string key = "\"event\":\"";
  const std::size_t at = std::string_view(line).substr(0, 128).find(key);
  if (at == std::string::npos) return "";
  const std::size_t end = line.find('"', at + key.size());
  if (end == std::string::npos) return "";
  return line.substr(at + key.size(), end - at - key.size());
}

/// A delivered batch_summary without its sample sets, which can run to
/// megabytes; the caller's gate picks the fields it compares.
Json without_samples(const Json& summary) {
  Json s = Json::object();
  for (const auto& [key, value] : summary.as_object())
    if (key != "samples") s[key] = value;
  return s;
}

double ms_between(std::int64_t a, std::int64_t b) {
  return a > 0 && b > 0 ? static_cast<double>(b - a) * 1e-6 : -1.0;
}

}  // namespace

int cmd_mix(int argc, char** argv) {
  cil::cli::FlagSet flags(argc, argv);
  std::string out_path;
  std::uint64_t seed = 1, first_seed = 1;
  double seconds = 10.0;
  int port = 0;
  flags.take_int("port", port);
  flags.take_string("out", out_path);
  flags.take_uint64("seed", seed);
  flags.take_uint64("first-seed", first_seed);
  flags.take_double("seconds", seconds);
  if (!flags.finish() || port <= 0 || out_path.empty()) return 2;
  const int verify_threads =
      static_cast<int>(std::thread::hardware_concurrency());
  const int sessions = 4;
  // A job with no done frame after this long is abandoned; the loop waits
  // at most drain_s past the deadline for the last round to finish.
  const double job_timeout_s = 60.0, drain_s = 90.0;

  // One round of the mix: 12 small Figure 2 sweeps with five large jobs
  // spread evenly among them. The large ones are two plain and two
  // fleet-tagged 10^5-seed Figure 1 sweeps and one 10^6-seed sweep whose
  // result frame outgrows the daemon's write buffer; the seed shuffles
  // their order per round. Even spacing keeps a run's queueing from
  // depending on how a shuffle happened to bunch the large jobs.
  const std::vector<const JobClass*>& large = kLargePerRound;
  const std::size_t round_size = kSmallPerRound + large.size();
  cil::Rng rng(seed);
  std::vector<const JobClass*> order;
  std::uint64_t next_seed = first_seed;
  std::vector<std::unique_ptr<Job>> jobs;
  // Null once the deadline has passed and the current round is used up.
  const auto next_job = [&](std::int64_t now, std::int64_t deadline) -> Job* {
    if (order.empty()) {
      if (now >= deadline) return nullptr;
      std::vector<const JobClass*> shuffled = large;
      for (std::size_t i = shuffled.size(); i > 1; --i)
        std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
      order.assign(round_size, &kSmall);
      for (std::size_t k = 0; k < shuffled.size(); ++k)
        order[(2 * k + 1) * round_size / (2 * shuffled.size())] = shuffled[k];
      std::reverse(order.begin(), order.end());  // consumed from the back
    }
    auto job = std::make_unique<Job>();
    job->cls = order.back();
    order.pop_back();
    job->id = "j" + std::to_string(jobs.size());
    job->first_seed = next_seed;
    next_seed += static_cast<std::uint64_t>(job->cls->seeds);
    jobs.push_back(std::move(job));
    return jobs.back().get();
  };

  std::vector<Session> sess(static_cast<std::size_t>(sessions));
  for (Session& s : sess) {
    s.port = port;
    s.fd = connect_loopback(port);
  }
  std::int64_t reconnects = 0;
  const auto finish_job = [&](Session& s, const std::string& status) {
    if (s.job == nullptr) return;
    if (s.job->status == "pending") s.job->status = status;
    s.job->done_ns = now_ns();
    s.job = nullptr;
  };
  const auto reconnect = [&](Session& s) {
    ::close(s.fd);
    s.rbuf.clear();
    s.wbuf.clear();
    s.fd = connect_loopback(s.port);
    ++reconnects;
  };
  const auto on_line = [&](Session& s, std::string line) {
    Job* job = s.job;
    if (job == nullptr) return;  // hello, or a frame of an abandoned job
    const std::string ev = event_of(line);
    if (ev == "hello") return;
    job->frames += 1;
    job->bytes += static_cast<std::int64_t>(line.size()) + 1;
    if (ev == "progress") {
      if (job->progress_ns == 0) job->progress_ns = now_ns();
    } else if (ev == "result") {
      job->result_bytes = static_cast<std::int64_t>(line.size()) + 1;
      job->result_line = std::move(line);
    } else if (ev == "error") {
      const Json doc = Json::parse(line);
      job->status = "error";
      if (const Json* what = doc.find("what")) job->error = what->as_string();
    } else if (ev == "done") {
      finish_job(s, job->result_line.empty() ? "error" : "ok");
    }
  };

  const std::int64_t t0 = now_ns();
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t drain_deadline =
      deadline + static_cast<std::int64_t>(drain_s * 1e9);
  const auto timeout_ns = static_cast<std::int64_t>(job_timeout_s * 1e9);
  std::vector<char> buf(1 << 20);
  for (;;) {
    const std::int64_t now = now_ns();
    bool busy = false;
    for (int k = 0; k < sessions; ++k) {
      Session& s = sess[static_cast<std::size_t>(k)];
      if (s.job == nullptr && (s.job = next_job(now, deadline)) != nullptr) {
        s.job->session = k;
        s.job->submit_ns = now;
        s.wbuf += request_line(*s.job);
      }
      if (s.job != nullptr && now - s.job->submit_ns > timeout_ns) {
        finish_job(s, "timeout");
        reconnect(s);
      }
      busy = busy || s.job != nullptr;
    }
    if (!busy || now > drain_deadline) break;

    std::vector<pollfd> pfds;
    for (const Session& s : sess)
      pfds.push_back({s.fd, static_cast<short>(POLLIN | (s.wbuf.empty() ? 0 : POLLOUT)), 0});
    const int rc = ::poll(pfds.data(), pfds.size(), 20);
    if (rc < 0 && errno != EINTR) CIL_CHECK_MSG(false, "mix: poll failed");
    if (rc <= 0) continue;
    for (int k = 0; k < sessions; ++k) {
      Session& s = sess[static_cast<std::size_t>(k)];
      const short re = pfds[static_cast<std::size_t>(k)].revents;
      bool closed = false;
      if ((re & POLLOUT) && !s.wbuf.empty()) {
        const ssize_t w = ::send(s.fd, s.wbuf.data(), s.wbuf.size(), MSG_NOSIGNAL);
        if (w > 0) {
          s.wbuf.erase(0, static_cast<std::size_t>(w));
          if (s.wbuf.empty() && s.job != nullptr && s.job->written_ns == 0)
            s.job->written_ns = now_ns();
        } else if (w < 0 && errno != EAGAIN && errno != EINTR) {
          closed = true;
        }
      }
      if (re & (POLLIN | POLLHUP | POLLERR)) {
        const ssize_t r = ::recv(s.fd, buf.data(), buf.size(), MSG_DONTWAIT);
        if (r > 0) {
          s.rbuf.append(buf.data(), static_cast<std::size_t>(r));
          std::size_t start = 0, nl;
          while ((nl = s.rbuf.find('\n', start)) != std::string::npos) {
            on_line(s, s.rbuf.substr(start, nl - start));
            start = nl + 1;
          }
          s.rbuf.erase(0, start);
        } else if (r == 0 || (errno != EAGAIN && errno != EINTR)) {
          closed = true;
        }
      }
      if (closed) {
        // The daemon dropped the session before the job's done frame: an
        // eviction (today: a result frame over the write-buffer cap).
        finish_job(s, "evicted");
        reconnect(s);
      }
    }
  }
  for (Session& s : sess) {
    finish_job(s, "timeout");
    ::close(s.fd);
  }
  std::int64_t last_done = t0;
  for (const auto& job : jobs) last_done = std::max(last_done, job->done_ns);
  const double loop_s = static_cast<double>(last_done - t0) * 1e-9;

  // Verification, outside every timed window: parse each delivered summary
  // and recompute it with the scalar BatchRunner.
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  CIL_CHECK_MSG(out != nullptr, "mix: cannot write " + out_path);
  for (const auto& job : jobs) {
    Json line = Json::object();
    if (job->status == "ok") {
      try {
        const Json frame = Json::parse(job->result_line);
        job->summary = without_samples(frame.at("summary"));
      } catch (const std::exception& e) {
        job->status = "error";
        job->error = std::string("unparseable result: ") + e.what();
      }
      job->result_line.clear();
    }
    if (job->status == "ok") {
      Shape shape;
      shape.protocol = job->cls->protocol;
      shape.n = job->cls->n;
      const ShapeRunner runner(shape);
      job->ref = gate_fields(runner.run(
          {job->first_seed, job->cls->seeds}, verify_threads, false));
      line["summary"] = job->summary;
      line["ref"] = job->ref;
    }
    line["id"] = Json(job->id);
    line["class"] = Json(job->cls->name);
    line["session"] = Json(job->session);
    line["first_seed"] = Json(std::to_string(job->first_seed));
    line["seeds"] = Json(job->cls->seeds);
    line["status"] = Json(job->status);
    line["error"] = Json(job->error);
    line["latency_ms"] = Json(ms_between(job->written_ns, job->done_ns));
    line["first_progress_ms"] =
        Json(ms_between(job->written_ns, job->progress_ns));
    line["frames"] = Json(job->frames);
    line["bytes"] = Json(job->bytes);
    line["result_bytes"] = Json(job->result_bytes);
    line["start_ns"] = Json(job->written_ns);
    line["end_ns"] = Json(job->done_ns);
    std::fprintf(out, "%s\n", line.dump().c_str());
  }
  std::fclose(out);
  Json summary = Json::object();
  summary["loop_s"] = Json(loop_s);
  summary["jobs"] = Json(static_cast<std::int64_t>(jobs.size()));
  summary["reconnects"] = Json(reconnects);
  std::printf("%s\n", summary.dump().c_str());
  return 0;
}

}  // namespace ladder
