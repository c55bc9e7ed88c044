#include "obs/export.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <istream>
#include <iterator>
#include <map>
#include <ostream>
#include <thread>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "util/check.h"
#include "util/net.h"

namespace cil::obs {

std::string event_to_json_line(const Event& e) {
  char buf[256];
  std::snprintf(
      buf, sizeof buf,
      "{\"ev\":\"%.*s\",\"pid\":%d,\"step\":%" PRId64 ",\"tstep\":%" PRId64
      ",\"us\":%.3f,\"reg\":%d,\"val\":%" PRIu64 ",\"arg\":%" PRId64 "}",
      static_cast<int>(kind_name(e.kind).size()), kind_name(e.kind).data(),
      e.pid, e.step, e.total_step, e.wall_us, e.reg,
      static_cast<std::uint64_t>(e.value), e.arg);
  return buf;
}

Event event_from_json(const Json& j) {
  Event e;
  e.kind = kind_from_name(j.at("ev").as_string());
  e.pid = static_cast<ProcessId>(j.at("pid").as_int());
  e.step = j.at("step").as_int();
  e.total_step = j.at("tstep").as_int();
  e.wall_us = j.at("us").as_number();
  e.reg = static_cast<RegisterId>(j.at("reg").as_int());
  e.value = static_cast<Word>(j.at("val").as_number());
  e.arg = j.at("arg").as_int();
  return e;
}

void write_jsonl(std::ostream& os, const std::vector<Event>& events) {
  for (const Event& e : events) os << event_to_json_line(e) << '\n';
}

std::vector<Event> read_jsonl(std::istream& is) {
  std::vector<Event> out;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    out.push_back(event_from_json(Json::parse(line)));
  }
  return out;
}

JsonlStreamSink::JsonlStreamSink(const std::string& path)
    : os_(path, std::ios::binary | std::ios::trunc), path_(path) {
  ok_ = static_cast<bool>(os_);
  if (!ok_)
    std::fprintf(stderr, "obs: cannot open %s for streaming\n", path.c_str());
}

JsonlStreamSink::~JsonlStreamSink() { close(); }

void JsonlStreamSink::on_event(const Event& e) {
  if (closed_ || !ok_) return;
  os_ << event_to_json_line(e) << '\n';
  ++events_written_;
  if (!os_) {
    ok_ = false;
    std::fprintf(stderr, "obs: streaming write to %s failed\n", path_.c_str());
  }
}

bool JsonlStreamSink::close() {
  if (!closed_) {
    closed_ = true;
    if (os_.is_open()) {
      os_.flush();
      if (!os_) ok_ = false;
      os_.close();
    }
  }
  return ok_;
}

namespace {

/// The exporter's timebase: virtual steps in the simulator (wall_us stays
/// 0 there), microseconds in the threaded runtime.
double event_ts(const Event& e) {
  return e.wall_us != 0.0 ? e.wall_us : static_cast<double>(e.total_step);
}

Json trace_args(const Event& e) {
  Json args = Json::object();
  args["step"] = Json(e.step);
  if (e.reg >= 0) args["reg"] = Json(e.reg);
  switch (e.kind) {
    case EventKind::kRegisterRead:
    case EventKind::kRegisterWrite:
      args["value"] = Json(static_cast<std::uint64_t>(e.value));
      break;
    case EventKind::kCoinFlip:
      args["outcome"] = Json(static_cast<std::uint64_t>(e.value));
      break;
    case EventKind::kDecision:
      args["decision"] = Json(e.arg);
      break;
    case EventKind::kStall:
      args["duration"] = Json(e.arg);
      break;
    case EventKind::kFaultInjected:
      args["count"] = Json(e.arg);
      break;
    case EventKind::kPhaseChange:
      args["phase"] = Json(e.arg);
      break;
    default:
      break;
  }
  return args;
}

}  // namespace

std::string perfetto_trace_json(const std::vector<Event>& events,
                                const std::string& process_name) {
  // tid 0 is the system track (watchdog, pid = -1); processors map to
  // tid = pid + 1.
  const auto tid_of = [](const Event& e) { return e.pid + 1; };

  Json trace_events = Json::array();
  {
    Json meta = Json::object();
    meta["ph"] = Json("M");
    meta["name"] = Json("process_name");
    meta["pid"] = Json(0);
    Json args = Json::object();
    args["name"] = Json(process_name);
    meta["args"] = std::move(args);
    trace_events.push_back(std::move(meta));
  }
  std::map<int, std::string> track_names;
  track_names[0] = "system";
  for (const Event& e : events)
    if (e.pid >= 0) track_names[tid_of(e)] = "P" + std::to_string(e.pid);
  for (const auto& [tid, name] : track_names) {
    Json meta = Json::object();
    meta["ph"] = Json("M");
    meta["name"] = Json("thread_name");
    meta["pid"] = Json(0);
    meta["tid"] = Json(tid);
    Json args = Json::object();
    args["name"] = Json(name);
    meta["args"] = std::move(args);
    trace_events.push_back(std::move(meta));
  }

  // Counter tracks ("C" phase). Perfetto renders each as a stepped area
  // chart over the run's timebase (virtual steps in the simulator,
  // microseconds in the threaded runtime). Timestamps within one series are
  // kept strictly monotone (nudged like the slice tracks).
  std::map<std::string, double> counter_last_ts;
  const auto counter_event = [&](const std::string& name, double ts,
                                 const char* key, std::int64_t value) {
    const auto it = counter_last_ts.find(name);
    if (it != counter_last_ts.end() && ts <= it->second) ts = it->second + 0.001;
    counter_last_ts[name] = ts;
    Json c = Json::object();
    c["ph"] = Json("C");
    c["name"] = Json(name);
    c["pid"] = Json(0);
    c["ts"] = Json(ts);
    Json args = Json::object();
    args[key] = Json(value);
    c["args"] = std::move(args);
    trace_events.push_back(std::move(c));
  };

  // Register write traffic, bucketed per 1k units of the timebase — the
  // write-pressure profile of the run at a glance.
  {
    std::map<std::int64_t, std::int64_t> writes_per_bucket;
    for (const Event& e : events)
      if (e.kind == EventKind::kRegisterWrite)
        ++writes_per_bucket[static_cast<std::int64_t>(event_ts(e) / 1000.0)];
    for (const auto& [bucket, count] : writes_per_bucket)
      counter_event("reg_writes_per_1k", static_cast<double>(bucket) * 1000.0,
                    "writes", count);
    // Close the series so the final bucket renders as a step, not a point.
    if (!writes_per_bucket.empty())
      counter_event("reg_writes_per_1k",
                    static_cast<double>(writes_per_bucket.rbegin()->first + 1) *
                        1000.0,
                    "writes", 0);
  }

  // Scheduler-side counters: the active set (live AND undecided processors
  // — the set the schedulers actually pick from) sampled at every
  // transition, and crash/recovery churn bucketed per 1k timebase units.
  // When the engine narrated its own active-set transitions (kActiveSet,
  // ObsOptions::active_set), those ground-truth samples ARE the track;
  // otherwise it is reconstructed from crash/recover/decision events.
  {
    bool engine_samples = false;
    for (const Event& e : events) {
      if (e.kind == EventKind::kActiveSet) {
        counter_event("active_processes", event_ts(e), "active", e.arg);
        engine_samples = true;
      }
    }
    std::map<int, bool> alive, decided;
    for (const Event& e : events)
      if (e.pid >= 0 && !alive.count(e.pid)) {
        alive[e.pid] = true;
        decided[e.pid] = false;
      }
    std::int64_t active = static_cast<std::int64_t>(alive.size());
    std::map<std::int64_t, std::int64_t> churn_per_bucket;
    if (!alive.empty()) {
      if (!engine_samples)
        counter_event("active_processes", event_ts(events.front()), "active",
                      active);
      for (const Event& e : events) {
        if (e.pid < 0) continue;
        const bool was_active = alive[e.pid] && !decided[e.pid];
        switch (e.kind) {
          case EventKind::kCrash:
            alive[e.pid] = false;
            ++churn_per_bucket[static_cast<std::int64_t>(event_ts(e) / 1000.0)];
            break;
          case EventKind::kRecover:
            alive[e.pid] = true;
            ++churn_per_bucket[static_cast<std::int64_t>(event_ts(e) / 1000.0)];
            break;
          case EventKind::kDecision:
            decided[e.pid] = true;
            break;
          default:
            continue;
        }
        const bool is_active = alive[e.pid] && !decided[e.pid];
        if (is_active != was_active) {
          active += is_active ? 1 : -1;
          if (!engine_samples)
            counter_event("active_processes", event_ts(e), "active", active);
        }
      }
    }
    for (const auto& [bucket, count] : churn_per_bucket)
      counter_event("crash_recover_per_1k",
                    static_cast<double>(bucket) * 1000.0, "events", count);
    if (!churn_per_bucket.empty())
      counter_event("crash_recover_per_1k",
                    static_cast<double>(churn_per_bucket.rbegin()->first + 1) *
                        1000.0,
                    "events", 0);
  }

  // Per-track step slices need a duration: until the same track's next
  // step. Precompute, walking each track's step events in stream order.
  std::map<int, double> last_ts;     // strict monotonicity per track
  std::map<int, std::vector<std::size_t>> steps_of_track;
  for (std::size_t i = 0; i < events.size(); ++i)
    if (events[i].kind == EventKind::kStep)
      steps_of_track[tid_of(events[i])].push_back(i);
  std::vector<double> step_dur(events.size(), 1.0);
  for (const auto& [tid, idxs] : steps_of_track) {
    for (std::size_t k = 0; k + 1 < idxs.size(); ++k) {
      const double d = event_ts(events[idxs[k + 1]]) - event_ts(events[idxs[k]]);
      step_dur[idxs[k]] = std::max(d, 0.001);
    }
  }

  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    const int tid = tid_of(e);
    double ts = event_ts(e);
    const auto it = last_ts.find(tid);
    if (it != last_ts.end() && ts <= it->second) ts = it->second + 0.001;
    last_ts[tid] = ts;

    Json ev = Json::object();
    ev["name"] = Json(std::string(kind_name(e.kind)));
    ev["pid"] = Json(0);
    ev["tid"] = Json(tid);
    ev["ts"] = Json(ts);
    ev["args"] = trace_args(e);
    switch (e.kind) {
      case EventKind::kStep:
        ev["ph"] = Json("X");
        ev["dur"] = Json(step_dur[i]);
        break;
      case EventKind::kStall:
        ev["ph"] = Json("X");
        ev["dur"] = Json(std::max<double>(1.0, static_cast<double>(e.arg)));
        break;
      case EventKind::kCrash:
      case EventKind::kWatchdogFire:
        ev["ph"] = Json("i");
        ev["s"] = Json("g");  // global instant: visible across all tracks
        break;
      default:
        ev["ph"] = Json("i");
        ev["s"] = Json("t");
        break;
    }
    trace_events.push_back(std::move(ev));
  }

  Json doc = Json::object();
  doc["traceEvents"] = std::move(trace_events);
  doc["displayTimeUnit"] = Json("ms");
  return doc.dump();
}

std::string run_report_json(const std::string& name,
                            const std::map<std::string, std::string>& meta,
                            const MetricsRegistry& metrics,
                            const Json& extra) {
  Json doc = Json::object();
  doc["report"] = Json("cilcoord.run_report.v1");
  doc["name"] = Json(name);
  Json meta_obj = Json::object();
  for (const auto& [key, value] : meta) meta_obj[key] = Json(value);
  doc["meta"] = std::move(meta_obj);
  doc["metrics"] = metrics.to_json();
  if (!extra.is_null()) {
    for (const auto& [key, value] : extra.as_object()) doc[key] = value;
  }
  return doc.dump();
}

bool read_text_file(const std::string& path, std::string& out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  out.assign(std::istreambuf_iterator<char>(is), {});
  return !is.bad();
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) {
    std::fprintf(stderr, "obs: cannot open %s for writing\n", path.c_str());
    return false;
  }
  os << content;
  os.flush();
  if (!os) {
    std::fprintf(stderr, "obs: write to %s failed\n", path.c_str());
    return false;
  }
  return true;
}

#ifndef _WIN32

namespace {

/// fsync the directory containing `path` so the rename itself is durable.
/// Best-effort: some filesystems refuse O_RDONLY directory fds.
void fsync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = net::open_retry(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    (void)net::fsync_retry(fd);
    (void)net::close_retry(fd);
  }
}

}  // namespace

bool write_text_file_atomic(const std::string& path,
                            const std::string& content) {
  // Same directory as the destination so the rename cannot cross devices.
  // The name is unique per call (pid, thread, process-wide counter): two
  // threads writing one path must never share a temp file, or their writes
  // interleave and the rename installs a torn file.
  static std::atomic<std::uint64_t> calls{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(std::hash<std::thread::id>{}(std::this_thread::get_id())) +
      "." + std::to_string(calls.fetch_add(1, std::memory_order_relaxed));
  const int fd = net::open_retry(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC);
  if (fd < 0) {
    std::fprintf(stderr, "obs: cannot open %s for writing\n", tmp.c_str());
    return false;
  }
  if (!net::write_all(fd, content)) {
    std::fprintf(stderr, "obs: write to %s failed\n", tmp.c_str());
    (void)net::close_retry(fd);
    (void)::unlink(tmp.c_str());
    return false;
  }
  if (net::fsync_retry(fd) != 0 || net::close_retry(fd) != 0) {
    std::fprintf(stderr, "obs: fsync/close of %s failed\n", tmp.c_str());
    (void)::unlink(tmp.c_str());
    return false;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "obs: rename %s -> %s failed\n", tmp.c_str(),
                 path.c_str());
    (void)::unlink(tmp.c_str());
    return false;
  }
  fsync_parent_dir(path);
  return true;
}

#else  // _WIN32

bool write_text_file_atomic(const std::string& path,
                            const std::string& content) {
  // No POSIX rename-over semantics; plain write is the portable fallback.
  return write_text_file(path, content);
}

#endif

}  // namespace cil::obs
