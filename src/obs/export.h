// Exporters for recorded event streams and metrics:
//
//   * JSONL      — one JSON object per event per line; the archival format
//                  tools/traceview reads back (and re-renders as the text
//                  trace table).
//   * Perfetto   — Chrome trace_event JSON ("traceEvents" array): one track
//                  per processor, steps as duration slices, faults/crashes/
//                  stalls as instants. Open in https://ui.perfetto.dev or
//                  chrome://tracing.
//   * run-report — a JSON summary of a MetricsRegistry plus free-form
//                  metadata; the before/after artifact every bench and
//                  tools/chaos emit.
//
// Timestamps: simulator events carry virtual time (total_step, one unit per
// step) and threaded events carry wall_us; the Perfetto exporter uses
// whichever is set and enforces strictly monotone per-track timestamps.
#pragma once

#include <fstream>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/events.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace cil::obs {

/// One event as a compact single-line JSON object (no trailing newline).
/// Keys: ev, pid, step, tstep, us, reg, val, arg — always all present, so
/// simulator and threaded streams are schema-identical.
std::string event_to_json_line(const Event& e);

/// Inverse of event_to_json_line; throws ContractViolation on a malformed
/// or schema-incomplete object.
Event event_from_json(const Json& j);

void write_jsonl(std::ostream& os, const std::vector<Event>& events);
std::vector<Event> read_jsonl(std::istream& is);

/// An EventSink that streams each event to a JSONL file as it is emitted,
/// instead of buffering the run in memory — the sink long chaos searches
/// need (a RecordingSink over a 50k-evaluation hunt grows without bound).
/// Single-threaded consumers only, like RecordingSink: the threaded runtime
/// buffers per-thread and drains through this at join, which is safe.
/// Events are flushed on close()/destruction; `ok()` reports I/O health.
class JsonlStreamSink final : public EventSink {
 public:
  explicit JsonlStreamSink(const std::string& path);
  ~JsonlStreamSink() override;

  void on_event(const Event& e) override;

  /// Flush and close the underlying file. Idempotent; called by the
  /// destructor. Returns ok().
  bool close();
  /// True while the file opened and every write so far succeeded.
  bool ok() const { return ok_; }
  std::int64_t events_written() const { return events_written_; }

 private:
  std::ofstream os_;
  std::string path_;
  bool ok_ = false;
  bool closed_ = false;
  std::int64_t events_written_ = 0;
};

/// An EventSink that renders each event as its JSONL line and hands it to a
/// callback — the sink-to-socket adapter: the coordination service
/// (src/svc) plugs a session's frame writer in here so a replay's event
/// stream goes to a remote client exactly as it would go to a file, and
/// tests plug in a vector collector. The callback is invoked synchronously
/// on the emitting thread; single-threaded consumers only, like
/// RecordingSink.
class LineCallbackSink final : public EventSink {
 public:
  using LineFn = std::function<void(std::string line)>;

  explicit LineCallbackSink(LineFn fn) : fn_(std::move(fn)) {}

  void on_event(const Event& e) override {
    ++events_seen_;
    fn_(event_to_json_line(e));
  }

  std::int64_t events_seen() const { return events_seen_; }

 private:
  LineFn fn_;
  std::int64_t events_seen_ = 0;
};

/// Chrome/Perfetto trace_event JSON for a recorded stream. `process_name`
/// labels the top-level track group (e.g. "sim:unbounded-3 seed=7").
std::string perfetto_trace_json(const std::vector<Event>& events,
                                const std::string& process_name);

/// A complete run-report document:
///   {"report": "cilcoord.run_report.v1", "name": ..., "meta": {...},
///    "metrics": {...}, ...extra object members }
/// `extra` must be an object (or null) and is merged at top level — chaos
/// uses it to attach its per-cell result rows.
std::string run_report_json(const std::string& name,
                            const std::map<std::string, std::string>& meta,
                            const MetricsRegistry& metrics,
                            const Json& extra = Json());

/// Read the whole of `path` into `out`; false if it cannot be read.
bool read_text_file(const std::string& path, std::string& out);

/// Overwrite `path` with `content`; returns false (and reports to stderr)
/// on I/O failure. Shared by the tools and benches that emit artifacts.
bool write_text_file(const std::string& path, const std::string& content);

/// Like write_text_file, but crash-atomic: the content goes to a same-
/// directory temporary file, is fsync'd, and is then rename()d over `path`
/// (with a directory fsync), so a reader never observes a torn or empty
/// file — even if the writer is SIGKILLed mid-write. This is the fabric
/// checkpoint write path (src/fabric/checkpoint.h) and the writer behind
/// every versioned artifact (worst_plan.v1, run-reports, batch summaries).
bool write_text_file_atomic(const std::string& path,
                            const std::string& content);

}  // namespace cil::obs
