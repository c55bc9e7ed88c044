// Shared pieces of ladder_probe, the in-process half of the layer-ladder
// benchmark: the sweep "shape" every subcommand runs, the scalar reference
// used by the correctness gate, and an in-memory span recorder.
//
// Spans are recorded only from this program's own code, around calls into
// the repository's public entry points; the library itself is not
// instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "obs/json.h"
#include "sched/batch.h"
#include "sched/protocol.h"
#include "tools/cli_util.h"

namespace ladder {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Settings every workload shares: tools/sweep's default per-run step cap
// and lane width, the forked worker count of fig1-fabric, and coordd's
// default progress chunk, which is also a fleet shard's size.
inline constexpr std::int64_t kSteps = 1'000'000;
inline constexpr int kLanes = 8;
inline constexpr int kWorkers = 2;
inline constexpr std::int64_t kSvcChunk = 512;

/// A svc-mix job class: the sweep one request asks coordd for.
struct JobClass {
  std::string name;
  std::string protocol;
  int n = 2;
  std::int64_t seeds = 0;
  bool fleet = false;
};

/// The svc-mix classes. A round is kSmallPerRound small jobs plus one of
/// each entry of kLargePerRound.
inline const JobClass kSmall{"small", "unbounded", 3, 2'000, false};
inline const JobClass kBulk{"bulk", "two", 2, 100'000, false};
inline const JobClass kFleet{"fleet", "two", 2, 100'000, true};
inline const JobClass kHuge{"huge", "two", 2, 1'000'000, false};
inline constexpr int kSmallPerRound = 12;
inline const std::vector<const JobClass*> kLargePerRound = {
    &kBulk, &kBulk, &kFleet, &kFleet, &kHuge};

/// What a sweep runs: protocol and fault plan. Built from the same flags
/// tools/sweep takes, with the same scheduler seeding, so a summary computed
/// here is comparable field by field with a sweep artifact.
struct Shape {
  std::string protocol = "two";
  int n = 2;
  std::string fault_plan;  ///< FaultPlan::serialize form; empty = fault-free

  /// Consumes --protocol --n --fault-plan.
  void take_flags(cil::cli::FlagSet& flags);
};

/// A protocol instance plus parsed plan for one Shape; runs seed ranges.
class ShapeRunner {
 public:
  explicit ShapeRunner(const Shape& shape);
  ~ShapeRunner();

  const cil::Protocol& protocol() const { return *protocol_; }
  const std::vector<cil::Value>& inputs() const { return inputs_; }
  const cil::fault::FaultPlan* plan() const {
    return plan_ ? &*plan_ : nullptr;
  }

  /// BatchRunner over `range` on the lane engine, or on the scalar one when
  /// `lane` is false.
  cil::BatchSummary run(const cil::SeedRange& range, int threads,
                        bool lane) const;
  cil::LaneRunOptions lane_options() const;

 private:
  std::unique_ptr<cil::Protocol> protocol_;
  std::vector<cil::Value> inputs_;
  std::optional<cil::fault::FaultPlan> plan_;
};

/// The fields every batch_summary version carries, in the artifact's own
/// spelling: num_runs, decided_runs, decision_counts, total_steps,
/// recoveries. The correctness gate compares only these.
cil::obs::Json gate_fields(const cil::BatchSummary& s);

/// An in-memory span recorder. Span ids embed the pid, so a forked child
/// can keep recording into its inherited copy and write out only the spans
/// it created; the parent then absorbs them.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  bool on() const { return on_; }
  std::int64_t begin(const std::string& name, const std::string& layer,
                     const std::string& op);
  void end(std::int64_t id);

  /// Append this process's own spans (not inherited ones) to `path`.
  void write_own(const std::string& path) const;
  /// Read spans another process wrote with write_own.
  void absorb(const std::string& path);
  /// All spans as JSON lines.
  std::string jsonl() const;

  struct Span {
    std::int64_t id = 0;
    std::int64_t parent = 0;  ///< 0 = root
    std::string name, layer, op;
    std::int64_t start_ns = 0, end_ns = 0;
    int pid = 0;
  };
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
  std::int64_t next_ = 1;
};

/// RAII span; a no-op when the tracer is off.
class SpanScope {
 public:
  SpanScope(Tracer& t, const std::string& name, const std::string& layer,
            const std::string& op = "")
      : t_(t), id_(t.on() ? t.begin(name, layer, op) : 0) {}
  ~SpanScope() {
    if (id_ != 0) t_.end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& t_;
  std::int64_t id_;
};

bool read_text(const std::string& path, std::string& out);

int cmd_ref(int argc, char** argv);
int cmd_pipeline(int argc, char** argv);
int cmd_layers(int argc, char** argv);
int cmd_jobs(int argc, char** argv);
int cmd_mix(int argc, char** argv);

}  // namespace ladder
