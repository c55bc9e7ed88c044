// Seed-parallel batch execution over pooled simulations.
//
// A sweep of independent runs — one per seed — is the workload behind every
// bench, tail plot, and fitness sweep in this repo. BatchRunner executes
// such a sweep with two amortizations the per-run path cannot have:
//
//  * POOLING: each worker owns ONE ScalarRig (sched/lane_engine.h) and
//    re-arms it per seed, so the per-run cost is re-initialization at
//    existing capacity, not construction (allocation-free for the core
//    protocols after warmup; pinned by batch_test's counting allocator).
//  * SHARDING: the seed range [first_seed, first_seed + num_runs) is split
//    into contiguous shards, one per std::thread worker.
//
// Determinism is the contract that makes the parallelism invisible: a run's
// outcome is a pure function of (protocol, inputs, options, seed), because
// reset() restarts the PRNG stream and the scheduler factory re-arms each
// worker's private scheduler per seed. Each worker folds its runs into a
// private BatchSummary tally (histograms, counts, sums and a fingerprint
// sum), and the tallies are added after join. Every one of those
// reductions is commutative, so the BatchSummary is bit-identical whether
// the sweep ran on 1 thread or 16 (also pinned by batch_test).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "sched/lane_engine.h"
#include "sched/simulation.h"
#include "util/stats.h"

namespace cil {

/// A contiguous range of per-run seeds: runs use first_seed + i for
/// i in [0, num_runs). The unit of sharding at every level — BatchRunner
/// splits one range across threads, the fabric (src/fabric) splits one
/// range across worker processes — so both levels agree on boundaries.
struct SeedRange {
  std::uint64_t first_seed = 1;
  std::int64_t num_runs = 0;

  friend bool operator==(const SeedRange&, const SeedRange&) = default;
};

/// Split into `parts` contiguous sub-ranges covering `range` in order;
/// earlier parts get the remainder (sizes differ by at most one). This is
/// exactly the split BatchRunner::run uses for its thread shards. Parts
/// beyond num_runs come back empty-free: the result has
/// min(parts, num_runs) entries (zero entries for an empty range).
std::vector<SeedRange> split_seed_range(const SeedRange& range, int parts);

/// Split into contiguous shards of `shard_size` runs (the last shard takes
/// the remainder). The fabric's process-level unit of work and checkpoint.
std::vector<SeedRange> shard_seed_range(const SeedRange& range,
                                        std::int64_t shard_size);

/// Which per-worker execution engine a batch uses. The summary is
/// bit-identical either way (pinned by batch_test); only wall clock and the
/// surfaces served differ — the lane engine takes no RunProbe and requires
/// the scheduler be expressed as a LaneSchedSpec instead of a factory.
enum class BatchEngine {
  kScalar,  ///< one pooled Simulation per worker (the historical path)
  kLane,    ///< LaneEngine: W seeds in lockstep per worker (sched/lane_engine.h)
};

struct BatchOptions {
  std::uint64_t first_seed = 1;  ///< runs use seeds first_seed + i
  std::int64_t num_runs = 0;
  /// Worker threads; 0 = hardware concurrency. Clamped to num_runs. The
  /// summary does not depend on this (only the wall timings do).
  int threads = 1;
  /// engine == kLane runs each worker's shard through a LaneEngine at
  /// `lanes` lockstep lanes, armed by `lane_sched` (the make_scheduler
  /// factory argument is ignored and may be null). Configurations outside
  /// the SoA kernel's reach (adaptive adversaries, other protocols) still
  /// work — LaneEngine falls back per lane to scalar-identical math — so
  /// callers flip the knob without caring which path serves them. The
  /// summary never depends on engine, threads, or lanes.
  BatchEngine engine = BatchEngine::kScalar;
  int lanes = 8;
  /// How each run's scheduler derives from its seed. The lane engine always
  /// arms from it; scalar workers do whenever run() gets no factory.
  LaneSchedSpec lane_sched;
  /// Shared fault schedule applied to every run, or null for fault-free
  /// sweeps. Served by BOTH engines with bit-identical summaries: scalar
  /// workers run it through their ScalarRig; LaneEngine carries
  /// representable crash/recovery plans in the lanes and runs the rest on
  /// the same ScalarRig. Borrowed; must outlive run().
  const fault::FaultPlan* fault_plan = nullptr;
  /// SIMD width request forwarded to lane workers: 0 picks the widest
  /// compiled width the CPU supports; 1/2/4 force a narrower kernel (for
  /// cross-width comparisons). Never changes the summary — only which
  /// vector ISA computes it. Ignored by engine=scalar.
  int simd_width = 0;
  // Per-run SimOptions (seed is supplied per run).
  std::int64_t max_total_steps = 1'000'000;
  std::int64_t check_every = 1;
  bool check_consistency = true;
  bool check_nontriviality = true;
  /// Optional cooperative cancellation, polled between runs. When the flag
  /// flips true, workers finish their in-flight run, stop, and run() throws
  /// BatchCancelled after joining — no partial summary escapes. Borrowed;
  /// must outlive run(). The coordination service (src/svc) points this at
  /// a job ticket so a disconnected client stops burning cores mid-sweep.
  const std::atomic<bool>* cancel = nullptr;
};

/// Thrown by BatchRunner::run when BatchOptions::cancel flipped true before
/// the sweep finished. Deliberately NOT a ContractViolation: cancellation
/// is a normal control-flow outcome, not a bug.
class BatchCancelled : public std::runtime_error {
 public:
  BatchCancelled() : std::runtime_error("batch cancelled") {}
};

/// Arms and returns the scheduler for one run, given that run's seed. The
/// returned reference must stay valid until the next call. A typical
/// provider owns one pooled scheduler and reseeds it:
///
///   batch.run(opts, [] {
///     auto s = std::make_shared<RoundRobinScheduler>();
///     return [s](std::uint64_t) -> Scheduler& {
///       s->reset();
///       return *s;
///     };
///   });
///
/// The schedulers a LaneSchedSpec can express need no factory: pass null
/// and BatchOptions::lane_sched arms them.
using SchedulerProvider = std::function<Scheduler&(std::uint64_t seed)>;

/// Called once per worker (and once on the serial path) to build that
/// worker's private SchedulerProvider. Workers never share scheduler state,
/// so the factory's products need no synchronization of their own.
using SchedulerFactory = std::function<SchedulerProvider()>;

/// Optional per-run probe, called on the worker thread right after each run
/// with the finished pooled Simulation still holding the run's final state
/// (e.g. peek final register contents for the Theorem 9 num-field tail).
/// Must be stateless/thread-safe: workers call it concurrently.
using RunProbe =
    std::function<std::int64_t(const Simulation&, const SimResult&)>;

/// Optional per-run hook, called on the worker thread after each finished
/// run (after the probe) with that run's seed. NOT part of the summary —
/// it exists for side effects: progress reporting, and the fabric's
/// chaos-kill injection (a hook that _exit()s the worker process mid-shard).
/// Must be thread-safe: workers call it concurrently. Under engine=kLane
/// the hook fires in lane-harvest order, not seed order, within a shard —
/// callers keying side effects on the seed (both existing users) are
/// unaffected.
using RunHook = std::function<void(std::uint64_t seed)>;

/// The per-run facts a BatchSummary keeps about one finished run.
struct RunRecord {
  std::int64_t total_steps = 0;
  std::int64_t steps_p0 = 0;
  std::int64_t steps_p1 = 0;  ///< 0 when n < 2
  std::int64_t recoveries = 0;
  int max_register_bits = 0;
  Value decision = kNoValue;  ///< the first decision, kNoValue if none
  bool all_decided = false;
  std::int64_t probe = 0;  ///< RunProbe value; 0 without a probe
};

/// H(seed, record): a fixed-key splitmix-style mix of the seed and every
/// field of the record. A summary's fingerprint is the sum of H over its
/// runs mod 2^64, so it is order-free like the histograms, yet it changes
/// (up to ~2^-64 collision odds) if any single seed's record changes, or
/// if two seeds swap records — which the histograms alone cannot see.
std::uint64_t run_fingerprint(std::uint64_t seed, const RunRecord& record);

/// The deterministic reduction of a batch: every field above the
/// wall-clock block is a pure function of (protocol, inputs, options, seed
/// range) and of nothing else — not the thread count, engine, lane count,
/// SIMD width or shard split. Sample sets are exact histograms with one
/// sample per run; the fingerprint pins which seed produced which record.
struct BatchSummary {
  std::int64_t num_runs = 0;
  std::int64_t decided_runs = 0;  ///< runs with SimResult::all_decided
  /// Decision value -> number of runs deciding it (runs that reached at
  /// least one decision; kNoValue never appears as a key).
  std::map<Value, std::int64_t> decision_counts;
  std::int64_t total_steps = 0;  ///< summed over runs
  std::int64_t recoveries = 0;   ///< summed over runs
  SampleSet steps;               ///< total steps per run
  SampleSet steps_p0;            ///< own-steps of pid 0 per run
  SampleSet steps_p1;            ///< own-steps of pid 1 (n >= 2)
  SampleSet max_register_bits;   ///< Theorem 9 high-water mark per run
  SampleSet probe;               ///< RunProbe values; empty without a probe
  std::uint64_t fingerprint = 0;  ///< sum of run_fingerprint mod 2^64

  /// Fold one run in. `probed` adds record.probe to the probe histogram;
  /// the fingerprint covers record.probe either way.
  void add_run(std::uint64_t seed, const RunRecord& record, bool probed);
  /// Add another summary's runs (disjoint seeds) and its wall-clock block.
  void merge(const BatchSummary& other);

  // Machine/engine metadata — NOT part of the deterministic contract (the
  // values above never depend on them; pinned by batch_test). construct/run
  // are summed across workers (CPU-seconds-like); wall is end-to-end.
  /// The SIMD width the lane kernels ran at (after the simd_width request
  /// and the runtime CPU clamp); 1 for engine=scalar and for lane
  /// configurations that took the scalar fallback. Reported so artifacts
  /// record which vector ISA computed them (see tools/sweep
  /// --verify-against).
  int simd_width = 1;
  /// One-line advisory about engine selection (e.g. a probed sweep forced
  /// engine=lane down to scalar); empty when nothing noteworthy happened.
  std::string note;
  double wall_seconds = 0.0;
  double construct_seconds = 0.0;  ///< Simulation ctor/reset + scheduler arming
  double run_seconds = 0.0;        ///< Simulation::run
};

class BatchRunner {
 public:
  /// Every run uses the same protocol and inputs; only the seed varies.
  BatchRunner(const Protocol& protocol, std::vector<Value> inputs);

  /// Execute the sweep. Throws the earliest-seed CoordinationViolation (or
  /// other error) a serial sweep would have hit, after all workers joined.
  /// A null `make_scheduler` arms every run from options.lane_sched.
  BatchSummary run(const BatchOptions& options,
                   const SchedulerFactory& make_scheduler = nullptr,
                   const RunProbe& probe = nullptr,
                   const RunHook& after_run = nullptr);

 private:
  const Protocol& protocol_;
  std::vector<Value> inputs_;
};

}  // namespace cil
