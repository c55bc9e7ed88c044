// The lane-parallel engine: W independent seeds advancing in lockstep.
//
// A sweep's runs share everything except their seed, so one core can carry W
// of them at once. LaneEngine has one SoA kernel plus the scalar fallback.
// The kernel bitslices Figure 1's automaton: every per-lane field (pc,
// preferences, decisions, register words, liveness) is one bit in a 64-bit
// plane, so a lockstep round is a few dozen word-wide boolean ops for all W
// lanes together. Only the per-lane PRNG states stay as SoA word arrays,
// stepped by the same xoshiro256** recurrence as util/rng.h. Register-access
// permissions and widths are validated once at setup (word-wide, per site —
// the registers and access sites are the same in every lane), and the
// consistency / nontriviality checks trigger only on decision events.
//
// The contract that keeps the speedup honest is BIT-IDENTITY: every lane
// produces exactly the run a scalar `Simulation` with the same seed and an
// equivalently-seeded scheduler produces — same PRNG streams (one scheduler
// word per step including single-active picks, coin words only at
// coin-flip steps), same schedule, decisions, step counts, recoveries, and
// max_register_bits. engine_golden_test pins this per lane over the whole
// golden corpus at W in {1,4,8}.
//
// The kernel serves TwoProcessProtocol (default mode) with binary inputs
// under uniformly random scheduling with no observation sink. Everything
// else — adaptive adversaries, other protocols, wider inputs, observed
// runs, custom rigs — DIVERGES to the scalar fallback: the pooled ScalarRig
// BatchRunner's scalar workers run, so divergent lanes are bit-identical by
// construction rather than by reimplementation. `soa_supported()` reports
// which path a configuration takes; sweeps need not care.
//
// Three dimensions of the kernel are decided per run() call:
//
//  * SIMD WIDTH. The round loop batch-advances all W lanes' xoshiro256**
//    scheduler states (and, masked, the coin states of the lanes about to
//    flip) through util/simd.h's u64x<N> kernels — N in {1, 2, 4} compiled
//    into every binary, the widest CPU-supported one picked at runtime
//    (LaneRunOptions::simd_width and $CIL_SIMD_WIDTH force it down). Width
//    never changes results: a u64x<N> batch update is exactly N scalar
//    updates, so bit-identity holds at every (W, N) combination.
//
//  * FAULTS. A LaneRunOptions::fault_plan with one crash (and at most one
//    recovery for its victim) runs in the lanes: each lane carries its own
//    cursors over the shared plan (pending-crash, crashed, armed-recovery
//    and recovered planes, plus a due round), the crash masks the victim
//    out of the lane's liveness plane, and recovery applies the protocol's
//    conservative re-read (persisted own word; ⊥ → cold restart) — the
//    exact event semantics of FaultPlanScheduler + Simulation::crash /
//    recover, including idle clock ticks while every live processor is
//    done but a restart is still due. Plans the kernel cannot represent
//    (stalls, word faults, multi-crash, non-conservative recovery
//    protocols) diverge to the scalar fallback's ScalarRig — the one
//    BatchRunner's scalar workers run.
//
//  * RECORDING. record_schedule pushes each stepping lane's pick into its
//    schedule. Faults and recording are compile-time template arguments,
//    so the plain sweep loop carries neither.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "fault/fault_plan.h"
#include "fault/sim_faults.h"
#include "sched/adversary.h"
#include "sched/schedulers.h"
#include "sched/simulation.h"

namespace cil {

/// How each lane's scheduler is derived from the lane's run seed. This is a
/// value (not a Scheduler&) so one spec can arm any number of lanes and
/// cross thread boundaries; the two built-in kinds mirror the scheduler
/// factories every sweep in this repo uses.
struct LaneSchedSpec {
  enum class Kind {
    kRandom,  ///< RandomScheduler(seed ^ seed_xor) — SoA-eligible
    kAvoid,   ///< DecisionAvoidingAdversary(seed + seed_add) — scalar path
  };
  Kind kind = Kind::kRandom;
  std::uint64_t seed_xor = 0x1234;  ///< kRandom: scheduler seed = seed ^ this
  std::uint64_t seed_add = 17;      ///< kAvoid: scheduler seed = seed + this
};

/// One worker's pooled scheduler for a LaneSchedSpec: arm(seed) re-arms it
/// exactly as a fresh scheduler for that run seed would start, and returns
/// it (valid until the next arm). The one place a spec becomes a Scheduler:
/// LaneEngine's scalar fallback and BatchRunner's factory-less scalar
/// workers both arm through it, so the engines cannot drift.
class SpecScheduler {
 public:
  explicit SpecScheduler(const LaneSchedSpec& spec) : spec_(spec) {}
  Scheduler& arm(std::uint64_t seed);

 private:
  LaneSchedSpec spec_;
  RandomScheduler random_{0};
  DecisionAvoidingAdversary avoid_{0};
};

struct LaneRunOptions {
  int lanes = 8;  ///< W; clamped to the number of runs
  // Per-run SimOptions fields (seed is supplied per run).
  std::int64_t max_total_steps = 1'000'000;
  std::int64_t check_every = 1;
  bool check_consistency = true;
  bool check_nontriviality = true;
  bool record_schedule = false;
  LaneSchedSpec sched;
  /// Custom scalar runner for rigs the spec kinds cannot express (split
  /// adversaries, fault plans, preset hooks). When set, every lane runs
  /// through it and `sched` is ignored; the engine is then purely a
  /// harvesting loop. Must be a pure function of the seed.
  std::function<SimResult(std::uint64_t seed)> scalar_run;
  /// Observation forces the scalar fallback for all lanes (the SoA kernel
  /// has no event stream), so an observed lane run emits exactly the
  /// scalar engine's stream — including the kActiveSet counter samples.
  obs::ObsOptions obs;
  /// Optional cooperative cancellation, polled when a finished lane would
  /// refill. In-flight lanes finish their current run first; run() then
  /// returns false without harvesting the unstarted remainder.
  const std::atomic<bool>* cancel = nullptr;
  /// Shared fault schedule applied to every run, or null for fault-free
  /// runs. Representable plans (crash/recovery only — see the header
  /// comment) run in the SoA kernel's fault cursors; the rest take the
  /// scalar fallback's ScalarRig. Mutually exclusive with scalar_run (a
  /// custom runner owns its whole rig). Borrowed; must outlive run().
  const fault::FaultPlan* fault_plan = nullptr;
  /// SIMD width for the SoA kernels: 0 picks the widest compiled width the
  /// CPU supports (downgradable via $CIL_SIMD_WIDTH); 1/2/4 force that
  /// width, clamped to what this process can execute. Results are
  /// bit-identical at every width — the knob exists for the golden-matrix
  /// tests and for pinning cross-width artifact comparisons.
  int simd_width = 0;
};

/// One finished run, as the engine hands it to the harvest callback. Plain
/// borrowed views — valid only during the callback (the lane is recycled
/// immediately after).
struct LaneRunView {
  std::uint64_t seed = 0;
  std::int64_t total_steps = 0;
  std::int64_t steps_p0 = 0;
  std::int64_t steps_p1 = 0;
  std::int64_t recoveries = 0;
  int max_register_bits = 0;
  bool all_decided = false;
  Value decision = kNoValue;        ///< first decided pid's value
  const Value* decisions = nullptr; ///< per process, kNoValue if undecided
  const std::int64_t* steps_per_process = nullptr;  ///< per process
  int num_processes = 0;
  const ProcessId* schedule = nullptr;  ///< iff record_schedule
  std::int64_t schedule_len = 0;
};

/// Called once per finished run, in lane-harvest order (NOT seed order —
/// lanes finish when their runs do). Callers wanting seed order write into
/// seed-indexed slots, exactly as BatchRunner does.
using LaneHarvest = std::function<void(const LaneRunView&)>;

/// The harvest view of a finished scalar run; borrows `r`'s vectors.
LaneRunView lane_run_view(std::uint64_t seed, const SimResult& r);

/// One worker's pooled scalar per-seed rig: the Simulation, the fault
/// plan's FaultPlanScheduler and SimRegisterFaults hook (keyed by the
/// plan's own seed), and the SimResult, all re-armed in place per seed.
/// BatchRunner's scalar workers and LaneEngine's scalar fallback both run
/// it, so the engines cannot drift; once warm, a re-arm allocates nothing.
class ScalarRig {
 public:
  /// Uses `options`' per-run SimOptions fields, obs and fault plan
  /// (borrowed); its lanes, spec and custom runner play no part here.
  ScalarRig(const Protocol& protocol, const std::vector<Value>& inputs,
            const LaneRunOptions& options);

  /// Reset for `seed` and return the scheduler the run must use: `base`,
  /// wrapped in the re-armed plan scheduler when there is a plan.
  Scheduler& arm(std::uint64_t seed, Scheduler& base);
  /// Run the armed seed; the result stays valid until the next run().
  const SimResult& run(Scheduler& armed);
  /// The pooled Simulation, holding the last run's final state (RunProbe).
  const Simulation& simulation() const { return sim_; }

 private:
  SimOptions options_;
  const fault::FaultPlan* plan_;
  std::vector<Value> inputs_;
  Simulation sim_;
  std::optional<fault::FaultPlanScheduler> plan_sched_;
  std::optional<fault::SimRegisterFaults> reg_faults_;
  SimResult result_;
};

class LaneEngine {
 public:
  /// Every run uses the same protocol and inputs; only the seed varies.
  LaneEngine(const Protocol& protocol, std::vector<Value> inputs);
  ~LaneEngine();

  /// True iff (protocol, options) take the SoA lockstep kernel; false means
  /// run() still works, through the per-lane scalar fallback.
  bool soa_supported(const LaneRunOptions& options) const;

  /// The SIMD width the SoA kernels will run at under `options` — after the
  /// simd_width/$CIL_SIMD_WIDTH override and the runtime CPU clamp — or 1
  /// when the configuration takes the scalar path (scalar math IS the
  /// width-1 kernel). What BatchSummary::simd_width reports.
  int selected_simd_width(const LaneRunOptions& options) const;

  /// Sweep seeds [first_seed, first_seed + num_runs), W at a time, calling
  /// `harvest` once per finished run. Returns false iff options.cancel
  /// flipped true before every run was harvested (the remainder is skipped;
  /// harvested runs stay valid). Property violations throw
  /// CoordinationViolation; failed_run_index() then names the run a serial
  /// sweep would blame.
  bool run(std::uint64_t first_seed, std::int64_t num_runs,
           const LaneRunOptions& options, const LaneHarvest& harvest);

  /// Convenience for tests: run and collect full SimResults in seed order.
  std::vector<SimResult> run_collect(std::uint64_t first_seed,
                                     std::int64_t num_runs,
                                     const LaneRunOptions& options);

  /// After a throwing run(): the 0-based run index (seed - first_seed) of
  /// the failing run.
  std::int64_t failed_run_index() const { return failed_run_index_; }

 private:
  struct Soa;  // the SoA lane state block (lane_engine.cpp)

  /// The one SoA kernel: Figure 1's automaton bitsliced to one bit per
  /// lane in 64-bit planes, so a round costs a few dozen word-wide boolean
  /// ops for all W lanes together. Specialized at compile time on whether
  /// the pid schedule is recorded and on whether a fault plan's crash is
  /// armed, so the plain sweep loop carries neither.
  template <bool kRecord, bool kFaults>
  bool run_soa_sliced(std::uint64_t first_seed, std::int64_t num_runs,
                      const LaneRunOptions& options,
                      const LaneHarvest& harvest);
  bool run_scalar(std::uint64_t first_seed, std::int64_t num_runs,
                  const LaneRunOptions& options, const LaneHarvest& harvest);

  const Protocol& protocol_;
  std::vector<Value> inputs_;
  bool two_process_default_mode_ = false;  ///< SoA kernel precondition
  std::unique_ptr<Soa> soa_;               ///< lazily sized to options.lanes
  std::int64_t failed_run_index_ = -1;
};

}  // namespace cil
