// Pooled-simulation and BatchRunner pins:
//
//   * reset-vs-fresh bit-identity, replayed over the SAME corpus
//     engine_golden_test uses (tests/data/engine_goldens.txt): a pooled
//     Simulation that already ran a different seed, then reset(), must
//     reproduce every corpus line byte-for-byte;
//   * BatchRunner thread-count invariance: the BatchSummary (counts,
//     sample vectors in seed order, probe values) is identical on 1 and 4
//     worker threads;
//   * the reset path is allocation-free after warmup for the core
//     protocols (counting global operator new);
//   * a multi-thread smoke with crash/recovery fault schedules — the
//     TSan CI job runs this binary to pin BatchRunner's data-race freedom.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bounded_three.h"
#include "core/registry.h"
#include "core/two_process.h"
#include "core/unbounded.h"
#include "fault/fault_plan.h"
#include "fault/sim_faults.h"
#include "sched/adversary.h"
#include "sched/batch.h"
#include "sched/lane_engine.h"
#include "sched/schedulers.h"
#include "sched/simulation.h"
#include "util/simd.h"

// ---------------------------------------------------------------------------
// Counting allocator: every global allocation bumps a counter, so a test can
// assert that a code region performs none. Kept trivially simple (malloc +
// relaxed atomic) so it is safe under TSan too.

namespace {
std::atomic<std::int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cil {
namespace {

#ifndef CIL_GOLDENS_PATH
#define CIL_GOLDENS_PATH "tests/data/engine_goldens.txt"
#endif

// -- reset-vs-fresh over the golden corpus ---------------------------------
// Mirrors engine_golden_test's replay_case, except every run happens on a
// POOLED Simulation that first ran a decoy seed (seed + 1000th prime away)
// and was then reset() — so a byte-equal corpus proves reset ≡ fresh.

std::string format_run(const std::string& name, std::uint64_t seed,
                       const SimResult& r) {
  std::ostringstream os;
  os << name << " seed=" << seed << " total=" << r.total_steps
     << " recoveries=" << r.recoveries << " bits=" << r.max_register_bits
     << " dec=";
  for (std::size_t i = 0; i < r.decisions.size(); ++i)
    os << (i == 0 ? "" : ",") << r.decisions[i];
  os << " sched=";
  for (std::size_t i = 0; i < r.schedule.size(); ++i)
    os << (i == 0 ? "" : ",") << r.schedule[i];
  return os.str();
}

SimOptions base_options(std::uint64_t seed) {
  SimOptions options;
  options.seed = seed;
  options.max_total_steps = 200'000;
  options.record_schedule = true;
  return options;
}

/// Run the corpus case on a pooled Simulation: construct with a decoy seed,
/// run it to pollute all internal state, then reset() to the real seed.
std::string replay_case_pooled(const std::string& name, std::uint64_t seed) {
  const std::uint64_t decoy = seed + 7919;

  const auto run = [&](const Protocol& protocol,
                       const std::vector<Value>& inputs,
                       const std::function<std::unique_ptr<Scheduler>(
                           std::uint64_t)>& make_sched) -> std::string {
    Simulation sim(protocol, inputs, base_options(decoy));
    (void)sim.run(*make_sched(decoy));
    sim.reset(inputs, base_options(seed));
    return format_run(name, seed, sim.run(*make_sched(seed)));
  };

  const std::string proto = name.substr(0, name.find('/'));
  const std::string kind = name.substr(name.find('/') + 1);

  if (kind == "random" || kind == "adversary") {
    const auto make_sched =
        [&kind](std::uint64_t s) -> std::unique_ptr<Scheduler> {
      if (kind == "random") return std::make_unique<RandomScheduler>(s ^ 0x1234);
      return std::make_unique<DecisionAvoidingAdversary>(s + 17);
    };
    if (proto == "two") return run(TwoProcessProtocol(), {0, 1}, make_sched);
    if (proto == "unbounded3")
      return run(UnboundedProtocol(3), {0, 1, 0}, make_sched);
    if (proto == "bounded3")
      return run(BoundedThreeProtocol(), {1, 0, 1}, make_sched);
  }
  if (name == "unbounded3/split") {
    return run(UnboundedProtocol(3), {0, 1, 0},
               [](std::uint64_t s) -> std::unique_ptr<Scheduler> {
                 return std::make_unique<SplitKeepingAdversary>(
                     s + 3, &UnboundedProtocol::unpack_pref);
               });
  }
  if (name == "unbounded3/faults+adversary") {
    fault::RegisterFaultConfig config;
    config.stale_prob = 0.2;
    config.stale_depth = 2;
    config.delay_prob = 0.1;
    config.delay_window = 2;
    UnboundedProtocol protocol(3);
    Simulation sim(protocol, {0, 1, 0}, base_options(decoy));
    {
      fault::SimRegisterFaults hook(config, decoy ^ 0xfa, sim.regs().size());
      sim.mutable_regs().set_fault_hook(&hook);
      DecisionAvoidingAdversary sched(decoy + 5);
      (void)sim.run(sched);
    }
    sim.reset({0, 1, 0}, base_options(seed));  // also drops the stale hook
    fault::SimRegisterFaults hook(config, seed ^ 0xfa, sim.regs().size());
    sim.mutable_regs().set_fault_hook(&hook);
    DecisionAvoidingAdversary sched(seed + 5);
    return format_run(name, seed, sim.run(sched));
  }
  if (name == "unbounded4/crash+recovery") {
    const auto make_plan = [](std::uint64_t s) {
      fault::FaultPlan plan;
      plan.seed = s;
      plan.crashes.push_back({1, 3});
      plan.crashes.push_back({2, 5});
      plan.recoveries.push_back({1, 40});
      plan.stalls.push_back({0, 2, 6});
      return plan;
    };
    UnboundedProtocol protocol(4);
    Simulation sim(protocol, {0, 1, 1, 0}, base_options(decoy));
    {
      RandomScheduler inner(decoy ^ 0x77);
      fault::FaultPlanScheduler sched(inner, make_plan(decoy));
      (void)sim.run(sched);
    }
    sim.reset({0, 1, 1, 0}, base_options(seed));
    RandomScheduler inner(seed ^ 0x77);
    fault::FaultPlanScheduler sched(inner, make_plan(seed));
    return format_run(name, seed, sim.run(sched));
  }
  if (name == "two/crashrec" || name == "two/crashrec-late") {
    const auto make_plan = [&name](std::uint64_t s) {
      fault::FaultPlan plan;
      plan.seed = s;
      if (name == "two/crashrec") {
        plan.crashes.push_back({0, 2});
        plan.recoveries.push_back({0, 8});
      } else {
        plan.crashes.push_back({1, 3});
        plan.recoveries.push_back({1, 48});
      }
      return plan;
    };
    TwoProcessProtocol protocol;
    Simulation sim(protocol, {0, 1}, base_options(decoy));
    {
      RandomScheduler inner(decoy ^ 0x77);
      fault::FaultPlanScheduler sched(inner, make_plan(decoy));
      (void)sim.run(sched);
    }
    sim.reset({0, 1}, base_options(seed));
    RandomScheduler inner(seed ^ 0x77);
    fault::FaultPlanScheduler sched(inner, make_plan(seed));
    return format_run(name, seed, sim.run(sched));
  }
  ADD_FAILURE() << "golden corpus names unknown case: " << name;
  return {};
}

TEST(PooledReset, ReplaysTheGoldenCorpusBitForBit) {
  std::ifstream is(CIL_GOLDENS_PATH);
  ASSERT_TRUE(is) << "cannot open " << CIL_GOLDENS_PATH;
  std::string line;
  int lines = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ++lines;
    const std::size_t sp = line.find(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const std::string name = line.substr(0, sp);
    unsigned long long seed = 0;
    ASSERT_EQ(std::sscanf(line.c_str() + sp, " seed=%llu", &seed), 1) << line;
    EXPECT_EQ(replay_case_pooled(name, seed), line)
        << "pooled reset diverged from fresh construction: " << name
        << " seed=" << seed;
  }
  EXPECT_GE(lines, 50);
}

// -- BatchRunner determinism -----------------------------------------------

void expect_equal_summaries(const BatchSummary& a, const BatchSummary& b) {
  EXPECT_EQ(a.num_runs, b.num_runs);
  EXPECT_EQ(a.decided_runs, b.decided_runs);
  EXPECT_EQ(a.decision_counts, b.decision_counts);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.steps.bins(), b.steps.bins());
  EXPECT_EQ(a.steps_p0.bins(), b.steps_p0.bins());
  EXPECT_EQ(a.steps_p1.bins(), b.steps_p1.bins());
  EXPECT_EQ(a.max_register_bits.bins(), b.max_register_bits.bins());
  EXPECT_EQ(a.probe.bins(), b.probe.bins());
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

SchedulerFactory random_factory(std::uint64_t salt) {
  return [salt] {
    auto s = std::make_shared<RandomScheduler>(0);
    return [s, salt](std::uint64_t seed) -> Scheduler& {
      s->reseed(seed ^ salt);
      return *s;
    };
  };
}

TEST(BatchRunner, SummaryIsThreadCountInvariant) {
  UnboundedProtocol protocol(3);
  BatchRunner batch(protocol, {0, 1, 0});
  BatchOptions opts;
  opts.first_seed = 0;
  opts.num_runs = 400;
  // Probe the final register state on the worker — also pins that probes
  // see the run the summary slot describes, regardless of sharding.
  const RunProbe probe = [](const Simulation& sim, const SimResult&) {
    std::int64_t m = 0;
    for (RegisterId reg = 0; reg < 3; ++reg)
      m = std::max(m, UnboundedProtocol::unpack_num(sim.regs().peek(reg)));
    return m;
  };

  opts.threads = 1;
  const BatchSummary serial = batch.run(opts, random_factory(0xbeef), probe);
  opts.threads = 4;
  const BatchSummary sharded = batch.run(opts, random_factory(0xbeef), probe);

  EXPECT_EQ(serial.num_runs, 400);
  EXPECT_EQ(serial.decided_runs, 400);
  EXPECT_GT(serial.probe.count(), 0);
  expect_equal_summaries(serial, sharded);
}

TEST(BatchRunner, MatchesSerialFreshConstructions) {
  // The batched sweep must equal the plain loop everyone wrote before it.
  TwoProcessProtocol protocol;
  BatchRunner batch(protocol, {0, 1});
  BatchOptions opts;
  opts.first_seed = 0;
  opts.num_runs = 300;
  opts.threads = 3;
  const BatchSummary b = batch.run(opts, random_factory(0x1234));

  // Rebuild the expected summary from the plain loop: the histograms pin
  // the per-run values, and the fingerprint pins which seed produced each.
  BatchSummary expected;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    SimOptions so;
    so.seed = seed;
    Simulation sim(protocol, {0, 1}, so);
    RandomScheduler sched(seed ^ 0x1234);
    const SimResult r = sim.run(sched);
    RunRecord rec;
    rec.total_steps = r.total_steps;
    rec.steps_p0 = r.steps_per_process[0];
    rec.steps_p1 = r.steps_per_process[1];
    rec.recoveries = r.recoveries;
    rec.max_register_bits = r.max_register_bits;
    rec.decision = r.decision.value_or(kNoValue);
    rec.all_decided = r.all_decided;
    expected.add_run(seed, rec, false);
  }
  expect_equal_summaries(b, expected);
}

TEST(Fingerprint, SwappingTwoSeedsRecordsChangesItButNotTheHistograms) {
  RunRecord short_run;
  short_run.total_steps = 4;
  short_run.steps_p0 = 2;
  short_run.steps_p1 = 2;
  short_run.decision = 0;
  short_run.all_decided = true;
  RunRecord long_run = short_run;
  long_run.total_steps = 9;
  long_run.steps_p0 = 5;
  long_run.steps_p1 = 4;
  long_run.decision = 1;

  BatchSummary a;
  a.add_run(7, short_run, false);
  a.add_run(8, long_run, false);
  BatchSummary swapped;
  swapped.add_run(7, long_run, false);
  swapped.add_run(8, short_run, false);
  // Same multiset of records: every count, sum and histogram agrees ...
  EXPECT_EQ(a.decision_counts, swapped.decision_counts);
  EXPECT_EQ(a.total_steps, swapped.total_steps);
  EXPECT_EQ(a.steps, swapped.steps);
  EXPECT_EQ(a.steps_p0, swapped.steps_p0);
  EXPECT_EQ(a.steps_p1, swapped.steps_p1);
  // ... but which seed ran which record differs, and only the fingerprint
  // sees it.
  EXPECT_NE(a.fingerprint, swapped.fingerprint);

  // Order of accumulation is not identity: adding the same runs in the
  // other order is the same summary.
  BatchSummary reordered;
  reordered.add_run(8, long_run, false);
  reordered.add_run(7, short_run, false);
  EXPECT_EQ(a.fingerprint, reordered.fingerprint);
  EXPECT_EQ(a.steps, reordered.steps);
}

TEST(Fingerprint, CoversEveryRecordFieldAndTheSeed) {
  RunRecord base;
  base.total_steps = 6;
  base.steps_p0 = 3;
  base.steps_p1 = 3;
  base.decision = 1;
  base.all_decided = true;
  const std::uint64_t h = run_fingerprint(5, base);
  EXPECT_NE(run_fingerprint(6, base), h);
  std::vector<RunRecord> variants(8, base);
  ++variants[0].total_steps;
  ++variants[1].steps_p0;
  ++variants[2].steps_p1;
  ++variants[3].recoveries;
  ++variants[4].max_register_bits;
  variants[5].decision = 0;
  variants[6].all_decided = false;
  ++variants[7].probe;
  for (const RunRecord& v : variants) EXPECT_NE(run_fingerprint(5, v), h);
}

TEST(BatchRunner, EmptyAndSingleRunEdges) {
  TwoProcessProtocol protocol;
  BatchRunner batch(protocol, {0, 1});
  BatchOptions opts;
  opts.num_runs = 0;
  const BatchSummary none = batch.run(opts, random_factory(1));
  EXPECT_EQ(none.num_runs, 0);
  EXPECT_EQ(none.steps.count(), 0);

  opts.num_runs = 1;
  opts.threads = 16;  // clamped to num_runs
  const BatchSummary one = batch.run(opts, random_factory(1));
  EXPECT_EQ(one.num_runs, 1);
  EXPECT_EQ(one.decided_runs, 1);
}

// -- allocation-free reset path --------------------------------------------

TEST(PooledReset, AllocationFreeAfterWarmupForCoreProtocols) {
  const auto check = [](const Protocol& protocol,
                        const std::vector<Value>& inputs) {
    SimOptions so;
    so.seed = 1;
    Simulation sim(protocol, inputs, so);
    RandomScheduler sched(1);
    // Warm up: a few full cycles let every internal vector reach its
    // high-water capacity.
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      so.seed = seed;
      sim.reset(inputs, so);
      sched.reseed(seed ^ 0x1234);
      (void)sim.run(sched);
    }
    // Measured region: reset() and reseed() must not allocate at all.
    for (std::uint64_t seed = 6; seed <= 30; ++seed) {
      so.seed = seed;
      const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
      sim.reset(inputs, so);
      sched.reseed(seed ^ 0x1234);
      const std::int64_t after = g_allocations.load(std::memory_order_relaxed);
      EXPECT_EQ(after, before)
          << protocol.name() << ": reset allocated at seed " << seed;
      (void)sim.run(sched);
    }
  };
  check(TwoProcessProtocol(), {0, 1});
  check(UnboundedProtocol(3), {0, 1, 0});
  check(BoundedThreeProtocol(), {1, 0, 1});
}

TEST(PooledReset, FaultRigRearmAllocationFree) {
  // ScalarRig's per-seed re-arm — Simulation::reset, FaultPlanScheduler::
  // rearm, SimRegisterFaults::rearm — and the result harvest allocate
  // nothing once warm. (The run itself still may: Protocol::recover builds
  // the restarted processor.) Checks are off: stale reads void Figure 2's
  // atomic-register premise, and this measures the rig, not the protocol.
  const fault::FaultPlan plan = fault::FaultPlan::parse(
      "fp1;seed=1;crash=0@2;recover=0@8;stall=1@1+3;reg=st:0.05d3");
  UnboundedProtocol protocol(3);
  LaneRunOptions lo;
  lo.check_consistency = false;
  lo.check_nontriviality = false;
  lo.fault_plan = &plan;
  ScalarRig rig(protocol, {0, 1, 0}, lo);
  RandomScheduler base(0);
  SimResult harvest;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    base.reseed(seed);
    (void)rig.run(rig.arm(seed, base));
    rig.simulation().result_into(harvest);
  }
  for (std::uint64_t seed = 6; seed <= 30; ++seed) {
    std::int64_t before = g_allocations.load(std::memory_order_relaxed);
    base.reseed(seed);
    Scheduler& armed = rig.arm(seed, base);
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before)
        << "re-arm allocated at seed " << seed;
    (void)rig.run(armed);
    before = g_allocations.load(std::memory_order_relaxed);
    rig.simulation().result_into(harvest);
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before)
        << "result_into allocated at seed " << seed;
  }
}

// -- multi-thread fault smoke (the TSan job runs this binary) ---------------

TEST(BatchRunner, MultiThreadCrashRecoverySmoke) {
  UnboundedProtocol protocol(4);
  BatchRunner batch(protocol, {0, 1, 1, 0});
  BatchOptions opts;
  opts.first_seed = 1;
  opts.num_runs = 48;
  opts.max_total_steps = 200'000;

  const SchedulerFactory factory = [] {
    struct Rig {
      RandomScheduler inner{0};
      std::optional<fault::FaultPlanScheduler> sched;
    };
    auto rig = std::make_shared<Rig>();
    return [rig](std::uint64_t seed) -> Scheduler& {
      rig->inner.reseed(seed ^ 0x77);
      rig->sched.emplace(rig->inner,
                         fault::FaultPlan::random(
                             seed, /*num_processes=*/4, /*num_crashes=*/2,
                             /*num_stalls=*/1, /*horizon=*/12,
                             /*max_stall_duration=*/50, {}, /*recoveries=*/2,
                             /*max_recovery_delay=*/32));
      return *rig->sched;
    };
  };

  opts.threads = 1;
  const BatchSummary serial = batch.run(opts, factory);
  opts.threads = 4;
  const BatchSummary sharded = batch.run(opts, factory);

  EXPECT_GT(serial.total_steps, 0);
  EXPECT_GT(serial.recoveries, 0);
  expect_equal_summaries(serial, sharded);
}

// -- engine=lane: the SoA engine behind the same BatchOptions knob ----------
// The TSan CI job runs this suite (--gtest_filter='BatchLane.*') at 4
// threads x 8 lanes to pin the lane workers' data-race freedom.

SchedulerFactory avoid_factory(std::uint64_t add) {
  return [add] {
    auto s = std::make_shared<DecisionAvoidingAdversary>(0);
    return [s, add](std::uint64_t seed) -> Scheduler& {
      s->reseed(seed + add);
      return *s;
    };
  };
}

TEST(BatchRunner, NoFactoryArmsFromTheSpecLikeTheExplicitFactory) {
  // With no factory, scalar workers arm each run's scheduler from
  // options.lane_sched. The registry's random and avoid specs must match
  // the hand-seeded reference factories, with and without a fault plan and
  // across thread counts.
  UnboundedProtocol protocol(3);
  BatchRunner batch(protocol, {0, 1, 0});
  const fault::FaultPlan plan =
      fault::FaultPlan::parse("fp1;seed=5;crash=1@3;recover=1@6");
  const fault::FaultPlan* const plans[] = {&plan, nullptr};
  for (const fault::FaultPlan* fault_plan : plans) {
    for (const int threads : {1, 3}) {
      BatchOptions opts;
      opts.first_seed = 11;
      opts.num_runs = 90;
      opts.threads = threads;
      opts.fault_plan = fault_plan;
      opts.lane_sched = registry::sched_spec("random");
      expect_equal_summaries(batch.run(opts, random_factory(0x1234)),
                             batch.run(opts));
      opts.lane_sched = registry::sched_spec("avoid");
      expect_equal_summaries(batch.run(opts, avoid_factory(17)),
                             batch.run(opts));
    }
  }
}

TEST(BatchLane, RandomTwoProcessMatchesScalarEngine) {
  // The SoA kernel path: TwoProcessProtocol under the random spec. Both
  // engines must reduce to the same BatchSummary, sample for sample.
  TwoProcessProtocol protocol;
  BatchRunner batch(protocol, {0, 1});
  BatchOptions opts;
  opts.first_seed = 0;
  opts.num_runs = 400;
  opts.threads = 2;
  const BatchSummary scalar = batch.run(opts, random_factory(0x1234));

  opts.engine = BatchEngine::kLane;
  opts.lanes = 8;
  opts.lane_sched = {LaneSchedSpec::Kind::kRandom, 0x1234, 0};
  const BatchSummary lane = batch.run(opts, /*make_scheduler=*/nullptr);

  EXPECT_EQ(lane.num_runs, 400);
  EXPECT_EQ(lane.decided_runs, 400);
  expect_equal_summaries(scalar, lane);
}

TEST(BatchLane, FallbackPathsMatchScalarEngine) {
  // Configurations the SoA kernel cannot serve — a three-process protocol,
  // and the adaptive adversary — must flow through the lane engine's pooled
  // scalar fallback and still reduce identically.
  {
    UnboundedProtocol protocol(3);
    BatchRunner batch(protocol, {0, 1, 0});
    BatchOptions opts;
    opts.first_seed = 0;
    opts.num_runs = 200;
    opts.threads = 3;
    const BatchSummary scalar = batch.run(opts, random_factory(0x1234));
    opts.engine = BatchEngine::kLane;
    opts.lane_sched = {LaneSchedSpec::Kind::kRandom, 0x1234, 0};
    const BatchSummary lane = batch.run(opts, nullptr);
    expect_equal_summaries(scalar, lane);
  }
  {
    TwoProcessProtocol protocol;
    BatchRunner batch(protocol, {0, 1});
    BatchOptions opts;
    opts.first_seed = 0;
    opts.num_runs = 120;
    opts.threads = 2;
    const BatchSummary scalar = batch.run(opts, avoid_factory(17));
    opts.engine = BatchEngine::kLane;
    opts.lane_sched = {LaneSchedSpec::Kind::kAvoid, 0, 17};
    const BatchSummary lane = batch.run(opts, nullptr);
    expect_equal_summaries(scalar, lane);
  }
}

TEST(BatchLane, SummaryIsThreadAndLaneCountInvariant) {
  // The per-worker reseeding contract, re-verified under engine=lane: one
  // thread with one lane vs four threads with eight lanes each must produce
  // the identical BatchSummary — no shard boundary or lane-refill order can
  // leak into the reduction.
  TwoProcessProtocol protocol;
  BatchRunner batch(protocol, {0, 1});
  BatchOptions opts;
  opts.first_seed = 5;
  opts.num_runs = 400;
  opts.engine = BatchEngine::kLane;
  opts.lane_sched = {LaneSchedSpec::Kind::kRandom, 0x1234, 0};

  opts.threads = 1;
  opts.lanes = 1;
  const BatchSummary serial = batch.run(opts, nullptr);
  opts.threads = 4;
  opts.lanes = 8;
  const BatchSummary sharded = batch.run(opts, nullptr);

  EXPECT_EQ(serial.num_runs, 400);
  EXPECT_EQ(serial.decided_runs, 400);
  expect_equal_summaries(serial, sharded);
}

TEST(BatchLane, RunHookSeesEverySeedExactlyOnce) {
  // The RunHook contract under engine=lane: harvest order differs from seed
  // order, but every seed fires exactly once (the fabric keys chaos-kill
  // injection on this).
  TwoProcessProtocol protocol;
  BatchRunner batch(protocol, {0, 1});
  BatchOptions opts;
  opts.first_seed = 100;
  opts.num_runs = 64;
  opts.threads = 2;
  opts.engine = BatchEngine::kLane;
  opts.lanes = 8;
  opts.lane_sched = {LaneSchedSpec::Kind::kRandom, 0x1234, 0};

  std::mutex mu;
  std::vector<std::uint64_t> seen;
  const RunHook hook = [&](std::uint64_t seed) {
    std::lock_guard<std::mutex> lock(mu);
    seen.push_back(seed);
  };
  (void)batch.run(opts, nullptr, nullptr, hook);

  ASSERT_EQ(seen.size(), 64u);
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 0; i < seen.size(); ++i)
    EXPECT_EQ(seen[i], 100 + static_cast<std::uint64_t>(i));
}

TEST(BatchLane, FaultSweepBitIdentity) {
  // A shared crash/recovery plan served by BOTH engines: the scalar workers
  // wrap their schedulers in FaultPlanScheduler per seed, the lane workers
  // run the SoA kernel with per-lane fault cursors — and the summaries must
  // be bit-identical. 4 threads x 8 lanes so the TSan CI arm pins the fault
  // cursors' data-race freedom too.
  fault::FaultPlan plan;
  plan.crashes.push_back({0, 2});
  plan.recoveries.push_back({0, 8});

  TwoProcessProtocol protocol;
  BatchRunner batch(protocol, {0, 1});
  BatchOptions opts;
  opts.first_seed = 1;
  opts.num_runs = 400;
  opts.threads = 2;
  opts.fault_plan = &plan;
  const BatchSummary scalar = batch.run(opts, random_factory(0x1234));

  opts.engine = BatchEngine::kLane;
  opts.lane_sched = {LaneSchedSpec::Kind::kRandom, 0x1234, 0};
  opts.threads = 4;
  opts.lanes = 8;
  const BatchSummary lane = batch.run(opts, nullptr);

  EXPECT_EQ(lane.num_runs, 400);
  EXPECT_GT(lane.recoveries, 0);
  expect_equal_summaries(scalar, lane);

  // And the lane reduction itself is thread/lane-count invariant under the
  // plan: the per-lane fault cursors cannot leak across shard boundaries.
  opts.threads = 1;
  opts.lanes = 1;
  expect_equal_summaries(lane, batch.run(opts, nullptr));
}

TEST(BatchLane, ScalarRigCallersMatchFreshRigs) {
  // BatchRunner's scalar workers and LaneEngine's scalar fallback (Figure 2
  // never takes the sliced kernel) share the pooled ScalarRig. Both must
  // equal fresh per-seed constructions of the whole rig, under a plan whose
  // stalls and word faults exercise every re-arm. Checks are off: stale
  // reads void Figure 2's atomic-register premise.
  const fault::FaultPlan plan = fault::FaultPlan::parse(
      "fp1;seed=9;crash=0@2;recover=0@8;stall=1@1+5;reg=st:0.05d3");
  UnboundedProtocol protocol(3);
  const std::vector<Value> inputs = {0, 1, 1};
  BatchOptions opts;
  opts.first_seed = 11;
  opts.num_runs = 300;
  opts.check_consistency = false;
  opts.check_nontriviality = false;
  opts.fault_plan = &plan;

  BatchSummary fresh;
  for (std::uint64_t seed = 11; seed < 311; ++seed) {
    SimOptions so;
    so.seed = seed;
    so.check_consistency = false;
    so.check_nontriviality = false;
    Simulation sim(protocol, inputs, so);
    fault::SimRegisterFaults hook(plan.registers, plan.seed,
                                  sim.regs().size());
    sim.mutable_regs().set_fault_hook(&hook);
    RandomScheduler inner(seed ^ 0x1234);
    fault::FaultPlanScheduler sched(inner, plan);
    const SimResult r = sim.run(sched);
    RunRecord rec;
    rec.total_steps = r.total_steps;
    rec.steps_p0 = r.steps_per_process[0];
    rec.steps_p1 = r.steps_per_process[1];
    rec.recoveries = r.recoveries;
    rec.max_register_bits = r.max_register_bits;
    rec.decision = r.decision.value_or(kNoValue);
    rec.all_decided = r.all_decided;
    fresh.add_run(seed, rec, false);
  }
  EXPECT_GT(fresh.recoveries, 0);

  BatchRunner batch(protocol, inputs);
  for (const BatchEngine engine : {BatchEngine::kScalar, BatchEngine::kLane}) {
    for (const int threads : {1, 3}) {
      opts.engine = engine;
      opts.threads = threads;
      SCOPED_TRACE(testing::Message()
                   << "lane=" << (engine == BatchEngine::kLane)
                   << " threads=" << threads);
      expect_equal_summaries(fresh, batch.run(opts, nullptr));
    }
  }
}

TEST(BatchLane, NonBinaryInputsTakeTheScalarFallback) {
  // The sliced kernel keeps every preference as one bit per lane, so wider
  // inputs run through the pooled scalar fallback — same summary as the
  // scalar engine, reported at width 1.
  TwoProcessProtocol protocol(5);
  BatchRunner batch(protocol, {2, 5});
  BatchOptions opts;
  opts.first_seed = 3;
  opts.num_runs = 200;
  opts.threads = 2;
  const BatchSummary scalar = batch.run(opts, random_factory(0x1234));

  LaneRunOptions lo;
  lo.sched = {LaneSchedSpec::Kind::kRandom, 0x1234, 0};
  EXPECT_FALSE(LaneEngine(protocol, {2, 5}).soa_supported(lo));
  EXPECT_TRUE(LaneEngine(protocol, {0, 1}).soa_supported(lo));

  opts.engine = BatchEngine::kLane;
  opts.lanes = 8;
  opts.lane_sched = lo.sched;
  const BatchSummary lane = batch.run(opts, nullptr);
  EXPECT_EQ(lane.simd_width, 1);
  EXPECT_EQ(lane.decided_runs, 200);
  expect_equal_summaries(scalar, lane);
}

TEST(BatchLane, ZeroStepCapMatchesScalarEngine) {
  // Simulation takes no step under a cap of 0; a lockstep round always
  // takes one, so the lane engine must hand such sweeps to the fallback.
  TwoProcessProtocol protocol;
  BatchRunner batch(protocol, {0, 1});
  BatchOptions opts;
  opts.first_seed = 1;
  opts.num_runs = 50;
  opts.threads = 1;
  opts.max_total_steps = 0;
  const BatchSummary scalar = batch.run(opts, random_factory(0x1234));
  EXPECT_EQ(scalar.total_steps, 0);

  opts.engine = BatchEngine::kLane;
  opts.lane_sched = {LaneSchedSpec::Kind::kRandom, 0x1234, 0};
  expect_equal_summaries(scalar, batch.run(opts, nullptr));
}

TEST(BatchLane, CrashRecoverySweepRefillsMidRoundAtW64) {
  // All 64 lanes under a plan, with more runs per worker than lanes: lanes
  // finish, idle through outages and refill in every round, and the
  // per-lane fault cursors must never leak from one run into the next.
  const fault::FaultPlan plan =
      fault::FaultPlan::parse("fp1;crash=1@3;recover=1@5");
  TwoProcessProtocol protocol;
  BatchRunner batch(protocol, {0, 1});
  BatchOptions opts;
  opts.first_seed = 77;
  opts.num_runs = 1'000;
  opts.threads = 2;
  opts.fault_plan = &plan;
  opts.lane_sched = registry::sched_spec("random");
  const BatchSummary scalar = batch.run(opts);

  LaneRunOptions lo;
  lo.fault_plan = &plan;
  ASSERT_TRUE(LaneEngine(protocol, {0, 1}).soa_supported(lo));
  opts.engine = BatchEngine::kLane;
  opts.lanes = 64;
  const BatchSummary lane = batch.run(opts);
  EXPECT_EQ(lane.num_runs, 1'000);
  EXPECT_GT(lane.recoveries, 0);
  expect_equal_summaries(scalar, lane);
}

TEST(BatchLane, MootCrashMatchesScalarEngine) {
  // P0 usually decides long before its 12th own step, so the crash (and
  // with it the recovery) mostly never fires; when a long run reaches it,
  // the recovery comes due. Both cases must match the scalar engine.
  const fault::FaultPlan plan =
      fault::FaultPlan::parse("fp1;crash=0@12;recover=0@3");
  TwoProcessProtocol protocol;
  BatchRunner batch(protocol, {0, 1});
  BatchOptions opts;
  opts.first_seed = 1;
  opts.num_runs = 600;
  opts.threads = 2;
  opts.fault_plan = &plan;
  opts.lane_sched = registry::sched_spec("random");
  const BatchSummary scalar = batch.run(opts);
  EXPECT_LT(scalar.recoveries, scalar.num_runs / 4);

  opts.engine = BatchEngine::kLane;
  opts.lanes = 8;
  const BatchSummary lane = batch.run(opts);
  EXPECT_EQ(lane.decided_runs, 600);
  expect_equal_summaries(scalar, lane);
}

TEST(BatchLane, ProbeDowngradesToScalarWithNote) {
  // The lane engine exposes no per-run Simulation, so a probed sweep under
  // engine=lane must degrade gracefully: scalar results, a note saying so,
  // simd_width back at 1 — not a crash, and not silently dropped probes.
  TwoProcessProtocol protocol;
  BatchRunner batch(protocol, {0, 1});
  BatchOptions opts;
  opts.first_seed = 0;
  opts.num_runs = 120;
  opts.threads = 2;
  const RunProbe probe = [](const Simulation&, const SimResult& r) {
    return r.total_steps;
  };
  const BatchSummary scalar = batch.run(opts, random_factory(0x1234), probe);

  opts.engine = BatchEngine::kLane;
  opts.lanes = 8;
  opts.lane_sched = {LaneSchedSpec::Kind::kRandom, 0x1234, 0};
  const BatchSummary lane = batch.run(opts, random_factory(0x1234), probe);

  EXPECT_FALSE(lane.note.empty());
  EXPECT_EQ(lane.simd_width, 1);
  expect_equal_summaries(scalar, lane);
}

TEST(BatchLane, ReportsSimdWidth) {
  TwoProcessProtocol protocol;
  BatchRunner batch(protocol, {0, 1});
  BatchOptions opts;
  opts.first_seed = 0;
  opts.num_runs = 32;

  // engine=scalar never touches the vector kernels.
  EXPECT_EQ(batch.run(opts, random_factory(0x1234)).simd_width, 1);

  // The SoA path reports the host's active width; an explicit narrower
  // request is honored and reported back.
  opts.engine = BatchEngine::kLane;
  opts.lane_sched = {LaneSchedSpec::Kind::kRandom, 0x1234, 0};
  EXPECT_EQ(batch.run(opts, nullptr).simd_width, simd::active_width());
  opts.simd_width = 1;
  EXPECT_EQ(batch.run(opts, nullptr).simd_width, 1);
  opts.simd_width = 0;

  // A lane configuration served by the pooled scalar fallback (adaptive
  // adversary) reports width 1: no vector kernel ran.
  opts.lane_sched = {LaneSchedSpec::Kind::kAvoid, 0, 17};
  EXPECT_EQ(batch.run(opts, nullptr).simd_width, 1);
}

}  // namespace
}  // namespace cil
