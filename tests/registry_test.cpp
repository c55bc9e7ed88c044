// The run registry (core/registry.h) against independent references: the
// protocol objects it builds, the process counts and inputs it reports,
// and — the cross-surface bit-identity contract — the schedulers its
// adversary specs arm, checked pick for pick against hand-seeded
// RandomScheduler / DecisionAvoidingAdversary constructions.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/bounded_three.h"
#include "core/registry.h"
#include "core/two_process.h"
#include "core/unbounded.h"
#include "sched/adversary.h"
#include "sched/lane_engine.h"
#include "sched/schedulers.h"
#include "sched/simulation.h"
#include "util/check.h"

namespace cil {
namespace {

TEST(Registry, FixedSizeProtocolsIgnoreTheRequestedCount) {
  EXPECT_EQ(registry::process_count("two", 5), 2);
  EXPECT_EQ(registry::process_count("one-bit", 7), 2);
  EXPECT_EQ(registry::process_count("bounded", 9), 3);
  EXPECT_EQ(registry::process_count("unbounded", 5), 5);
  EXPECT_EQ(registry::make_protocol("two", 5)->num_processes(), 2);
  EXPECT_EQ(registry::make_protocol("bounded", 5)->num_processes(), 3);
  EXPECT_EQ(registry::make_protocol("unbounded", 5)->num_processes(), 5);
}

TEST(Registry, SweepInputsAlternateFromZero) {
  EXPECT_EQ(registry::sweep_inputs(5), (std::vector<Value>{0, 1, 0, 1, 0}));
  EXPECT_EQ(registry::sweep_inputs(2), (std::vector<Value>{0, 1}));
}

TEST(Registry, EveryHuntProtocolBuilds) {
  for (const std::string name : {"two", "one-bit", "unbounded", "swsr",
                                 "bounded", "naive", "multivalued"}) {
    const auto protocol = registry::make_protocol(name, 3);
    ASSERT_NE(protocol, nullptr) << name;
    EXPECT_EQ(protocol->num_processes(), registry::process_count(name, 3))
        << name;
  }
}

TEST(Registry, AblationsReachTheirProtocol) {
  const auto two = registry::make_protocol("two", 2, "warm-recovery", 3);
  const auto& fig1 = dynamic_cast<const TwoProcessProtocol&>(*two);
  EXPECT_TRUE(fig1.options().buggy_warm_recovery);
  EXPECT_EQ(fig1.options().warm_lease_steps, 3);
  EXPECT_FALSE(dynamic_cast<const TwoProcessProtocol&>(
                   *registry::make_protocol("two", 2))
                   .options()
                   .buggy_warm_recovery);
  EXPECT_TRUE(dynamic_cast<const TwoProcessProtocol&>(
                  *registry::make_protocol("one-bit", 2))
                  .options()
                  .preinitialized_registers);

  const auto unbounded = registry::make_protocol("unbounded", 3,
                                                 "literal-cond2");
  EXPECT_TRUE(dynamic_cast<const UnboundedProtocol&>(*unbounded)
                  .options()
                  .literal_condition2);

  const auto naive = registry::make_protocol("bounded", 3, "naive-unanimity");
  const auto guard = registry::make_protocol("bounded", 3, "no-guard");
  const auto& naive_opts =
      dynamic_cast<const BoundedThreeProtocol&>(*naive).options();
  const auto& guard_opts =
      dynamic_cast<const BoundedThreeProtocol&>(*guard).options();
  EXPECT_TRUE(naive_opts.naive_unanimity);
  EXPECT_FALSE(naive_opts.no_blocker_guard);
  EXPECT_TRUE(guard_opts.no_blocker_guard);
  EXPECT_FALSE(guard_opts.naive_unanimity);
}

TEST(Registry, RejectsUnknownNamesAndForeignAblations) {
  EXPECT_THROW((void)registry::make_protocol("quantum", 3), ContractViolation);
  EXPECT_THROW((void)registry::make_protocol("two", 2, "no-guard"),
               ContractViolation);
  EXPECT_THROW((void)registry::make_protocol("two", 2, "typo"),
               ContractViolation);
  EXPECT_THROW((void)registry::make_protocol("unbounded", 3, "warm-recovery"),
               ContractViolation);
  EXPECT_THROW((void)registry::make_protocol("swsr", 3, "literal-cond2"),
               ContractViolation);
  EXPECT_THROW(registry::check_ablation("bounded", "literal-cond2"),
               ContractViolation);
  EXPECT_NO_THROW(registry::check_ablation("bounded", "no-guard"));
  EXPECT_NO_THROW(registry::check_ablation("bounded", ""));
  EXPECT_THROW((void)registry::process_count("quantum", 3), ContractViolation);
  EXPECT_THROW((void)registry::sched_spec("rr"), ContractViolation);
}

TEST(Registry, SweepSurfacesServeTheThreePaperProtocols) {
  for (const char* name : {"two", "unbounded", "bounded"})
    EXPECT_NO_THROW(registry::check_sweep_protocol(name)) << name;
  for (const char* name : {"one-bit", "swsr", "naive", "multivalued", "x"})
    EXPECT_THROW(registry::check_sweep_protocol(name), ContractViolation)
        << name;
}

/// The pid schedule of one recorded run of `protocol` under `sched`.
std::vector<ProcessId> schedule_of(const Protocol& protocol,
                                   std::uint64_t seed, Scheduler& sched) {
  SimOptions options;
  options.seed = seed;
  options.record_schedule = true;
  Simulation sim(protocol, registry::sweep_inputs(protocol.num_processes()),
                 options);
  return sim.run(sched).schedule;
}

TEST(Registry, SchedSpecsSeedLikeTheReferenceSchedulers) {
  UnboundedProtocol protocol(3);
  SpecScheduler random(registry::sched_spec("random"));
  SpecScheduler avoid(registry::sched_spec("avoid"));
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    RandomScheduler random_ref(seed ^ 0x1234);
    EXPECT_EQ(schedule_of(protocol, seed, random.arm(seed)),
              schedule_of(protocol, seed, random_ref))
        << seed;
    DecisionAvoidingAdversary avoid_ref(seed + 17);
    EXPECT_EQ(schedule_of(protocol, seed, avoid.arm(seed)),
              schedule_of(protocol, seed, avoid_ref))
        << seed;
  }
}

}  // namespace
}  // namespace cil
