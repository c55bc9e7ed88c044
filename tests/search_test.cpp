// The adversarial fault-plan searcher (src/search):
//
//   * genome sampling and mutation are closed over the space (every genome
//     validates) and deterministic in the rng;
//   * the optimizers are exactly reproducible: same space + evaluator +
//     options => identical SearchResult;
//   * the planted-violation harness — the reason the subsystem exists: on
//     the warm-recovery ablation the searcher (evo AND anneal) finds a real
//     consistency violation within 2'000 evaluations, while uniform random
//     chaos misses it across a 50'000-evaluation budget (fixed seeds; see
//     EXPERIMENTS.md X7 for the multi-seed picture);
//   * the worst-plan artifact round-trips through JSON and replays to the
//     identical outcome, and its decoder refuses malformed fields with a
//     ContractViolation (pinned cases plus a seeded structural fuzzer).
#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "core/two_process.h"
#include "msg/ben_or.h"
#include "search/artifact.h"
#include "search/evaluate.h"
#include "search/genome.h"
#include "search/optimize.h"
#include "tests/json_mutate.h"
#include "util/check.h"
#include "util/rng.h"

namespace cil::search {
namespace {

GenomeSpace planted_space() {
  GenomeSpace space;
  space.num_processes = 2;
  space.max_crashes = 1;
  space.crash_horizon = 512;
  space.max_recovery_delay = 1024;
  space.allow_recovery = true;
  return space;
}

TwoProcessProtocol::Options planted_options() {
  TwoProcessProtocol::Options opts;
  opts.buggy_warm_recovery = true;
  opts.warm_lease_steps = 1;
  return opts;
}

Evaluator planted_evaluator(const TwoProcessProtocol& protocol) {
  SimEvalOptions opts;
  opts.inputs = {0, 1};
  opts.max_total_steps = 4'000;
  return make_sim_evaluator(protocol, opts);
}

TEST(Genome, RandomGenomesAlwaysValidate) {
  GenomeSpace space;
  space.num_processes = 3;
  space.max_crashes = 2;
  space.max_stalls = 1;
  space.allow_recovery = true;
  space.allow_register_faults = true;
  space.allow_message_faults = true;
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const PlanGenome g = random_genome(space, rng);
    EXPECT_NO_THROW(g.plan.validate(space.num_processes)) << i;
  }
}

TEST(Genome, MutationIsClosedOverTheSpace) {
  GenomeSpace space;
  space.num_processes = 3;
  space.max_crashes = 2;
  space.max_stalls = 1;
  space.allow_recovery = true;
  space.allow_register_faults = true;
  space.allow_message_faults = true;
  Rng rng(13);
  PlanGenome g = random_genome(space, rng);
  for (int i = 0; i < 2'000; ++i) {
    g = mutate(g, space, rng, {});
    ASSERT_NO_THROW(g.plan.validate(space.num_processes)) << "step " << i;
  }
}

TEST(Genome, MutationIsDeterministicInTheRngState) {
  const GenomeSpace space = planted_space();
  Rng seed_rng(99);
  const PlanGenome g = random_genome(space, seed_rng);
  Rng a(42), b(42);
  for (int i = 0; i < 50; ++i) {
    const PlanGenome ma = mutate(g, space, a, {});
    const PlanGenome mb = mutate(g, space, b, {});
    ASSERT_EQ(ma.plan.serialize(), mb.plan.serialize());
    ASSERT_EQ(ma.sched_seed, mb.sched_seed);
  }
}

TEST(Genome, HomingMutationTargetsObservedOwnSteps) {
  // With hint events present, repeated mutation eventually produces a
  // genome whose crash step equals one of the hinted commit points.
  GenomeSpace space = planted_space();
  space.crash_horizon = 100'000;  // blind jitter cannot stumble onto 77777
  Rng rng(5);
  PlanGenome g = random_genome(space, rng);
  g.plan.crashes = {{0, 3}};
  std::vector<obs::Event> hints;
  obs::Event e;
  e.kind = obs::EventKind::kCoinFlip;
  e.pid = 0;
  e.step = 77'777;
  hints.push_back(e);
  bool homed = false;
  PlanGenome cur = g;
  for (int i = 0; i < 400 && !homed; ++i) {
    cur = mutate(cur, space, rng, hints);
    for (const fault::CrashEvent& c : cur.plan.crashes)
      homed |= c.at_step == 77'777;
  }
  EXPECT_TRUE(homed);
}

TEST(Search, OptimizersAreExactlyReproducible) {
  TwoProcessProtocol protocol(1, planted_options());
  const Evaluator eval = planted_evaluator(protocol);
  const GenomeSpace space = planted_space();
  SearchOptions opts;
  opts.budget = 300;
  opts.seed = 17;
  opts.stop_on_violation = false;
  for (auto* search : {&uniform_search, &anneal, &evolve_one_plus_lambda}) {
    const SearchResult a = (*search)(space, eval, opts);
    const SearchResult b = (*search)(space, eval, opts);
    EXPECT_EQ(a.best.plan.serialize(), b.best.plan.serialize());
    EXPECT_EQ(a.best.sched_seed, b.best.sched_seed);
    EXPECT_EQ(a.best_eval.fitness, b.best_eval.fitness);
    EXPECT_EQ(a.evaluations, b.evaluations);
    EXPECT_EQ(a.evaluations_to_best, b.evaluations_to_best);
  }
}

// The planted-violation harness. Constants here are pinned to the ctest
// tool-level pin (tool.hunt_search_planted) and EXPERIMENTS.md X7.
TEST(PlantedViolation, EvolutionFindsItWithinTwoThousandEvaluations) {
  TwoProcessProtocol protocol(1, planted_options());
  const Evaluator eval = planted_evaluator(protocol);
  SearchOptions opts;
  opts.budget = 2'000;
  opts.seed = 1;
  const SearchResult r = evolve_one_plus_lambda(planted_space(), eval, opts);
  EXPECT_TRUE(r.best_eval.violation) << r.best_eval.violation_what;
  EXPECT_LE(r.evaluations, 2'000);
}

TEST(PlantedViolation, AnnealingFindsItWithinTwoThousandEvaluations) {
  TwoProcessProtocol protocol(1, planted_options());
  const Evaluator eval = planted_evaluator(protocol);
  SearchOptions opts;
  opts.budget = 2'000;
  opts.seed = 1;
  const SearchResult r = anneal(planted_space(), eval, opts);
  EXPECT_TRUE(r.best_eval.violation) << r.best_eval.violation_what;
  EXPECT_LE(r.evaluations, 2'000);
}

TEST(PlantedViolation, UniformSamplingMissesItInFiftyThousand) {
  TwoProcessProtocol protocol(1, planted_options());
  const Evaluator eval = planted_evaluator(protocol);
  SearchOptions opts;
  opts.budget = 50'000;
  opts.seed = 1;
  const SearchResult r = uniform_search(planted_space(), eval, opts);
  EXPECT_FALSE(r.best_eval.violation) << r.best_eval.violation_what;
  EXPECT_EQ(r.evaluations, 50'000);
}

TEST(Artifact, JsonRoundTripPreservesEveryField) {
  WorstPlanArtifact a;
  a.protocol = "two";
  a.substrate = "sim";
  a.ablation = "warm-recovery";
  a.search = "evo";
  a.num_processes = 2;
  a.inputs = {0, 1};
  a.genome.plan =
      fault::FaultPlan::parse("fp1;seed=42;crash=1@5;recover=1@1");
  a.genome.sched_seed = 18'446'744'073'709'551'557ULL;  // needs full 64 bits
  a.eval_steps = 4'000;
  a.fitness = 1.001e12;
  a.violation = true;
  a.violation_what = "consistency violated";
  a.evaluations = 349;
  a.evaluations_to_best = 349;
  const WorstPlanArtifact b = artifact_from_json(artifact_to_json(a));
  EXPECT_EQ(b.protocol, a.protocol);
  EXPECT_EQ(b.substrate, a.substrate);
  EXPECT_EQ(b.ablation, a.ablation);
  EXPECT_EQ(b.search, a.search);
  EXPECT_EQ(b.num_processes, a.num_processes);
  EXPECT_EQ(b.inputs, a.inputs);
  EXPECT_EQ(b.genome.plan, a.genome.plan);
  EXPECT_EQ(b.genome.sched_seed, a.genome.sched_seed);  // bit-exact seed
  EXPECT_EQ(b.eval_steps, a.eval_steps);
  EXPECT_EQ(b.fitness, a.fitness);
  EXPECT_EQ(b.violation, a.violation);
  EXPECT_EQ(b.evaluations, a.evaluations);
  EXPECT_EQ(b.evaluations_to_best, a.evaluations_to_best);
}

WorstPlanArtifact sample_artifact() {
  WorstPlanArtifact a;
  a.protocol = "two";
  a.substrate = "sim";
  a.ablation = "warm-recovery";
  a.search = "evo";
  a.num_processes = 2;
  a.inputs = {0, 1};
  a.genome.plan =
      fault::FaultPlan::parse("fp1;seed=42;crash=1@5;recover=1@1");
  a.genome.sched_seed = 18'446'744'073'709'551'262ULL;
  a.eval_steps = 4'000;
  a.fitness = 1.001e12;
  a.violation = true;
  a.violation_what = "consistency violated";
  a.evaluations = 349;
  a.evaluations_to_best = 349;
  return a;
}

TEST(Artifact, DecoderRefusesTrailingBytesAndOutOfRangeInts) {
  // Each of these once decoded to a different artifact instead of failing:
  // a seed with trailing bytes replayed as its digit prefix, a non-numeric
  // seed escaped as std::invalid_argument, and n = 2^32 + 2 wrapped to 2.
  const obs::Json good = artifact_to_json(sample_artifact());
  const auto with = [&good](const char* key, obs::Json value) {
    obs::Json doc = good;
    doc[key] = std::move(value);
    return doc;
  };
  EXPECT_THROW(artifact_from_json(with(
                   "sched_seed", obs::Json("18446744073709551262abc"))),
               ContractViolation);
  EXPECT_THROW(artifact_from_json(with("sched_seed", obs::Json("abc"))),
               ContractViolation);
  EXPECT_THROW(artifact_from_json(
                   with("n", obs::Json(std::int64_t{4'294'967'298}))),
               ContractViolation);
  EXPECT_THROW(artifact_from_json(with("t", obs::Json(std::int64_t{-2}))),
               ContractViolation);
  EXPECT_EQ(artifact_from_json(good).genome.sched_seed,
            18'446'744'073'709'551'262ULL);
}

TEST(WorstPlanFuzz, MutantsRoundTripOrThrowContractViolation) {
  using namespace cil::testing_json;
  std::vector<obs::Json> seeds;
  seeds.push_back(artifact_to_json(sample_artifact()));
  {
    WorstPlanArtifact a = sample_artifact();
    a.protocol = "ben-or";
    a.substrate = "msg";
    a.ablation = "";
    a.num_processes = 3;
    a.tolerance = 1;
    a.inputs = {0, 1, 1};
    a.genome.plan = fault::FaultPlan::parse("fp1;seed=3;crash=2@4");
    a.genome.sched_seed = 7;
    a.violation = false;
    a.violation_what = "";
    seeds.push_back(artifact_to_json(a));
  }
  const std::vector<std::string> vocabulary = {
      "cilcoord.worst_plan.v1", "two", "sim", "msg", "evo",
      "fp1;seed=1;crash=0@2;recover=0@8", "fp1;crash=9@1"};

  std::mt19937_64 gen(20261019);
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 6000; ++trial) {
    obs::Json doc = seeds[static_cast<std::size_t>(trial) % seeds.size()];
    const int rounds = 1 + static_cast<int>(gen() % 3);
    for (int r = 0; r < rounds; ++r) {
      std::size_t index = 0;
      const std::size_t target = gen() % count_nodes(doc);
      auto f = [&](const obs::Json& node) {
        return mutate_node(node, gen, vocabulary);
      };
      doc = rebuild(doc, index, target, f);
    }
    std::string text = doc.dump();
    if (gen() % 8 == 0) text.resize(gen() % (text.size() + 1));  // truncate
    if (gen() % 8 == 0 && !text.empty())
      text[gen() % text.size()] = static_cast<char>(gen() % 128);  // flip
    try {
      const WorstPlanArtifact got = artifact_from_json(obs::Json::parse(text));
      const std::string once = artifact_to_json(got).dump();
      const WorstPlanArtifact again =
          artifact_from_json(obs::Json::parse(once));
      ASSERT_EQ(artifact_to_json(again).dump(), once) << text;
      ASSERT_EQ(again.genome.plan, got.genome.plan) << text;
      ASSERT_EQ(again.genome.sched_seed, got.genome.sched_seed) << text;
      ++accepted;
    } catch (const ContractViolation&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "non-contract exception " << e.what() << " on " << text;
    }
  }
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 1000);
}

TEST(Artifact, SearchResultReplaysToTheSameViolation) {
  TwoProcessProtocol protocol(1, planted_options());
  const Evaluator eval = planted_evaluator(protocol);
  SearchOptions opts;
  opts.budget = 2'000;
  opts.seed = 1;
  const SearchResult r = evolve_one_plus_lambda(planted_space(), eval, opts);
  ASSERT_TRUE(r.best_eval.violation);
  WorstPlanArtifact a =
      make_artifact(r, "two", "sim", "warm-recovery", "evo", 2, {0, 1});
  a.eval_steps = 4'000;

  const std::string path = testing::TempDir() + "/worst_plan_roundtrip.json";
  ASSERT_TRUE(write_artifact_file(path, a));
  const WorstPlanArtifact loaded = load_artifact_file(path);
  const ReplayOutcome replay = replay_artifact(loaded, eval);
  EXPECT_TRUE(replay.matches);
  EXPECT_TRUE(replay.eval.violation);
  EXPECT_EQ(replay.eval.fitness, a.fitness);
  std::remove(path.c_str());
}

TEST(MsgEvaluator, BenOrUnderMessageChaosScoresWithoutViolations) {
  msg::BenOrProtocol protocol(3, 1);
  MsgEvalOptions mopts;
  mopts.inputs = {0, 1, 1};
  mopts.max_picks = 50'000;
  const Evaluator eval = make_msg_evaluator(protocol, mopts);
  GenomeSpace space;
  space.num_processes = 3;
  space.max_crashes = 1;
  space.allow_message_faults = true;
  SearchOptions opts;
  opts.budget = 200;
  opts.seed = 3;
  opts.stop_on_violation = false;
  const SearchResult r = uniform_search(space, eval, opts);
  // Ben-Or with t < n/2 is safe under drop/dup/delay + one crash: the
  // searcher can rank runs (liveness pain) but never finds a violation.
  EXPECT_FALSE(r.best_eval.violation) << r.best_eval.violation_what;
  EXPECT_GT(r.best_eval.fitness, 0.0);
  EXPECT_EQ(r.evaluations, 200);
}

}  // namespace
}  // namespace cil::search
