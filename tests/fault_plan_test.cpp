// FaultPlan: deterministic derivation, compact-string round-trip, the
// simulator-side injection machinery, and the headline reproducibility
// property — one plan string produces the identical fault sequence in the
// serialized simulator and on real std::threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <exception>
#include <random>
#include <set>

#include "core/unbounded.h"
#include "fault/fault_plan.h"
#include "fault/sim_faults.h"
#include "runtime/threaded.h"
#include "sched/schedulers.h"
#include "sched/simulation.h"

namespace cil::fault {
namespace {

FaultPlan full_plan() {
  FaultPlan plan;
  plan.seed = 123456789;
  plan.crashes = {{1, 7}, {2, 12}};
  plan.stalls = {{0, 3, 2000}};
  plan.registers.flicker_prob = 0.01;
  plan.registers.flicker_burst = 2;
  plan.registers.stale_prob = 0.05;
  plan.registers.stale_depth = 3;
  plan.registers.delay_prob = 0.125;
  plan.registers.delay_window = 8;
  plan.registers.cells.garbage_prob = 0.5;
  plan.registers.cells.garbage_rounds = 2;
  plan.registers.cells.settle_spins = 1;
  return plan;
}

TEST(FaultPlan, SerializeParseRoundTrip) {
  const FaultPlan plan = full_plan();
  const std::string text = plan.serialize();
  EXPECT_EQ(FaultPlan::parse(text), plan) << text;
}

TEST(FaultPlan, EmptyPlanRoundTrips) {
  FaultPlan plan;
  plan.seed = 42;
  EXPECT_EQ(plan.serialize(), "fp1;seed=42");
  EXPECT_EQ(FaultPlan::parse(plan.serialize()), plan);
}

TEST(FaultPlan, AwkwardDoublesRoundTripExactly) {
  FaultPlan plan;
  plan.registers.stale_prob = 0.1;  // not representable exactly in binary
  plan.registers.flicker_prob = 1.0 / 3.0;
  EXPECT_EQ(FaultPlan::parse(plan.serialize()), plan);
}

TEST(FaultPlan, ParseRejectsMalformedStrings) {
  EXPECT_THROW(FaultPlan::parse(""), ContractViolation);
  EXPECT_THROW(FaultPlan::parse("fp2;seed=1"), ContractViolation);
  EXPECT_THROW(FaultPlan::parse("fp1;crash=1"), ContractViolation);
  EXPECT_THROW(FaultPlan::parse("fp1;crash=1@"), ContractViolation);
  EXPECT_THROW(FaultPlan::parse("fp1;stall=1@2"), ContractViolation);
  EXPECT_THROW(FaultPlan::parse("fp1;reg=zz:0.5x1"), ContractViolation);
  EXPECT_THROW(FaultPlan::parse("fp1;bogus=3"), ContractViolation);
}

TEST(FaultPlan, ParseRefusesRatesSerializeCannotWriteBack) {
  // serialize() writes only positive rates; any other rate would drop its
  // token (and the burst/depth/window riding on it) on the round trip.
  for (const char* text :
       {"fp1;reg=fl:0x3", "fp1;reg=st:-0.5d2", "fp1;reg=st:nand2",
        "fp1;reg=dw:-0w4", "fp1;msg=dr:0", "fp1;msg=de:nanw3",
        "fp1;cell=gp:0r2s1", "fp1;reg=st:1e309d2"})
    EXPECT_THROW(FaultPlan::parse(text), ContractViolation) << text;
  EXPECT_EQ(FaultPlan::parse("fp1;reg=st:infd2").registers.stale_depth, 2);
}

// -- seeded fuzzer over FaultPlan::parse ------------------------------------
// Deterministic string mutations of serialized plans: truncate, drop,
// duplicate or swap `;` fields, swap in boundary integers and odd
// probabilities, zero a burst/depth/window, or insert a separator. Every
// mutant must either throw ContractViolation or parse to a plan that
// round-trips through serialize() and that validate() accepts or refuses
// with ContractViolation. Nothing else may escape the decoder.

std::string mutate_plan_text(std::string text, std::mt19937_64& gen) {
  const auto pick = [&gen](std::size_t n) {
    return static_cast<std::size_t>(gen() % n);
  };
  const auto fields = [&text] {
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t end; (end = text.find(';', start)) != std::string::npos;
         start = end + 1)
      out.push_back(text.substr(start, end - start));
    out.push_back(text.substr(start));
    return out;
  };
  const auto join = [](const std::vector<std::string>& parts) {
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i)
      out += (i == 0 ? "" : ";") + parts[i];
    return out;
  };
  static const std::vector<std::string> numbers = {
      "9223372036854775808", "9223372036854775807", "-9223372036854775808",
      "18446744073709551615", "18446744073709551616", "2147483648", "-1",
      "0", "-0", "nan", "inf", "1e309", "-0.5", "1e-320", "0.5", ""};
  switch (pick(7)) {
    case 0:  // truncate
      return text.substr(0, pick(text.size() + 1));
    case 1: {  // drop a field
      auto parts = fields();
      parts.erase(parts.begin() + static_cast<long>(pick(parts.size())));
      return join(parts);
    }
    case 2: {  // duplicate a field
      auto parts = fields();
      parts.push_back(parts[pick(parts.size())]);
      return join(parts);
    }
    case 3: {  // swap two fields
      auto parts = fields();
      std::swap(parts[pick(parts.size())], parts[pick(parts.size())]);
      return join(parts);
    }
    case 4:
    case 5: {  // replace a number (or zero a burst/depth/window) in place
      std::vector<std::size_t> starts;
      for (std::size_t i = 0; i < text.size(); ++i)
        if (std::isdigit(static_cast<unsigned char>(text[i])) &&
            (i == 0 || !std::isdigit(static_cast<unsigned char>(text[i - 1]))))
          starts.push_back(i);
      if (starts.empty()) return text + "0";
      const std::size_t at = starts[pick(starts.size())];
      std::size_t end = at;
      while (end < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[end])) ||
              text[end] == '.' || text[end] == 'e' || text[end] == '-'))
        ++end;
      const bool burst = at > 0 && std::string("xdw").find(text[at - 1]) !=
                                       std::string::npos;
      return text.substr(0, at) +
             (burst && pick(2) == 0 ? "0" : numbers[pick(numbers.size())]) +
             text.substr(end);
    }
    default: {  // insert a separator or tag character
      static const std::string chars = ";,=@+:xdw-.";
      text.insert(pick(text.size() + 1), 1, chars[pick(chars.size())]);
      return text;
    }
  }
}

TEST(FaultPlanFuzz, MutantsRoundTripOrThrowContractViolation) {
  FaultPlan with_messages =
      FaultPlan::random(17, 4, 2, 2, 16, 50, full_plan().registers, 1, 9);
  with_messages.messages = {0.25, 0.125, 0.5, 3};
  const std::vector<std::string> bases = {
      full_plan().serialize(), "fp1;seed=1;crash=0@2;recover=0@8",
      with_messages.serialize()};
  std::mt19937_64 gen(0xfa17);
  int parsed = 0;
  for (int trial = 0; trial < 6000; ++trial) {
    std::string text = bases[static_cast<std::size_t>(trial) % bases.size()];
    for (int k = 1 + static_cast<int>(gen() % 3); k > 0; --k)
      text = mutate_plan_text(text, gen);
    try {
      FaultPlan plan;
      try {
        plan = FaultPlan::parse(text);
      } catch (const ContractViolation&) {
        continue;
      }
      ++parsed;
      EXPECT_EQ(FaultPlan::parse(plan.serialize()), plan) << text;
      try {
        plan.validate(3);
      } catch (const ContractViolation&) {
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "escaped " << e.what() << " for mutant " << text;
    }
  }
  EXPECT_GT(parsed, 500) << "mutations too destructive to reach the checks";
}

TEST(FaultPlan, RandomIsDeterministicAndLegal) {
  const FaultPlan a = FaultPlan::random(/*seed=*/7, /*n=*/5, /*crashes=*/4,
                                        /*stalls=*/3);
  const FaultPlan b = FaultPlan::random(7, 5, 4, 3);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, FaultPlan::random(8, 5, 4, 3));

  a.validate(5);
  std::set<ProcessId> victims;
  for (const auto& e : a.crashes) victims.insert(e.pid);
  EXPECT_EQ(victims.size(), a.crashes.size()) << "victims must be distinct";
  EXPECT_LE(a.crash_count(), 4);
}

TEST(FaultPlan, RandomCapsCrashesAtNMinusOne) {
  const FaultPlan plan = FaultPlan::random(1, 3, /*crashes=*/99);
  EXPECT_LE(plan.crash_count(), 2);
  plan.validate(3);
}

TEST(FaultPlan, ValidateEnforcesSurvivorRule) {
  FaultPlan plan;
  plan.crashes = {{0, 1}, {1, 1}, {2, 1}};
  EXPECT_THROW(plan.validate(3), ContractViolation);  // all n crash
  plan.crashes = {{0, 1}, {0, 2}};
  EXPECT_THROW(plan.validate(3), ContractViolation);  // duplicate victim
  plan.crashes = {{5, 1}};
  EXPECT_THROW(plan.validate(3), ContractViolation);  // pid out of range
  plan.crashes = {{0, 1}, {1, 3}};
  plan.validate(3);  // legal: n-1 distinct victims
}

TEST(SimRegisterFaults, StaleReadsStayWithinBound) {
  RegisterFaultConfig cfg;
  cfg.stale_prob = 1.0;  // every read that can be stale is stale
  cfg.stale_depth = 3;
  SimRegisterFaults hook(cfg, /*seed=*/9, /*num_registers=*/1);

  hook.on_write(0, 0, 10);
  EXPECT_EQ(hook.on_read(0, 1, 10), 10u) << "one committed value: no past";
  for (Word v = 11; v <= 40; ++v) {
    hook.on_write(0, 0, v);
    const Word seen = hook.on_read(0, 1, v);
    EXPECT_GE(seen, v - 3) << "staleness bound violated";
    EXPECT_LE(seen, v);
  }
  EXPECT_GT(hook.faults_injected(), 0);
}

TEST(SimRegisterFaults, DelayedWriteServesOldValueForWindow) {
  RegisterFaultConfig cfg;
  cfg.delay_prob = 1.0;
  cfg.delay_window = 2;
  SimRegisterFaults hook(cfg, 1, 1);

  hook.on_write(0, 0, 5);   // first write: no previous value, no delay
  hook.on_write(0, 0, 6);   // delayed: next 2 reads still see 5
  EXPECT_EQ(hook.on_read(0, 1, 6), 5u);
  EXPECT_EQ(hook.on_read(0, 1, 6), 5u);
  EXPECT_EQ(hook.on_read(0, 1, 6), 6u);  // window exhausted
}

TEST(SimRegisterFaults, DeterministicAcrossRuns) {
  RegisterFaultConfig cfg;
  cfg.stale_prob = 0.5;
  cfg.stale_depth = 2;
  for (int trial = 0; trial < 2; ++trial) {
    SimRegisterFaults a(cfg, 77, 2), b(cfg, 77, 2);
    for (Word v = 1; v <= 50; ++v) {
      a.on_write(0, 0, v);
      b.on_write(0, 0, v);
      EXPECT_EQ(a.on_read(0, 1, v), b.on_read(0, 1, v));
    }
  }
}

TEST(RegisterFile, FaultHookInterceptsReads) {
  class Negate final : public RegisterFaultHook {
   public:
    void on_write(RegisterId, ProcessId, Word) override {}
    Word on_read(RegisterId, ProcessId, Word actual) override {
      return ~actual;
    }
  };
  RegisterFile regs({{"r", {0}, {0}, 64, 0}});
  Negate hook;
  regs.set_fault_hook(&hook);
  regs.write(0, 0, 5);
  EXPECT_EQ(regs.read(0, 0), ~Word{5});
  EXPECT_EQ(regs.peek(0), 5u) << "stored ground truth is never corrupted";
  regs.set_fault_hook(nullptr);
  EXPECT_EQ(regs.read(0, 0), 5u);
}

// The acceptance headline: a fixed plan string fires the identical
// (pid, own-step) crash sequence in the simulator and on real threads.
TEST(FaultPlanReproducibility, SimAndThreadedFireIdenticalCrashSequences) {
  const std::string text = "fp1;seed=11;crash=1@2,2@5";
  const FaultPlan plan = FaultPlan::parse(text);
  UnboundedProtocol protocol(3);

  // Simulator: the plan rides on any inner scheduler.
  std::vector<CrashEvent> sim_log;
  {
    Simulation sim(protocol, {0, 1, 1}, {.seed = 11});
    RandomScheduler inner(11);
    FaultPlanScheduler sched(inner, plan);
    const SimResult r = sim.run(sched);
    EXPECT_TRUE(r.all_decided);
    sim_log = sched.crash_log();
  }

  // Threaded runtime: same plan via ThreadedOptions.
  std::vector<CrashEvent> threaded_log;
  {
    rt::ThreadedOptions options;
    options.seed = 11;
    options.fault_plan = &plan;
    const auto r = rt::run_threaded(protocol, {0, 1, 1}, options);
    EXPECT_TRUE(r.all_decided);
    EXPECT_TRUE(r.consistent);
    EXPECT_FALSE(r.timed_out);
    EXPECT_TRUE(r.crashed[1]);
    EXPECT_TRUE(r.crashed[2]);
    threaded_log = r.crash_log;
  }

  const auto by_pid = [](const CrashEvent& a, const CrashEvent& b) {
    return a.pid < b.pid;
  };
  std::sort(sim_log.begin(), sim_log.end(), by_pid);
  std::sort(threaded_log.begin(), threaded_log.end(), by_pid);
  ASSERT_EQ(sim_log.size(), 2u);
  EXPECT_EQ(sim_log, threaded_log);
  EXPECT_EQ(sim_log, plan.crashes) << "events fire exactly at their step";
}

TEST(FaultPlanScheduler, StallHoldsProcessorBack) {
  UnboundedProtocol protocol(3);
  const std::string text = "fp1;seed=3;stall=0@1+40";
  const FaultPlan plan = FaultPlan::parse(text);

  Simulation sim(protocol, {1, 0, 1}, {.seed = 3, .record_schedule = true});
  RoundRobinScheduler inner;
  FaultPlanScheduler sched(inner, plan);
  const SimResult r = sim.run(sched);
  EXPECT_TRUE(r.all_decided);
  EXPECT_EQ(sched.stalls_fired(), 1);

  // During the stall window P0 must not appear in the schedule.
  int p0_steps_before = 0;
  std::size_t stall_start = 0;
  for (std::size_t i = 0; i < r.schedule.size() && p0_steps_before < 1; ++i) {
    if (r.schedule[i] == 0) ++p0_steps_before;
    stall_start = i + 1;
  }
  const std::size_t stall_end =
      std::min(stall_start + 40, r.schedule.size());
  for (std::size_t i = stall_start; i < stall_end; ++i)
    EXPECT_NE(r.schedule[i], 0) << "P0 scheduled inside its stall window";
}

TEST(FaultPlanScheduler, RearmMatchesFresh) {
  // Crash + recovery of P1, a stall of P0, and a crash of P2 planned so
  // late that P2 decides first (the scheduler retires it as moot), plus
  // word faults. A pooled scheduler and hook, re-armed after each previous
  // seed's run, must replay exactly what fresh ones do. Stale reads break
  // Figure 2's atomic-register premise, so the property checks are off:
  // this compares runs, it does not judge them.
  const FaultPlan plan = FaultPlan::parse(
      "fp1;seed=5;crash=1@3,2@100000;recover=1@6;stall=0@2+9;"
      "reg=st:0.2d3,dw:0.1w2");
  plan.validate(3);
  UnboundedProtocol protocol(3);
  const std::vector<Value> inputs = {0, 1, 1};
  Simulation pooled_sim(protocol, inputs);
  RandomScheduler pooled_inner(0);
  FaultPlanScheduler pooled(pooled_inner, plan);
  SimRegisterFaults pooled_hook(plan.registers, plan.seed,
                                pooled_sim.regs().size());
  std::int64_t recovered = 0, stalled = 0, moot = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const SimOptions so{.seed = seed,
                        .check_consistency = false,
                        .check_nontriviality = false,
                        .record_schedule = true};
    pooled_sim.reset(inputs, so);
    pooled_inner.reseed(seed ^ 0x77);
    pooled.rearm(pooled_inner, plan);
    pooled_hook.rearm(plan.seed);
    pooled_sim.mutable_regs().set_fault_hook(&pooled_hook);
    SimResult a;
    pooled_sim.run_into(pooled, a);

    Simulation sim(protocol, inputs, so);
    RandomScheduler inner(seed ^ 0x77);
    FaultPlanScheduler fresh(inner, plan);
    SimRegisterFaults hook(plan.registers, plan.seed, sim.regs().size());
    sim.mutable_regs().set_fault_hook(&hook);
    const SimResult b = sim.run(fresh);

    EXPECT_EQ(a.schedule, b.schedule) << "pick sequence, seed " << seed;
    EXPECT_EQ(a.decisions, b.decisions) << seed;
    EXPECT_EQ(a.decision, b.decision) << seed;
    EXPECT_EQ(a.all_decided, b.all_decided) << seed;
    EXPECT_EQ(a.steps_per_process, b.steps_per_process) << seed;
    EXPECT_EQ(a.total_steps, b.total_steps) << seed;
    EXPECT_EQ(a.max_register_bits, b.max_register_bits) << seed;
    EXPECT_EQ(a.recoveries, b.recoveries) << seed;
    EXPECT_EQ(pooled.crash_log(), fresh.crash_log()) << seed;
    EXPECT_EQ(pooled.crashes_fired(), fresh.crashes_fired()) << seed;
    EXPECT_EQ(pooled.stalls_fired(), fresh.stalls_fired()) << seed;
    EXPECT_EQ(pooled.recoveries_fired(), fresh.recoveries_fired()) << seed;
    EXPECT_EQ(pooled_hook.faults_injected(), hook.faults_injected()) << seed;
    recovered += fresh.recoveries_fired();
    stalled += fresh.stalls_fired();
    moot += fresh.crashes_fired() == 1 && b.decisions[2] != kNoValue;
  }
  EXPECT_GT(recovered, 0);
  EXPECT_GT(stalled, 0);
  EXPECT_GT(moot, 0) << "no run retired P2's late crash";
}

}  // namespace
}  // namespace cil::fault
