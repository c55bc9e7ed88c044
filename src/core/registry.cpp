#include "core/registry.h"

#include <algorithm>

#include "core/bounded_three.h"
#include "core/multivalued.h"
#include "core/naive.h"
#include "core/swsr_unbounded.h"
#include "core/two_process.h"
#include "core/unbounded.h"
#include "util/check.h"

namespace cil::registry {

namespace {

struct Entry {
  std::string name;
  int fixed_n;  ///< 0: the count is the caller's n
  bool sweeps;  ///< served by tools/sweep and svc
  std::vector<std::string> ablations;
};

const Entry& entry(const std::string& name) {
  static const std::vector<Entry> table = {
      {"two", 2, true, {"warm-recovery"}},
      {"one-bit", 2, false, {}},
      {"unbounded", 0, true, {"literal-cond2"}},
      {"swsr", 0, false, {}},
      {"bounded", 3, true, {"naive-unanimity", "no-guard"}},
      {"naive", 0, false, {}},
      {"multivalued", 0, false, {}},
  };
  for (const Entry& e : table)
    if (e.name == name) return e;
  throw ContractViolation("unknown protocol '" + name + "'");
}

}  // namespace

std::unique_ptr<Protocol> make_protocol(
    const std::string& name, int n, const std::string& ablation,
    std::optional<std::int64_t> warm_lease) {
  check_ablation(name, ablation);
  n = process_count(name, n);
  if (name == "two" || name == "one-bit") {
    TwoProcessProtocol::Options o;
    o.buggy_warm_recovery = ablation == "warm-recovery";
    if (warm_lease) o.warm_lease_steps = *warm_lease;
    o.preinitialized_registers = name == "one-bit";
    auto p = std::make_unique<TwoProcessProtocol>(1, o);
    if (o.preinitialized_registers) {
      const std::vector<Value> inputs = sweep_inputs(n);
      p->preset_inputs(inputs[0], inputs[1]);
    }
    return p;
  }
  if (name == "unbounded") {
    UnboundedProtocol::Options o;
    o.literal_condition2 = ablation == "literal-cond2";
    return std::make_unique<UnboundedProtocol>(n, 1, o);
  }
  if (name == "bounded") {
    BoundedThreeProtocol::Options o;
    o.naive_unanimity = ablation == "naive-unanimity";
    o.no_blocker_guard = ablation == "no-guard";
    return std::make_unique<BoundedThreeProtocol>(o);
  }
  if (name == "swsr") return std::make_unique<SwsrUnboundedProtocol>(n);
  if (name == "naive") return std::make_unique<NaiveConsensusProtocol>(n);
  return std::make_unique<MultiValuedProtocol>(n, 15);  // "multivalued"
}

int process_count(const std::string& name, int n) {
  const int fixed = entry(name).fixed_n;
  return fixed > 0 ? fixed : n;
}

void check_ablation(const std::string& name, const std::string& ablation) {
  const std::vector<std::string>& own = entry(name).ablations;
  if (!ablation.empty() &&
      std::find(own.begin(), own.end(), ablation) == own.end())
    throw ContractViolation("unknown ablation '" + ablation +
                            "' for protocol '" + name + "'");
}

void check_sweep_protocol(const std::string& name) {
  if (!entry(name).sweeps)
    throw ContractViolation("protocol '" + name +
                            "' is not served here (two|unbounded|bounded)");
}

std::vector<Value> sweep_inputs(int n) {
  std::vector<Value> inputs;
  inputs.reserve(static_cast<std::size_t>(std::max(n, 0)));
  for (int i = 0; i < n; ++i) inputs.push_back(static_cast<Value>(i & 1));
  return inputs;
}

LaneSchedSpec sched_spec(const std::string& adversary) {
  LaneSchedSpec spec;
  if (adversary == "avoid") {
    spec.kind = LaneSchedSpec::Kind::kAvoid;
  } else if (adversary != "random") {
    throw ContractViolation("unknown adversary '" + adversary +
                            "' (random|avoid)");
  }
  return spec;
}

}  // namespace cil::registry
