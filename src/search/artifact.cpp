#include "search/artifact.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "fabric/summary.h"
#include "obs/export.h"
#include "util/check.h"

namespace cil::search {

namespace {

/// An artifact integer stored as an int: range-checked before the cast.
int to_int(const obs::Json& j, const char* what, std::int64_t lo) {
  const std::int64_t v = j.as_int();
  CIL_CHECK_MSG(v >= lo && v <= std::numeric_limits<int>::max(),
                std::string("worst-plan artifact: ") + what + " out of range");
  return static_cast<int>(v);
}

}  // namespace

WorstPlanArtifact make_artifact(const SearchResult& r, std::string protocol,
                                std::string substrate, std::string ablation,
                                std::string search_name, int num_processes,
                                std::vector<Value> inputs) {
  WorstPlanArtifact a;
  a.protocol = std::move(protocol);
  a.substrate = std::move(substrate);
  a.ablation = std::move(ablation);
  a.search = std::move(search_name);
  a.num_processes = num_processes;
  a.inputs = std::move(inputs);
  a.genome = r.best;
  a.fitness = r.best_eval.fitness;
  a.violation = r.best_eval.violation;
  a.violation_what = r.best_eval.violation_what;
  a.evaluations = r.evaluations;
  a.evaluations_to_best = r.evaluations_to_best;
  return a;
}

obs::Json artifact_to_json(const WorstPlanArtifact& a) {
  obs::Json j = obs::Json::object();
  j["artifact"] = kWorstPlanArtifactName;
  j["protocol"] = a.protocol;
  j["substrate"] = a.substrate;
  j["ablation"] = a.ablation;
  j["search"] = a.search;
  j["n"] = a.num_processes;
  j["t"] = a.tolerance;
  j["eval_steps"] = a.eval_steps;
  obs::Json inputs = obs::Json::array();
  for (const Value v : a.inputs) inputs.push_back(static_cast<std::int64_t>(v));
  j["inputs"] = std::move(inputs);
  j["plan"] = a.genome.plan.serialize();
  // Json numbers are doubles (exact only through 2^53); seeds use the full
  // 64 bits, so they travel as decimal strings.
  j["sched_seed"] = std::to_string(a.genome.sched_seed);
  j["fitness"] = a.fitness;
  j["violation"] = a.violation;
  j["violation_what"] = a.violation_what;
  j["evaluations"] = a.evaluations;
  j["evaluations_to_best"] = a.evaluations_to_best;
  return j;
}

WorstPlanArtifact artifact_from_json(const obs::Json& j) {
  CIL_CHECK_MSG(j.is_object(), "worst-plan artifact: not a JSON object");
  const obs::Json* tag = j.find("artifact");
  CIL_CHECK_MSG(tag != nullptr && tag->is_string() &&
                    tag->as_string() == kWorstPlanArtifactName,
                "worst-plan artifact: missing or wrong \"artifact\" tag");
  WorstPlanArtifact a;
  a.protocol = j.at("protocol").as_string();
  a.substrate = j.at("substrate").as_string();
  a.ablation = j.at("ablation").as_string();
  a.search = j.at("search").as_string();
  a.num_processes = to_int(j.at("n"), "n", 0);
  a.tolerance = to_int(j.at("t"), "t", -1);  // -1: Ben-Or's default
  a.eval_steps = j.at("eval_steps").as_int();
  for (const obs::Json& v : j.at("inputs").as_array())
    a.inputs.push_back(to_int(v, "input", 0));
  a.genome.plan = fault::FaultPlan::parse(j.at("plan").as_string());
  a.genome.sched_seed = fabric::parse_seed(j.at("sched_seed").as_string(),
                                           "worst-plan artifact: sched_seed");
  a.fitness = j.at("fitness").as_number();
  a.violation = j.at("violation").as_bool();
  a.violation_what = j.at("violation_what").as_string();
  a.evaluations = j.at("evaluations").as_int();
  a.evaluations_to_best = j.at("evaluations_to_best").as_int();
  return a;
}

bool write_artifact_file(const std::string& path, const WorstPlanArtifact& a) {
  return obs::write_text_file_atomic(path, artifact_to_json(a).dump() + "\n");
}

WorstPlanArtifact load_artifact_file(const std::string& path) {
  std::string text;
  CIL_CHECK_MSG(obs::read_text_file(path, text),
                "cannot open worst-plan artifact: " + path);
  return artifact_from_json(obs::Json::parse(text));
}

ReplayOutcome replay_artifact(const WorstPlanArtifact& a,
                              const Evaluator& eval) {
  ReplayOutcome out;
  out.eval = eval(a.genome);
  out.matches = out.eval.violation == a.violation &&
                (out.eval.violation ||
                 std::abs(out.eval.fitness - a.fitness) < 1e-9);
  return out;
}

}  // namespace cil::search
