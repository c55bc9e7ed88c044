#include "probe.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/two_process.h"
#include "core/unbounded.h"
#include "sched/schedulers.h"
#include "util/check.h"

namespace ladder {

using cil::obs::Json;

void Shape::take_flags(cil::cli::FlagSet& flags) {
  flags.take_string("protocol", protocol);
  flags.take_int("n", n);
  flags.take_string("fault-plan", fault_plan);
}

ShapeRunner::ShapeRunner(const Shape& shape) {
  if (shape.protocol == "two") {
    protocol_ = std::make_unique<cil::TwoProcessProtocol>(1);
  } else {
    CIL_CHECK_MSG(shape.protocol == "unbounded",
                  "ladder_probe: protocol must be two or unbounded");
    protocol_ = std::make_unique<cil::UnboundedProtocol>(shape.n, 1);
  }
  // tools/sweep's inputs: process i proposes i & 1.
  for (int i = 0; i < protocol_->num_processes(); ++i)
    inputs_.push_back(static_cast<cil::Value>(i & 1));
  if (!shape.fault_plan.empty()) {
    plan_ = cil::fault::FaultPlan::parse(shape.fault_plan);
    plan_->validate(protocol_->num_processes());
  }
}

ShapeRunner::~ShapeRunner() = default;

cil::LaneRunOptions ShapeRunner::lane_options() const {
  cil::LaneRunOptions lo;
  lo.lanes = kLanes;
  lo.max_total_steps = kSteps;
  lo.sched = {cil::LaneSchedSpec::Kind::kRandom, 0x1234, 0};
  lo.fault_plan = plan();
  return lo;
}

cil::BatchSummary ShapeRunner::run(const cil::SeedRange& range, int threads,
                                   bool lane) const {
  cil::BatchOptions bo;
  bo.first_seed = range.first_seed;
  bo.num_runs = range.num_runs;
  bo.threads = threads;
  bo.max_total_steps = kSteps;
  bo.fault_plan = plan();
  if (lane) {
    bo.engine = cil::BatchEngine::kLane;
    bo.lanes = kLanes;
    bo.lane_sched = {cil::LaneSchedSpec::Kind::kRandom, 0x1234, 0};
  }
  cil::BatchRunner runner(*protocol_, inputs_);
  // The same scheduler seeding tools/sweep and the service use.
  const cil::SchedulerFactory factory = [] {
    auto s = std::make_shared<cil::RandomScheduler>(0);
    return [s](std::uint64_t seed) -> cil::Scheduler& {
      s->reseed(seed ^ 0x1234);
      return *s;
    };
  };
  return runner.run(bo, factory);
}

Json gate_fields(const cil::BatchSummary& s) {
  Json j = Json::object();
  j["num_runs"] = Json(s.num_runs);
  j["decided_runs"] = Json(s.decided_runs);
  Json decisions = Json::object();
  for (const auto& [value, count] : s.decision_counts)
    decisions[std::to_string(value)] = Json(count);
  j["decision_counts"] = std::move(decisions);
  j["total_steps"] = Json(s.total_steps);
  j["recoveries"] = Json(s.recoveries);
  return j;
}

std::int64_t Tracer::begin(const std::string& name, const std::string& layer,
                           const std::string& op) {
  Span s;
  s.pid = static_cast<int>(::getpid());
  s.id = (static_cast<std::int64_t>(s.pid) << 24) | next_++;
  s.parent = stack_.empty() ? 0 : stack_.back();
  s.name = name;
  s.layer = layer;
  // A span without its own operation id inherits its parent's.
  s.op = op;
  if (s.op.empty() && s.parent != 0)
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it)
      if (it->id == s.parent) {
        s.op = it->op;
        break;
      }
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end(std::int64_t id) {
  const std::int64_t t = now_ns();
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it)
    if (it->id == id) {
      it->end_ns = t;
      break;
    }
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

namespace {

Json span_json(const Tracer::Span& s) {
  Json j = Json::object();
  j["id"] = Json(s.id);
  j["parent"] = Json(s.parent);
  j["name"] = Json(s.name);
  j["layer"] = Json(s.layer);
  j["op"] = Json(s.op);
  j["start_ns"] = Json(s.start_ns);
  j["end_ns"] = Json(s.end_ns);
  j["pid"] = Json(s.pid);
  return j;
}

}  // namespace

void Tracer::write_own(const std::string& path) const {
  if (!on_) return;
  const int self = static_cast<int>(::getpid());
  std::string text;
  for (const Span& s : spans_)
    if (s.pid == self) text += span_json(s).dump() + "\n";
  std::ofstream(path, std::ios::app) << text;
}

void Tracer::absorb(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const Json j = Json::parse(line);
    Span s;
    s.id = j.at("id").as_int();
    s.parent = j.at("parent").as_int();
    s.name = j.at("name").as_string();
    s.layer = j.at("layer").as_string();
    s.op = j.at("op").as_string();
    s.start_ns = j.at("start_ns").as_int();
    s.end_ns = j.at("end_ns").as_int();
    s.pid = static_cast<int>(j.at("pid").as_int());
    spans_.push_back(std::move(s));
  }
}

std::string Tracer::jsonl() const {
  std::string text;
  for (const Span& s : spans_) text += span_json(s).dump() + "\n";
  return text;
}

bool read_text(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

}  // namespace ladder

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: ladder_probe ref|pipeline|layers|jobs|mix [flags]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "ref") return ladder::cmd_ref(argc - 1, argv + 1);
    if (cmd == "pipeline") return ladder::cmd_pipeline(argc - 1, argv + 1);
    if (cmd == "layers") return ladder::cmd_layers(argc - 1, argv + 1);
    if (cmd == "jobs") return ladder::cmd_jobs(argc - 1, argv + 1);
    if (cmd == "mix") return ladder::cmd_mix(argc - 1, argv + 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ladder_probe %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "ladder_probe: unknown command %s\n", cmd.c_str());
  return 2;
}
