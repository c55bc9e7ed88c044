#include "sched/simulation.h"

#include <algorithm>
#include <sstream>

namespace cil {

namespace {
/// StepContext wrapper that narrates register ops and coin flips to the
/// simulation's sinks. Purely observational: all checks and effects stay in
/// the wrapped DirectStepContext, and no randomness is consumed, so an
/// observed run is step-for-step identical to an unobserved one.
class ObservingStepContext final : public StepContext {
 public:
  ObservingStepContext(Simulation& sim, StepContext& inner, ProcessId pid,
                       std::int64_t step, std::int64_t total_step,
                       bool register_ops, bool coin_flips)
      : sim_(sim),
        inner_(inner),
        pid_(pid),
        step_(step),
        total_step_(total_step),
        register_ops_(register_ops),
        coin_flips_(coin_flips) {}

  Word read(RegisterId r) override {
    const Word v = inner_.read(r);
    if (register_ops_) emit_op(obs::EventKind::kRegisterRead, r, v);
    return v;
  }

  void write(RegisterId r, Word value) override {
    inner_.write(r, value);
    if (register_ops_) emit_op(obs::EventKind::kRegisterWrite, r, value);
  }

  bool flip() override {
    const bool outcome = inner_.flip();
    if (coin_flips_) {
      obs::Event e;
      e.kind = obs::EventKind::kCoinFlip;
      e.pid = pid_;
      e.step = step_;
      e.total_step = total_step_;
      e.value = outcome ? 1 : 0;
      sim_.emit(e);
    }
    return outcome;
  }

  ProcessId pid() const override { return inner_.pid(); }

 private:
  void emit_op(obs::EventKind kind, RegisterId r, Word value) {
    obs::Event e;
    e.kind = kind;
    e.pid = pid_;
    e.step = step_;
    e.total_step = total_step_;
    e.reg = r;
    e.value = value;
    sim_.emit(e);
  }

  Simulation& sim_;
  StepContext& inner_;
  ProcessId pid_;
  std::int64_t step_;
  std::int64_t total_step_;
  bool register_ops_;
  bool coin_flips_;
};
}  // namespace

Simulation::Simulation(const Protocol& protocol, std::vector<Value> inputs,
                       SimOptions options)
    : protocol_(protocol),
      regs_(protocol.make_registers()),
      rng_(options.seed),
      step_ctx_(regs_, 0, coins_) {
  // One initialization path: construction is a reset of fresh objects, so
  // reset() ≡ fresh construction holds by definition.
  const int n = protocol_.num_processes();
  procs_.reserve(n);
  active_list_.reserve(n);
  for (ProcessId p = 0; p < n; ++p) procs_.push_back(protocol_.make_process(p));
  reset(inputs, options);
}

void Simulation::reset(const std::vector<Value>& inputs, SimOptions options) {
  const int n = protocol_.num_processes();
  CIL_EXPECTS(static_cast<int>(inputs.size()) == n);
  CIL_EXPECTS(options.check_every >= 1);
  options_ = options;
  regs_.reset();
  inputs_.assign(inputs.begin(), inputs.end());
  crashed_.assign(n, false);
  steps_.assign(n, 0);
  crash_total_step_.assign(n, -1);
  decisions_ever_.assign(n, kNoValue);
  activated_.assign(n, 0);
  recoveries_ = 0;
  num_crashed_ = 0;
  schedule_.clear();
  activated_inputs_.clear();
  total_steps_ = 0;
  check_pending_ = false;
  rng_.reseed(options_.seed);
  active_list_.clear();
  for (ProcessId p = 0; p < n; ++p) {
    CIL_EXPECTS(inputs_[p] >= 0);
    if (!protocol_.reset_process(*procs_[p], p))
      procs_[p] = protocol_.make_process(p);
    procs_[p]->init(inputs_[p]);
    if (!procs_[p]->decided()) active_list_.push_back(p);
  }
  // Sinks belong to the run: rebuild from the new options (a stale phase
  // baseline would suppress the first kPhaseChange of the new run).
  sinks_.clear();
  phase_.clear();
  if (options_.obs.sink != nullptr) {
    sinks_.push_back(options_.obs.sink);
    init_phase_baseline();
    emit_active_set(-1);
  }
}

std::int64_t Simulation::phase_of(ProcessId p) const {
  const auto enc = procs_[p]->encode_state();
  return enc.empty() ? 0 : enc[0];
}

void Simulation::init_phase_baseline() {
  if (static_cast<int>(phase_.size()) == num_processes()) return;
  phase_.clear();
  phase_.reserve(num_processes());
  for (ProcessId p = 0; p < num_processes(); ++p)
    phase_.push_back(phase_of(p));
}

void Simulation::attach_sink(obs::EventSink* sink) {
  CIL_EXPECTS(sink != nullptr);
  sinks_.push_back(sink);
  init_phase_baseline();
}

void Simulation::detach_sink(obs::EventSink* sink) {
  std::erase(sinks_, sink);
}

void Simulation::emit(const obs::Event& e) {
  for (obs::EventSink* s : sinks_) s->on_event(e);
}

void Simulation::active_insert(ProcessId p) {
  active_list_.insert(
      std::lower_bound(active_list_.begin(), active_list_.end(), p), p);
}

void Simulation::active_erase(ProcessId p) {
  const auto it =
      std::lower_bound(active_list_.begin(), active_list_.end(), p);
  if (it != active_list_.end() && *it == p) active_list_.erase(it);
}

void Simulation::crash(ProcessId p) {
  CIL_EXPECTS(p >= 0 && p < num_processes());
  // The paper tolerates up to n-1 fail-stop crashes: keep one survivor.
  const int alive = num_processes() - num_crashed_ - (crashed_[p] ? 0 : 1);
  CIL_CHECK_MSG(alive >= 1, "cannot crash the last live processor");
  bool left_active_set = false;
  if (!crashed_[p]) {
    if (!procs_[p]->decided()) {
      active_erase(p);
      left_active_set = true;
    }
    ++num_crashed_;
  }
  crashed_[p] = true;
  crash_total_step_[p] = total_steps_;
  if (!sinks_.empty()) {
    emit(event_of(obs::EventKind::kCrash, p));
    if (left_active_set) emit_active_set(p);
  }
}

bool Simulation::recover(ProcessId p) {
  CIL_EXPECTS(p >= 0 && p < num_processes());
  CIL_CHECK_MSG(crashed_[p], "recover of a processor that is not crashed");
  if (procs_[p]->decided()) return false;

  RecoveryContext& ctx = recovery_ctx_;
  ctx.pid = p;
  ctx.input = inputs_[p];
  ctx.own_registers.clear();
  ctx.own_values.clear();
  const RegisterSpecTable& table = regs_.table();
  for (RegisterId r = 0; r < regs_.size(); ++r) {
    if (table.writer_allowed(r, p)) {
      ctx.own_registers.push_back(r);
      ctx.own_values.push_back(regs_.peek(r));
    }
  }
  ctx.steps_taken = steps_[p];
  ctx.steps_missed = total_steps_ - crash_total_step_[p];

  procs_[p] = protocol_.recover(ctx);
  CIL_CHECK_MSG(procs_[p] != nullptr, "Protocol::recover returned null");
  crashed_[p] = false;
  --num_crashed_;
  if (!procs_[p]->decided()) active_insert(p);
  ++recoveries_;
  if (!sinks_.empty())
    emit(event_of(obs::EventKind::kRecover, p, ctx.steps_missed));
  // A recovered automaton may already be decided (a conservative re-read of
  // a decision register, or a planted bug); announce it and hold it to the
  // same properties as a decision reached by stepping. Recovery is rare, so
  // this check stays eager even under check_every > 1.
  if (!sinks_.empty() && procs_[p]->decided())
    emit(event_of(obs::EventKind::kDecision, p, procs_[p]->decision()));
  if (!sinks_.empty() && !procs_[p]->decided()) emit_active_set(p);
  check_properties_after_step(p);
  return true;
}

bool Simulation::step_once(Scheduler& sched) {
  const SystemView view(*this);
  // Recoveries first: they may be the only way the run can continue (every
  // live processor decided, a crashed one still has a restart pending).
  for (ProcessId p : sched.recoveries(view)) recover(p);
  for (ProcessId p : sched.crashes(view)) crash(p);

  if (active_list_.empty()) {
    // Nothing runnable, but a restart is still scheduled: let global time
    // idle forward one tick so the recovery comes due at its planned step.
    // The run() budget (max_total_steps) still bounds the wait.
    if (sched.recovery_pending(view)) {
      ++total_steps_;
      return true;
    }
    return false;
  }

  const ProcessId p = sched.pick(view);
  CIL_CHECK_MSG(p >= 0 && p < num_processes(), "scheduler picked a bad pid");
  CIL_CHECK_MSG(active(p), "scheduler picked an inactive processor");

  step_ctx_.reset(p);
  std::int64_t faults_before = 0;
  if (sinks_.empty()) [[likely]] {
    procs_[p]->step(step_ctx_);
  } else {
    faults_before = regs_.fault_hook() != nullptr
                        ? regs_.fault_hook()->faults_injected()
                        : 0;
    ObservingStepContext octx(*this, step_ctx_, p, steps_[p] + 1,
                              total_steps_ + 1, options_.obs.register_ops,
                              options_.obs.coin_flips);
    procs_[p]->step(octx);
  }
  CIL_CHECK_MSG(step_ctx_.io_ops() == 1,
                "a step must perform exactly one register op");

  ++steps_[p];
  ++total_steps_;
  if (!activated_[p]) note_activation(p);
  if (options_.record_schedule) schedule_.push_back(p);
  if (!sinks_.empty()) emit_after_step(p, faults_before);

  if (procs_[p]->decided()) {
    active_erase(p);  // p was active when picked, so this is its transition
    if (!sinks_.empty()) emit_active_set(p);
    if (options_.check_every == 1) {
      check_properties_after_step(p);
    } else {
      // Latch now (write-once), defer the property check to the checkpoint.
      if (decisions_ever_[p] == kNoValue)
        decisions_ever_[p] = procs_[p]->decision();
      check_pending_ = true;
    }
  }
  if (check_pending_ && total_steps_ % options_.check_every == 0)
    check_properties_deferred();
  return true;
}

void Simulation::emit_active_set(ProcessId pid) {
  if (!options_.obs.active_set || sinks_.empty()) return;
  obs::Event e;
  e.kind = obs::EventKind::kActiveSet;
  e.pid = pid;
  e.step = pid >= 0 ? steps_[pid] : 0;
  e.total_step = total_steps_;
  e.arg = num_active();
  emit(e);
}

void Simulation::note_activation(ProcessId p) {
  activated_[p] = 1;
  const Value in = inputs_[p];
  if (std::find(activated_inputs_.begin(), activated_inputs_.end(), in) ==
      activated_inputs_.end())
    activated_inputs_.push_back(in);
}

void Simulation::emit_after_step(ProcessId p, std::int64_t faults_before) {
  // Fault delta first (the faults happened inside the step), then the step
  // itself, then its consequences (phase change, decision) — so a consumer
  // replaying the stream sees the same causal order the run had.
  if (regs_.fault_hook() != nullptr) {
    const std::int64_t delta =
        regs_.fault_hook()->faults_injected() - faults_before;
    if (delta > 0) emit(event_of(obs::EventKind::kFaultInjected, p, delta));
  }
  emit(event_of(obs::EventKind::kStep, p));
  if (options_.obs.phase_changes) {
    const std::int64_t ph = phase_of(p);
    if (ph != phase_[p]) {
      phase_[p] = ph;
      emit(event_of(obs::EventKind::kPhaseChange, p, ph));
    }
  }
  if (procs_[p]->decided())
    emit(event_of(obs::EventKind::kDecision, p, procs_[p]->decision()));
}

obs::Event Simulation::event_of(obs::EventKind kind, ProcessId p,
                                std::int64_t arg) const {
  obs::Event e;
  e.kind = kind;
  e.pid = p;
  e.step = steps_[p];
  e.total_step = total_steps_;
  e.arg = arg;
  return e;
}

void Simulation::check_properties_after_step(ProcessId stepped) {
  if (!procs_[stepped]->decided()) return;
  const Value v = procs_[stepped]->decision();

  if (options_.check_consistency) {
    for (ProcessId q = 0; q < num_processes(); ++q) {
      if (q == stepped || !procs_[q]->decided()) continue;
      if (procs_[q]->decision() != v) {
        std::ostringstream os;
        os << "consistency violated: P" << stepped << " decided " << v
           << " but P" << q << " decided " << procs_[q]->decision();
        throw CoordinationViolation(os.str());
      }
    }
    // Decisions are write-once: also check against every decision *ever*
    // announced, so a recovered processor (whose pre-crash Process object is
    // gone) cannot contradict the past — not even its own.
    for (ProcessId q = 0; q < num_processes(); ++q) {
      if (decisions_ever_[q] != kNoValue && decisions_ever_[q] != v) {
        std::ostringstream os;
        os << "consistency violated: P" << stepped << " decided " << v
           << " but P" << q << " had decided " << decisions_ever_[q]
           << (q == stepped ? " before crashing" : "");
        throw CoordinationViolation(os.str());
      }
    }
  }
  if (decisions_ever_[stepped] == kNoValue) decisions_ever_[stepped] = v;

  if (options_.check_nontriviality) check_nontrivial(stepped, v);
}

void Simulation::check_nontrivial(ProcessId p, Value v) const {
  // activated_inputs_ holds the distinct inputs of activated processors,
  // so this scan is over at most |value domain| entries, not n.
  if (std::find(activated_inputs_.begin(), activated_inputs_.end(), v) !=
      activated_inputs_.end())
    return;
  std::ostringstream os;
  os << "nontriviality violated: P" << p << " decided " << v
     << " which is no activated processor's input";
  throw CoordinationViolation(os.str());
}

void Simulation::check_properties_deferred() {
  check_pending_ = false;
  if (options_.check_consistency) {
    ProcessId first = -1;
    for (ProcessId q = 0; q < num_processes(); ++q) {
      if (decisions_ever_[q] == kNoValue) continue;
      if (first < 0) {
        first = q;
      } else if (decisions_ever_[q] != decisions_ever_[first]) {
        std::ostringstream os;
        os << "consistency violated: P" << first << " decided "
           << decisions_ever_[first] << " but P" << q << " decided "
           << decisions_ever_[q];
        throw CoordinationViolation(os.str());
      }
    }
  }
  if (options_.check_nontriviality) {
    for (ProcessId q = 0; q < num_processes(); ++q) {
      if (decisions_ever_[q] != kNoValue)
        check_nontrivial(q, decisions_ever_[q]);
    }
  }
}

void Simulation::flush_property_checks() {
  if (check_pending_) check_properties_deferred();
}

void Simulation::result_into(SimResult& r) const {
  r.decisions.assign(static_cast<std::size_t>(num_processes()), kNoValue);
  r.decision.reset();
  r.all_decided = true;
  for (ProcessId p = 0; p < num_processes(); ++p) {
    if (procs_[p]->decided()) {
      r.decisions[p] = procs_[p]->decision();
      if (!r.decision) r.decision = r.decisions[p];
    } else if (!crashed_[p]) {
      r.all_decided = false;
    }
  }
  r.steps_per_process = steps_;
  r.total_steps = total_steps_;
  r.schedule = schedule_;
  r.max_register_bits = regs_.max_bits_written();
  r.recoveries = recoveries_;
}

void Simulation::run_into(Scheduler& sched, SimResult& out) {
  while (total_steps_ < options_.max_total_steps) {
    if (!step_once(sched)) break;
  }
  flush_property_checks();
  result_into(out);
}

}  // namespace cil
