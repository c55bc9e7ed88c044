#include "core/unbounded.h"

#include <algorithm>
#include <sstream>

#include "core/a3_rules.h"

namespace cil {

Word UnboundedProtocol::pack(Value pref, std::int64_t num) {
  CIL_EXPECTS(num >= 0);
  Word w = 0;
  w = kPrefField.set(w, pref == kNoValue ? 0 : static_cast<Word>(pref) + 1);
  w = kNumField.set(w, static_cast<Word>(num));
  return w;
}

Value UnboundedProtocol::unpack_pref(Word w) {
  const Word p = kPrefField.get(w);
  return p == 0 ? kNoValue : static_cast<Value>(p - 1);
}

std::int64_t UnboundedProtocol::unpack_num(Word w) {
  return static_cast<std::int64_t>(kNumField.get(w));
}

namespace {

enum class Pc : std::int64_t { kWriteInput = 0, kRead = 1, kCoinWrite = 2 };

using RegValue = a3::RegVal;

class UnboundedProcess final : public Process {
 public:
  UnboundedProcess(ProcessId pid, int n, UnboundedProtocol::Options options)
      : pid_(pid), n_(n), options_(options) {
    seen_.resize(n_);  // index pid_ mirrors our own register
  }

  void init(Value input) override {
    CIL_EXPECTS(input >= 0);
    input_ = input;
    cur_ = {input, 1};  // Figure 2: newreg.pref <- input; newreg.num <- 1
  }

  void step(StepContext& ctx) override {
    CIL_EXPECTS(!decided());
    switch (pc_) {
      case Pc::kWriteInput:
        ctx.write(pid_, UnboundedProtocol::pack(cur_.pref, cur_.num));
        pc_ = Pc::kRead;
        begin_phase();
        break;
      case Pc::kRead: {
        // Read every other register once, in ascending pid order.
        const ProcessId target = read_idx_ < pid_ ? read_idx_ : read_idx_ + 1;
        const Word w = ctx.read(target);
        seen_[target] = {UnboundedProtocol::unpack_pref(w),
                         UnboundedProtocol::unpack_num(w)};
        ++read_idx_;
        if (read_idx_ == n_ - 1) {
          evaluate_phase();  // may decide; otherwise moves to kCoinWrite
        }
        break;
      }
      case Pc::kCoinWrite: {
        // Tails retains the old register value; heads installs the computed
        // one (Figure 2's coin).
        if (ctx.flip()) cur_ = computed_;
        ctx.write(pid_, UnboundedProtocol::pack(cur_.pref, cur_.num));
        pc_ = Pc::kRead;
        begin_phase();
        break;
      }
    }
  }

  bool decided() const override { return decision_ != kNoValue; }
  Value decision() const override {
    CIL_EXPECTS(decided());
    return decision_;
  }
  Value input() const override { return input_; }

  std::vector<std::int64_t> encode_state() const override {
    std::vector<std::int64_t> s = {static_cast<std::int64_t>(pc_), read_idx_,
                                   cur_.pref, cur_.num, old_.pref, old_.num,
                                   computed_.pref, computed_.num, decision_,
                                   input_};
    for (const auto& r : seen_) {
      s.push_back(r.pref);
      s.push_back(r.num);
    }
    return s;
  }

  std::unique_ptr<Process> clone() const override {
    return std::make_unique<UnboundedProcess>(*this);
  }

  /// Crash-recovery entry (called on a freshly init()ed instance): resume
  /// from the persisted own-register word at the top of a new phase.
  void resume_from(Word persisted) {
    const Value pref = UnboundedProtocol::unpack_pref(persisted);
    if (pref == kNoValue) return;  // initial write never landed: cold start
    cur_ = {pref, UnboundedProtocol::unpack_num(persisted)};
    pc_ = Pc::kRead;
    begin_phase();
  }

  /// Back to the freshly-constructed state (input not yet supplied),
  /// keeping seen_ at its capacity; the reset_process fast
  /// path of pooled sweeps.
  void reinit() {
    pc_ = Pc::kWriteInput;
    read_idx_ = 0;
    cur_ = old_ = computed_ = RegValue{};
    seen_.assign(static_cast<std::size_t>(n_), RegValue{});
    input_ = decision_ = kNoValue;
  }

  std::string debug_string() const override {
    std::ostringstream os;
    os << "P" << pid_ << "{pc=" << static_cast<int>(pc_)
       << " pref=" << cur_.pref << " num=" << cur_.num << " dec=" << decision_
       << "}";
    return os.str();
  }

 private:
  void begin_phase() {
    old_ = cur_;  // Figure 2: oldreg <- newreg
    read_idx_ = 0;
  }

  // The decision conditions live in a3_rules.h (shared with the SWSR
  // variant). Noteworthy: condition 2 is LEADER-ONLY by default — the
  // paper's literal wording ("decide on pref of leading processor(s)") also
  // lets trailing processors decide remotely, but that reading is
  // inconsistent: our checker found an execution where a follower certified
  // "everyone else is 2 behind the leader" from a stale read while the
  // supposedly-behind processor was already climbing past the leader with
  // the opposite preference, and the two decisions disagreed (see
  // EXPERIMENTS.md). Section 6's T2 confirms the leader-only intent.
  void evaluate_phase() {
    // Our own register mirrors cur_ (we wrote it last).
    seen_[pid_] = cur_;
    const a3::Outcome out = a3::evaluate_phase(seen_, pid_, old_,
                                               options_.literal_condition2);
    if (out.decide) {
      decision_ = out.decision;
      return;
    }
    computed_ = out.computed;
    CIL_CHECK_MSG(computed_.num <
                      static_cast<std::int64_t>(
                          UnboundedProtocol::kNumField.max_value()),
                  "num field overflow (Theorem 9 says this is astronomically "
                  "unlikely)");
    pc_ = Pc::kCoinWrite;
  }

  ProcessId pid_;
  int n_;
  UnboundedProtocol::Options options_;
  Pc pc_ = Pc::kWriteInput;
  int read_idx_ = 0;
  RegValue cur_;       ///< Figure 2's newreg (== our register's contents)
  RegValue old_;       ///< Figure 2's oldreg
  RegValue computed_;  ///< the "heads" candidate computed after the reads
  std::vector<RegValue> seen_;  ///< last values read, indexed by pid
  Value input_ = kNoValue;
  Value decision_ = kNoValue;
};

}  // namespace

UnboundedProtocol::UnboundedProtocol(int num_processes, Value max_value)
    : UnboundedProtocol(num_processes, max_value, Options()) {}

UnboundedProtocol::UnboundedProtocol(int num_processes, Value max_value,
                                     Options options)
    : n_(num_processes), max_value_(max_value), options_(options) {
  CIL_EXPECTS(num_processes >= 2);
  CIL_EXPECTS(max_value >= 1 &&
              static_cast<Word>(max_value) + 1 <= kPrefField.max_value());
}

std::vector<RegisterSpec> UnboundedProtocol::registers() const {
  std::vector<RegisterSpec> specs;
  specs.reserve(n_);
  for (ProcessId p = 0; p < n_; ++p) {
    RegisterSpec s;
    s.name = std::string("r").append(std::to_string(p));
    s.writers = {p};
    for (ProcessId q = 0; q < n_; ++q)
      if (q != p) s.readers.push_back(q);
    s.width_bits = kPrefField.bits + kNumField.bits;  // "unbounded" — measured
    s.initial = pack(kNoValue, 0);
    specs.push_back(std::move(s));
  }
  return specs;
}

std::unique_ptr<Process> UnboundedProtocol::make_process(ProcessId pid) const {
  CIL_EXPECTS(pid >= 0 && pid < n_);
  return std::make_unique<UnboundedProcess>(pid, n_, options_);
}

bool UnboundedProtocol::reset_process(Process& proc, ProcessId pid) const {
  (void)pid;
  auto* p = dynamic_cast<UnboundedProcess*>(&proc);
  if (p == nullptr) return false;
  p->reinit();
  return true;
}

std::unique_ptr<Process> UnboundedProtocol::recover(
    const RecoveryContext& ctx) const {
  CIL_EXPECTS(ctx.pid >= 0 && ctx.pid < n_);
  CIL_EXPECTS(ctx.own_values.size() == 1);  // r_pid is this pid's only reg
  auto p = std::make_unique<UnboundedProcess>(ctx.pid, n_, options_);
  p->init(ctx.input);
  p->resume_from(ctx.own_values[0]);
  return p;
}

}  // namespace cil
