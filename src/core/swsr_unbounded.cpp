#include "core/swsr_unbounded.h"

#include <algorithm>
#include <sstream>

#include "core/a3_rules.h"
#include "core/unbounded.h"

namespace cil {

namespace {

// Phases: write the input to every outgoing copy, then loop { read every
// incoming copy; evaluate; coin once; write every outgoing copy }.
enum class Pc : std::int64_t {
  kWriteInputCopies = 0,
  kRead = 1,
  kCoinFirstWrite = 2,
  kWriteMoreCopies = 3,
};

class SwsrUnboundedProcess final : public Process {
 public:
  SwsrUnboundedProcess(const SwsrUnboundedProtocol* parent, ProcessId pid)
      : parent_(parent), pid_(pid), n_(parent->num_processes()) {
    seen_.resize(n_);
    for (ProcessId q = 0; q < n_; ++q)
      if (q != pid_) peers_.push_back(q);
  }

  void init(Value input) override {
    CIL_EXPECTS(input >= 0);
    input_ = input;
    cur_ = {input, 1};
  }

  void step(StepContext& ctx) override {
    CIL_EXPECTS(!decided());
    switch (pc_) {
      case Pc::kWriteInputCopies:
        write_copy(ctx);
        if (copy_idx_ == static_cast<int>(peers_.size())) begin_reads();
        break;
      case Pc::kRead: {
        const ProcessId source = peers_[read_idx_];
        const Word w = ctx.read(parent_->copy_id(source, pid_));
        seen_[source] = {UnboundedProtocol::unpack_pref(w),
                         UnboundedProtocol::unpack_num(w)};
        ++read_idx_;
        if (read_idx_ == static_cast<int>(peers_.size())) evaluate();
        break;
      }
      case Pc::kCoinFirstWrite: {
        // One coin per phase, consumed at the first copy write: heads
        // installs the computed value, tails retains the old one; all n-1
        // copies of this phase then carry the chosen value.
        old_ = cur_;
        if (ctx.flip()) cur_ = computed_;
        copy_idx_ = 0;
        write_copy(ctx);
        pc_ = Pc::kWriteMoreCopies;
        if (copy_idx_ == static_cast<int>(peers_.size())) begin_reads();
        break;
      }
      case Pc::kWriteMoreCopies:
        write_copy(ctx);
        if (copy_idx_ == static_cast<int>(peers_.size())) begin_reads();
        break;
    }
  }

  bool decided() const override { return decision_ != kNoValue; }
  Value decision() const override {
    CIL_EXPECTS(decided());
    return decision_;
  }
  Value input() const override { return input_; }

  std::vector<std::int64_t> encode_state() const override {
    std::vector<std::int64_t> s = {static_cast<std::int64_t>(pc_), copy_idx_,
                                   read_idx_,       cur_.pref,
                                   cur_.num,        old_.pref,
                                   old_.num,        computed_.pref,
                                   computed_.num,   decision_,
                                   input_};
    for (const auto& r : seen_) {
      s.push_back(r.pref);
      s.push_back(r.num);
    }
    return s;
  }

  std::unique_ptr<Process> clone() const override {
    return std::make_unique<SwsrUnboundedProcess>(*this);
  }

  std::string debug_string() const override {
    std::ostringstream os;
    os << "P" << pid_ << "{pc=" << static_cast<int>(pc_)
       << " pref=" << cur_.pref << " num=" << cur_.num << " copy=" << copy_idx_
       << " dec=" << decision_ << "}";
    return os.str();
  }

 private:
  void write_copy(StepContext& ctx) {
    const ProcessId target = peers_[copy_idx_];
    ctx.write(parent_->copy_id(pid_, target),
              UnboundedProtocol::pack(cur_.pref, cur_.num));
    ++copy_idx_;
  }

  void begin_reads() {
    pc_ = Pc::kRead;
    read_idx_ = 0;
  }

  void evaluate() {
    seen_[pid_] = cur_;
    const a3::Outcome out =
        a3::evaluate_phase(seen_, pid_, cur_, /*literal_condition2=*/false);
    if (out.decide) {
      decision_ = out.decision;
      return;
    }
    computed_ = out.computed;
    CIL_CHECK_MSG(computed_.num <
                      static_cast<std::int64_t>(
                          UnboundedProtocol::kNumField.max_value()),
                  "num field overflow");
    pc_ = Pc::kCoinFirstWrite;
  }

  const SwsrUnboundedProtocol* parent_;
  ProcessId pid_;
  int n_;
  std::vector<ProcessId> peers_;
  Pc pc_ = Pc::kWriteInputCopies;
  int copy_idx_ = 0;
  int read_idx_ = 0;
  a3::RegVal cur_;       ///< value all our copies are being brought to
  a3::RegVal old_;       ///< previous phase's value (Figure 2's oldreg)
  a3::RegVal computed_;  ///< the "heads" candidate from the last evaluate
  std::vector<a3::RegVal> seen_;
  Value input_ = kNoValue;
  Value decision_ = kNoValue;
};

}  // namespace

SwsrUnboundedProtocol::SwsrUnboundedProtocol(int num_processes,
                                             Value max_value)
    : n_(num_processes), max_value_(max_value) {
  CIL_EXPECTS(num_processes >= 2);
  CIL_EXPECTS(max_value >= 1 &&
              static_cast<Word>(max_value) + 1 <=
                  UnboundedProtocol::kPrefField.max_value());
}

std::vector<RegisterSpec> SwsrUnboundedProtocol::registers() const {
  std::vector<RegisterSpec> specs;
  specs.reserve(static_cast<std::size_t>(n_) * (n_ - 1));
  for (ProcessId i = 0; i < n_; ++i) {
    for (ProcessId j = 0; j < n_; ++j) {
      if (j == i) continue;
      RegisterSpec s;
      s.name = std::string("r").append(std::to_string(i)).append("to").append(
          std::to_string(j));
      s.writers = {i};
      s.readers = {j};
      s.width_bits = UnboundedProtocol::kPrefField.bits +
                     UnboundedProtocol::kNumField.bits;
      s.initial = UnboundedProtocol::pack(kNoValue, 0);
      CIL_CHECK(static_cast<RegisterId>(specs.size()) == copy_id(i, j));
      specs.push_back(std::move(s));
    }
  }
  return specs;
}

std::unique_ptr<Process> SwsrUnboundedProtocol::make_process(
    ProcessId pid) const {
  CIL_EXPECTS(pid >= 0 && pid < n_);
  return std::make_unique<SwsrUnboundedProcess>(this, pid);
}

std::string SwsrUnboundedProtocol::describe_word(RegisterId, Word w) const {
  const Value pref = UnboundedProtocol::unpack_pref(w);
  if (pref == kNoValue) return "⊥";
  return std::string("(").append(std::to_string(pref)).append(",").append(
      std::to_string(UnboundedProtocol::unpack_num(w))).append(")");
}

}  // namespace cil
