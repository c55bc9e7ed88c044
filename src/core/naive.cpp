#include "core/naive.h"

#include <sstream>

#include "util/bitfield.h"

namespace cil {

namespace {

enum class Pc : std::int64_t { kWriteInput = 0, kRead = 1, kRechooseWrite = 2 };

class NaiveProcess final : public Process {
 public:
  NaiveProcess(ProcessId pid, int n) : pid_(pid), n_(n) {
    seen_.assign(n_, kNoValue);
  }

  void init(Value input) override {
    CIL_EXPECTS(input == 0 || input == 1);  // the paper's a / b
    input_ = input;
    mine_ = input;
  }

  void step(StepContext& ctx) override {
    CIL_EXPECTS(!decided());
    switch (pc_) {
      case Pc::kWriteInput:
        ctx.write(pid_, NaiveConsensusProtocol::encode(mine_));
        pc_ = Pc::kRead;
        begin_phase();
        break;
      case Pc::kRead: {
        const ProcessId target = read_order_[read_idx_];
        seen_[target] = NaiveConsensusProtocol::decode(ctx.read(target));
        ++read_idx_;
        if (read_idx_ == static_cast<int>(read_order_.size())) {
          seen_[pid_] = mine_;
          bool unanimous = true;
          for (const Value v : seen_)
            if (v != mine_) unanimous = false;
          if (unanimous) {
            decision_ = mine_;
          } else {
            pc_ = Pc::kRechooseWrite;
          }
        }
        break;
      }
      case Pc::kRechooseWrite:
        mine_ = ctx.flip() ? 1 : 0;  // fresh random choice, no bias
        ctx.write(pid_, NaiveConsensusProtocol::encode(mine_));
        pc_ = Pc::kRead;
        begin_phase();
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
    std::vector<std::int64_t> s = {static_cast<std::int64_t>(pc_), read_idx_,
                                   mine_, decision_, input_};
    for (const Value v : seen_) s.push_back(v);
    return s;
  }

  std::unique_ptr<Process> clone() const override {
    return std::make_unique<NaiveProcess>(*this);
  }

  /// Back to the freshly-constructed state (input not yet supplied); the
  /// reset_process fast path of pooled sweeps.
  void reinit() {
    pc_ = Pc::kWriteInput;
    read_idx_ = 0;
    read_order_.clear();
    mine_ = kNoValue;
    seen_.assign(static_cast<std::size_t>(n_), kNoValue);
    input_ = decision_ = kNoValue;
  }

  std::string debug_string() const override {
    std::ostringstream os;
    os << "P" << pid_ << "{pc=" << static_cast<int>(pc_) << " mine=" << mine_
       << " dec=" << decision_ << "}";
    return os.str();
  }

 private:
  void begin_phase() {
    read_idx_ = 0;
    read_order_.clear();
    for (ProcessId q = 0; q < n_; ++q)
      if (q != pid_) read_order_.push_back(q);
  }

  ProcessId pid_;
  int n_;
  Pc pc_ = Pc::kWriteInput;
  int read_idx_ = 0;
  std::vector<ProcessId> read_order_;
  Value mine_ = kNoValue;
  std::vector<Value> seen_;
  Value input_ = kNoValue;
  Value decision_ = kNoValue;
};

}  // namespace

NaiveConsensusProtocol::NaiveConsensusProtocol(int num_processes)
    : n_(num_processes) {
  CIL_EXPECTS(num_processes >= 2);
}

std::vector<RegisterSpec> NaiveConsensusProtocol::registers() const {
  std::vector<RegisterSpec> specs;
  for (ProcessId p = 0; p < n_; ++p) {
    RegisterSpec s;
    s.name = std::string("r").append(std::to_string(p));
    s.writers = {p};
    for (ProcessId q = 0; q < n_; ++q)
      if (q != p) s.readers.push_back(q);
    s.width_bits = 2;
    s.initial = encode(kNoValue);
    specs.push_back(std::move(s));
  }
  return specs;
}

std::unique_ptr<Process> NaiveConsensusProtocol::make_process(
    ProcessId pid) const {
  CIL_EXPECTS(pid >= 0 && pid < n_);
  return std::make_unique<NaiveProcess>(pid, n_);
}

bool NaiveConsensusProtocol::reset_process(Process& proc, ProcessId pid) const {
  (void)pid;
  auto* p = dynamic_cast<NaiveProcess*>(&proc);
  if (p == nullptr) return false;
  p->reinit();
  return true;
}

}  // namespace cil
