// The unbounded-register randomized coordination protocol (paper §5,
// Figure 2), generalized from three processors to any n >= 2 (the paper
// defers the n-processor version to its full paper; this is the natural
// generalization its text describes).
//
// Each processor owns one register holding (pref, num). A phase is: read
// every other register (one step each), then — unless a decision condition
// holds — compute the next register value and write it, keeping the old
// value instead with probability 1/2 (the symmetry-breaking coin).
//
// Decision conditions (checked after the last read of a phase):
//   1. every register shows the same pref, or
//   2. every *leading* register (num == max) shows the same pref and every
//      other register trails by >= 2.
// New-value computation: adopt the leading pref if the leaders are
// unanimous, else keep one's own; num increases by one.
//
// Claims reproduced: Theorem 8 (consistency), Theorem 9 (P[num = k] <=
// (3/4)^k — registers are "unbounded" but stay tiny), constant expected
// running time for n = 3, and crash tolerance up to n-1 (X1 in DESIGN.md).
#pragma once

#include <memory>

#include "sched/protocol.h"
#include "util/bitfield.h"

namespace cil {

class UnboundedProtocol final : public Protocol {
 public:
  struct Options {
    /// ABLATION ONLY — reproduces the paper's Figure 2 as LITERALLY worded:
    /// "decide on pref of leading processor(s)" lets a trailing processor
    /// decide the leader's value remotely. That reading is INCONSISTENT
    /// (bench_ablation exhibits the violating execution); the default
    /// leader-only reading matches §6's T2 and passes every check.
    bool literal_condition2 = false;
  };

  explicit UnboundedProtocol(int num_processes, Value max_value = 1);
  UnboundedProtocol(int num_processes, Value max_value, Options options);

  std::string name() const override { return "unbounded (Fig 2)"; }
  int num_processes() const override { return n_; }
  std::vector<RegisterSpec> registers() const override;
  std::unique_ptr<Process> make_process(ProcessId pid) const override;
  /// Allocation-free in-place re-init for pooled sweeps.
  bool reset_process(Process& proc, ProcessId pid) const override;
  /// Conservative re-read recovery: resume with (pref, num) as the own
  /// register still publishes them, at the top of a fresh phase — exactly
  /// the automaton state following the write that produced that register
  /// value, so Theorem 8 consistency carries over. In particular the
  /// monotone num is preserved (a cold restart would illegally reset it).
  std::unique_ptr<Process> recover(const RecoveryContext& ctx) const override;
  std::string describe_word(RegisterId, Word w) const override {
    const Value pref = unpack_pref(w);
    if (pref == kNoValue) return "⊥";
    return std::string("(").append(std::to_string(pref)).append(",").append(
        std::to_string(unpack_num(w))).append(")");
  }

  // Register word layout: pref in the low 8 bits (0 = ⊥, value v = v + 1),
  // num in the next 48 bits. Exposed for adversaries/analysis/benches.
  static constexpr BitField kPrefField{0, 8};
  static constexpr BitField kNumField{8, 48};

  static Word pack(Value pref, std::int64_t num);
  static Value unpack_pref(Word w);
  static std::int64_t unpack_num(Word w);

  Value max_value() const { return max_value_; }
  const Options& options() const { return options_; }

 private:
  int n_;
  Value max_value_;
  Options options_;
};

}  // namespace cil
