// The simulated shared-memory substrate.
//
// A RegisterFile is the set of shared atomic registers of one asynchronous
// system (paper §2): each register has a declared set of readers, a declared
// set of writers, and a declared width in bits. Because the whole execution
// is serialized by the simulation engine (the paper's global-time argument),
// plain words suffice here; atomicity is by construction. What the file adds
// is *enforcement* — single-writer/single-reader discipline and bounded
// width are checked on every access — and *instrumentation*: operation
// counts and per-register value high-water marks, which the benches use to
// measure the (un)boundedness claims of Theorems 9 and Section 6.
//
// Enforcement is hot-path cheap: the static description (specs, permission
// bitmasks, width masks) lives in an immutable RegisterSpecTable built once
// per protocol, so read/write permission is a single bit test and the table
// is shared — not re-parsed, not re-allocated — across the millions of
// short-lived RegisterFiles a bench or search sweep creates.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/bitfield.h"
#include "util/check.h"

namespace cil {

using Word = std::uint64_t;
using RegisterId = int;
using ProcessId = int;

/// Static description of one shared register.
struct RegisterSpec {
  std::string name;
  std::vector<ProcessId> writers;  ///< processes allowed to write
  std::vector<ProcessId> readers;  ///< processes allowed to read
  int width_bits = 64;             ///< declared size; writes must fit
  Word initial = 0;                ///< the paper's ⊥ is encoded per-protocol
};

/// Per-register instrumentation counters.
struct RegisterStats {
  std::int64_t reads = 0;
  std::int64_t writes = 0;
  int max_bits_written = 0;  ///< high-water mark of bit_width(value) over writes
};

/// Immutable, shareable static description of a register file: validated
/// specs plus precomputed reader/writer permission bitmasks (one bit per
/// process, so enforcement is a bit test instead of a std::find over the
/// declared pid vectors) and per-register width masks. Protocols build one
/// table and hand it to every RegisterFile they create.
class RegisterSpecTable {
 public:
  explicit RegisterSpecTable(std::vector<RegisterSpec> specs);

  int size() const { return static_cast<int>(specs_.size()); }
  const RegisterSpec& spec(RegisterId r) const {
    CIL_EXPECTS(r >= 0 && r < size());
    return specs_[r];
  }
  const std::vector<RegisterSpec>& specs() const { return specs_; }

  bool reader_allowed(RegisterId r, ProcessId p) const {
    return test_bit(read_mask_, r, p);
  }
  bool writer_allowed(RegisterId r, ProcessId p) const {
    return test_bit(write_mask_, r, p);
  }
  /// All 1-bits a value may use; a write fits iff (value & ~mask) == 0.
  Word width_mask(RegisterId r) const {
    return width_mask_[static_cast<std::size_t>(r)];
  }

 private:
  bool test_bit(const std::vector<std::uint64_t>& mask, RegisterId r,
                ProcessId p) const {
    const int word = p >> 6;
    if (p < 0 || word >= mask_words_) return false;
    return (mask[static_cast<std::size_t>(r) * mask_words_ + word] >>
            (p & 63)) &
           1u;
  }

  std::vector<RegisterSpec> specs_;
  int mask_words_ = 1;  ///< 64-bit words per register in each mask
  std::vector<std::uint64_t> read_mask_;   ///< size() x mask_words_, flat
  std::vector<std::uint64_t> write_mask_;  ///< size() x mask_words_, flat
  std::vector<Word> width_mask_;
};

/// Fault-injection hook (src/fault): observes every committed write and may
/// replace the value a read returns — the simulator's sibling of the
/// threaded runtime's FaultyRegisters decorator. Implementations must stay
/// within the envelope of SOME register model (e.g. bounded-stale reads
/// model regular-but-not-atomic registers); the stored value itself is
/// never corrupted, so snapshot/restore and the model checker see ground
/// truth.
class RegisterFaultHook {
 public:
  virtual ~RegisterFaultHook() = default;
  virtual void on_write(RegisterId r, ProcessId p, Word value) = 0;
  virtual Word on_read(RegisterId r, ProcessId p, Word actual) = 0;
  /// Running tally of faults served so far. The simulation engine polls the
  /// delta after each step to emit kFaultInjected observability events.
  virtual std::int64_t faults_injected() const { return 0; }
};

class RegisterFile {
 public:
  explicit RegisterFile(std::vector<RegisterSpec> specs);
  /// Share an already-built table (the fast path Protocol::make_registers
  /// uses); only the word values and stats are per-instance.
  explicit RegisterFile(std::shared_ptr<const RegisterSpecTable> table);

  int size() const { return table_->size(); }

  /// Atomic read by process `p`. Enforces the reader set. Inline: it sits
  /// under every simulated step.
  Word read(RegisterId r, ProcessId p) {
    check_id(r);
    CIL_CHECK_MSG(table_->reader_allowed(r, p),
                  "process not in reader set of " + table_->spec(r).name);
    ++stats_[r].reads;
    if (fault_hook_ != nullptr) [[unlikely]]
      return fault_hook_->on_read(r, p, values_[r]);
    return values_[r];
  }

  /// Atomic write by process `p`. Enforces the writer set and the width.
  void write(RegisterId r, ProcessId p, Word value) {
    check_id(r);
    CIL_CHECK_MSG(table_->writer_allowed(r, p),
                  "process not in writer set of " + table_->spec(r).name);
    CIL_CHECK_MSG((value & ~table_->width_mask(r)) == 0,
                  "write exceeds declared width of " + table_->spec(r).name);
    ++stats_[r].writes;
    stats_[r].max_bits_written =
        std::max(stats_[r].max_bits_written, bit_width_u64(value));
    values_[r] = value;
    ++write_version_;
    if (fault_hook_ != nullptr) [[unlikely]]
      fault_hook_->on_write(r, p, value);
  }

  /// Unchecked read for schedulers/analysers (they are outside the model and
  /// the adaptive adversary is allowed to see everything).
  Word peek(RegisterId r) const;

  /// Re-initialize to the freshly-constructed state — initial values, zeroed
  /// stats, write_version 0, no fault hook — keeping the shared spec table
  /// and all allocations. The pooling path of Simulation::reset.
  void reset();

  const RegisterSpec& spec(RegisterId r) const { return table_->spec(r); }
  const RegisterStats& stats(RegisterId r) const;
  /// The shared static description (specs + permission/width masks).
  const RegisterSpecTable& table() const { return *table_; }

  /// Largest bit width written to any register so far (Theorem 9 probe).
  int max_bits_written() const;
  std::int64_t total_reads() const;
  std::int64_t total_writes() const;
  /// Monotone count of committed writes — a cheap change-detector for
  /// lookahead caches (identical value => identical register contents,
  /// because the file only changes through write()/restore(), and restore
  /// bumps it too).
  std::int64_t write_version() const { return write_version_; }

  /// Snapshot/restore of register contents only (stats are not part of the
  /// configuration); used by the model checker to branch executions.
  std::vector<Word> snapshot() const { return values_; }
  void restore(const std::vector<Word>& snap);

  /// Install (or clear, with nullptr) a fault hook. Not owned; the caller
  /// keeps it alive for the lifetime of the simulation.
  void set_fault_hook(RegisterFaultHook* hook) { fault_hook_ = hook; }
  RegisterFaultHook* fault_hook() const { return fault_hook_; }

 private:
  void check_id(RegisterId r) const { CIL_EXPECTS(r >= 0 && r < size()); }

  std::shared_ptr<const RegisterSpecTable> table_;
  std::vector<Word> values_;
  std::vector<RegisterStats> stats_;
  std::int64_t write_version_ = 0;
  RegisterFaultHook* fault_hook_ = nullptr;
};

}  // namespace cil
