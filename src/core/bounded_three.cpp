#include "core/bounded_three.h"

#include <algorithm>
#include <sstream>

namespace cil {

Word BoundedThreeProtocol::pack(const Reg& r) {
  Word w = 0;
  w = kNumField.set(w, static_cast<Word>(r.num));
  w = kModeField.set(w, static_cast<Word>(r.mode));
  w = kPrefField.set(w, static_cast<Word>(r.pref));
  w = kSummaryField.set(w, static_cast<Word>(r.summary));
  return w;
}

BoundedThreeProtocol::Reg BoundedThreeProtocol::unpack(Word w) {
  Reg r;
  r.num = static_cast<int>(kNumField.get(w));
  r.mode = static_cast<Mode>(kModeField.get(w));
  r.pref = static_cast<Value>(kPrefField.get(w));
  r.summary = static_cast<Summary>(kSummaryField.get(w));
  return r;
}

BoundedThreeProtocol::Summary BoundedThreeProtocol::summary_of_mask(int mask) {
  switch (mask) {
    case 0b01:
      return Summary::kPureA;
    case 0b10:
      return Summary::kPureB;
    case 0b11:
      return Summary::kMixed;
    default:
      return Summary::kNone;
  }
}

int BoundedThreeProtocol::gap_behind(const Reg& me, const Reg& other) {
  CIL_EXPECTS(me.started());
  if (!other.started()) {
    // ⊥ counts as position 0, exactly like Figure 2's initial num. This is
    // the safe reading: a processor alone at num 1 is only 1 ahead of a
    // sleeping peer, so the sole-leader rule (T2) needs num >= 2 — deciding
    // at num 1 is unsound (a waking peer would start LEVEL with us and
    // could still carry its own preference to a conflicting decision).
    // Numeric distance is meaningful here because a ⊥ peer blocks every
    // boundary crossing, capping our num at 3 before the circle wraps.
    return me.num;
  }
  const int d = (me.num - other.num + 9) % 9;
  // Under the span-<=4 window invariant, d in [1,4] means `other` trails by
  // d; d in [5,8] means `other` is actually ahead.
  return (d >= 1 && d <= 4) ? d : 0;
}

bool BoundedThreeProtocol::ahead_of(const Reg& x, const Reg& y) {
  if (!x.started()) return false;
  if (!y.started()) return true;
  const int d = (x.num - y.num + 9) % 9;
  return d >= 1 && d <= 4;
}

namespace {

using Reg = BoundedThreeProtocol::Reg;
using Mode = BoundedThreeProtocol::Mode;
using Summary = BoundedThreeProtocol::Summary;

enum class Pc : std::int64_t {
  kWriteInput = 0,
  kReadFirst = 1,
  kReadSecond = 2,
  kReRead = 3,
  kWrite = 4,
  kDecWrite = 5,
};

class BoundedThreeProcess final : public Process {
 public:
  BoundedThreeProcess(ProcessId pid, BoundedThreeProtocol::Options options)
      : pid_(pid), options_(options) {
    // The two peers, in pid order; peer_[0] is read first.
    int k = 0;
    for (ProcessId q = 0; q < 3; ++q)
      if (q != pid_) peer_[k++] = q;
  }

  void init(Value input) override {
    CIL_EXPECTS(input == 0 || input == 1);
    input_ = input;
    cur_ = Reg{1, Mode::kVal, input, Summary::kNone};
    held_mask_ = pref_bit(input);
  }

  void step(StepContext& ctx) override {
    CIL_EXPECTS(!decided());
    switch (pc_) {
      case Pc::kWriteInput:
        ctx.write(pid_, BoundedThreeProtocol::pack(cur_));
        pc_ = Pc::kReadFirst;
        break;
      case Pc::kReadFirst:
        seen_[0] = BoundedThreeProtocol::unpack(ctx.read(peer_[0]));
        pc_ = Pc::kReadSecond;
        break;
      case Pc::kReadSecond:
        seen_[1] = BoundedThreeProtocol::unpack(ctx.read(peer_[1]));
        // "The value of the processor ahead is read last": if the first
        // peer is ahead of the second, refresh it with one more read.
        if (BoundedThreeProtocol::ahead_of(seen_[0], seen_[1])) {
          pc_ = Pc::kReRead;
        } else {
          evaluate();
        }
        break;
      case Pc::kReRead:
        seen_[0] = BoundedThreeProtocol::unpack(ctx.read(peer_[0]));
        evaluate();
        break;
      case Pc::kWrite: {
        // The fair coin chooses the computed register value or retains the
        // old one (Figures 1 and 2 do exactly this; the adversary cannot
        // predict the flip). Section summaries are stamped when the landing
        // write crosses a boundary (3→4, 6→7, 9→1).
        if (ctx.flip()) {
          const bool crossing =
              BoundedThreeProtocol::at_boundary(cur_.num) &&
              candidate_.num == BoundedThreeProtocol::succ(cur_.num);
          if (crossing) {
            candidate_.summary =
                BoundedThreeProtocol::summary_of_mask(held_mask_);
            held_mask_ = 0;
          } else {
            candidate_.summary = cur_.summary;
          }
          cur_ = candidate_;
          held_mask_ |= pref_bit(cur_.pref);
        }
        ctx.write(pid_, BoundedThreeProtocol::pack(cur_));
        pc_ = Pc::kReadFirst;
        break;
      }
      case Pc::kDecWrite: {
        cur_.mode = Mode::kDec;
        cur_.pref = intent_;
        ctx.write(pid_, BoundedThreeProtocol::pack(cur_));
        decision_ = intent_;
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
    const auto enc = [](const Reg& r) -> std::int64_t {
      return static_cast<std::int64_t>(BoundedThreeProtocol::pack(r));
    };
    return {static_cast<std::int64_t>(pc_),
            enc(cur_),
            enc(candidate_),
            enc(seen_[0]),
            enc(seen_[1]),
            held_mask_,
            intent_,
            decision_,
            input_};
  }

  std::unique_ptr<Process> clone() const override {
    return std::make_unique<BoundedThreeProcess>(*this);
  }

  /// Crash-recovery entry (called on a freshly init()ed instance): resume
  /// from the persisted own-register word at the top of a phase.
  void resume_from(Word persisted) {
    const Reg r = BoundedThreeProtocol::unpack(persisted);
    if (!r.started()) return;  // initial write never landed: restart cold
    cur_ = r;
    if (r.mode == Mode::kDec) {
      // The dec write and the decision are one step; re-announce it.
      decision_ = r.pref;
      return;
    }
    // What we held within the current section is volatile and lost; claim
    // "both" so the next boundary crossing stamps a mixed summary, which
    // can only block T3 (it needs pure sections), never enable it.
    held_mask_ = 0b11;
    pc_ = Pc::kReadFirst;
  }

  /// Back to the freshly-constructed state (input not yet supplied); the
  /// reset_process fast path of pooled sweeps. peer_ depends only on pid.
  void reinit() {
    pc_ = Pc::kWriteInput;
    cur_ = Reg{};
    candidate_ = Reg{};
    seen_[0] = seen_[1] = Reg{};
    held_mask_ = 0;
    intent_ = input_ = decision_ = kNoValue;
  }

  std::string debug_string() const override {
    std::ostringstream os;
    os << "P" << pid_ << "{pc=" << static_cast<int>(pc_) << " num=" << cur_.num
       << " mode=" << static_cast<int>(cur_.mode) << " pref=" << cur_.pref
       << " sum=" << static_cast<int>(cur_.summary) << " dec=" << decision_
       << "}";
    return os.str();
  }

 private:
  static int pref_bit(Value pref) { return pref == 0 ? 0b01 : 0b10; }

  /// End-of-phase transition function: decides on a write intent from the
  /// two (possibly re-read) peer values plus our own register.
  void evaluate() {
    const Reg& a = seen_[0];
    const Reg& b = seen_[1];

    // T1: adopt any decision marker.
    for (const Reg& r : {a, b}) {
      if (r.started() && r.mode == Mode::kDec) {
        intent_ = r.pref;
        pc_ = Pc::kDecWrite;
        return;
      }
    }

    // T3: all three registers sit in the same section, all three summaries
    // say the previous section was pure-x, and all three current
    // preferences are x. The summary component is essential: current
    // unanimity alone can be faked by a processor whose pending (stale)
    // write still carries the other preference, but such a processor
    // necessarily dirties a summary on its way here (see header comment).
    // The naive_unanimity ablation decides on instantaneous unanimity
    // instead — which is the unsound shortcut bench_ablation demonstrates.
    if (a.started() && b.started() && a.pref == cur_.pref &&
        b.pref == cur_.pref) {
      if (options_.naive_unanimity) {
        intent_ = cur_.pref;
        pc_ = Pc::kDecWrite;
        return;
      }
      if (BoundedThreeProtocol::section_of(a.num) ==
              BoundedThreeProtocol::section_of(cur_.num) &&
          BoundedThreeProtocol::section_of(b.num) ==
              BoundedThreeProtocol::section_of(cur_.num)) {
        const Summary pure =
            cur_.pref == 0 ? Summary::kPureA : Summary::kPureB;
        if (a.summary == pure && b.summary == pure && cur_.summary == pure) {
          intent_ = cur_.pref;
          pc_ = Pc::kDecWrite;
          return;
        }
      }
    }

    const int gap_a = BoundedThreeProtocol::gap_behind(cur_, a);
    const int gap_b = BoundedThreeProtocol::gap_behind(cur_, b);

    // T2: both peers at least 2 steps behind — we are a sole leader — and
    // neither trailing peer is PARKED with a conflicting preference. A
    // parked (pref-mode) register is a live decision certificate in the
    // making: its owner's pending dec write, if any, carries exactly the
    // register's preference, so deciding against it is unsound. (A trailing
    // VAL-mode peer is harmless: to ever threaten us it must climb through
    // the zone where our unanimous leadership forces it to adopt.) When
    // blocked we fall through to the normal move and, once parked, adopt
    // the blocker's preference — see evaluate_pref_mode.
    const bool blocked_a = pref_conflict_blocker(a);
    const bool blocked_b = pref_conflict_blocker(b);
    if (gap_a >= 2 && gap_b >= 2 && !blocked_a && !blocked_b) {
      intent_ = cur_.pref;
      pc_ = Pc::kDecWrite;
      return;
    }

    if (cur_.mode == Mode::kVal) {
      evaluate_val_mode(a, b, gap_a, gap_b);
    } else {
      evaluate_pref_mode(a, b, gap_a, gap_b);
    }
  }

  /// True iff `r` is a parked register whose preference conflicts with
  /// ours — the one kind of trailing peer that may hold (or freeze into) a
  /// decision certificate for the other value.
  bool pref_conflict_blocker(const Reg& r) const {
    if (options_.no_blocker_guard) return false;  // ablation: pre-guard rules
    return r.started() && r.mode == Mode::kPref && r.pref != cur_.pref;
  }

  /// Normal A3 racing (val mode).
  void evaluate_val_mode(const Reg& a, const Reg& b, int gap_a, int gap_b) {
    const int last_gap = std::max(gap_a, gap_b);

    if (BoundedThreeProtocol::at_boundary(cur_.num) && last_gap >= 2) {
      // Park: enter pref mode at this boundary and start running A2 against
      // the other leading processor.
      candidate_ = Reg{cur_.num, Mode::kPref, cur_.pref, cur_.summary};
      pc_ = Pc::kWrite;
      return;
    }

    // A3 move: adopt the leaders' preference if they are unanimous, then
    // advance one step on the circle.
    candidate_ = Reg{BoundedThreeProtocol::succ(cur_.num), Mode::kVal,
                     leaders_unanimous_pref(a, b), cur_.summary};
    pc_ = Pc::kWrite;
  }

  /// Parked at a boundary (pref mode): run A2 against the other leader
  /// until agreement or until the laggard catches up.
  void evaluate_pref_mode(const Reg& a, const Reg& b, int gap_a, int gap_b) {
    const int last_gap = std::max(gap_a, gap_b);

    if (last_gap <= 1) {
      // Everyone caught up: unpark and resume A3.
      candidate_ = Reg{cur_.num, Mode::kVal, cur_.pref, cur_.summary};
      pc_ = Pc::kWrite;
      return;
    }

    // Identify the A2 partner: the peer that is not the laggard. (The
    // laggard itself is handled through the blocker/anchor classification
    // below, which looks at both peers.)
    const Reg& partner = (gap_a >= gap_b) ? b : a;

    // Classify the parked peers. A PARKED register is a standing
    // certificate: decision certificates other than T2's are only frozen by
    // parked processors and always carry the register's preference. So ANY
    // visible parked register with the conflicting preference — trailing,
    // level, or ahead — forbids deciding (its owner may hold a frozen
    // conflicting certificate from an earlier relative position; our
    // adversarial drain tests exhibited exactly the three-body execution
    // where two conflicting certificates froze because only trailing parked
    // registers were checked). Conversely a TRAILING parked register
    // matching our preference, with no conflicting parked register in
    // sight, is an anchor: ours is the only value any live certificate can
    // carry and we may decide outright (this also defeats the ping-pong
    // livelock where agreement on the blocked value was a safe harbor for
    // the adversary).
    bool anchor = false;            // trailing parked register matching
    bool blocker = false;           // ANY parked register conflicting
    bool trailing_blocker = false;  // ... that is also >= 2 behind
    Value blocker_pref = cur_.pref;
    for (const Reg* r : {&a, &b}) {
      if (options_.no_blocker_guard) break;  // ablation: pre-guard rules
      if (!r->started() || r->mode != Mode::kPref) continue;
      const bool trailing = BoundedThreeProtocol::gap_behind(cur_, *r) >= 2;
      if (r->pref == cur_.pref) {
        if (trailing) anchor = true;
      } else {
        blocker = true;
        blocker_pref = r->pref;
        trailing_blocker |= trailing;
      }
    }

    // Anchor decision, blocked by ANY conflicting parked register. (We
    // tried the weaker guard — only trailing conflicts block — on the
    // theory that a level conflicting register could not have certified
    // under a standing trailing anchor; the drain tests refuted it: parked
    // registers are mobile across unpark/repark cycles, so the "same"
    // trailing anchor can have carried each preference at different times
    // and two conflicting certificates can both be anchored on it. See
    // EXPERIMENTS.md.)
    if (anchor && !blocker) {
      intent_ = cur_.pref;
      pc_ = Pc::kDecWrite;
      return;
    }

    if (trailing_blocker) {
      // Drift toward the trailing blocker's preference (consistent with
      // whatever it may have frozen; restores liveness if it crashed while
      // parked). Level blockers are handled by the ordinary A2 coin below —
      // a deterministic drift there would make two level parked processors
      // swap preferences forever.
      candidate_ = Reg{cur_.num, Mode::kPref, blocker_pref, cur_.summary};
      pc_ = Pc::kWrite;
      return;
    }

    // A2 agreement: the other leader (any mode — it may have crashed before
    // parking) holds our preference within one step while the laggard is
    // >= 2 behind and no parked register conflicts. This is the bounded
    // form of Figure 2's second decision condition restricted to the
    // leading pair.
    if (!blocker && partner.started() &&
        BoundedThreeProtocol::gap_behind(cur_, partner) <= 1 &&
        !BoundedThreeProtocol::ahead_of(partner, cur_) &&
        partner.pref == cur_.pref) {
      intent_ = cur_.pref;
      pc_ = Pc::kDecWrite;
      return;
    }

    // A2 conflict step. An ANCHORED processor (trailing parked register
    // matches its preference) keeps it rather than adopting the partner's:
    // the partner, seeing the same trailing register as a conflicting
    // blocker, is drifting toward us, and adopting away from the anchor
    // would let the adversary swap the pair's preferences forever.
    if (anchor) {
      candidate_ = cur_;
      pc_ = Pc::kWrite;
      return;
    }
    // Otherwise: on heads adopt the partner's preference, on tails keep
    // ours (the kWrite coin makes that choice — candidate_ is the "adopt"
    // arm, retaining cur_ is the "keep" arm).
    const Value partner_pref = partner.started() ? partner.pref : cur_.pref;
    candidate_ = Reg{cur_.num, Mode::kPref, partner_pref, cur_.summary};
    pc_ = Pc::kWrite;
  }

  /// The unanimous preference of the leading processors (ours included), or
  /// our own preference if the leaders disagree (Figure 2's rule).
  Value leaders_unanimous_pref(const Reg& a, const Reg& b) const {
    Reg lead = cur_;
    bool unanimous = true;
    for (const Reg& r : {a, b}) {
      if (!r.started()) continue;
      if (BoundedThreeProtocol::ahead_of(r, lead)) {
        lead = r;
        unanimous = true;  // strictly ahead: restart unanimity at r
      } else if (!BoundedThreeProtocol::ahead_of(lead, r) &&
                 r.pref != lead.pref) {
        unanimous = false;  // level with the current leader, different pref
      }
    }
    return unanimous ? lead.pref : cur_.pref;
  }

  ProcessId pid_;
  BoundedThreeProtocol::Options options_;
  ProcessId peer_[2] = {0, 0};
  Pc pc_ = Pc::kWriteInput;
  Reg cur_;        ///< contents of our register (we wrote it last)
  Reg candidate_;  ///< "heads" arm of the next write (summary filled at write)
  Reg seen_[2];    ///< last values read from the peers
  int held_mask_ = 0;  ///< preferences our register held this section
  Value intent_ = kNoValue;  ///< decision value pending its dec write
  Value input_ = kNoValue;
  Value decision_ = kNoValue;
};

}  // namespace

BoundedThreeProtocol::BoundedThreeProtocol() : options_() {}

BoundedThreeProtocol::BoundedThreeProtocol(Options options)
    : options_(options) {}

std::vector<RegisterSpec> BoundedThreeProtocol::registers() const {
  std::vector<RegisterSpec> specs;
  for (ProcessId p = 0; p < 3; ++p) {
    RegisterSpec s;
    s.name = std::string("r").append(std::to_string(p));
    s.writers = {p};
    for (ProcessId q = 0; q < 3; ++q)
      if (q != p) s.readers.push_back(q);
    s.width_bits = kWidthBits;
    s.initial = pack(Reg{});  // num 0 = ⊥
    specs.push_back(std::move(s));
  }
  return specs;
}

std::unique_ptr<Process> BoundedThreeProtocol::make_process(
    ProcessId pid) const {
  CIL_EXPECTS(pid >= 0 && pid < 3);
  return std::make_unique<BoundedThreeProcess>(pid, options_);
}

bool BoundedThreeProtocol::reset_process(Process& proc, ProcessId pid) const {
  (void)pid;
  auto* p = dynamic_cast<BoundedThreeProcess*>(&proc);
  if (p == nullptr) return false;
  p->reinit();
  return true;
}

std::unique_ptr<Process> BoundedThreeProtocol::recover(
    const RecoveryContext& ctx) const {
  CIL_EXPECTS(ctx.pid >= 0 && ctx.pid < 3);
  CIL_EXPECTS(ctx.own_values.size() == 1);  // r_pid is this pid's only reg
  auto p = std::make_unique<BoundedThreeProcess>(ctx.pid, options_);
  p->init(ctx.input);
  p->resume_from(ctx.own_values[0]);
  return p;
}

std::string BoundedThreeProtocol::describe_word(RegisterId, Word w) const {
  const Reg r = unpack(w);
  if (!r.started()) return "⊥";
  static const char* kModes[] = {"val", "pref", "dec"};
  static const char* kSums[] = {"-", "A", "B", "C"};
  std::ostringstream os;
  os << "[" << r.num << "," << kModes[static_cast<int>(r.mode)] << ","
     << (r.pref == 0 ? 'a' : 'b') << "," << kSums[static_cast<int>(r.summary)]
     << "]";
  return os.str();
}

}  // namespace cil
