#include "sched/lane_engine.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <optional>
#include <sstream>

#include "fault/sim_faults.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/simd.h"

namespace cil {

namespace {

constexpr std::uint64_t rotl64(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// Figure 1's default-mode register codec (TwoProcessProtocol::encode /
/// decode). The SoA kernel owns a copy because it reimplements the whole
/// automaton; Protocol::lane_soa_two_process is the promise that this codec
/// and program match the protocol instance.
constexpr Word lane_encode(Value v) {
  return v == kNoValue ? 0 : static_cast<Word>(v) + 1;
}
constexpr Value lane_decode(Word w) {
  return w == 0 ? kNoValue : static_cast<Value>(w - 1);
}

// ---------------------------------------------------------------------------
// SIMD xoshiro256** batch kernels.
//
// The round loop consumes exactly one bit per advanced lane — bit 0 of the
// xoshiro256** output, which survives the odd-multiplier ** finalizer as
// bit 57 of s1*5 (see the automaton comments below) — so the kernels return
// the advanced lanes' bits packed into one word, bit l = lane l. s1*5 is
// computed as (s1 << 2) + s1: there is no 64-bit vector multiply below
// AVX-512, and shift+add vectorizes everywhere.
//
// advance_n_masked blends: lanes whose mask element is 0 keep their state
// unchanged and report bit 0. This is what preserves per-lane bit-identity
// when only some lanes consume a word this round (coin flips, fault-plan
// idle ticks) — a kept lane's next draw is still its next stream word.
// ---------------------------------------------------------------------------

template <int N>
[[gnu::always_inline]] inline simd::u64x<N> advance_n(std::uint64_t* s0p,
                                                      std::uint64_t* s1p,
                                                      std::uint64_t* s2p,
                                                      std::uint64_t* s3p) {
  using V = simd::u64x<N>;
  V s0 = V::load(s0p), s1 = V::load(s1p), s2 = V::load(s2p), s3 = V::load(s3p);
  const V bit = (((s1 << 2) + s1) >> 57) & V::splat(1);
  const V t = s1 << 17;
  s2 = s2 ^ s0;
  s3 = s3 ^ s1;
  s1 = s1 ^ s2;
  s0 = s0 ^ s3;
  s2 = s2 ^ t;
  s3 = simd::rotl(s3, 45);
  s0.store(s0p);
  s1.store(s1p);
  s2.store(s2p);
  s3.store(s3p);
  return bit;
}

template <int N>
[[gnu::always_inline]] inline simd::u64x<N> advance_n_masked(
    std::uint64_t* s0p, std::uint64_t* s1p, std::uint64_t* s2p,
    std::uint64_t* s3p, simd::u64x<N> m) {
  using V = simd::u64x<N>;
  const V o0 = V::load(s0p), o1 = V::load(s1p), o2 = V::load(s2p),
          o3 = V::load(s3p);
  V s0 = o0, s1 = o1, s2 = o2, s3 = o3;
  const V bit = (((s1 << 2) + s1) >> 57) & V::splat(1);
  const V t = s1 << 17;
  s2 = s2 ^ s0;
  s3 = s3 ^ s1;
  s1 = s1 ^ s2;
  s0 = s0 ^ s3;
  s2 = s2 ^ t;
  s3 = simd::rotl(s3, 45);
  ((s0 & m) | (o0 & ~m)).store(s0p);
  ((s1 & m) | (o1 & ~m)).store(s1p);
  ((s2 & m) | (o2 & ~m)).store(s2p);
  ((s3 & m) | (o3 & ~m)).store(s3p);
  return bit & m;
}

/// Per-lane 0 / ~0 mask vector from the low N bits of `chunk`.
template <int N>
[[gnu::always_inline]] inline simd::u64x<N> mask_vec(unsigned chunk) {
  std::uint64_t mm[N];
  for (int j = 0; j < N; ++j)
    mm[j] = (chunk >> j) & 1u ? ~std::uint64_t{0} : std::uint64_t{0};
  return simd::u64x<N>::load(mm);
}

template <int N>
[[gnu::always_inline]] inline std::uint64_t advance_all_impl(
    std::uint64_t* s0, std::uint64_t* s1, std::uint64_t* s2, std::uint64_t* s3,
    int W) {
  std::uint64_t bits = 0;
  int l = 0;
  for (; l + N <= W; l += N) {
    const auto b = advance_n<N>(s0 + l, s1 + l, s2 + l, s3 + l);
    for (int j = 0; j < N; ++j) bits |= b.lane(j) << (l + j);
  }
  for (; l < W; ++l)
    bits |= advance_n<1>(s0 + l, s1 + l, s2 + l, s3 + l).v << l;
  return bits;
}

template <int N>
[[gnu::always_inline]] inline std::uint64_t advance_masked_impl(
    std::uint64_t* s0, std::uint64_t* s1, std::uint64_t* s2, std::uint64_t* s3,
    int W, std::uint64_t mask) {
  constexpr unsigned kFull = (1u << N) - 1;
  std::uint64_t bits = 0;
  int l = 0;
  for (; l + N <= W; l += N) {
    const unsigned chunk = static_cast<unsigned>(mask >> l) & kFull;
    if (chunk == 0) continue;  // whole chunk keeps its state: skip
    if (chunk == kFull) {
      const auto b = advance_n<N>(s0 + l, s1 + l, s2 + l, s3 + l);
      for (int j = 0; j < N; ++j) bits |= b.lane(j) << (l + j);
    } else {
      const auto b = advance_n_masked<N>(s0 + l, s1 + l, s2 + l, s3 + l,
                                         mask_vec<N>(chunk));
      for (int j = 0; j < N; ++j) bits |= b.lane(j) << (l + j);
    }
  }
  for (; l < W; ++l) {
    if ((mask >> l & 1u) != 0)
      bits |= advance_n<1>(s0 + l, s1 + l, s2 + l, s3 + l).v << l;
  }
  return bits;
}

// Width wrappers: plain functions the runtime dispatch can take addresses
// of. The width-4 bodies are compiled with a per-function AVX2 target (the
// baseline build stays SSE2-clean) and only ever selected behind
// simd::runtime_max_width()'s __builtin_cpu_supports guard.
std::uint64_t advance_all_w1(std::uint64_t* s0, std::uint64_t* s1,
                             std::uint64_t* s2, std::uint64_t* s3, int W) {
  return advance_all_impl<1>(s0, s1, s2, s3, W);
}
std::uint64_t advance_masked_w1(std::uint64_t* s0, std::uint64_t* s1,
                                std::uint64_t* s2, std::uint64_t* s3, int W,
                                std::uint64_t mask) {
  return advance_masked_impl<1>(s0, s1, s2, s3, W, mask);
}

#if !defined(CIL_DISABLE_SIMD) && (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__aarch64__))
#define CIL_LANE_HAVE_W2 1
std::uint64_t advance_all_w2(std::uint64_t* s0, std::uint64_t* s1,
                             std::uint64_t* s2, std::uint64_t* s3, int W) {
  return advance_all_impl<2>(s0, s1, s2, s3, W);
}
std::uint64_t advance_masked_w2(std::uint64_t* s0, std::uint64_t* s1,
                                std::uint64_t* s2, std::uint64_t* s3, int W,
                                std::uint64_t mask) {
  return advance_masked_impl<2>(s0, s1, s2, s3, W, mask);
}
#endif

#if !defined(CIL_DISABLE_SIMD) && (defined(__GNUC__) || defined(__clang__)) && \
    defined(__x86_64__)
#define CIL_LANE_HAVE_W4 1
__attribute__((target("avx2"))) std::uint64_t advance_all_w4(
    std::uint64_t* s0, std::uint64_t* s1, std::uint64_t* s2, std::uint64_t* s3,
    int W) {
  return advance_all_impl<4>(s0, s1, s2, s3, W);
}
__attribute__((target("avx2"))) std::uint64_t advance_masked_w4(
    std::uint64_t* s0, std::uint64_t* s1, std::uint64_t* s2, std::uint64_t* s3,
    int W, std::uint64_t mask) {
  return advance_masked_impl<4>(s0, s1, s2, s3, W, mask);
}
#endif

struct LaneKernels {
  std::uint64_t (*advance_all)(std::uint64_t*, std::uint64_t*, std::uint64_t*,
                               std::uint64_t*, int);
  std::uint64_t (*advance_masked)(std::uint64_t*, std::uint64_t*,
                                  std::uint64_t*, std::uint64_t*, int,
                                  std::uint64_t);
};

LaneKernels lane_kernels_for(int width) {
  switch (width) {
#ifdef CIL_LANE_HAVE_W4
    case 4:
      return {advance_all_w4, advance_masked_w4};
#endif
#ifdef CIL_LANE_HAVE_W2
    case 2:
      return {advance_all_w2, advance_masked_w2};
#endif
    default:
      return {advance_all_w1, advance_masked_w1};
  }
}

/// Plans the SoA fault kernel can represent natively. Everything else —
/// stalls, word faults, multi-crash plans (whose survivor-rule diagnostics
/// the kernel does not replicate), more than one recovery event per crash
/// victim (whose double-recover ContractViolation it does not replicate),
/// out-of-range pids — diverges to the scalar fallback, which reproduces
/// the scalar engine's behavior and diagnostics exactly.
bool lane_plan_supported(const fault::FaultPlan& plan) {
  if (!plan.stalls.empty() || plan.registers.any_word_faults()) return false;
  if (plan.crashes.size() > 1) return false;
  if (plan.recoveries.size() > 32) return false;
  for (const fault::CrashEvent& c : plan.crashes)
    if (c.pid < 0 || c.pid >= 2 || c.at_step < 0) return false;
  int matching = 0;
  for (const fault::RecoveryEvent& r : plan.recoveries) {
    if (r.pid < 0 || r.pid >= 2 || r.delay < 0) return false;
    if (!plan.crashes.empty() && r.pid == plan.crashes[0].pid) ++matching;
  }
  return matching <= 1;
}

}  // namespace

/// The lockstep state block: one column per lane, every field SoA so a
/// round's touches stay within a handful of cache lines per array. PRNG
/// states are the exact xoshiro256** words a scalar Rng(seed) holds —
/// word k of lane l lives at s[k][l].
struct LaneEngine::Soa {
  Soa(std::shared_ptr<const RegisterSpecTable> table, int lanes)
      : W(lanes), regs(std::move(table), lanes) {
    for (auto& s : sim_s) s.assign(static_cast<std::size_t>(W), 0);
    for (auto& s : sch_s) s.assign(static_cast<std::size_t>(W), 0);
    pc.assign(2 * static_cast<std::size_t>(W), 0);
    mine.assign(2 * static_cast<std::size_t>(W), kNoValue);
    seen.assign(2 * static_cast<std::size_t>(W), kNoValue);
    dec.assign(2 * static_cast<std::size_t>(W), kNoValue);
    steps.assign(2 * static_cast<std::size_t>(W), 0);
    active.assign(static_cast<std::size_t>(W), 0);
    total.assign(static_cast<std::size_t>(W), 0);
    seed.assign(static_cast<std::size_t>(W), 0);
    schedule.resize(static_cast<std::size_t>(W));
    crashed.assign(static_cast<std::size_t>(W), 0);
    crash_pending.assign(static_cast<std::size_t>(W), 0);
    rec_live.assign(static_cast<std::size_t>(W), 0);
    rec_armed.assign(static_cast<std::size_t>(W), 0);
    recov.assign(static_cast<std::size_t>(W), 0);
  }

  /// Expand `s` into lane `lane` of a 4-word SoA xoshiro state, exactly as
  /// Xoshiro256's constructor would (SplitMix64 expansion + all-zero guard).
  static void seed_state(std::array<std::vector<std::uint64_t>, 4>& st,
                         int lane, std::uint64_t s) {
    SplitMix64 sm(s);
    std::uint64_t w[4];
    for (auto& x : w) x = sm.next();
    if ((w[0] | w[1] | w[2] | w[3]) == 0) w[0] = 1;
    for (int k = 0; k < 4; ++k) st[k][static_cast<std::size_t>(lane)] = w[k];
  }

  int W;
  LaneRegisterFile regs;
  std::array<std::vector<std::uint64_t>, 4> sim_s;  ///< coin stream
  std::array<std::vector<std::uint64_t>, 4> sch_s;  ///< scheduler stream
  // Per (process, lane), process-major: index p * W + lane.
  // pc/active are word-typed on purpose: char-typed elements (a
  // previous int8_t draft) may alias ANY store under the strict-aliasing
  // rules, so every write through them forced the compiler to reload every
  // other hot pointer — measurably slower than the few bytes saved.
  std::vector<std::int32_t> pc;  ///< 0 write-input, 1 read, 2 coin-write
  std::vector<Value> mine;
  std::vector<Value> seen;
  std::vector<Value> dec;        ///< kNoValue = undecided
  std::vector<std::int64_t> steps;
  // Per lane.
  std::vector<std::uint32_t> active;  ///< bit p: P_p runnable (not decided/crashed)
  std::vector<std::int64_t> total;
  std::vector<std::uint64_t> seed;
  std::vector<std::vector<ProcessId>> schedule;
  // Fault-lane cursors over the shared plan (zeroed unless a fault run
  // arms them; see run_soa_impl<.., kFaults=true>). Events are indexed by
  // their position in FaultPlan::recoveries; the bitmask caps that at 32.
  std::vector<std::uint32_t> crashed;        ///< bit p: P_p currently crashed
  std::vector<std::uint8_t> crash_pending;   ///< plan's crash not yet fired
  std::vector<std::uint32_t> rec_live;       ///< bit e: event not yet consumed
  std::vector<std::uint32_t> rec_armed;      ///< bit e: matching crash fired
  std::vector<std::int64_t> rec_due;         ///< per (event, lane): e*W + lane
  std::vector<std::int64_t> recov;           ///< recoveries fired
};

LaneEngine::LaneEngine(const Protocol& protocol, std::vector<Value> inputs)
    : protocol_(protocol), inputs_(std::move(inputs)) {
  CIL_EXPECTS(static_cast<int>(inputs_.size()) == protocol_.num_processes());

  // The SoA kernel's setup-time validation: the protocol must claim the
  // Figure 1 default-mode automaton, and the word-wide checks RegisterFile
  // performs per access must hold for every access site the kernel will
  // ever execute — P_p writes register p and reads register 1-p, with
  // encoded preferences drawn from {inputs} ∪ {adopted peer inputs}. The
  // sites and specs are identical in every lane, so this is one check per
  // site, not per lane per step. Anything failing here diverges to the
  // scalar path, which reproduces the scalar engine's diagnostics.
  if (protocol_.lane_soa_two_process() && protocol_.num_processes() == 2) {
    const RegisterSpecTable& t = *protocol_.shared_spec_table();
    bool ok = t.size() == 2;
    for (ProcessId p = 0; ok && p < 2; ++p) {
      ok = t.writer_allowed(p, p) && t.reader_allowed(1 - p, p) &&
           inputs_[static_cast<std::size_t>(p)] >= 0 &&
           (lane_encode(inputs_[static_cast<std::size_t>(p)]) &
            ~t.width_mask(p)) == 0;
    }
    two_process_default_mode_ = ok;
  }
}

LaneEngine::~LaneEngine() = default;

bool LaneEngine::soa_supported(const LaneRunOptions& options) const {
  if (!(two_process_default_mode_ && options.scalar_run == nullptr &&
        options.sched.kind == LaneSchedSpec::Kind::kRandom &&
        options.obs.sink == nullptr))
    return false;
  if (options.fault_plan == nullptr) return true;
  // Fault lanes additionally need the protocol's recovery to be the
  // conservative re-read the kernel implements, and the plan to be
  // representable by per-lane cursors.
  return protocol_.lane_soa_conservative_recovery() &&
         lane_plan_supported(*options.fault_plan);
}

int LaneEngine::selected_simd_width(const LaneRunOptions& options) const {
  if (!soa_supported(options)) return 1;
  const int cap = simd::runtime_max_width();
  const int w =
      options.simd_width != 0 ? options.simd_width : simd::active_width();
  return std::min(w, cap);
}

bool LaneEngine::run(std::uint64_t first_seed, std::int64_t num_runs,
                     const LaneRunOptions& options,
                     const LaneHarvest& harvest) {
  CIL_EXPECTS(num_runs >= 0);
  CIL_EXPECTS(options.lanes >= 1);
  CIL_EXPECTS(harvest != nullptr);
  CIL_EXPECTS(options.simd_width == 0 || options.simd_width == 1 ||
              options.simd_width == 2 || options.simd_width == 4);
  // A custom scalar runner owns its whole rig, fault injection included.
  CIL_EXPECTS(options.fault_plan == nullptr || options.scalar_run == nullptr);
  failed_run_index_ = -1;
  if (num_runs == 0) return true;
  return soa_supported(options)
             ? run_soa(first_seed, num_runs, options, harvest)
             : run_scalar(first_seed, num_runs, options, harvest);
}

bool LaneEngine::run_soa(std::uint64_t first_seed, std::int64_t num_runs,
                         const LaneRunOptions& options,
                         const LaneHarvest& harvest) {
  const bool faults = options.fault_plan != nullptr;
  if (options.record_schedule)
    return faults ? run_soa_impl<true, true>(first_seed, num_runs, options,
                                             harvest)
                  : run_soa_impl<true, false>(first_seed, num_runs, options,
                                              harvest);
  if (faults)
    return run_soa_impl<false, true>(first_seed, num_runs, options, harvest);
  // The bitsliced kernel packs every value field into one bit per lane,
  // which needs binary preferences; the codec admits wider inputs, and
  // those keep the column kernel.
  if (((inputs_[0] | inputs_[1]) >> 1) == 0)
    return run_soa_sliced(first_seed, num_runs, options, harvest);
  return run_soa_impl<false, false>(first_seed, num_runs, options, harvest);
}

namespace {

/// Vertical (bit-plane) counters for the bitsliced kernel: plane k holds
/// bit k of all 64 lanes' counts, so counting a masked set of lanes up by
/// one is a ripple-carry across planes — the carry word usually dies after
/// a plane or two — instead of up to 64 scalar increments.
struct BitPlanes {
  std::array<std::uint64_t, 64> plane{};  ///< counts < 2^64 by construction
  int used = 0;                           ///< planes ever touched

  void add(std::uint64_t mask) {
    std::uint64_t carry = mask;
    int k = 0;
    while (carry != 0) {
      const std::uint64_t t = plane[static_cast<std::size_t>(k)];
      plane[static_cast<std::size_t>(k)] = t ^ carry;
      carry &= t;
      ++k;
    }
    if (k > used) used = k;
  }
  std::int64_t read(int lane) const {
    std::int64_t v = 0;
    for (int k = 0; k < used; ++k)
      v |= static_cast<std::int64_t>(plane[static_cast<std::size_t>(k)] >>
                                         lane &
                                     1u)
           << k;
    return v;
  }
  void clear_lane(int lane) {
    const std::uint64_t keep = ~(std::uint64_t{1} << lane);
    for (int k = 0; k < used; ++k) plane[static_cast<std::size_t>(k)] &= keep;
  }
};

}  // namespace

// The fault-free sweep kernel, BITSLICED: each per-lane automaton field is
// one bit in a 64-bit plane (bit l = lane l), so a lockstep round of the
// Figure 1 automaton — scheduler pick, read/decide, coin adoption, write —
// is a few dozen word-wide boolean ops retiring all W lanes at once,
// instead of a branchy per-lane pass. Only the PRNG streams stay in column
// form (they are full 64-bit words), batch-advanced by the SIMD kernels;
// everything the automaton consumes from them is one bit per lane, which
// is exactly the packed word those kernels return.
//
// The encoding leans on facts the ctor and run_soa established: this is
// Figure 1's two-process default-mode automaton (pc ∈ {write-input, read,
// coin-write} fits two plane bits; exactly one process steps per live lane
// per round, so the two per-process selection masks partition the live
// set), and the preference domain is binary (value planes are one bit; a
// register word is encode(v) = v+1 ∈ {1,2}, so max_register_bits collapses
// to two "ever wrote" planes). Per-process step counts live in vertical
// counters; a lane's total is just (current round − fill round), because a
// live fault-free lane steps exactly once per round.
//
// Bit-identity with the scalar engine holds because the streams advance
// exactly as a scalar run consumes them — one scheduler word per live lane
// per round (single-active picks included), one coin word per coin-write
// step — and the plane formulas transliterate run_soa_impl's per-lane
// branches, which engine_golden_test pins per lane against Simulation.
bool LaneEngine::run_soa_sliced(std::uint64_t first_seed,
                                std::int64_t num_runs,
                                const LaneRunOptions& options,
                                const LaneHarvest& harvest) {
  const int W = static_cast<int>(std::clamp<std::int64_t>(
      std::min<std::int64_t>(options.lanes, num_runs), 1, 64));
  if (soa_ == nullptr || soa_->W != W)
    soa_ = std::make_unique<Soa>(protocol_.shared_spec_table(), W);
  Soa& s = *soa_;
  const LaneKernels kern = lane_kernels_for(selected_simd_width(options));

  std::uint64_t* const g0 = s.sch_s[0].data();
  std::uint64_t* const g1 = s.sch_s[1].data();
  std::uint64_t* const g2 = s.sch_s[2].data();
  std::uint64_t* const g3 = s.sch_s[3].data();
  std::uint64_t* const c0 = s.sim_s[0].data();
  std::uint64_t* const c1 = s.sim_s[1].data();
  std::uint64_t* const c2 = s.sim_s[2].data();
  std::uint64_t* const c3 = s.sim_s[3].data();

  // The automaton, one bit per lane per field. pcA/pcB encode pc (00
  // write-input, 01 read, 10 coin-write); valW/valV are P_p's register
  // (written flag + decoded value); wrote1/wrote2 are the register
  // high-water mark; ever[p] feeds the nontriviality "activated" test.
  std::uint64_t pcA[2] = {0, 0}, pcB[2] = {0, 0};
  std::uint64_t mine[2] = {0, 0}, seen[2] = {0, 0};
  std::uint64_t decF[2] = {0, 0}, decV[2] = {0, 0};
  std::uint64_t valW[2] = {0, 0}, valV[2] = {0, 0};
  std::uint64_t act[2] = {0, 0}, ever[2] = {0, 0};
  std::uint64_t wrote1 = 0, wrote2 = 0;
  BitPlanes steps[2];
  std::int64_t start_round[64] = {};
  const std::uint64_t in[2] = {inputs_[0] != 0 ? ~std::uint64_t{0} : 0,
                               inputs_[1] != 0 ? ~std::uint64_t{0} : 0};

  const std::int64_t max_total_steps = options.max_total_steps;
  std::int64_t round = 0;
  std::int64_t next_budget = std::numeric_limits<std::int64_t>::max();

  const auto cancel_requested = [&] {
    return options.cancel != nullptr &&
           options.cancel->load(std::memory_order_relaxed);
  };

  const auto refill = [&](int lane, std::uint64_t seed) {
    const std::uint64_t bit = std::uint64_t{1} << lane;
    for (int p = 0; p < 2; ++p) {
      pcA[p] &= ~bit;
      pcB[p] &= ~bit;
      mine[p] = (mine[p] & ~bit) | (in[p] & bit);
      seen[p] &= ~bit;
      decF[p] &= ~bit;
      decV[p] &= ~bit;
      valW[p] &= ~bit;
      valV[p] &= ~bit;
      act[p] |= bit;
      ever[p] &= ~bit;
      steps[p].clear_lane(lane);
    }
    wrote1 &= ~bit;
    wrote2 &= ~bit;
    start_round[lane] = round;
    next_budget = std::min(next_budget, round + max_total_steps);
    s.seed[static_cast<std::size_t>(lane)] = seed;
    Soa::seed_state(s.sim_s, lane, seed);
    Soa::seed_state(s.sch_s, lane, seed ^ options.sched.seed_xor);
  };

  const auto harvest_lane = [&](int lane) {
    const std::uint64_t bit = std::uint64_t{1} << lane;
    const Value dbuf[2] = {(decF[0] & bit) != 0
                               ? static_cast<Value>(decV[0] >> lane & 1)
                               : kNoValue,
                           (decF[1] & bit) != 0
                               ? static_cast<Value>(decV[1] >> lane & 1)
                               : kNoValue};
    const std::int64_t sbuf[2] = {steps[0].read(lane), steps[1].read(lane)};
    LaneRunView v;
    v.seed = s.seed[static_cast<std::size_t>(lane)];
    v.total_steps = round - start_round[lane];
    v.steps_p0 = sbuf[0];
    v.steps_p1 = sbuf[1];
    v.recoveries = 0;
    v.max_register_bits = (wrote2 & bit) != 0 ? 2 : (wrote1 & bit) != 0 ? 1 : 0;
    v.all_decided = (decF[0] & decF[1] & bit) != 0;
    v.decision = dbuf[0] != kNoValue ? dbuf[0] : dbuf[1];
    v.decisions = dbuf;
    v.steps_per_process = sbuf;
    v.num_processes = 2;
    harvest(v);
  };

  std::int64_t next_run = 0;
  std::int64_t harvested = 0;
  std::uint64_t live = 0;
  bool cancelled = cancel_requested();
  for (int lane = 0; lane < W && next_run < num_runs && !cancelled; ++lane) {
    refill(lane, first_seed + static_cast<std::uint64_t>(next_run++));
    live |= std::uint64_t{1} << lane;
  }

  while (live != 0) {
    ++round;
    // One scheduler word per live lane (advance_all also turns dead
    // columns, unobservably). For both-active lanes the drawn bit IS the
    // pick; single-active lanes select arithmetically — run_soa_impl's
    // pick math as plane selects.
    const std::uint64_t pick = kern.advance_all(g0, g1, g2, g3, W);
    const std::uint64_t both = act[0] & act[1];
    const std::uint64_t sel1 = live & ((both & pick) | (~both & act[1]));
    const std::uint64_t sel0 = live & ~sel1;

    // Coin words for exactly the lanes whose selected process sits at the
    // coin-write pc; the masked advance keeps every other coin column.
    const std::uint64_t coin_need = (sel0 & pcB[0]) | (sel1 & pcB[1]);
    const std::uint64_t coin =
        coin_need != 0 ? kern.advance_masked(c0, c1, c2, c3, W, coin_need) : 0;

    std::uint64_t dmask[2];
    const auto step_p = [&](const int p, const int q, const std::uint64_t mp) {
      const std::uint64_t m1 = mp & pcA[p];    // read steps
      const std::uint64_t m02 = mp & ~pcA[p];  // write steps (pc 0 or 2)
      // Coin-write: tails (coin bit 0) adopt the seen peer value first.
      const std::uint64_t adopt = m02 & pcB[p] & ~coin;
      mine[p] = (mine[p] & ~adopt) | (seen[p] & adopt);
      // Write own register. encode(v) = v+1, so any write raises the
      // high-water mark to 1 bit and a write of preference 1 to 2 bits.
      valW[p] |= m02;
      valV[p] = (valV[p] & ~m02) | (mine[p] & m02);
      wrote1 |= m02;
      wrote2 |= m02 & mine[p];
      // Read r_q: decide on agreement or ⊥, else remember the peer value
      // and escalate to the coin-write pc. (The peer planes valW[q]/valV[q]
      // were only touched at the OTHER selection mask's lanes, disjoint
      // from mp, so the order of the two step_p calls is immaterial.)
      const std::uint64_t agree = ~valW[q] | ~(valV[q] ^ mine[p]);
      const std::uint64_t d = m1 & agree;
      decF[p] |= d;
      decV[p] = (decV[p] & ~d) | (mine[p] & d);
      act[p] &= ~d;
      const std::uint64_t e = m1 & ~agree;
      seen[p] = (seen[p] & ~e) | (valV[q] & e);
      pcA[p] = (pcA[p] & ~e) | m02;  // reads escalate to 2, writes to 1
      pcB[p] = (pcB[p] | e) & ~m02;
      steps[p].add(mp);
      ever[p] |= mp;
      dmask[p] = d;
    };
    step_p(0, 1, sel0);
    step_p(1, 0, sel1);

    // Decision events are the only place the coordination properties can
    // newly fail; both violation masks are almost always zero.
    const std::uint64_t dec_now = dmask[0] | dmask[1];
    std::uint64_t viol_c = 0, viol_n = 0;
    if (dec_now != 0) {
      if (options.check_consistency)
        viol_c = dec_now & decF[0] & decF[1] & (decV[0] ^ decV[1]);
      if (options.check_nontriviality) {
        // v = the freshly-decided value plane; a processor "activated"
        // iff it ever stepped (the decider itself just did).
        const std::uint64_t v = (dmask[0] & decV[0]) | (dmask[1] & decV[1]);
        const std::uint64_t ok =
            (ever[0] & ~(v ^ in[0])) | (ever[1] & ~(v ^ in[1]));
        viol_n = dec_now & ~ok;
      }
    }

    // Harvest: both decided, or the step budget ran out. The budget check
    // is lazy — a lane's total is (round - start_round), so one threshold
    // round guards all lanes and the per-lane scan runs only when some
    // lane could actually be over.
    std::uint64_t hm = live & ~(act[0] | act[1]);
    if (round >= next_budget) {
      next_budget = std::numeric_limits<std::int64_t>::max();
      for (std::uint64_t m = live; m != 0; m &= m - 1) {
        const int lane = std::countr_zero(m);
        const std::int64_t due = start_round[lane] + max_total_steps;
        if (round >= due)
          hm |= std::uint64_t{1} << lane;
        else
          next_budget = std::min(next_budget, due);
      }
    }

    // Ascending lane order interleaves throws and harvests exactly as the
    // per-lane pass would: earlier lanes' finished runs are delivered
    // before a later lane's violation aborts the sweep.
    for (std::uint64_t m = hm | viol_c | viol_n; m != 0; m &= m - 1) {
      const int lane = std::countr_zero(m);
      const std::uint64_t bit = std::uint64_t{1} << lane;
      if (((viol_c | viol_n) & bit) != 0) {
        failed_run_index_ = static_cast<std::int64_t>(
            s.seed[static_cast<std::size_t>(lane)] - first_seed);
        const int p = (dmask[1] & bit) != 0 ? 1 : 0;
        const Value v = static_cast<Value>(decV[p] >> lane & 1);
        std::ostringstream os;
        if ((viol_c & bit) != 0) {
          os << "consistency violated: P" << p << " decided " << v << " but P"
             << (1 - p) << " decided "
             << static_cast<Value>(decV[1 - p] >> lane & 1);
        } else {
          os << "nontriviality violated: P" << p << " decided " << v
             << " which is no activated processor's input";
        }
        throw CoordinationViolation(os.str());
      }
      harvest_lane(lane);
      ++harvested;
      cancelled = cancelled || cancel_requested();
      if (!cancelled && next_run < num_runs) {
        refill(lane, first_seed + static_cast<std::uint64_t>(next_run++));
      } else {
        live &= ~bit;
      }
    }
  }
  return harvested == num_runs;
}

template <bool kRecordSchedule, bool kFaults>
bool LaneEngine::run_soa_impl(std::uint64_t first_seed, std::int64_t num_runs,
                              const LaneRunOptions& options,
                              const LaneHarvest& harvest) {
  // W lanes, one bit each in the live mask; the mask type caps W at 64.
  const int W = static_cast<int>(std::clamp<std::int64_t>(
      std::min<std::int64_t>(options.lanes, num_runs), 1, 64));
  if (soa_ == nullptr || soa_->W != W)
    soa_ = std::make_unique<Soa>(protocol_.shared_spec_table(), W);
  Soa& s = *soa_;
  const LaneKernels kern = lane_kernels_for(selected_simd_width(options));

  // Fault-plan unpacking (kFaults only). Eligibility (lane_plan_supported)
  // already capped the plan at one crash event and one matching recovery.
  const fault::FaultPlan* const plan = options.fault_plan;
  int E = 0;
  bool have_crash = false;
  ProcessId crash_pid = 0;
  std::int64_t crash_at = 0;
  if constexpr (kFaults) {
    E = static_cast<int>(plan->recoveries.size());
    have_crash = !plan->crashes.empty();
    if (have_crash) {
      crash_pid = plan->crashes[0].pid;
      crash_at = plan->crashes[0].at_step;
    }
    s.rec_due.assign(static_cast<std::size_t>(E) * static_cast<std::size_t>(W),
                     0);
  }

  const auto cancel_requested = [&] {
    return options.cancel != nullptr &&
           options.cancel->load(std::memory_order_relaxed);
  };

  const auto refill = [&](int lane, std::uint64_t seed) {
    const auto l = static_cast<std::size_t>(lane);
    s.regs.reset_lane(lane);
    for (ProcessId p = 0; p < 2; ++p) {
      const std::size_t i = static_cast<std::size_t>(p * W) + l;
      s.pc[i] = 0;  // Pc::kWriteInput
      s.mine[i] = inputs_[static_cast<std::size_t>(p)];
      s.seen[i] = kNoValue;
      s.dec[i] = kNoValue;
      s.steps[i] = 0;
    }
    s.active[l] = 3;
    s.total[l] = 0;
    s.seed[l] = seed;
    s.schedule[l].clear();
    if constexpr (kFaults) {
      s.crashed[l] = 0;
      s.crash_pending[l] = have_crash ? 1 : 0;
      s.rec_live[l] =
          E >= 32 ? ~std::uint32_t{0} : ((std::uint32_t{1} << E) - 1);
      s.rec_armed[l] = 0;
      s.recov[l] = 0;
      // rec_due keeps stale words; unarmed events never read them.
    }
    Soa::seed_state(s.sim_s, lane, seed);
    Soa::seed_state(s.sch_s, lane, seed ^ options.sched.seed_xor);
  };

  const auto harvest_lane = [&](int lane) {
    const auto l = static_cast<std::size_t>(lane);
    const Value dbuf[2] = {s.dec[l], s.dec[static_cast<std::size_t>(W) + l]};
    const std::int64_t sbuf[2] = {s.steps[l],
                                  s.steps[static_cast<std::size_t>(W) + l]};
    // Scalar result() semantics: all_decided counts only non-crashed
    // processors (a crashed-undecided one does not block it), and a decided
    // processor stays decided through a later crash.
    const std::uint32_t cr = kFaults ? s.crashed[l] : 0;
    LaneRunView v;
    v.seed = s.seed[l];
    v.total_steps = s.total[l];
    v.steps_p0 = sbuf[0];
    v.steps_p1 = sbuf[1];
    v.recoveries = kFaults ? s.recov[l] : 0;
    v.max_register_bits = s.regs.max_bits_written(lane);
    v.all_decided = (dbuf[0] != kNoValue || (cr & 1u) != 0) &&
                    (dbuf[1] != kNoValue || (cr & 2u) != 0);
    v.decision = dbuf[0] != kNoValue ? dbuf[0] : dbuf[1];
    v.decisions = dbuf;
    v.steps_per_process = sbuf;
    v.num_processes = 2;
    v.schedule = s.schedule[l].data();
    v.schedule_len = static_cast<std::int64_t>(s.schedule[l].size());
    harvest(v);
  };

  std::int64_t next_run = 0;
  std::int64_t harvested = 0;
  std::uint64_t live = 0;
  const std::int64_t max_total_steps = options.max_total_steps;
  bool cancelled = cancel_requested();
  for (int lane = 0; lane < W && next_run < num_runs && !cancelled; ++lane) {
    refill(lane, first_seed + static_cast<std::uint64_t>(next_run++));
    live |= std::uint64_t{1} << lane;
  }

  const auto harvest_refill = [&](int lane) {
    harvest_lane(lane);
    ++harvested;
    cancelled = cancelled || cancel_requested();
    if (!cancelled && next_run < num_runs) {
      refill(lane, first_seed + static_cast<std::uint64_t>(next_run++));
    } else {
      live &= ~(std::uint64_t{1} << lane);
    }
  };

  // Raw hot-path views, hoisted once. None of these vectors reallocates
  // inside the round loop (schedule[] grows, but owns separate storage), so
  // the round loop runs on plain pointers instead of re-deriving
  // vector-begin indirections after every store.
  std::uint64_t* const g0 = s.sch_s[0].data();
  std::uint64_t* const g1 = s.sch_s[1].data();
  std::uint64_t* const g2 = s.sch_s[2].data();
  std::uint64_t* const g3 = s.sch_s[3].data();
  std::uint64_t* const c0 = s.sim_s[0].data();
  std::uint64_t* const c1 = s.sim_s[1].data();
  std::uint64_t* const c2 = s.sim_s[2].data();
  std::uint64_t* const c3 = s.sim_s[3].data();
  std::int32_t* const pc = s.pc.data();
  Value* const mine = s.mine.data();
  Value* const seen = s.seen.data();
  Value* const dec = s.dec.data();
  std::int64_t* const steps = s.steps.data();
  std::uint32_t* const active = s.active.data();
  std::int64_t* const total = s.total.data();
  std::uint32_t* const crashed = s.crashed.data();
  std::uint8_t* const crash_pending = s.crash_pending.data();
  std::uint32_t* const rec_live = s.rec_live.data();
  std::uint32_t* const rec_armed = s.rec_armed.data();
  std::int64_t* const rec_due = s.rec_due.data();
  std::int64_t* const recov = s.recov.data();
  // Register plane: register-major with exactly W lanes per row, so P_p's
  // own register for lane l sits at the same flat index i = p*W + l the
  // per-process state arrays use, and the peer's at (1-p)*W + l.
  Word* const vals = s.regs.values_data();
  Word* const maxw = s.regs.max_word_data();

  /// step_once's empty-active-list tiebreak: idle the clock iff an armed
  /// recovery for a still-crashed pid is not yet due.
  const auto recovery_pending = [&](std::size_t l) {
    std::uint32_t pe = rec_live[l] & rec_armed[l];
    while (pe != 0) {
      const auto e = static_cast<std::size_t>(std::countr_zero(pe));
      pe &= pe - 1;
      if ((crashed[l] >> plan->recoveries[e].pid & 1u) != 0 &&
          total[l] < rec_due[e * static_cast<std::size_t>(W) + l])
        return true;
    }
    return false;
  };

  while (live != 0) {
    // One lockstep round: a step for every lane that steps this round,
    // batch-advancing the PRNG streams across lanes first. A lane whose
    // run finished is harvested and refilled in place, so the round never
    // idles a lane on tail imbalance; the refilled lane takes its first
    // step (and, under faults, processes its first events) next round.
    std::uint64_t step_mask;
    if constexpr (kFaults) {
      // Phase A, per lane: fault events in step_once order — recoveries
      // first (they may be the only way the run continues), then the crash
      // event — then the empty-active tiebreak: idle tick if a recovery is
      // still due, otherwise the run is over.
      step_mask = 0;
      for (std::uint64_t m = live; m != 0; m &= m - 1) {
        const int lane = std::countr_zero(m);
        const auto l = static_cast<std::size_t>(lane);
        std::uint32_t cand = rec_live[l] & rec_armed[l];
        while (cand != 0) {
          const auto e = static_cast<std::size_t>(std::countr_zero(cand));
          cand &= cand - 1;
          const ProcessId rp = plan->recoveries[e].pid;
          if ((crashed[l] >> rp & 1u) == 0) {
            rec_live[l] &= ~(std::uint32_t{1} << e);  // back already: consumed
            continue;
          }
          if (total[l] < rec_due[e * static_cast<std::size_t>(W) + l])
            continue;
          rec_live[l] &= ~(std::uint32_t{1} << e);  // fires (or is swallowed)
          const std::size_t i =
              static_cast<std::size_t>(rp) * static_cast<std::size_t>(W) + l;
          if (dec[i] == kNoValue) {
            // Conservative re-read (Protocol::recover for Figure 1): the
            // persisted own word IS the live preference; ⊥ means the
            // initial write never landed, so restart cold. Own-step count
            // persists across the outage, exactly as Simulation keeps it.
            const Word w = vals[i];
            if (w == 0) {
              s.pc[i] = 0;
              s.mine[i] = inputs_[static_cast<std::size_t>(rp)];
            } else {
              s.pc[i] = 1;
              s.mine[i] = lane_decode(w);
            }
            s.seen[i] = kNoValue;
            crashed[l] &= ~(std::uint32_t{1} << rp);
            active[l] |= std::uint32_t{1} << rp;
            ++recov[l];
          }
          // A decided pid swallows the event: it stays crashed and the
          // recovery is not counted (Simulation::recover returns false).
        }
        if (crash_pending[l] != 0) {
          if ((crashed[l] >> crash_pid & 1u) != 0) {
            crash_pending[l] = 0;  // duplicate-plan guard: erased unfired
          } else if (steps[static_cast<std::size_t>(crash_pid) *
                               static_cast<std::size_t>(W) +
                           l] >= crash_at) {
            crash_pending[l] = 0;
            if (dec[static_cast<std::size_t>(crash_pid) *
                        static_cast<std::size_t>(W) +
                    l] == kNoValue)
              active[l] &= ~(std::uint32_t{1} << crash_pid);
            crashed[l] |= std::uint32_t{1} << crash_pid;
            std::uint32_t arm = rec_live[l] & ~rec_armed[l];
            while (arm != 0) {
              const auto e = static_cast<std::size_t>(std::countr_zero(arm));
              arm &= arm - 1;
              if (plan->recoveries[e].pid == crash_pid) {
                rec_armed[l] |= std::uint32_t{1} << e;
                rec_due[e * static_cast<std::size_t>(W) + l] =
                    total[l] + plan->recoveries[e].delay;
              }
            }
          }
        }
        if (active[l] == 0) {
          // No step this round: either an idle tick (clock moves, no PRNG
          // word is consumed) or the end of the run.
          if (recovery_pending(l) && ++total[l] < max_total_steps) continue;
          harvest_refill(lane);
          continue;
        }
        step_mask |= std::uint64_t{1} << lane;
      }
      if (step_mask == 0) continue;
    } else {
      step_mask = live;
    }

    // The scheduler picks, batched. A scalar RandomScheduler draws exactly
    // one below(|active|) word per pick, and for |active| in {1, 2} the
    // rejection threshold is 0, so that word maps to active_list[w %
    // |active|] directly: both active -> pid = w & 1; one active -> the
    // lone active pid, arithmetically (active mask 1 -> P0, 2 -> P1).
    // The draw is the xoshiro256** recurrence over the SoA state; the **
    // output finalizer collapses to its low bit — bit 0 of rotl(s1*5, 7)
    // * 9 is bit 0 of rotl(s1*5, 7) (9 is odd), i.e. bit 57 of s1*5 —
    // since nothing else of the word is ever consumed. Fault-free rounds
    // advance ALL W columns unmasked: every live lane consumes exactly one
    // word per round, and retired/refilled columns hold dead state whose
    // extra advance is unobservable.
    const std::uint64_t pick_bits =
        kFaults ? kern.advance_masked(g0, g1, g2, g3, W, step_mask)
                : kern.advance_all(g0, g1, g2, g3, W);

    // Coin words, masked to the lanes whose picked processor is at the
    // coin-write step. Computable before any lane steps because lanes are
    // independent and each steps at most once per round — pc[] for lane l
    // cannot change before l's own step.
    std::uint64_t coin_mask = 0;
    for (std::uint64_t m = step_mask; m != 0; m &= m - 1) {
      const int lane = std::countr_zero(m);
      const auto l = static_cast<std::size_t>(lane);
      const unsigned a = active[l];
      const unsigned w = static_cast<unsigned>(pick_bits >> lane) & 1u;
      const ProcessId p =
          a == 3u ? static_cast<ProcessId>(w) : static_cast<ProcessId>(a >> 1);
      if (pc[static_cast<std::size_t>(p) * static_cast<std::size_t>(W) + l] ==
          2)
        coin_mask |= std::uint64_t{1} << lane;
    }
    const std::uint64_t coin_bits =
        coin_mask != 0 ? kern.advance_masked(c0, c1, c2, c3, W, coin_mask) : 0;

    for (std::uint64_t m = step_mask; m != 0; m &= m - 1) {
      const int lane = std::countr_zero(m);
      const auto l = static_cast<std::size_t>(lane);
      const unsigned w = static_cast<unsigned>(pick_bits >> lane) & 1u;
      const unsigned a = active[l];
      const ProcessId p =
          a == 3u ? static_cast<ProcessId>(w) : static_cast<ProcessId>(a >> 1);
      const std::size_t i = static_cast<std::size_t>(p) *
                            static_cast<std::size_t>(W) + l;
      bool decided_now = false;
      unsigned na = a;
      const std::int32_t c = pc[i];
      if (c == 1) {  // (1) read r_other; decide on agreement or ⊥
        const Value v = lane_decode(
            vals[static_cast<std::size_t>(1 - p) * static_cast<std::size_t>(W) +
                 l]);
        if (v == mine[i] || v == kNoValue) {
          dec[i] = mine[i];
          na = a & ~(1u << p);
          active[l] = na;
          decided_now = true;
        } else {
          seen[i] = v;  // only a coin step ever reads it back
          pc[i] = 2;
        }
      } else {
        // (2) coin: heads rewrite, tails adopt; then write. (0) is the same
        // minus the coin — the initial write of the input preference. The
        // coin is bit 0 of one full xoshiro draw from the lane's sim
        // stream (Rng::flip consumes one word, keeps bit 0), batch-drawn
        // above for exactly the lanes at pc == 2.
        if (c != 0) {
          if ((static_cast<unsigned>(coin_bits >> lane) & 1u) == 0)
            mine[i] = seen[i];
        }
        const Word wv = lane_encode(mine[i]);
        vals[i] = wv;
        if (wv > maxw[l]) maxw[l] = wv;
        pc[i] = 1;
      }
      ++steps[i];
      const std::int64_t tl = ++total[l];
      if constexpr (kRecordSchedule) s.schedule[l].push_back(p);

      if (decided_now) {
        // Decision events are the only place the coordination properties
        // can newly fail, so the checks live here (rare) instead of on the
        // step path. check_every only defers *detection* in the scalar
        // engine; decisions latch identically, so eager checking here
        // changes nothing for any run that passes.
        const Value v = s.dec[i];
        const Value other =
            s.dec[static_cast<std::size_t>(1 - p) *
                      static_cast<std::size_t>(W) + l];
        if (options.check_consistency && other != kNoValue && other != v) {
          failed_run_index_ =
              static_cast<std::int64_t>(s.seed[l] - first_seed);
          std::ostringstream os;
          os << "consistency violated: P" << p << " decided " << v
             << " but P" << (1 - p) << " decided " << other;
          throw CoordinationViolation(os.str());
        }
        if (options.check_nontriviality) {
          // "P_p activated" == "P_p took >= 1 step": the decider has just
          // stepped, so its own count is already > 0, matching the scalar
          // engine's note_activation-before-check ordering.
          const bool ok =
              (steps[l] > 0 && v == inputs_[0]) ||
              (steps[static_cast<std::size_t>(W) + l] > 0 && v == inputs_[1]);
          if (!ok) {
            failed_run_index_ =
                static_cast<std::int64_t>(s.seed[l] - first_seed);
            std::ostringstream os;
            os << "nontriviality violated: P" << p << " decided " << v
               << " which is no activated processor's input";
            throw CoordinationViolation(os.str());
          }
        }
      }

      if constexpr (kFaults) {
        // Only the step budget ends a fault run here. An empty active set
        // is NOT the end yet: the scalar loop always enters one more
        // step_once, which processes events BEFORE concluding — a due
        // recovery fires (possibly reviving the run), a pending crash can
        // still fire and arm a future recovery (idling the clock until it
        // is consumed). Phase A replicates exactly that, so the lane stays
        // live and the next round's phase A idles, revives, or harvests.
        if (tl >= max_total_steps) harvest_refill(lane);
      } else {
        if (na == 0 || tl >= max_total_steps) harvest_refill(lane);
      }
    }
  }
  return harvested == num_runs;
}

Scheduler& SpecScheduler::arm(std::uint64_t seed) {
  if (spec_.kind == LaneSchedSpec::Kind::kRandom) {
    random_.reseed(seed ^ spec_.seed_xor);
    return random_;
  }
  avoid_.reseed(seed + spec_.seed_add);
  return avoid_;
}

bool LaneEngine::run_scalar(std::uint64_t first_seed, std::int64_t num_runs,
                            const LaneRunOptions& options,
                            const LaneHarvest& harvest) {
  // The divergence path: identical math to a scalar BatchRunner worker —
  // one pooled Simulation reset per seed, one pooled scheduler re-armed per
  // seed, the fault plan (if any) applied through a per-seed
  // FaultPlanScheduler — so "lane diverged" can never mean "result differs".
  std::optional<Simulation> sim;
  SpecScheduler spec_sched(options.sched);
  std::optional<fault::FaultPlanScheduler> plan_sched;
  std::optional<fault::SimRegisterFaults> reg_faults;

  for (std::int64_t i = 0; i < num_runs; ++i) {
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed))
      return false;
    const std::uint64_t seed = first_seed + static_cast<std::uint64_t>(i);

    SimResult r;
    try {
      if (options.scalar_run != nullptr) {
        r = options.scalar_run(seed);
      } else {
        SimOptions so;
        so.seed = seed;
        so.max_total_steps = options.max_total_steps;
        so.check_every = options.check_every;
        so.check_consistency = options.check_consistency;
        so.check_nontriviality = options.check_nontriviality;
        so.record_schedule = options.record_schedule;
        so.obs = options.obs;
        if (!sim) {
          sim.emplace(protocol_, inputs_, so);
        } else {
          sim->reset(inputs_, so);
        }
        Scheduler* sched = &spec_sched.arm(seed);
        if (options.fault_plan != nullptr) {
          // Fresh event cursors per seed; the plan itself is shared. Word
          // faults re-arm per run too (reset() clears the hook), keyed by
          // the plan's own seed so every run sees the same fault stream —
          // the cross-engine contract BatchRunner's scalar workers follow.
          plan_sched.emplace(*sched, *options.fault_plan);
          sched = &*plan_sched;
          if (options.fault_plan->registers.any_word_faults()) {
            reg_faults.emplace(options.fault_plan->registers,
                               options.fault_plan->seed, sim->regs().size());
            sim->mutable_regs().set_fault_hook(&*reg_faults);
          }
        }
        r = sim->run(*sched);
      }
    } catch (...) {
      failed_run_index_ = i;
      throw;
    }

    LaneRunView v;
    v.seed = seed;
    v.total_steps = r.total_steps;
    if (!r.steps_per_process.empty()) {
      v.steps_p0 = r.steps_per_process[0];
      if (r.steps_per_process.size() > 1) v.steps_p1 = r.steps_per_process[1];
    }
    v.recoveries = r.recoveries;
    v.max_register_bits = r.max_register_bits;
    v.all_decided = r.all_decided;
    v.decision = r.decision.value_or(kNoValue);
    v.decisions = r.decisions.data();
    v.steps_per_process = r.steps_per_process.data();
    v.num_processes = static_cast<int>(r.decisions.size());
    v.schedule = r.schedule.data();
    v.schedule_len = static_cast<std::int64_t>(r.schedule.size());
    harvest(v);
  }
  return true;
}

std::vector<SimResult> LaneEngine::run_collect(std::uint64_t first_seed,
                                               std::int64_t num_runs,
                                               const LaneRunOptions& options) {
  std::vector<SimResult> out(static_cast<std::size_t>(num_runs));
  const bool complete =
      run(first_seed, num_runs, options, [&](const LaneRunView& v) {
        SimResult r;
        r.all_decided = v.all_decided;
        if (v.decision != kNoValue) r.decision = v.decision;
        r.decisions.assign(v.decisions, v.decisions + v.num_processes);
        r.steps_per_process.assign(v.steps_per_process,
                                   v.steps_per_process + v.num_processes);
        r.total_steps = v.total_steps;
        r.schedule.assign(v.schedule, v.schedule + v.schedule_len);
        r.max_register_bits = v.max_register_bits;
        r.recoveries = v.recoveries;
        out[static_cast<std::size_t>(v.seed - first_seed)] = std::move(r);
      });
  CIL_CHECK_MSG(complete, "run_collect cancelled mid-sweep");
  return out;
}

}  // namespace cil
