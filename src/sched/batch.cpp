#include "sched/batch.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <limits>
#include <thread>

#include "util/check.h"
#include "util/rng.h"

namespace cil {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The summary's facts about one run, from either engine's harvest view.
RunRecord record_of(const LaneRunView& v) {
  RunRecord rec;
  rec.total_steps = v.total_steps;
  rec.steps_p0 = v.steps_p0;
  rec.steps_p1 = v.steps_p1;
  rec.recoveries = v.recoveries;
  rec.max_register_bits = v.max_register_bits;
  rec.decision = v.decision;
  rec.all_decided = v.all_decided;
  return rec;
}

}  // namespace

std::vector<SeedRange> split_seed_range(const SeedRange& range, int parts) {
  CIL_EXPECTS(range.num_runs >= 0);
  CIL_EXPECTS(parts >= 1);
  const std::int64_t n =
      std::min<std::int64_t>(parts, range.num_runs);
  std::vector<SeedRange> out;
  out.reserve(static_cast<std::size_t>(n));
  const std::int64_t base = n > 0 ? range.num_runs / n : 0;
  const std::int64_t rem = n > 0 ? range.num_runs % n : 0;
  std::uint64_t first = range.first_seed;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t len = base + (i < rem ? 1 : 0);
    out.push_back({first, len});
    first += static_cast<std::uint64_t>(len);
  }
  return out;
}

std::vector<SeedRange> shard_seed_range(const SeedRange& range,
                                        std::int64_t shard_size) {
  CIL_EXPECTS(range.num_runs >= 0);
  CIL_EXPECTS(shard_size >= 1);
  std::vector<SeedRange> out;
  std::uint64_t first = range.first_seed;
  for (std::int64_t done = 0; done < range.num_runs;) {
    const std::int64_t len = std::min(shard_size, range.num_runs - done);
    out.push_back({first, len});
    first += static_cast<std::uint64_t>(len);
    done += len;
  }
  return out;
}

std::uint64_t run_fingerprint(std::uint64_t seed, const RunRecord& record) {
  // Absorb one field per round through splitmix64's step (golden-ratio
  // increment, then its avalanche finalizer), from a fixed key.
  std::uint64_t h = 0x243f6a8885a308d3ULL;  // pi's fraction bits
  const auto absorb = [&h](std::uint64_t field) {
    h = SplitMix64(h + field).next();
  };
  absorb(seed);
  absorb(static_cast<std::uint64_t>(record.total_steps));
  absorb(static_cast<std::uint64_t>(record.steps_p0));
  absorb(static_cast<std::uint64_t>(record.steps_p1));
  absorb(static_cast<std::uint64_t>(record.recoveries));
  absorb(static_cast<std::uint64_t>(record.max_register_bits));
  absorb(static_cast<std::uint64_t>(
      static_cast<std::int64_t>(record.decision)));
  absorb(record.all_decided ? 1 : 0);
  absorb(static_cast<std::uint64_t>(record.probe));
  return h;
}

void BatchSummary::add_run(std::uint64_t seed, const RunRecord& record,
                           bool probed) {
  ++num_runs;
  if (record.all_decided) ++decided_runs;
  if (record.decision != kNoValue) ++decision_counts[record.decision];
  total_steps += record.total_steps;
  recoveries += record.recoveries;
  steps.add(record.total_steps);
  steps_p0.add(record.steps_p0);
  steps_p1.add(record.steps_p1);
  max_register_bits.add(record.max_register_bits);
  if (probed) probe.add(record.probe);
  fingerprint += run_fingerprint(seed, record);
}

void BatchSummary::merge(const BatchSummary& other) {
  num_runs += other.num_runs;
  decided_runs += other.decided_runs;
  for (const auto& [value, count] : other.decision_counts)
    decision_counts[value] += count;
  total_steps += other.total_steps;
  recoveries += other.recoveries;
  steps.merge(other.steps);
  steps_p0.merge(other.steps_p0);
  steps_p1.merge(other.steps_p1);
  max_register_bits.merge(other.max_register_bits);
  probe.merge(other.probe);
  fingerprint += other.fingerprint;
  wall_seconds += other.wall_seconds;
  construct_seconds += other.construct_seconds;
  run_seconds += other.run_seconds;
}

BatchRunner::BatchRunner(const Protocol& protocol, std::vector<Value> inputs)
    : protocol_(protocol), inputs_(std::move(inputs)) {
  CIL_EXPECTS(static_cast<int>(inputs_.size()) == protocol_.num_processes());
}

BatchSummary BatchRunner::run(const BatchOptions& options,
                              const SchedulerFactory& make_scheduler,
                              const RunProbe& probe, const RunHook& after_run) {
  CIL_EXPECTS(options.num_runs >= 0);
  const bool lane_requested = options.engine == BatchEngine::kLane;
  // The lane engine has no per-run Simulation to hand a probe (SoA lanes
  // share one state block), so a probed engine=lane sweep degrades to the
  // scalar engine — same summary (the engines are bit-identical), just no
  // lockstep speedup — rather than aborting a sweep that is perfectly
  // serviceable. The downgrade is loud: once on stderr, and durably in
  // BatchSummary::note so artifacts record it.
  const bool lane = lane_requested && probe == nullptr;
  BatchSummary out;
  if (lane_requested && !lane) {
    std::fprintf(stderr,
                 "BatchRunner: engine=lane cannot serve a RunProbe; running "
                 "this sweep on the scalar engine\n");
    out.note =
        "engine=lane downgraded to scalar: a RunProbe needs per-run "
        "Simulation access";
  }
  if (options.num_runs == 0) return out;

  // One LaneRunOptions mapping shared by the width report, every lane
  // worker and every scalar worker's ScalarRig, so they cannot drift.
  const auto lane_options = [&options] {
    LaneRunOptions lo;
    lo.lanes = options.lanes;
    lo.max_total_steps = options.max_total_steps;
    lo.check_every = options.check_every;
    lo.check_consistency = options.check_consistency;
    lo.check_nontriviality = options.check_nontriviality;
    lo.sched = options.lane_sched;
    lo.cancel = options.cancel;
    lo.fault_plan = options.fault_plan;
    lo.simd_width = options.simd_width;
    return lo;
  };
  if (lane) {
    // What width the workers' kernels will run at (pure function of the
    // protocol, options, and host CPU — cheap to ask a throwaway engine).
    LaneEngine width_probe(protocol_, inputs_);
    out.simd_width = width_probe.selected_simd_width(lane_options());
  }

  const auto t_start = Clock::now();

  // Warm the protocol's lazily-built shared spec table on this thread:
  // Protocol::make_registers is not safe against concurrent FIRST calls.
  (void)protocol_.make_registers();

  int threads = options.threads != 0
                    ? options.threads
                    : static_cast<int>(std::thread::hardware_concurrency());
  threads = static_cast<int>(std::clamp<std::int64_t>(
      threads, 1, options.num_runs));

  std::atomic<bool> cancelled{false};  ///< any worker saw the cancel flag
  // One private tally per worker (its runs, plus its construct/run time);
  // all are added after join. Cache-line aligned: workers update theirs on
  // every run, and neighbours must not share a line.
  struct alignas(64) Tally {
    BatchSummary summary;
  };
  std::vector<Tally> tallies(static_cast<std::size_t>(threads));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
  std::vector<std::int64_t> error_run(
      static_cast<std::size_t>(threads),
      std::numeric_limits<std::int64_t>::max());

  // engine=kLane shard execution: same shard boundaries, same per-worker
  // tally, same earliest-seed error attribution — only the inner loop
  // changes, from one pooled Simulation to W lockstep lanes. Lanes finish
  // out of seed order, which the commutative tally cannot see: that is
  // exactly the thread-count/engine-invariance contract.
  const auto lane_worker = [&](int w, std::int64_t begin, std::int64_t end) {
    BatchSummary& tally = tallies[static_cast<std::size_t>(w)].summary;
    try {
      const auto c0 = Clock::now();
      LaneEngine engine(protocol_, inputs_);
      const LaneRunOptions lo = lane_options();
      const auto c1 = Clock::now();
      tally.construct_seconds += seconds_between(c0, c1);
      bool complete = false;
      try {
        complete = engine.run(
            options.first_seed + static_cast<std::uint64_t>(begin),
            end - begin, lo, [&](const LaneRunView& v) {
              tally.add_run(v.seed, record_of(v), false);
              if (after_run != nullptr) after_run(v.seed);
            });
      } catch (...) {
        error_run[static_cast<std::size_t>(w)] =
            begin + std::max<std::int64_t>(0, engine.failed_run_index());
        throw;
      }
      tally.run_seconds += seconds_between(c1, Clock::now());
      if (!complete) cancelled.store(true, std::memory_order_relaxed);
    } catch (...) {
      errors[static_cast<std::size_t>(w)] = std::current_exception();
      if (error_run[static_cast<std::size_t>(w)] ==
          std::numeric_limits<std::int64_t>::max())
        error_run[static_cast<std::size_t>(w)] = begin;
    }
  };

  const auto scalar_worker = [&](int w, std::int64_t begin, std::int64_t end) {
    BatchSummary& tally = tallies[static_cast<std::size_t>(w)].summary;
    std::int64_t i = begin;
    try {
      // The caller's factory, or else the pooled scheduler options.lane_sched
      // arms — the same one LaneEngine's scalar fallback uses.
      SchedulerProvider provide;
      if (make_scheduler != nullptr) {
        provide = make_scheduler();
        CIL_CHECK_MSG(provide != nullptr,
                      "BatchRunner: scheduler factory returned null provider");
      }
      SpecScheduler spec_sched(options.lane_sched);
      ScalarRig rig(protocol_, inputs_, lane_options());
      for (; i < end; ++i) {
        if (options.cancel != nullptr &&
            options.cancel->load(std::memory_order_relaxed)) {
          cancelled.store(true, std::memory_order_relaxed);
          break;
        }
        const std::uint64_t seed =
            options.first_seed + static_cast<std::uint64_t>(i);
        const auto c0 = Clock::now();
        Scheduler& sched =
            rig.arm(seed, provide ? provide(seed) : spec_sched.arm(seed));
        const auto c1 = Clock::now();
        const SimResult& r = rig.run(sched);
        const auto c2 = Clock::now();
        tally.construct_seconds += seconds_between(c0, c1);
        tally.run_seconds += seconds_between(c1, c2);

        RunRecord rec = record_of(lane_run_view(seed, r));
        if (probe != nullptr) rec.probe = probe(rig.simulation(), r);
        tally.add_run(seed, rec, probe != nullptr);
        if (after_run != nullptr) after_run(seed);
      }
    } catch (...) {
      errors[static_cast<std::size_t>(w)] = std::current_exception();
      error_run[static_cast<std::size_t>(w)] = i;
    }
  };

  const std::function<void(int, std::int64_t, std::int64_t)> worker =
      lane ? std::function<void(int, std::int64_t, std::int64_t)>(lane_worker)
           : scalar_worker;
  if (threads == 1) {
    worker(0, 0, options.num_runs);
  } else {
    // The shared shard/merge API defines the split; thread w owns the runs
    // of shards[w], addressed here as global run indices.
    const std::vector<SeedRange> shards =
        split_seed_range({options.first_seed, options.num_runs}, threads);
    std::vector<std::thread> pool;
    pool.reserve(shards.size());
    for (int w = 0; w < static_cast<int>(shards.size()); ++w) {
      const std::int64_t begin = static_cast<std::int64_t>(
          shards[static_cast<std::size_t>(w)].first_seed - options.first_seed);
      pool.emplace_back(worker, w, begin,
                        begin + shards[static_cast<std::size_t>(w)].num_runs);
    }
    for (auto& th : pool) th.join();
  }

  // Re-raise the failure a serial sweep would have hit first (the smallest
  // failing run index), regardless of which worker hit it.
  int first_error = -1;
  for (int w = 0; w < threads; ++w) {
    if (errors[static_cast<std::size_t>(w)] != nullptr &&
        (first_error < 0 ||
         error_run[static_cast<std::size_t>(w)] <
             error_run[static_cast<std::size_t>(first_error)]))
      first_error = w;
  }
  if (first_error >= 0)
    std::rethrow_exception(errors[static_cast<std::size_t>(first_error)]);

  // Cancellation wins over a summary: a worker that broke out left its
  // shard short, so no partial reduction is offered — the caller asked for
  // the sweep to stop, not for an approximate answer.
  if (cancelled.load(std::memory_order_relaxed)) throw BatchCancelled();

  for (const Tally& tally : tallies) out.merge(tally.summary);
  out.wall_seconds = seconds_between(t_start, Clock::now());
  return out;
}

}  // namespace cil
