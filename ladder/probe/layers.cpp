// ladder_probe ref | pipeline | layers | jobs: the scalar reference, the
// traced re-run of a sweep's path, and the per-layer probes.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <optional>
#include <sstream>
#include <thread>

#include "fabric/checkpoint.h"
#include "fabric/summary.h"
#include "fabric/supervisor.h"
#include "obs/export.h"
#include "probe.h"
#include "sched/lane_engine.h"
#include "svc/job.h"
#include "svc/wire.h"
#include "util/check.h"

namespace ladder {

using cil::obs::Json;
namespace fabric = cil::fabric;
namespace fs = std::filesystem;

namespace {

double median(std::vector<double> v) {
  CIL_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Median wall time of each of `fns`, in nanoseconds, over `reps` rounds
/// that call them in turn, so a drift in the host's speed hits all alike.
std::vector<double> median_ns(int reps,
                              const std::vector<std::function<void()>>& fns) {
  std::vector<std::vector<double>> t(fns.size());
  for (int i = 0; i < reps; ++i)
    for (std::size_t f = 0; f < fns.size(); ++f) {
      const std::int64_t t0 = now_ns();
      fns[f]();
      t[f].push_back(static_cast<double>(now_ns() - t0));
    }
  std::vector<double> out;
  for (std::vector<double>& v : t) out.push_back(median(std::move(v)));
  return out;
}

double time_ns(int reps, const std::function<void()>& fn) {
  return median_ns(reps, {fn})[0];
}

std::vector<cil::SeedRange> parse_ranges(const std::string& csv) {
  std::vector<cil::SeedRange> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const std::size_t colon = item.find(':');
    CIL_CHECK_MSG(colon != std::string::npos, "ranges: want FIRST:COUNT");
    out.push_back({std::stoull(item.substr(0, colon)),
                   std::stoll(item.substr(colon + 1))});
  }
  return out;
}

void write_spans(const Tracer& tr, const std::string& path) {
  if (!path.empty() && tr.on())
    CIL_CHECK_MSG(cil::obs::write_text_file_atomic(path, tr.jsonl()),
                  "cannot write " + path);
}

fabric::SweepConfig sweep_config(const Shape& shape, const cil::SeedRange& r,
                                 std::int64_t shard_size) {
  fabric::SweepConfig c;
  c.protocol = shape.protocol;
  c.num_processes = shape.protocol == "two" ? 2 : shape.n;
  c.scheduler = "random";
  c.range = r;
  c.shard_size = shard_size;
  c.max_total_steps = kSteps;
  c.fault_plan = shape.fault_plan;
  return c;
}

/// The final artifact as tools/sweep lays it out: the merged summary plus a
/// "sweep" block describing the run.
std::string artifact_text(const fabric::SweepConfig& config,
                          const fabric::SweepSummary& merged,
                          int shards_total) {
  fabric::ShardSummary top;
  top.range = {merged.span().first_seed, merged.num_runs()};
  top.summary = merged.to_partial_batch_summary();
  Json doc = fabric::shard_summary_to_json(top);
  Json sweep = Json::object();
  sweep["config"] = fabric::sweep_config_to_json(config);
  sweep["shards_total"] = Json(shards_total);
  sweep["shards_completed"] = Json(static_cast<int>(merged.num_shards()));
  sweep["contiguous"] = Json(merged.contiguous());
  doc["sweep"] = std::move(sweep);
  return doc.dump() + "\n";
}

/// Forked workers append their spans to one file per pid under `dir`.
void absorb_children(Tracer& tr, const std::string& dir) {
  if (!tr.on()) return;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().filename().string().rfind("spans.", 0) == 0) {
      tr.absorb(entry.path().string());
      fs::remove(entry.path());
    }
}

/// run_supervised wall minus the busiest worker slot. Shard spans are packed
/// greedily into `workers` slots in start order, which recovers the slot
/// schedule because no more than `workers` children run at once.
double supervisor_overhead_s(const Tracer& tr, const std::string& shard_name,
                             std::int64_t wall_ns, int workers) {
  std::vector<const Tracer::Span*> shards;
  for (const Tracer::Span& s : tr.spans())
    if (s.name == shard_name) shards.push_back(&s);
  std::sort(shards.begin(), shards.end(),
            [](const auto* a, const auto* b) { return a->start_ns < b->start_ns; });
  std::vector<std::int64_t> free_at(static_cast<std::size_t>(workers), 0);
  std::vector<std::int64_t> busy(static_cast<std::size_t>(workers), 0);
  for (const Tracer::Span* s : shards) {
    const auto slot = static_cast<std::size_t>(
        std::min_element(free_at.begin(), free_at.end()) - free_at.begin());
    free_at[slot] = s->end_ns;
    busy[slot] += s->end_ns - s->start_ns;
  }
  const std::int64_t busiest = *std::max_element(busy.begin(), busy.end());
  return static_cast<double>(wall_ns - busiest) * 1e-9;
}

}  // namespace

int cmd_ref(int argc, char** argv) {
  cil::cli::FlagSet flags(argc, argv);
  Shape shape;
  shape.take_flags(flags);
  std::string ranges;
  flags.take_string("ranges", ranges);
  if (!flags.finish() || ranges.empty()) return 2;
  const int threads = static_cast<int>(std::thread::hardware_concurrency());
  const ShapeRunner runner(shape);
  for (const cil::SeedRange& r : parse_ranges(ranges)) {
    Json line = Json::object();
    line["first_seed"] = Json(std::to_string(r.first_seed));
    line["num_runs"] = Json(r.num_runs);
    line["fields"] = gate_fields(runner.run(r, std::max(threads, 1), false));
    std::printf("%s\n", line.dump().c_str());
  }
  return 0;
}

int cmd_pipeline(int argc, char** argv) {
  cil::cli::FlagSet flags(argc, argv);
  Shape shape;
  shape.take_flags(flags);
  std::string kind = "fabric", dir, spans_out;
  std::uint64_t first_seed = 1;
  std::int64_t seeds = 0;
  int threads = 1, tracing = 1;
  flags.take_string("kind", kind);
  flags.take_string("dir", dir);
  flags.take_string("spans-out", spans_out);
  flags.take_uint64("first-seed", first_seed);
  flags.take_int("seeds", seeds);
  flags.take_int("threads", threads);
  flags.take_int("tracing", tracing);
  if (!flags.finish() || dir.empty() || seeds < 1) return 2;
  fs::create_directories(dir);

  const ShapeRunner runner(shape);
  const cil::SeedRange range{first_seed, seeds};
  Tracer tr(tracing != 0);
  Json out = Json::object();
  const std::int64_t t0 = now_ns();
  if (kind == "fabric") {
    // tools/sweep's forked path, step by step: open the checkpoint, run the
    // shards under the supervisor, load and merge, write the artifact.
    SpanScope root(tr, "sweep", "tool", "sweep");
    const fabric::SweepConfig config = sweep_config(
        shape, range, std::max<std::int64_t>(1, seeds / (4 * kWorkers)));
    fabric::CheckpointStore store(dir + "/ckpt");
    {
      SpanScope s(tr, "fabric.checkpoint.open", "fabric");
      store.open(config);
    }
    std::vector<fabric::ShardTask> tasks;
    for (int i = 0; i < store.num_shards(); ++i)
      tasks.push_back({i, store.shard_range(i)});
    fabric::SupervisorOptions sup;
    sup.workers = kWorkers;
    const fabric::ShardWorker worker = [&](const fabric::ShardTask& task,
                                           int) {
      bool ok = false;
      {
        SpanScope shard(tr, "fabric.shard", "fabric",
                        "shard-" + std::to_string(task.index));
        cil::BatchSummary summary;
        {
          SpanScope s(tr, "sched.batch.run", "sched");
          summary = runner.run(task.range, threads, true);
        }
        std::string text;
        {
          SpanScope s(tr, "fabric.encode", "fabric");
          text = fabric::shard_summary_to_json({task.range, summary}).dump() +
                 "\n";
        }
        SpanScope s(tr, "obs.write_atomic", "obs");
        ok = cil::obs::write_text_file_atomic(store.shard_path(task.index),
                                              text);
      }
      tr.write_own(dir + "/spans." + std::to_string(::getpid()));
      return ok ? 0 : 4;
    };
    fabric::SweepOutcome outcome;
    {
      SpanScope s(tr, "fabric.supervisor.run", "fabric");
      outcome = fabric::run_supervised(tasks, sup, store, worker);
    }
    absorb_children(tr, dir);
    CIL_CHECK_MSG(outcome.complete(), "pipeline: sweep incomplete");
    fabric::SweepSummary merged;
    for (const int i : store.completed()) {
      SpanScope load(tr, "fabric.load_shard", "fabric",
                     "shard-" + std::to_string(i));
      std::string text;
      {
        SpanScope s(tr, "obs.read", "obs");
        CIL_CHECK(read_text(store.shard_path(i), text));
      }
      fabric::ShardSummary shard;
      {
        SpanScope s(tr, "fabric.decode", "fabric");
        shard = fabric::shard_summary_from_json(Json::parse(text));
      }
      SpanScope s(tr, "fabric.merge", "fabric");
      merged.add(shard);
    }
    std::string text;
    {
      SpanScope s(tr, "fabric.encode.artifact", "fabric");
      text = artifact_text(config, merged, store.num_shards());
    }
    {
      SpanScope s(tr, "obs.write_atomic", "obs");
      CIL_CHECK(cil::obs::write_text_file_atomic(dir + "/summary.json", text));
    }
    std::int64_t attempts = 0;
    for (const fabric::ShardOutcome& so : outcome.shards)
      attempts += so.attempts;
    out["shards"] = Json(store.num_shards());
    out["attempts"] = Json(attempts);
    out["artifact_bytes"] = Json(static_cast<std::int64_t>(text.size()));
  } else {
    CIL_CHECK_MSG(kind == "serial", "pipeline: kind must be fabric|serial");
    // tools/sweep --serial: one BatchRunner call, merge, encode, write.
    SpanScope root(tr, "sweep", "tool", "sweep");
    fabric::ShardSummary whole{range, {}};
    {
      SpanScope s(tr, "sched.batch.run", "sched");
      whole.summary = runner.run(range, threads, true);
    }
    fabric::SweepSummary merged;
    {
      SpanScope s(tr, "fabric.merge", "fabric");
      merged.add(whole);
    }
    std::string text;
    {
      SpanScope s(tr, "fabric.encode.artifact", "fabric");
      text = artifact_text(sweep_config(shape, range, seeds), merged, 1);
    }
    {
      SpanScope s(tr, "obs.write_atomic", "obs");
      CIL_CHECK(cil::obs::write_text_file_atomic(dir + "/summary.json", text));
    }
    out["shards"] = Json(1);
    out["attempts"] = Json(1);
    out["artifact_bytes"] = Json(static_cast<std::int64_t>(text.size()));
  }
  out["wall_s"] = Json(static_cast<double>(now_ns() - t0) * 1e-9);
  write_spans(tr, spans_out);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

int cmd_layers(int argc, char** argv) {
  cil::cli::FlagSet flags(argc, argv);
  Shape shape;
  shape.take_flags(flags);
  std::string dir, spans_out;
  std::uint64_t first_seed = 1;
  std::int64_t seeds = 0;
  flags.take_string("dir", dir);
  flags.take_string("spans-out", spans_out);
  flags.take_uint64("first-seed", first_seed);
  flags.take_int("seeds", seeds);
  if (!flags.finish() || dir.empty() || seeds < 8) return 2;
  // T, the workload's parallelism: fig1-fabric's forked workers and
  // fig2-crash's BatchRunner threads.
  const int threads = kWorkers;
  // The sched timings differ by less than the host's noise, so they take
  // more rounds than the rest.
  const int reps = 3, sched_reps = 5;
  fs::remove_all(dir);
  fs::create_directories(dir);

  const ShapeRunner runner(shape);
  const cil::SeedRange range{first_seed, seeds};
  const double n = static_cast<double>(seeds);
  Tracer tr(true);
  Json m = Json::object();

  {  // sched: the kernel alone, then BatchRunner at 1 and T threads.
    SpanScope layer(tr, "probe.sched", "sched", "probe-sched");
    const cil::LaneRunOptions lo = runner.lane_options();
    std::int64_t steps = 0;
    cil::BatchSummary one;
    const std::vector<double> t = median_ns(sched_reps, {
        [&] {
          SpanScope s(tr, "sched.kernel", "sched");
          // A fresh engine per call, as each BatchRunner worker builds one.
          cil::LaneEngine engine(runner.protocol(), runner.inputs());
          steps = 0;
          engine.run(first_seed, seeds, lo, [&](const cil::LaneRunView& v) {
            steps += v.total_steps;
          });
        },
        [&] {
          SpanScope s(tr, "sched.batch.run.1t", "sched");
          one = runner.run(range, 1, true);
        },
        [&] {
          SpanScope s(tr, "sched.batch.run", "sched");
          (void)runner.run(range, threads, true);
        }});
    const double kernel = t[0], batch1 = t[1], batch_t = t[2];
    m["sched.kernel.ns_per_run"] = Json(kernel / n);
    m["sched.kernel.ns_per_step"] =
        Json(kernel / static_cast<double>(std::max<std::int64_t>(steps, 1)));
    m["sched.batch.ns_per_run"] = Json(batch_t / n);
    m["sched.batch.reduce_ns_per_run"] = Json((batch1 - kernel) / n);
    m["sched.batch.thread_speedup"] = Json(batch1 / batch_t);
    std::size_t held = one.steps.samples().capacity() +
                       one.steps_p0.samples().capacity() +
                       one.steps_p1.samples().capacity() +
                       one.max_register_bits.samples().capacity() +
                       one.probe.samples().capacity();
    m["sched.batch.summary_bytes_per_run"] =
        Json(static_cast<double>(held * sizeof(std::int64_t)) / n);

    // Figure 1 on the sliced lane kernel, 1 vs 4 threads.
    Shape fig1;
    const ShapeRunner fig1_runner(fig1);
    const cil::SeedRange fig1_range{first_seed, 1'000'000};
    const std::vector<double> f = median_ns(sched_reps, {
        [&] {
          SpanScope s(tr, "sched.batch.run.fig1.1t", "sched");
          (void)fig1_runner.run(fig1_range, 1, true);
        },
        [&] {
          SpanScope s(tr, "sched.batch.run.fig1.4t", "sched");
          (void)fig1_runner.run(fig1_range, 4, true);
        }});
    m["sched.batch.fig1_lane_speedup_4t"] = Json(f[0] / f[1]);
  }

  // fabric: shard summaries of the range, one per supervisor-sized shard.
  const std::int64_t shard_size =
      std::max<std::int64_t>(1, seeds / (4 * kWorkers));
  const std::vector<cil::SeedRange> shard_ranges =
      cil::shard_seed_range(range, shard_size);
  std::vector<fabric::ShardSummary> shards;
  for (const cil::SeedRange& r : shard_ranges)
    shards.push_back({r, runner.run(r, 1, true)});
  fabric::ShardSummary whole{range, runner.run(range, threads, true)};

  std::string text;
  {
    SpanScope layer(tr, "probe.fabric", "fabric", "probe-fabric");
    const double enc = time_ns(reps, [&] {
      SpanScope s(tr, "fabric.encode", "fabric");
      text = fabric::shard_summary_to_json(whole).dump();
    });
    const double dec = time_ns(reps, [&] {
      SpanScope s(tr, "fabric.decode", "fabric");
      (void)fabric::shard_summary_from_json(Json::parse(text));
    });
    const double mer = time_ns(reps, [&] {
      SpanScope s(tr, "fabric.merge", "fabric");
      fabric::SweepSummary merged;
      for (const fabric::ShardSummary& sh : shards) merged.add(sh);
      (void)merged.to_shard();
    });
    m["fabric.encode.ns_per_run"] = Json(enc / n);
    m["fabric.encode.bytes_per_run"] =
        Json(static_cast<double>(text.size()) / n);
    m["fabric.decode.ns_per_run"] = Json(dec / n);
    m["fabric.merge.ns_per_run"] = Json(mer / n);

    fabric::CheckpointStore store(dir + "/ckpt");
    const fabric::SweepConfig config = sweep_config(shape, range, shard_size);
    store.open(config);
    std::vector<double> write_ms, commit_ms;
    std::int64_t bytes = 0;
    for (int i = 0; i < store.num_shards(); ++i) {
      std::int64_t t0 = now_ns();
      {
        SpanScope s(tr, "fabric.checkpoint.write_shard", "fabric");
        CIL_CHECK(store.write_shard(i, shards[static_cast<std::size_t>(i)]));
      }
      write_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      t0 = now_ns();
      {
        SpanScope s(tr, "fabric.checkpoint.commit", "fabric");
        CIL_CHECK(store.commit_shard(i));
      }
      commit_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      bytes += static_cast<std::int64_t>(fs::file_size(store.shard_path(i)));
    }
    m["fabric.checkpoint.write_shard_ms"] = Json(median(write_ms));
    m["fabric.checkpoint.commit_ms"] = Json(median(commit_ms));
    m["fabric.checkpoint.bytes_per_run"] =
        Json(static_cast<double>(bytes) / n);

    // The supervisor over the same shards, forked workers writing shards.
    fabric::CheckpointStore sup_store(dir + "/sup");
    sup_store.open(config);
    std::vector<fabric::ShardTask> tasks;
    for (int i = 0; i < sup_store.num_shards(); ++i)
      tasks.push_back({i, sup_store.shard_range(i)});
    fabric::SupervisorOptions sup;
    sup.workers = kWorkers;
    const fabric::ShardWorker worker = [&](const fabric::ShardTask& task,
                                           int) {
      bool ok = false;
      {
        SpanScope s(tr, "fabric.supervisor.shard", "fabric",
                    "shard-" + std::to_string(task.index));
        ok = sup_store.write_shard(
            task.index, {task.range, runner.run(task.range, 1, true)});
      }
      tr.write_own(dir + "/spans." + std::to_string(::getpid()));
      return ok ? 0 : 4;
    };
    fabric::SweepOutcome outcome;
    const std::int64_t t0 = now_ns();
    {
      SpanScope s(tr, "fabric.supervisor.run", "fabric");
      outcome = fabric::run_supervised(tasks, sup, sup_store, worker);
    }
    const std::int64_t sup_ns = now_ns() - t0;
    absorb_children(tr, dir);
    CIL_CHECK_MSG(outcome.complete(), "layers: supervised probe incomplete");
    std::int64_t attempts = 0;
    for (const fabric::ShardOutcome& so : outcome.shards)
      attempts += so.attempts;
    m["fabric.supervisor.attempts_per_shard"] =
        Json(static_cast<double>(attempts) /
             static_cast<double>(outcome.shards.size()));
    m["fabric.supervisor.overhead_s"] = Json(supervisor_overhead_s(
        tr, "fabric.supervisor.shard", sup_ns, kWorkers));
  }

  {  // obs: the crash-atomic writer every artifact goes through.
    SpanScope layer(tr, "probe.obs", "obs", "probe-obs");
    const std::string path = dir + "/write_atomic.json";
    const double wr = time_ns(reps, [&] {
      SpanScope s(tr, "obs.write_atomic", "obs");
      CIL_CHECK(cil::obs::write_text_file_atomic(path, text));
    });
    m["obs.write_atomic.ms_per_mb"] =
        Json(wr * 1e-6 / (static_cast<double>(text.size()) * 1e-6));
  }
  fs::remove_all(dir);
  write_spans(tr, spans_out);
  std::printf("%s\n", m.dump().c_str());
  return 0;
}

namespace {

/// One svc-mix job, replayed on this thread through the library calls the
/// daemon makes for it, each in a span. A plain sweep is run_job's path:
/// per chunk BatchRunner::run, SweepSummary::add and a progress frame, then
/// the result encode and frame. A fleet-tagged sweep is the fleet
/// frontend's path with every 512-seed shard run here instead of on a
/// peer: the shard's run, its encode into the peer's result frame, the
/// frontend's untrusted parse and decode, then the merge and the result.
/// The sockets between daemons and client are not replayed. Returns the
/// bytes of the frames the job would send.
std::int64_t replay_job(Tracer& tr, const JobClass& cls,
                        std::uint64_t first_seed, const std::string& id) {
  namespace svc = cil::svc;
  Shape shape;
  shape.protocol = cls.protocol;
  shape.n = cls.n;
  SpanScope job(tr, cls.fleet ? "fleet.sweep" : "svc.job",
                cls.fleet ? "fleet" : "svc", id);
  const ShapeRunner runner(shape);
  std::int64_t bytes = 0, done = 0, decided = 0, steps = 0;
  fabric::SweepSummary merged;
  std::vector<fabric::ShardSummary> shards;
  for (const cil::SeedRange& r :
       cil::shard_seed_range({first_seed, cls.seeds}, kSvcChunk)) {
    std::optional<SpanScope> shard;
    if (cls.fleet) shard.emplace(tr, "fleet.shard", "fleet");
    cil::BatchSummary summary;
    {
      SpanScope s(tr, "sched.batch.run", "sched");
      summary = runner.run(r, 1, true);
    }
    done += r.num_runs;
    decided += summary.decided_runs;
    steps += summary.total_steps;
    if (cls.fleet) {
      std::string line;
      {
        SpanScope s(tr, "fabric.encode", "fabric");
        Json payload = fabric::shard_summary_to_json({r, std::move(summary)});
        line = svc::frame_result(id, "summary", std::move(payload));
      }
      SpanScope s(tr, "fabric.decode", "fabric");
      const Json doc = Json::parse(line, cil::obs::ParseLimits::untrusted());
      shards.push_back(fabric::shard_summary_from_json(doc.at("summary")));
    } else {
      {
        SpanScope s(tr, "fabric.merge", "fabric");
        merged.add({r, std::move(summary)});
      }
      SpanScope s(tr, "svc.frame_progress", "svc");
      bytes += static_cast<std::int64_t>(
          svc::frame_progress(id, done, cls.seeds, decided, steps).size());
    }
  }
  if (cls.fleet) {
    SpanScope s(tr, "fabric.merge", "fabric");
    for (const fabric::ShardSummary& sh : shards) merged.add(sh);
  }
  Json payload;
  {
    SpanScope s(tr, "fabric.encode", "fabric");
    payload = fabric::shard_summary_to_json(merged.to_shard());
  }
  SpanScope s(tr, "svc.frame_result", "svc");
  bytes += static_cast<std::int64_t>(
      svc::frame_result(id, "summary", std::move(payload)).size());
  return bytes;
}

/// One svc-mix round, job after job, under a root span.
void replay_round(Tracer& tr, std::uint64_t first_seed) {
  std::vector<const JobClass*> round(kSmallPerRound, &kSmall);
  round.insert(round.end(), kLargePerRound.begin(), kLargePerRound.end());
  SpanScope root(tr, "mix.round", "svc", "round");
  for (std::size_t k = 0; k < round.size(); ++k) {
    (void)replay_job(tr, *round[k], first_seed, "r" + std::to_string(k));
    first_seed += static_cast<std::uint64_t>(round[k]->seeds);
  }
}

}  // namespace

int cmd_jobs(int argc, char** argv) {
  cil::cli::FlagSet flags(argc, argv);
  std::uint64_t first_seed = 1;
  std::string spans_out;
  int replay = 1;
  flags.take_uint64("first-seed", first_seed);
  flags.take_string("spans-out", spans_out);
  flags.take_int("replay", replay);
  if (!flags.finish()) return 2;
  const int reps = 5;

  // The daemon's own job path, in-process: run_job with the engine knobs
  // coordd --engine=lane sets, frames counted instead of sent.
  cil::svc::JobLimits limits;
  limits.sweep_engine = cil::BatchEngine::kLane;
  limits.sweep_lanes = kLanes;
  Json m = Json::object();
  const std::atomic<bool> cancel{false};
  std::uint64_t next_seed = first_seed;
  for (const JobClass* cls : {&kSmall, &kBulk}) {
    cil::svc::JobSpec spec;
    spec.kind = "sweep";
    spec.protocol = cls->protocol;
    spec.n = cls->n;
    spec.seeds = cls->seeds;
    spec.steps = kSteps;
    std::vector<double> ms;
    std::int64_t frames = 0, bytes = 0;
    for (int i = 0; i < reps; ++i) {
      spec.id = cls->name + std::to_string(i);
      spec.first_seed = next_seed;
      next_seed += static_cast<std::uint64_t>(spec.seeds);
      frames = bytes = 0;
      const cil::svc::EmitFrame emit = [&](std::string f) {
        frames += std::count(f.begin(), f.end(), '\n');
        bytes += static_cast<std::int64_t>(f.size());
      };
      const std::int64_t t0 = now_ns();
      cil::svc::run_job(spec, cancel, limits, emit);
      ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    }
    m["svc.run_job_ms." + cls->name] = Json(median(ms));
    m["run_job_frames." + cls->name] = Json(frames);
    m["run_job_bytes." + cls->name] = Json(bytes);
  }

  if (replay != 0) {
    // One mix round untraced, traced, traced, untraced: the ABBA order
    // cancels a drift in the host's speed out of the tracing overhead. The
    // spans of the first traced round are kept.
    Json walls = Json::array();
    Tracer kept(true);
    for (const int traced : {0, 1, 1, 0}) {
      Tracer tr(traced != 0);
      const std::int64_t t0 = now_ns();
      replay_round(tr, next_seed);
      Json w = Json::object();
      w["traced"] = Json(traced);
      w["wall_s"] = Json(static_cast<double>(now_ns() - t0) * 1e-9);
      walls.push_back(std::move(w));
      if (traced != 0 && kept.spans().empty()) kept = std::move(tr);
    }
    m["replay"] = std::move(walls);
    write_spans(kept, spans_out);
  }
  std::printf("%s\n", m.dump().c_str());
  return 0;
}

}  // namespace ladder
