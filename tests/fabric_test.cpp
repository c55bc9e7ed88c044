// Fabric data-plane pins: the merge monoid, the checkpoint store and the
// shard ledger.
//
//   * split/shard_seed_range semantics, including agreement with the split
//     BatchRunner uses for its thread shards;
//   * cilcoord.batch_summary.v2 serialize → parse → re-serialize equality
//     (the JSON layer's %.17g doubles make the round trip exact);
//   * THE MERGE-ALGEBRA PROPERTY: folding the shard summaries of any random
//     partition of a seed range — in any order, any association — equals
//     the single-shot BatchSummary bit-for-bit;
//   * overlap rejection, gap detection, and partial concatenation;
//   * CheckpointStore: fresh open, commit, resume, orphan adoption, config
//     mismatch rejection, crash-atomic writes, and a manifest decoder that
//     refuses malformed numbers (a seeded fuzzer like ShardSummaryFuzz);
//   * ShardLedger: leases, backoff gates, budgets, local fallback and
//     commit-once under an injected clock.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/two_process.h"
#include "core/unbounded.h"
#include "fabric/checkpoint.h"
#include "fabric/shard_ledger.h"
#include "fabric/summary.h"
#include "obs/export.h"
#include "sched/batch.h"
#include "sched/schedulers.h"
#include "tests/json_mutate.h"
#include "util/check.h"

namespace cil {
namespace {

using fabric::CheckpointStore;
using fabric::ShardSummary;
using fabric::SweepConfig;
using fabric::SweepSummary;
using obs::Json;
using namespace testing_json;

SchedulerFactory random_factory() {
  return [] {
    auto s = std::make_shared<RandomScheduler>(0);
    return [s](std::uint64_t seed) -> Scheduler& {
      s->reseed(seed ^ 0x1234);
      return *s;
    };
  };
}

BatchSummary run_range(const Protocol& protocol,
                       const std::vector<Value>& inputs, const SeedRange& r,
                       int threads = 1) {
  BatchRunner runner(protocol, inputs);
  BatchOptions opts;
  opts.first_seed = r.first_seed;
  opts.num_runs = r.num_runs;
  opts.threads = threads;
  opts.max_total_steps = 100'000;
  return runner.run(opts, random_factory());
}

void expect_equal_summaries(const BatchSummary& a, const BatchSummary& b) {
  EXPECT_EQ(a.num_runs, b.num_runs);
  EXPECT_EQ(a.decided_runs, b.decided_runs);
  EXPECT_EQ(a.decision_counts, b.decision_counts);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.steps.bins(), b.steps.bins());
  EXPECT_EQ(a.steps_p0.bins(), b.steps_p0.bins());
  EXPECT_EQ(a.steps_p1.bins(), b.steps_p1.bins());
  EXPECT_EQ(a.max_register_bits.bins(), b.max_register_bits.bins());
  EXPECT_EQ(a.probe.bins(), b.probe.bins());
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_TRUE(fabric::deterministic_fields_equal(a, b));
}

std::string temp_dir(const std::string& stem) {
  const std::string dir = testing::TempDir() + "/" + stem;
  std::filesystem::remove_all(dir);
  return dir;
}

// -- seed-range splitting ---------------------------------------------------

TEST(SeedRange, SplitCoversInOrderWithBalancedSizes) {
  const auto parts = split_seed_range({10, 10}, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], (SeedRange{10, 4}));
  EXPECT_EQ(parts[1], (SeedRange{14, 3}));
  EXPECT_EQ(parts[2], (SeedRange{17, 3}));
}

TEST(SeedRange, SplitClampsToRunCountAndHandlesEmpty) {
  EXPECT_EQ(split_seed_range({1, 2}, 8).size(), 2u);
  EXPECT_TRUE(split_seed_range({1, 0}, 4).empty());
  const auto one = split_seed_range({5, 7}, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], (SeedRange{5, 7}));
}

TEST(SeedRange, ShardingUsesFixedSizeWithRemainderLast) {
  const auto shards = shard_seed_range({1, 10}, 4);
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0], (SeedRange{1, 4}));
  EXPECT_EQ(shards[1], (SeedRange{5, 4}));
  EXPECT_EQ(shards[2], (SeedRange{9, 2}));
}

// -- serialization ----------------------------------------------------------

TEST(ShardSummaryJson, RoundTripsExactly) {
  UnboundedProtocol protocol(3);
  ShardSummary shard;
  shard.range = {1000, 40};
  shard.summary = run_range(protocol, {0, 1, 0}, shard.range);

  const Json doc = fabric::shard_summary_to_json(shard);
  const ShardSummary back =
      fabric::shard_summary_from_json(Json::parse(doc.dump()));
  EXPECT_EQ(back.range, shard.range);
  expect_equal_summaries(back.summary, shard.summary);
  // Wall-clock fields round-trip too (%.17g is double-exact), so the
  // re-serialized document is byte-identical.
  EXPECT_EQ(fabric::shard_summary_to_json(back).dump(), doc.dump());
}

TEST(ShardSummaryJson, LargeSeedsSurviveAsStrings) {
  TwoProcessProtocol protocol;
  ShardSummary shard;
  shard.range = {(1ULL << 62) + 3, 2};
  shard.summary = run_range(protocol, {0, 1}, shard.range);
  const ShardSummary back = fabric::shard_summary_from_json(
      Json::parse(fabric::shard_summary_to_json(shard).dump()));
  EXPECT_EQ(back.range.first_seed, (1ULL << 62) + 3);
}

TEST(ShardSummaryJson, RejectsWrongTagAndTornPayload) {
  Json doc = Json::object();
  doc["artifact"] = Json("cilcoord.some_other.v1");
  EXPECT_THROW((void)fabric::shard_summary_from_json(doc), ContractViolation);

  TwoProcessProtocol protocol;
  ShardSummary shard;
  shard.range = {1, 3};
  shard.summary = run_range(protocol, {0, 1}, shard.range);
  Json good = fabric::shard_summary_to_json(shard);
  good["num_runs"] = Json(static_cast<std::int64_t>(5));  // bins now lie
  EXPECT_THROW((void)fabric::shard_summary_from_json(good),
               ContractViolation);
}

TEST(ShardSummaryJson, HistogramsAreExactAndConstantSize) {
  TwoProcessProtocol protocol;
  ShardSummary shard;
  shard.range = {1, 2000};
  shard.summary = run_range(protocol, {0, 1}, shard.range);
  const Json doc = fabric::shard_summary_to_json(shard);
  // Bins: ascending values, positive counts summing to num_runs.
  const Json::Array& bins = doc.at("histograms").at("steps").as_array();
  ASSERT_FALSE(bins.empty());
  std::int64_t total = 0;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    if (i > 0) EXPECT_LT(bins[i - 1].at(0).as_int(), bins[i].at(0).as_int());
    EXPECT_GT(bins[i].at(1).as_int(), 0);
    total += bins[i].at(1).as_int();
  }
  EXPECT_EQ(total, 2000);
  EXPECT_TRUE(doc.at("histograms").at("probe").as_array().empty());
  const std::string& fp = doc.at("fingerprint").as_string();
  EXPECT_EQ(fp.size(), 16u);
  EXPECT_EQ(fp.find_first_not_of("0123456789abcdef"), std::string::npos);
  // O(distinct values): 2000 runs fit in a couple of KB.
  EXPECT_LT(doc.dump().size(), 2048u);
}

TEST(ShardSummaryJson, RejectsMalformedHistogramsAndFingerprints) {
  TwoProcessProtocol protocol;
  ShardSummary shard;
  shard.range = {1, 50};
  shard.summary = run_range(protocol, {0, 1}, shard.range);
  const Json good = fabric::shard_summary_to_json(shard);
  ASSERT_NO_THROW((void)fabric::shard_summary_from_json(good));

  const auto with_steps = [&](Json bins) {
    Json doc = good;
    Json hists = doc.at("histograms");
    hists["steps"] = std::move(bins);
    doc["histograms"] = std::move(hists);
    return doc;
  };
  const auto bin = [](std::int64_t value, std::int64_t count) {
    Json b = Json::array();
    b.push_back(Json(value));
    b.push_back(Json(count));
    return b;
  };
  const auto bins_of = [](std::initializer_list<Json> list) {
    Json arr = Json::array();
    for (const Json& b : list) arr.push_back(b);
    return arr;
  };
  const std::int64_t half = std::int64_t{1} << 62;
  const std::vector<Json> bad_docs = {
      with_steps(bins_of({bin(5, 25), bin(3, 25)})),   // unsorted
      with_steps(bins_of({bin(3, 25), bin(3, 25)})),   // duplicate value
      with_steps(bins_of({bin(3, 50), bin(4, 0)})),    // zero count
      with_steps(bins_of({bin(3, 51), bin(4, -1)})),   // negative count
      with_steps(bins_of({bin(3, 49)})),               // total != num_runs
      with_steps(bins_of({bin(1, half), bin(2, half)})),  // sum overflows
      with_steps(Json::array()),                       // empty, not probe
  };
  for (const Json& doc : bad_docs)
    EXPECT_THROW((void)fabric::shard_summary_from_json(doc), ContractViolation)
        << doc.at("histograms").at("steps").dump();

  for (const char* fp : {"", "0123456789abcde", "0123456789abcdef0",
                         "0123456789ABCDEF", "0x23456789abcdef",
                         "0123456789abcdeg"}) {
    Json doc = good;
    doc["fingerprint"] = Json(fp);
    EXPECT_THROW((void)fabric::shard_summary_from_json(doc), ContractViolation)
        << fp;
  }
  Json numeric_fp = good;
  numeric_fp["fingerprint"] = Json(12);
  EXPECT_THROW((void)fabric::shard_summary_from_json(numeric_fp),
               ContractViolation);
}

TEST(ShardSummaryJson, RejectsTheRetiredV1Format) {
  TwoProcessProtocol protocol;
  ShardSummary shard;
  shard.range = {1, 4};
  shard.summary = run_range(protocol, {0, 1}, shard.range);
  Json doc = fabric::shard_summary_to_json(shard);
  doc["artifact"] = Json("cilcoord.batch_summary.v1");
  EXPECT_THROW((void)fabric::shard_summary_from_json(doc), ContractViolation);
}

// -- the decoder under mutation ----------------------------------------------
//
// Fleet peers hand shard_summary_from_json untrusted bytes. A seeded,
// in-repo property fuzzer: start from valid documents, apply random
// structural and textual mutations, and require that every mutant either
// decodes to a summary that round-trips exactly, or throws
// ContractViolation — never another exception, a crash, or UB (the
// sanitizer builds run this same test).

TEST(ShardSummaryFuzz, MutantsRoundTripOrThrowContractViolation) {
  std::vector<Json> seeds;
  {
    UnboundedProtocol protocol(3);
    BatchRunner runner(protocol, {0, 1, 0});
    BatchOptions opts;
    opts.first_seed = 77;
    opts.num_runs = 40;
    const RunProbe probe = [](const Simulation&, const SimResult& r) {
      return r.total_steps % 5 - 2;  // negative values too
    };
    seeds.push_back(fabric::shard_summary_to_json(
        {{77, 40}, runner.run(opts, random_factory(), probe)}));
  }
  {
    TwoProcessProtocol protocol;
    seeds.push_back(fabric::shard_summary_to_json(
        {{5, 25}, run_range(protocol, {0, 1}, {5, 25})}));
    seeds.push_back(fabric::shard_summary_to_json({{9, 0}, BatchSummary{}}));
  }

  std::mt19937_64 gen(20261017);
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 6000; ++trial) {
    Json doc = seeds[static_cast<std::size_t>(trial) % seeds.size()];
    const int rounds = 1 + static_cast<int>(gen() % 3);
    for (int r = 0; r < rounds; ++r) {
      std::size_t index = 0;
      const std::size_t target = gen() % count_nodes(doc);
      auto f = [&gen](const Json& node) {
        return mutate_node(node, gen, {"cilcoord.batch_summary.v1"});
      };
      doc = rebuild(doc, index, target, f);
    }
    std::string text = doc.dump();
    if (gen() % 8 == 0) text.resize(gen() % (text.size() + 1));  // truncate
    if (gen() % 8 == 0 && !text.empty())
      text[gen() % text.size()] = static_cast<char>(gen() % 128);  // flip
    try {
      const ShardSummary got =
          fabric::shard_summary_from_json(Json::parse(text));
      const std::string once = fabric::shard_summary_to_json(got).dump();
      const ShardSummary again =
          fabric::shard_summary_from_json(Json::parse(once));
      ASSERT_EQ(fabric::shard_summary_to_json(again).dump(), once) << text;
      ASSERT_TRUE(
          fabric::deterministic_fields_equal(got.summary, again.summary));
      ASSERT_EQ(got.summary.steps.count(), got.range.num_runs) << text;
      ++accepted;
    } catch (const ContractViolation&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "non-contract exception " << e.what() << " on " << text;
    }
  }
  // The mutations reach both outcomes: this is not a test of the parser's
  // first byte alone.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 3000);
}

// -- the merge algebra ------------------------------------------------------

TEST(SweepSummary, RandomPartitionsMergeToTheSingleShotSummary) {
  UnboundedProtocol protocol(3);
  const std::vector<Value> inputs = {0, 1, 0};
  const SeedRange whole{1, 120};
  const BatchSummary single = run_range(protocol, inputs, whole);

  std::mt19937 gen(42);
  for (int trial = 0; trial < 5; ++trial) {
    // Random partition: cut points, then shards between them.
    std::vector<std::int64_t> cuts = {0, whole.num_runs};
    const int extra = 1 + static_cast<int>(gen() % 6);
    for (int i = 0; i < extra; ++i)
      cuts.push_back(static_cast<std::int64_t>(
          gen() % static_cast<std::uint64_t>(whole.num_runs)));
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    std::vector<ShardSummary> shards;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      ShardSummary s;
      s.range = {whole.first_seed + static_cast<std::uint64_t>(cuts[i]),
                 cuts[i + 1] - cuts[i]};
      s.summary = run_range(protocol, inputs, s.range);
      shards.push_back(std::move(s));
    }
    // Fold in a shuffled arrival order — commutativity in practice.
    std::shuffle(shards.begin(), shards.end(), gen);
    SweepSummary sweep;
    for (const ShardSummary& s : shards) sweep.add(s);
    ASSERT_TRUE(sweep.contiguous());
    expect_equal_summaries(sweep.to_batch_summary(), single);
  }
}

TEST(SweepSummary, MergeIsAssociativeAndCommutativeBySerializedForm) {
  TwoProcessProtocol protocol;
  const std::vector<Value> inputs = {0, 1};
  std::vector<SweepSummary> parts;
  for (const SeedRange r :
       {SeedRange{1, 10}, SeedRange{11, 5}, SeedRange{16, 15}}) {
    ShardSummary s;
    s.range = r;
    s.summary = run_range(protocol, inputs, r);
    SweepSummary w;
    w.add(s);
    parts.push_back(std::move(w));
  }
  const auto dump = [](const SweepSummary& s) {
    ShardSummary whole;
    whole.range = s.span();
    whole.summary = s.to_batch_summary();
    return fabric::shard_summary_to_json(whole).dump();
  };
  const SweepSummary left =
      fabric::merge(fabric::merge(parts[0], parts[1]), parts[2]);
  const SweepSummary right =
      fabric::merge(parts[0], fabric::merge(parts[1], parts[2]));
  const SweepSummary swapped =
      fabric::merge(parts[2], fabric::merge(parts[1], parts[0]));
  EXPECT_EQ(dump(left), dump(right));
  EXPECT_EQ(dump(left), dump(swapped));
}

TEST(SweepSummary, MatchesMultiThreadedBatchRunner) {
  // The fabric's process-level merge and BatchRunner's thread-level merge
  // are the same algebra; both must equal the serial run.
  UnboundedProtocol protocol(3);
  const std::vector<Value> inputs = {0, 1, 0};
  const SeedRange whole{1, 64};
  const BatchSummary threaded = run_range(protocol, inputs, whole, 4);

  SweepSummary sweep;
  for (const SeedRange& r : shard_seed_range(whole, 13)) {
    ShardSummary s;
    s.range = r;
    s.summary = run_range(protocol, inputs, r);
    sweep.add(s);
  }
  expect_equal_summaries(sweep.to_batch_summary(), threaded);
}

TEST(SweepSummary, RejectsOverlapsAndDetectsGaps) {
  TwoProcessProtocol protocol;
  const std::vector<Value> inputs = {0, 1};
  const auto make = [&](std::uint64_t first, std::int64_t n) {
    ShardSummary s;
    s.range = {first, n};
    s.summary = run_range(protocol, inputs, s.range);
    return s;
  };
  SweepSummary sweep;
  sweep.add(make(10, 5));
  EXPECT_THROW(sweep.add(make(14, 2)), ContractViolation);  // tail overlap
  EXPECT_THROW(sweep.add(make(8, 3)), ContractViolation);   // head overlap
  EXPECT_THROW(sweep.add(make(11, 1)), ContractViolation);  // containment

  sweep.add(make(20, 5));  // disjoint but gapped
  EXPECT_FALSE(sweep.contiguous());
  EXPECT_THROW((void)sweep.to_batch_summary(), ContractViolation);
  EXPECT_EQ(sweep.to_partial_batch_summary().num_runs, 10);
  EXPECT_EQ(sweep.num_runs(), 10);
  ASSERT_EQ(sweep.ranges().size(), 2u);
}

// -- crash-atomic writes ----------------------------------------------------

TEST(AtomicWrite, WritesContentAndReplacesExistingFiles) {
  const std::string dir = temp_dir("atomic_write");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/artifact.json";
  ASSERT_TRUE(obs::write_text_file_atomic(path, "{\"v\":1}\n"));
  ASSERT_TRUE(obs::write_text_file_atomic(path, "{\"v\":2}\n"));
  std::ifstream is(path);
  std::string content((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "{\"v\":2}\n");
  // No temp litter left behind.
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1);
}

TEST(AtomicWrite, ConcurrentWritersNeverTearTheFile) {
  // Threads of ONE process writing one path (the checkpoint manifest, when
  // a reporter thread reopens the store while the supervisor commits):
  // every write must succeed, and every read must see one whole payload.
  const std::string dir = temp_dir("atomic_concurrent");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/manifest.json";
  constexpr int kThreads = 8;
  constexpr int kWrites = 200;
  const auto payload = [](int t, int i) {
    // Long and distinct per (thread, write), so an interleaving shows.
    return std::to_string(t) + ":" + std::to_string(i) + ":" +
           std::string(4096 + 97 * static_cast<std::size_t>(t),
                       static_cast<char>('a' + t)) +
           "\n";
  };
  std::atomic<int> failed_writes{0};
  std::atomic<int> torn_reads{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kWrites; ++i) {
        if (!obs::write_text_file_atomic(path, payload(t, i))) ++failed_writes;
        std::ifstream is(path);
        const std::string got((std::istreambuf_iterator<char>(is)),
                              std::istreambuf_iterator<char>());
        int wt = -1;
        int wi = -1;
        if (std::sscanf(got.c_str(), "%d:%d:", &wt, &wi) != 2 || wt < 0 ||
            wt >= kThreads || got != payload(wt, wi))
          ++torn_reads;
      }
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(failed_writes.load(), 0);
  EXPECT_EQ(torn_reads.load(), 0);
  // Every temp file was renamed into place: only the artifact remains.
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1);
}

TEST(AtomicWrite, FailsCleanlyOnMissingDirectory) {
  EXPECT_FALSE(obs::write_text_file_atomic(
      temp_dir("no_such_dir") + "/sub/artifact.json", "x"));
}

// -- the checkpoint store ---------------------------------------------------

SweepConfig small_config() {
  SweepConfig config;
  config.protocol = "two";
  config.num_processes = 2;
  config.scheduler = "random";
  config.range = {1, 20};
  config.shard_size = 8;
  config.max_total_steps = 100'000;
  return config;
}

ShardSummary compute_shard(const CheckpointStore& store, int index) {
  TwoProcessProtocol protocol;
  ShardSummary s;
  s.range = store.shard_range(index);
  s.summary = run_range(protocol, {0, 1}, s.range);
  return s;
}

TEST(CheckpointStore, FreshOpenCommitAndResume) {
  const std::string dir = temp_dir("ckpt_fresh");
  const SweepConfig config = small_config();
  {
    CheckpointStore store(dir);
    EXPECT_TRUE(store.open(config).empty());
    EXPECT_EQ(store.num_shards(), 3);  // 8 + 8 + 4
    EXPECT_EQ(store.shard_range(2), (SeedRange{17, 4}));

    ASSERT_TRUE(store.write_shard(1, compute_shard(store, 1)));
    EXPECT_FALSE(store.is_complete(1));  // written but not committed
    ASSERT_TRUE(store.commit_shard(1));
    EXPECT_TRUE(store.is_complete(1));
  }
  {
    // Reopen: the manifest remembers the commit.
    CheckpointStore store(dir);
    const std::vector<int> done = store.open(config);
    ASSERT_EQ(done, (std::vector<int>{1}));
    const ShardSummary loaded = store.load_shard(1);
    EXPECT_EQ(loaded.range, (SeedRange{9, 8}));
    EXPECT_EQ(store.merged().num_runs(), 8);
  }
}

TEST(CheckpointStore, AdoptsOrphanedShardFilesOnOpen) {
  // A worker that died between write_shard and commit leaves a valid file
  // not listed in the manifest; open() must claim it, because determinism
  // makes it byte-equal to what a retry would recompute.
  const std::string dir = temp_dir("ckpt_orphan");
  const SweepConfig config = small_config();
  {
    CheckpointStore store(dir);
    (void)store.open(config);
    ASSERT_TRUE(store.write_shard(0, compute_shard(store, 0)));
    // No commit: simulate the supervisor dying here.
  }
  {
    CheckpointStore store(dir);
    EXPECT_EQ(store.open(config), (std::vector<int>{0}));
  }
}

TEST(CheckpointStore, IgnoresTornShardFilesAndStrayTmp) {
  const std::string dir = temp_dir("ckpt_torn");
  const SweepConfig config = small_config();
  CheckpointStore probe(dir);
  (void)probe.open(config);
  {
    std::ofstream os(probe.shard_path(2), std::ios::trunc);
    os << "{\"artifact\": \"cilcoord.batch_summ";  // torn mid-write
  }
  {
    std::ofstream os(probe.shard_path(1) + ".tmp.12345", std::ios::trunc);
    os << "leftover";
  }
  CheckpointStore store(dir);
  EXPECT_TRUE(store.open(config).empty());
  EXPECT_THROW((void)store.load_shard(2), ContractViolation);
  EXPECT_FALSE(store.commit_shard(2));
}

/// A shard file as an older build wrote it: cilcoord.batch_summary.v1,
/// with per-run sample vectors in seed order.
std::string v1_shard_text(const SeedRange& r) {
  Json samples = Json::object();
  for (const char* name :
       {"steps", "steps_p0", "steps_p1", "max_register_bits"}) {
    Json v = Json::array();
    for (std::int64_t i = 0; i < r.num_runs; ++i) v.push_back(Json(4));
    samples[name] = std::move(v);
  }
  samples["probe"] = Json::array();
  Json doc = Json::object();
  doc["artifact"] = Json("cilcoord.batch_summary.v1");
  doc["first_seed"] = Json(std::to_string(r.first_seed));
  doc["num_runs"] = Json(r.num_runs);
  doc["decided_runs"] = Json(r.num_runs);
  Json decisions = Json::object();
  decisions["0"] = Json(r.num_runs);
  doc["decision_counts"] = std::move(decisions);
  doc["total_steps"] = Json(4 * r.num_runs);
  doc["recoveries"] = Json(0);
  doc["samples"] = std::move(samples);
  Json wall = Json::object();
  wall["wall_seconds"] = Json(0.0);
  wall["construct_seconds"] = Json(0.0);
  wall["run_seconds"] = Json(0.0);
  doc["wall"] = std::move(wall);
  return doc.dump() + "\n";
}

TEST(CheckpointStore, OlderFormatOrphanIsRerunNotMerged) {
  const std::string dir = temp_dir("ckpt_v1_orphan");
  const SweepConfig config = small_config();
  {
    CheckpointStore probe(dir);
    (void)probe.open(config);
    std::ofstream os(probe.shard_path(0), std::ios::trunc);
    os << v1_shard_text(probe.shard_range(0));
  }
  CheckpointStore store(dir);
  EXPECT_TRUE(store.open(config).empty());  // not adopted
  EXPECT_FALSE(store.commit_shard(0));      // nor committable
  // A retry overwrites it with this build's format, which commits.
  ASSERT_TRUE(store.write_shard(0, compute_shard(store, 0)));
  EXPECT_TRUE(store.commit_shard(0));
  EXPECT_EQ(store.merged().num_runs(), 8);
}

TEST(CheckpointStore, RefusesToResumeOverACommittedOlderFormatShard) {
  const std::string dir = temp_dir("ckpt_v1_committed");
  const SweepConfig config = small_config();
  {
    CheckpointStore store(dir);
    (void)store.open(config);
    ASSERT_TRUE(store.write_shard(0, compute_shard(store, 0)));
    ASSERT_TRUE(store.commit_shard(0));
    std::ofstream os(store.shard_path(0), std::ios::trunc);
    os << v1_shard_text(store.shard_range(0));
  }
  CheckpointStore reopen(dir);
  EXPECT_THROW((void)reopen.open(config), ContractViolation);
}

TEST(CheckpointStore, RefusesAForeignConfig) {
  const std::string dir = temp_dir("ckpt_foreign");
  CheckpointStore store(dir);
  (void)store.open(small_config());

  SweepConfig other = small_config();
  other.range.num_runs = 40;  // a different sweep entirely
  CheckpointStore reopen(dir);
  EXPECT_THROW((void)reopen.open(other), ContractViolation);

  SweepConfig scheduler_change = small_config();
  scheduler_change.scheduler = "avoid";
  CheckpointStore reopen2(dir);
  EXPECT_THROW((void)reopen2.open(scheduler_change), ContractViolation);
}

TEST(CheckpointStore, WriteShardRejectsTheWrongRange) {
  const std::string dir = temp_dir("ckpt_range");
  CheckpointStore store(dir);
  (void)store.open(small_config());
  ShardSummary wrong = compute_shard(store, 0);
  wrong.range.first_seed += 1;
  wrong.range.num_runs = wrong.summary.num_runs;
  EXPECT_THROW((void)store.write_shard(0, wrong), ContractViolation);
}

TEST(CheckpointStore, SweepConfigJsonRoundTrips) {
  SweepConfig config = small_config();
  config.range.first_seed = (1ULL << 60) + 9;
  const SweepConfig back = fabric::sweep_config_from_json(
      Json::parse(fabric::sweep_config_to_json(config).dump()));
  EXPECT_EQ(back, config);
}

// -- the manifest decoder ----------------------------------------------------
//
// A resume trusts the manifest on disk, so its decoder must refuse anything
// but a well-formed document: never read a prefix of a number, wrap a
// negative seed, or truncate an index into another shard's.

TEST(CheckpointStore, ManifestDecoderRejectsMalformedNumbers) {
  const Json good = fabric::sweep_config_to_json(small_config());
  for (const char* seed : {"-1", "12abc", "abc", "", " 12", "+12",
                           "18446744073709551616"}) {
    Json bad = good;
    bad["first_seed"] = Json(seed);
    EXPECT_THROW((void)fabric::sweep_config_from_json(bad), ContractViolation)
        << seed;
  }
  Json wide = good;
  wide["num_processes"] = Json(std::int64_t{4294967298});
  EXPECT_THROW((void)fabric::sweep_config_from_json(wide), ContractViolation);

  // An index of 2^32 once truncated to shard 0 and resumed over it.
  const std::string dir = temp_dir("ckpt_wide_index");
  {
    CheckpointStore store(dir);
    (void)store.open(small_config());
  }
  Json manifest = fabric::manifest_to_json({small_config(), {}});
  manifest["completed"].push_back(Json(std::int64_t{1} << 32));
  EXPECT_THROW((void)fabric::manifest_from_json(manifest), ContractViolation);
  ASSERT_TRUE(obs::write_text_file_atomic(dir + "/manifest.json",
                                          manifest.dump() + "\n"));
  CheckpointStore reopen(dir);
  EXPECT_THROW((void)reopen.open(small_config()), ContractViolation);
}

TEST(ManifestFuzz, MutantsRoundTripOrThrowContractViolation) {
  std::vector<Json> seeds;
  seeds.push_back(fabric::manifest_to_json({small_config(), {}}));
  {
    SweepConfig config = small_config();
    config.protocol = "unbounded";
    config.num_processes = 3;
    config.scheduler = "avoid";
    config.range = {18446744073709551000ULL, 600};
    config.fault_plan = "fp1;seed=1;crash=0@2;recover=0@8";
    seeds.push_back(fabric::manifest_to_json({config, {0, 2, 74}}));
  }
  const std::vector<std::string> vocabulary = {
      "cilcoord.sweep_manifest.v1", "two", "unbounded", "bounded", "random",
      "avoid"};

  std::mt19937_64 gen(20261018);
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 6000; ++trial) {
    Json doc = seeds[static_cast<std::size_t>(trial) % seeds.size()];
    const int rounds = 1 + static_cast<int>(gen() % 3);
    for (int r = 0; r < rounds; ++r) {
      std::size_t index = 0;
      const std::size_t target = gen() % count_nodes(doc);
      auto f = [&](const Json& node) {
        return mutate_node(node, gen, vocabulary);
      };
      doc = rebuild(doc, index, target, f);
    }
    std::string text = doc.dump();
    if (gen() % 8 == 0) text.resize(gen() % (text.size() + 1));  // truncate
    if (gen() % 8 == 0 && !text.empty())
      text[gen() % text.size()] = static_cast<char>(gen() % 128);  // flip
    try {
      const fabric::Manifest got =
          fabric::manifest_from_json(Json::parse(text));
      const std::string once = fabric::manifest_to_json(got).dump();
      const fabric::Manifest again =
          fabric::manifest_from_json(Json::parse(once));
      ASSERT_EQ(fabric::manifest_to_json(again).dump(), once) << text;
      ASSERT_EQ(again.config, got.config) << text;
      ASSERT_EQ(again.completed, got.completed) << text;
      ++accepted;
    } catch (const ContractViolation&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "non-contract exception " << e.what() << " on " << text;
    }
  }
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 3000);
}

// -- the shard ledger --------------------------------------------------------
//
// The lease/retry/commit state machine run_supervised and the fleet
// dispatcher share, driven here with an injected clock: no fork, no sockets.

using fabric::ShardLedger;
using Clock = ShardLedger::Clock;

std::vector<fabric::ShardTask> ledger_tasks(int n) {
  std::vector<fabric::ShardTask> tasks;
  for (int i = 0; i < n; ++i)
    tasks.push_back({i, {static_cast<std::uint64_t>(10 * i), 10}});
  return tasks;
}

Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

const Clock::time_point kT0{};

TEST(ShardLedger, LeasesLowestIndexFirst) {
  ShardLedger ledger(ledger_tasks(4), {}, 3, 1.0, 8.0);
  EXPECT_EQ(ledger.lease(kT0)->task.index, 0);
  EXPECT_EQ(ledger.lease(kT0)->task.index, 1);
  // A requeued shard whose gate has opened outranks higher fresh ones.
  EXPECT_TRUE(ledger.fail(0, "exit=7", kT0));
  const auto next = ledger.lease(after(kT0, 1.0));
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->task.index, 0);
  EXPECT_EQ(next->task.range, (SeedRange{0, 10}));
  EXPECT_EQ(ledger.lease(kT0)->task.index, 2);
  EXPECT_EQ(ledger.lease(kT0)->task.index, 3);
  EXPECT_FALSE(ledger.lease(kT0).has_value());  // everything in flight
}

TEST(ShardLedger, BackoffGateFollowsBackoffSeconds) {
  constexpr int kBudget = 6;
  ShardLedger ledger(ledger_tasks(1), {}, kBudget, 0.1, 0.25);
  Clock::time_point now = kT0;
  for (int k = 0; k < kBudget; ++k) {
    const auto lease = ledger.lease(now);
    ASSERT_TRUE(lease.has_value()) << k;
    ASSERT_TRUE(ledger.fail(0, "signal=9", now));
    const Clock::time_point gate =
        after(now, fabric::backoff_seconds(0.1, 0.25, k));
    EXPECT_FALSE(ledger.lease(gate - Clock::duration(1)).has_value()) << k;
    now = gate;
  }
  EXPECT_TRUE(ledger.lease(now).has_value());
  EXPECT_EQ(ledger.outcome().retries, kBudget);
}

TEST(ShardLedger, AttemptNumbersCountEveryEarlierLease) {
  // The attempt a lease carries is what ShardWorker receives and what the
  // fleet's job id fs<i>a<k> names: 0 first, +1 per retry. A budget of 3
  // means 3 retries after the first try: 4 tries in all.
  ShardLedger ledger(ledger_tasks(2), {}, 3, 0.0, 0.0);
  for (int k = 0; k < 4; ++k) {
    const auto lease = ledger.lease(kT0);
    ASSERT_TRUE(lease.has_value());
    EXPECT_EQ(lease->task.index, 0);
    EXPECT_EQ(lease->attempt, k);
    EXPECT_EQ(ledger.fail(0, "exit=1", kT0), k < 3) << k;
  }
  const auto fresh = ledger.lease(kT0);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->task.index, 1);
  EXPECT_EQ(fresh->attempt, 0);
  EXPECT_TRUE(ledger.succeed(1));

  const fabric::SweepOutcome out = ledger.outcome();
  EXPECT_EQ(out.shards[0].attempts, 4);
  EXPECT_EQ(out.shards[1].attempts, 1);
  EXPECT_EQ(out.retries, 3);
}

TEST(ShardLedger, ExhaustedShardIsIncompleteForTheSupervisor) {
  ShardLedger ledger(ledger_tasks(3), {}, 1, 0.0, 0.0);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(ledger.lease(kT0).has_value());
  EXPECT_TRUE(ledger.succeed(0));
  EXPECT_TRUE(ledger.succeed(2));
  EXPECT_TRUE(ledger.fail(1, "exit=9", kT0));
  EXPECT_FALSE(ledger.finished());
  ASSERT_EQ(ledger.lease(kT0)->task.index, 1);
  EXPECT_FALSE(ledger.fail(1, "timeout", kT0));  // budget spent
  EXPECT_TRUE(ledger.finished());
  EXPECT_FALSE(ledger.lease(after(kT0, 3600.0)).has_value());

  const fabric::SweepOutcome out = ledger.outcome();
  EXPECT_FALSE(out.complete());
  EXPECT_EQ(out.incomplete_shards, (std::vector<int>{1}));
  EXPECT_EQ(out.shards[1].attempts, 2);
  EXPECT_EQ(out.shards[1].last_error, "timeout");
  EXPECT_FALSE(out.shards[1].completed);
  EXPECT_TRUE(out.shards[0].completed);
}

TEST(ShardLedger, LocalLeaseTakesExhaustedShardsWithoutBackoff) {
  ShardLedger ledger(ledger_tasks(3), {}, 0, 60.0, 60.0);
  ASSERT_EQ(ledger.lease(kT0)->task.index, 0);
  ASSERT_EQ(ledger.lease(kT0)->task.index, 1);
  EXPECT_FALSE(ledger.fail(1, "peer 2", kT0));  // budget 0: exhausted
  // Peers alive: only the exhausted shard goes local, ahead of pending 2.
  const auto local = ledger.lease_local(false);
  ASSERT_TRUE(local.has_value());
  EXPECT_EQ(local->task.index, 1);
  EXPECT_EQ(local->attempt, 1);
  EXPECT_FALSE(ledger.lease_local(false).has_value());
  EXPECT_TRUE(ledger.succeed(1));
  // No peer alive: a pending shard goes local too, its gate ignored.
  ShardLedger gated(ledger_tasks(1), {}, 3, 60.0, 60.0);
  ASSERT_TRUE(gated.lease(kT0).has_value());
  EXPECT_TRUE(gated.fail(0, "peer 1", kT0));
  EXPECT_FALSE(gated.lease(kT0).has_value());
  EXPECT_FALSE(gated.lease_local(false).has_value());
  ASSERT_TRUE(gated.lease_local(true).has_value());
  EXPECT_TRUE(gated.succeed(0));
  EXPECT_TRUE(gated.finished());
  EXPECT_TRUE(gated.outcome().complete());
}

TEST(ShardLedger, ResumedShardsAreNeverLeased) {
  // Index 99 is not a task: a committed list may name shards outside it.
  ShardLedger ledger(ledger_tasks(4), {0, 2, 99}, 3, 0.0, 0.0);
  EXPECT_EQ(ledger.lease(kT0)->task.index, 1);
  EXPECT_EQ(ledger.lease(kT0)->task.index, 3);
  EXPECT_FALSE(ledger.lease(kT0).has_value());
  EXPECT_FALSE(ledger.lease_local(true).has_value());
  EXPECT_TRUE(ledger.succeed(1));
  EXPECT_TRUE(ledger.succeed(3));
  EXPECT_TRUE(ledger.outcome().complete());

  const fabric::SweepOutcome out = ledger.outcome();
  EXPECT_TRUE(out.shards[0].resumed);
  EXPECT_TRUE(out.shards[0].completed);
  EXPECT_EQ(out.shards[0].attempts, 0);
  EXPECT_FALSE(out.shards[1].resumed);
  EXPECT_EQ(out.shards[1].attempts, 1);
}

TEST(ShardLedger, LateDuplicateSucceedIsANoOp) {
  ShardLedger ledger(ledger_tasks(2), {1}, 3, 0.0, 0.0);
  ASSERT_TRUE(ledger.lease(kT0).has_value());
  EXPECT_TRUE(ledger.succeed(0));
  EXPECT_FALSE(ledger.succeed(0));
  EXPECT_FALSE(ledger.succeed(1));  // resumed: already done
  const fabric::SweepOutcome out = ledger.outcome();
  EXPECT_TRUE(out.complete());
  EXPECT_EQ(out.shards[0].attempts, 1);
  EXPECT_EQ(out.retries, 0);
}

}  // namespace
}  // namespace cil
