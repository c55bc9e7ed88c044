#include "fabric/summary.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <limits>
#include <string>

#include "util/check.h"

namespace cil::fabric {

namespace {

using obs::Json;

constexpr const char* kHistogramNames[] = {"steps", "steps_p0", "steps_p1",
                                           "max_register_bits", "probe"};

/// The five histograms of a (const or mutable) summary, in
/// kHistogramNames order.
template <class Summary>
auto histograms(Summary& s) {
  return std::array{&s.steps, &s.steps_p0, &s.steps_p1, &s.max_register_bits,
                    &s.probe};
}

Json histogram_to_json(const SampleSet& s) {
  Json arr = Json::array();
  for (const auto& [value, count] : s.bins()) {
    Json bin = Json::array();
    bin.push_back(Json(value));
    bin.push_back(Json(count));
    arr.push_back(std::move(bin));
  }
  return arr;
}

[[noreturn]] void reject(const std::string& what) {
  throw ContractViolation("batch_summary artifact: " + what);
}

/// Bins must be [value, count] pairs, strictly ascending by value, with
/// positive counts whose sum fits int64.
SampleSet histogram_from_json(const Json& arr, const std::string& name) {
  SampleSet out;
  std::int64_t prev = 0;
  for (const Json& bin : arr.as_array()) {
    if (!bin.is_array() || bin.size() != 2)
      reject("histogram '" + name + "' bin is not a [value, count] pair");
    const std::int64_t value = bin.at(0).as_int();
    const std::int64_t count = bin.at(1).as_int();
    if (out.count() > 0 && value <= prev)
      reject("histogram '" + name + "' values not strictly ascending");
    if (count <= 0) reject("histogram '" + name + "' has a non-positive count");
    if (count > std::numeric_limits<std::int64_t>::max() - out.count())
      reject("histogram '" + name + "' counts overflow");
    out.add(value, count);
    prev = value;
  }
  return out;
}

template <class T>
T parse_decimal(const std::string& s, const char* what) {
  T out{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out);
  if (s.empty() || ec != std::errc() || ptr != end)
    throw ContractViolation(std::string(what) +
                            " is not a decimal integer in range");
  return out;
}

std::string fingerprint_to_hex(std::uint64_t f) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(f));
  return buf;
}

std::uint64_t fingerprint_from_hex(const std::string& s) {
  if (s.size() != 16 ||
      s.find_first_not_of("0123456789abcdef") != std::string::npos)
    reject("fingerprint must be 16 lowercase hex digits");
  std::uint64_t out = 0;
  std::from_chars(s.data(), s.data() + s.size(), out, 16);
  return out;
}

std::int64_t non_negative(const Json& j, const char* name) {
  const std::int64_t v = j.as_int();
  if (v < 0) reject(std::string("negative ") + name);
  return v;
}

}  // namespace

std::uint64_t parse_seed(const std::string& s, const char* what) {
  return parse_decimal<std::uint64_t>(s, what);
}

Json shard_summary_to_json(const ShardSummary& shard) {
  const BatchSummary& s = shard.summary;
  CIL_EXPECTS(s.num_runs == shard.range.num_runs);

  Json doc = Json::object();
  doc["artifact"] = Json(kBatchSummaryArtifactName);
  doc["first_seed"] = Json(std::to_string(shard.range.first_seed));
  doc["num_runs"] = Json(s.num_runs);
  doc["decided_runs"] = Json(s.decided_runs);
  Json decisions = Json::object();
  for (const auto& [value, count] : s.decision_counts)
    decisions[std::to_string(value)] = Json(count);
  doc["decision_counts"] = std::move(decisions);
  doc["total_steps"] = Json(s.total_steps);
  doc["recoveries"] = Json(s.recoveries);
  doc["fingerprint"] = Json(fingerprint_to_hex(s.fingerprint));

  Json hists = Json::object();
  const auto sets = histograms(s);
  for (std::size_t i = 0; i < sets.size(); ++i)
    hists[kHistogramNames[i]] = histogram_to_json(*sets[i]);
  doc["histograms"] = std::move(hists);

  Json wall = Json::object();
  wall["wall_seconds"] = Json(s.wall_seconds);
  wall["construct_seconds"] = Json(s.construct_seconds);
  wall["run_seconds"] = Json(s.run_seconds);
  doc["wall"] = std::move(wall);
  return doc;
}

ShardSummary shard_summary_from_json(const Json& doc) {
  const Json* tag = doc.find("artifact");
  if (tag == nullptr || !tag->is_string() ||
      tag->as_string() != kBatchSummaryArtifactName)
    reject(std::string("not a ") + kBatchSummaryArtifactName + " document");
  ShardSummary out;
  out.range.first_seed = parse_seed(doc.at("first_seed").as_string(),
                                    "batch_summary artifact: first_seed");
  out.range.num_runs = non_negative(doc.at("num_runs"), "num_runs");

  BatchSummary& s = out.summary;
  s.num_runs = out.range.num_runs;
  s.decided_runs = non_negative(doc.at("decided_runs"), "decided_runs");
  if (s.decided_runs > s.num_runs) reject("decided_runs exceeds num_runs");
  std::int64_t deciding = 0;
  for (const auto& [key, count] : doc.at("decision_counts").as_object()) {
    const Value value =
        parse_decimal<Value>(key, "batch_summary artifact: decision key");
    if (value == kNoValue || std::to_string(value) != key)
      reject("decision key '" + key + "' is not a canonical decision value");
    const std::int64_t c = count.as_int();
    if (c <= 0 || c > s.num_runs - deciding)
      reject("decision counts are non-positive or exceed num_runs");
    deciding += c;
    s.decision_counts[value] = c;
  }
  s.total_steps = non_negative(doc.at("total_steps"), "total_steps");
  s.recoveries = non_negative(doc.at("recoveries"), "recoveries");
  s.fingerprint = fingerprint_from_hex(doc.at("fingerprint").as_string());

  const Json& hists = doc.at("histograms");
  const auto sets = histograms(s);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const std::string name = kHistogramNames[i];
    *sets[i] = histogram_from_json(hists.at(name), name);
    const bool may_be_empty = sets[i] == &s.probe;
    if (sets[i]->count() != s.num_runs &&
        !(may_be_empty && sets[i]->count() == 0))
      reject("histogram '" + name + "' total disagrees with num_runs");
  }

  const Json& wall = doc.at("wall");
  s.wall_seconds = wall.at("wall_seconds").as_number();
  s.construct_seconds = wall.at("construct_seconds").as_number();
  s.run_seconds = wall.at("run_seconds").as_number();
  return out;
}

bool deterministic_fields_equal(const BatchSummary& a, const BatchSummary& b) {
  return a.num_runs == b.num_runs && a.decided_runs == b.decided_runs &&
         a.decision_counts == b.decision_counts &&
         a.total_steps == b.total_steps && a.recoveries == b.recoveries &&
         a.fingerprint == b.fingerprint && a.steps == b.steps &&
         a.steps_p0 == b.steps_p0 && a.steps_p1 == b.steps_p1 &&
         a.max_register_bits == b.max_register_bits && a.probe == b.probe;
}

void SweepSummary::check_disjoint(const SeedRange& range) const {
  if (range.num_runs == 0 || shards_.empty()) return;
  const std::uint64_t last =
      range.first_seed + static_cast<std::uint64_t>(range.num_runs) - 1;
  // The only candidates for overlap are the nearest shards on either side.
  auto next = shards_.lower_bound(range.first_seed);
  if (next != shards_.end()) {
    CIL_CHECK_MSG(next->first > last,
                  "SweepSummary: shard seed ranges overlap");
  }
  if (next != shards_.begin()) {
    const auto& prev = *std::prev(next);
    const std::uint64_t prev_last =
        prev.first + static_cast<std::uint64_t>(prev.second.range.num_runs) - 1;
    CIL_CHECK_MSG(prev_last < range.first_seed,
                  "SweepSummary: shard seed ranges overlap");
  }
}

void SweepSummary::add(const ShardSummary& shard) {
  CIL_CHECK_MSG(shard.summary.num_runs == shard.range.num_runs,
                "SweepSummary: shard summary disagrees with its seed range");
  if (shard.range.num_runs == 0) return;  // identity contribution
  check_disjoint(shard.range);
  shards_.emplace(shard.range.first_seed, shard);
}

void SweepSummary::add(const SweepSummary& other) {
  for (const auto& [first_seed, shard] : other.shards_) {
    (void)first_seed;
    add(shard);
  }
}

std::int64_t SweepSummary::num_runs() const {
  std::int64_t n = 0;
  for (const auto& [first_seed, shard] : shards_) {
    (void)first_seed;
    n += shard.range.num_runs;
  }
  return n;
}

std::vector<SeedRange> SweepSummary::ranges() const {
  std::vector<SeedRange> out;
  out.reserve(shards_.size());
  for (const auto& [first_seed, shard] : shards_) {
    (void)first_seed;
    out.push_back(shard.range);
  }
  return out;
}

bool SweepSummary::contiguous() const {
  std::uint64_t expect = 0;
  bool first = true;
  for (const auto& [first_seed, shard] : shards_) {
    if (!first && first_seed != expect) return false;
    first = false;
    expect = first_seed + static_cast<std::uint64_t>(shard.range.num_runs);
  }
  return true;
}

SeedRange SweepSummary::span() const {
  CIL_CHECK_MSG(!shards_.empty(), "SweepSummary: span() of an empty sweep");
  return {shards_.begin()->first, num_runs()};
}

BatchSummary SweepSummary::to_batch_summary() const {
  CIL_CHECK_MSG(contiguous(),
                "SweepSummary: refusing to concatenate across a seed gap; "
                "use to_partial_batch_summary() and report the gaps");
  return to_partial_batch_summary();
}

ShardSummary SweepSummary::to_shard() const {
  return {span(), to_batch_summary()};
}

BatchSummary SweepSummary::to_partial_batch_summary() const {
  BatchSummary out;
  for (const auto& [first_seed, shard] : shards_) {
    (void)first_seed;
    out.merge(shard.summary);
  }
  return out;
}

SweepSummary merge(const SweepSummary& a, const SweepSummary& b) {
  SweepSummary out = a;
  out.add(b);
  return out;
}

}  // namespace cil::fabric
