#include "fabric/checkpoint.h"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <limits>
#include <string>

#include "obs/export.h"
#include "util/check.h"

namespace cil::fabric {

using obs::Json;

namespace {

/// A manifest integer stored as an int: range-checked before the cast.
int to_int(const Json& j, const char* what) {
  const std::int64_t v = j.as_int();
  CIL_CHECK_MSG(v >= 0 && v <= std::numeric_limits<int>::max(),
                std::string("sweep_manifest: ") + what + " out of range");
  return static_cast<int>(v);
}

}  // namespace

Json sweep_config_to_json(const SweepConfig& config) {
  Json j = Json::object();
  j["protocol"] = Json(config.protocol);
  j["num_processes"] = Json(config.num_processes);
  j["scheduler"] = Json(config.scheduler);
  j["first_seed"] = Json(std::to_string(config.range.first_seed));
  j["num_runs"] = Json(config.range.num_runs);
  j["shard_size"] = Json(config.shard_size);
  j["max_total_steps"] = Json(config.max_total_steps);
  j["check_every"] = Json(config.check_every);
  // Written only when set: fault-free manifests keep their historical shape,
  // so pre-fault checkpoints stay resumable by this binary and vice versa.
  if (!config.fault_plan.empty()) j["fault_plan"] = Json(config.fault_plan);
  return j;
}

SweepConfig sweep_config_from_json(const Json& j) {
  SweepConfig c;
  c.protocol = j.at("protocol").as_string();
  c.num_processes = to_int(j.at("num_processes"), "num_processes");
  c.scheduler = j.at("scheduler").as_string();
  c.range.first_seed = parse_seed(j.at("first_seed").as_string(),
                                  "sweep_manifest: first_seed");
  c.range.num_runs = j.at("num_runs").as_int();
  c.shard_size = j.at("shard_size").as_int();
  c.max_total_steps = j.at("max_total_steps").as_int();
  c.check_every = j.at("check_every").as_int();
  if (const Json* v = j.find("fault_plan")) c.fault_plan = v->as_string();
  return c;
}

Json manifest_to_json(const Manifest& manifest) {
  Json doc = Json::object();
  doc["artifact"] = Json(kManifestArtifactName);
  doc["config"] = sweep_config_to_json(manifest.config);
  Json completed = Json::array();
  for (const int i : manifest.completed) completed.push_back(Json(i));
  doc["completed"] = std::move(completed);
  return doc;
}

Manifest manifest_from_json(const Json& doc) {
  const Json* tag = doc.find("artifact");
  CIL_CHECK_MSG(tag != nullptr && tag->is_string() &&
                    tag->as_string() == kManifestArtifactName,
                std::string("not a ") + kManifestArtifactName + " document");
  Manifest m;
  m.config = sweep_config_from_json(doc.at("config"));
  for (const Json& idx : doc.at("completed").as_array())
    m.completed.push_back(to_int(idx, "completed shard index"));
  return m;
}

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {
  CIL_EXPECTS(!dir_.empty());
}

std::string CheckpointStore::shard_path(int index) const {
  return dir_ + "/shard_" + std::to_string(index) + ".json";
}

std::string CheckpointStore::manifest_path() const {
  return dir_ + "/manifest.json";
}

SeedRange CheckpointStore::shard_range(int index) const {
  CIL_EXPECTS(opened_);
  CIL_EXPECTS(index >= 0 && index < num_shards());
  return shards_[static_cast<std::size_t>(index)];
}

bool CheckpointStore::is_complete(int index) const {
  return std::binary_search(completed_.begin(), completed_.end(), index);
}

std::vector<int> CheckpointStore::completed() const { return completed_; }

std::vector<int> CheckpointStore::open(const SweepConfig& config) {
  CIL_EXPECTS(config.range.num_runs >= 1);
  CIL_EXPECTS(config.shard_size >= 1);
  config_ = config;
  shards_ = shard_seed_range(config.range, config.shard_size);
  completed_.clear();
  opened_ = true;

  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  CIL_CHECK_MSG(std::filesystem::is_directory(dir_),
                "CheckpointStore: cannot create directory " + dir_);

  std::string text;
  if (obs::read_text_file(manifest_path(), text)) {
    const Manifest stored = manifest_from_json(Json::parse(text));
    CIL_CHECK_MSG(stored.config == config_,
                  "CheckpointStore: " + dir_ +
                      " holds a checkpoint for a different sweep config; "
                      "refusing to resume (use a fresh directory)");
    completed_ = stored.completed;
    for (const int i : completed_)
      CIL_CHECK_MSG(i < num_shards(),
                    "CheckpointStore: manifest lists shard index out of range");
    std::sort(completed_.begin(), completed_.end());
    completed_.erase(std::unique(completed_.begin(), completed_.end()),
                     completed_.end());
    // A committed shard this binary cannot read (e.g. a batch_summary.v1
    // file from an older build) must never be merged: refuse now, before
    // any work, rather than after re-running the missing shards.
    for (const int i : completed_) {
      try {
        (void)load_shard(i);
      } catch (const std::exception& e) {
        CIL_CHECK_MSG(false, "CheckpointStore: committed " + shard_path(i) +
                                 " is unreadable (" + e.what() +
                                 "); refusing to resume (use a fresh "
                                 "directory)");
      }
    }
  }

  // Adopt orphans: shard files a killed worker finished writing (atomic, so
  // complete and valid) that never made it into the manifest.
  bool adopted = false;
  for (int i = 0; i < num_shards(); ++i) {
    if (is_complete(i)) continue;
    if (!std::filesystem::exists(shard_path(i))) continue;
    try {
      (void)load_shard(i);
    } catch (...) {
      continue;  // torn, corrupt or older-format file: let a retry win
    }
    completed_.insert(
        std::upper_bound(completed_.begin(), completed_.end(), i), i);
    adopted = true;
  }
  if (adopted || !std::filesystem::exists(manifest_path())) write_manifest();
  return completed_;
}

bool CheckpointStore::write_shard(int index, const ShardSummary& shard) const {
  CIL_EXPECTS(opened_);
  CIL_CHECK_MSG(shard.range == shard_range(index),
                "CheckpointStore: shard summary covers the wrong seed range");
  return obs::write_text_file_atomic(
      shard_path(index), shard_summary_to_json(shard).dump() + "\n");
}

ShardSummary CheckpointStore::load_shard(int index) const {
  CIL_EXPECTS(opened_);
  std::string text;
  CIL_CHECK_MSG(obs::read_text_file(shard_path(index), text),
                "CheckpointStore: cannot read " + shard_path(index));
  const ShardSummary shard = shard_summary_from_json(Json::parse(text));
  CIL_CHECK_MSG(shard.range == shard_range(index),
                "CheckpointStore: " + shard_path(index) +
                    " covers the wrong seed range");
  return shard;
}

bool CheckpointStore::commit_shard(int index) {
  CIL_EXPECTS(opened_);
  if (is_complete(index)) return true;
  try {
    (void)load_shard(index);
  } catch (...) {
    return false;
  }
  completed_.insert(
      std::upper_bound(completed_.begin(), completed_.end(), index), index);
  write_manifest();
  return true;
}

SweepSummary CheckpointStore::merged() const {
  CIL_EXPECTS(opened_);
  SweepSummary out;
  for (const int i : completed_) out.add(load_shard(i));
  return out;
}

void CheckpointStore::write_manifest() const {
  const std::string text =
      manifest_to_json({config_, completed_}).dump() + "\n";
  CIL_CHECK_MSG(obs::write_text_file_atomic(manifest_path(), text),
                "CheckpointStore: cannot write " + manifest_path());
}

}  // namespace cil::fabric
