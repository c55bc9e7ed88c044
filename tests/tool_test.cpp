// Command-line pins that need more than an exit code: what tools/sweep
// records as a checkpoint's identity, tools/hunt refusing an ablation that
// does not belong to its protocol (both resolved by core/registry.h) or a
// malformed worst-plan artifact, and tools/coordd refusing an empty peer
// address.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/json.h"

namespace cil {
namespace {

using obs::Json;

/// A fresh directory private to this test process.
std::string temp_dir(const std::string& stem) {
  const std::string dir = ::testing::TempDir() + "/tool_" + stem + "_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Exit code of `cmd`, its stdout+stderr captured in `log`.
int run(const std::string& cmd, const std::string& log) {
  const int status = std::system((cmd + " > " + log + " 2>&1").c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(ToolSweep, FixedSizeProtocolRecordsItsRealProcessCount) {
  const std::string dir = temp_dir("sweep_two");
  const std::string sweep = std::string(CIL_SWEEP_PATH) +
                            " --protocol=two --seeds=60 --shard-size=20"
                            " --workers=2 --checkpoint=" + dir + "/ckpt";
  const std::string log = dir + "/log";
  ASSERT_EQ(run(sweep + " --n=3", log), 0) << read_text(log);
  const Json manifest = Json::parse(read_text(dir + "/ckpt/manifest.json"));
  EXPECT_EQ(manifest.at("config").at("num_processes").as_int(), 2);

  // Figure 1 ignores --n, so --n=5 names the same sweep: the directory
  // resumes with every shard committed instead of being refused.
  ASSERT_EQ(run(sweep + " --n=5 --verbose", log), 0) << read_text(log);
  EXPECT_NE(read_text(log).find("resuming, 3/3 shards already committed"),
            std::string::npos)
      << read_text(log);
  const Json artifact = Json::parse(read_text(dir + "/ckpt/summary.json"));
  EXPECT_EQ(artifact.at("sweep").at("config").at("num_processes").as_int(), 2);

  // The serial path records the same identity and verifies bit-identical.
  ASSERT_EQ(run(sweep + " --n=5 --serial --out=" + dir +
                    "/serial.json --verify-against=" + dir +
                    "/ckpt/summary.json",
                log),
            0)
      << read_text(log);
  const Json serial = Json::parse(read_text(dir + "/serial.json"));
  EXPECT_EQ(serial.at("sweep").at("config").at("num_processes").as_int(), 2);
  std::filesystem::remove_all(dir);
}

TEST(ToolHunt, ForeignOrUnknownAblationExitsTwo) {
  const std::string dir = temp_dir("hunt_ablation");
  const std::string hunt = CIL_HUNT_PATH;
  const std::string log = dir + "/log";
  for (const std::string mode : {" --seeds=3", " --search=uniform --budget=3"})
    for (const std::string ablation : {"no-guard", "typo"})
      EXPECT_EQ(run(hunt + " --protocol=two --ablation=" + ablation + mode,
                    log),
                2)
          << ablation << mode << ": " << read_text(log);
  EXPECT_EQ(run(hunt + " --protocol=quantum --seeds=1", log), 2);
  EXPECT_EQ(run(hunt + " --protocol=ben-or --ablation=no-guard --search=evo"
                       " --budget=3",
                log),
            2);

  // The protocol's own ablation still runs; an artifact re-labelled with a
  // foreign one is refused on replay rather than replayed without it.
  const std::string plan = dir + "/plan.json";
  ASSERT_EQ(run(hunt + " --protocol=unbounded --ablation=literal-cond2"
                       " --search=uniform --budget=3 --plan-out=" + plan,
                log),
            0)
      << read_text(log);
  EXPECT_EQ(run(hunt + " --replay=" + plan, log), 0) << read_text(log);
  Json doc = Json::parse(read_text(plan));
  doc["ablation"] = Json("no-guard");
  ASSERT_TRUE(obs::write_text_file(plan, doc.dump()));
  EXPECT_EQ(run(hunt + " --replay=" + plan, log), 2) << read_text(log);
  std::filesystem::remove_all(dir);
}

TEST(ToolHunt, ReplayOfMalformedArtifactExitsTwo) {
  const std::string dir = temp_dir("hunt_replay");
  const std::string hunt = CIL_HUNT_PATH;
  const std::string log = dir + "/log";
  const std::string plan = dir + "/plan.json";
  ASSERT_EQ(run(hunt + " --protocol=two --search=uniform --budget=3"
                       " --plan-out=" + plan,
                log),
            0)
      << read_text(log);
  const Json good = Json::parse(read_text(plan));
  const std::string seed = good.at("sched_seed").as_string();
  const std::pair<const char*, Json> mutants[] = {
      {"sched_seed", Json(seed + "abc")},
      {"sched_seed", Json("abc")},
      {"n", Json(std::int64_t{4'294'967'298})}};
  for (const auto& [key, value] : mutants) {
    Json doc = good;
    doc[key] = value;
    ASSERT_TRUE(obs::write_text_file(plan, doc.dump()));
    EXPECT_EQ(run(hunt + " --replay=" + plan, log), 2)
        << key << "=" << value.dump() << ": " << read_text(log);
  }
  std::filesystem::remove_all(dir);
}

#ifdef CIL_COORDD_PATH
TEST(ToolCoordd, EmptyPeerAddressIsAUsageError) {
  // A trailing or doubled comma in --peers would name an unreachable
  // fleet member; coordd refuses it before binding anything.
  const std::string dir = temp_dir("coordd_peers");
  const std::string coordd = std::string(CIL_COORDD_PATH) +
                             " --port=0 --fleet-id=0 --peers=";
  const std::string log = dir + "/log";
  for (const std::string peers :
       {"127.0.0.1:1,127.0.0.1:2,", "127.0.0.1:1,,127.0.0.1:2", ","}) {
    EXPECT_EQ(run(coordd + peers, log), 2) << peers << ": " << read_text(log);
    EXPECT_NE(read_text(log).find("empty peer address"), std::string::npos)
        << read_text(log);
  }
  std::filesystem::remove_all(dir);
}
#endif

}  // namespace
}  // namespace cil
