// The coordination service's wire protocol: versioned job specs in,
// line-framed JSON events out.
//
// Transport framing is one JSON document per '\n'-terminated line, both
// directions — the same JSONL convention every exporter in src/obs already
// speaks, so a captured response stream is directly `traceview --check`able
// and a shell client is `nc | jq`.
//
// Client -> server: one request per line, a cilcoord.job.v1 object:
//
//   {"job":"cilcoord.job.v1","kind":"sweep","id":"r1","protocol":"unbounded",
//    "n":3,"adversary":"random","first_seed":"1","seeds":200}
//
// Server -> client: frames tagged with the request's id:
//
//   {"event":"hello",...}                      once per connection
//   {"event":"accepted","id":...,"job":{...}}  spec echoed back normalized
//   {"event":"progress","id":...,"done":..,"total":..,...}
//   {"event":"trace","id":...,"e":{...}}       replay event stream (opt-in)
//   {"event":"result","id":...,"summary":{...}}   (or worst_plan / replay)
//   {"event":"error","id":...,"what":"..."}
//   {"event":"done","id":...}                  always the job's last frame
//   {"event":"pong","id":...}                  answer to kind=ping
//
// Jobs on one connection run strictly in submission order; a client may
// pipeline requests and demultiplex frames by id. The spec parser enforces
// hard caps on every numeric field (this is the service's attack surface —
// a request must not be able to ask for a year of compute), and the
// documents themselves are parsed under obs::ParseLimits::untrusted().
#pragma once

#include <cstdint>
#include <string>

#include "obs/json.h"
#include "sched/protocol.h"

namespace cil::svc {

/// Artifact tag of a request document.
inline constexpr const char* kJobArtifactName = "cilcoord.job.v1";

/// Protocol revision announced in the hello frame.
inline constexpr int kWireVersion = 1;

/// One parsed, validated request. Field groups are by kind; unused groups
/// keep their defaults and are not echoed back.
struct JobSpec {
  std::string kind;  ///< "sweep" | "hunt" | "replay" | "ping"
  std::string id;    ///< client-chosen tag, echoed in every frame

  // kind=sweep (also the substrate knobs hunt/replay reuse where noted)
  std::string protocol = "unbounded";  ///< "two" | "unbounded" | "bounded"
  int n = 3;  ///< unbounded only; the registry's fixed count otherwise
  std::string adversary = "random";    ///< "random" | "avoid"
  std::uint64_t first_seed = 1;
  std::int64_t seeds = 100;
  std::int64_t steps = 100'000;  ///< per-run max_total_steps
  std::int64_t check_every = 1;
  std::int64_t chunk = 0;  ///< progress granularity; 0 = server default
  int threads = 1;         ///< BatchRunner threads per chunk
  bool fleet = false;      ///< fan this sweep across the daemon's fleet

  // kind=hunt
  std::string search = "evo";  ///< "uniform" | "anneal" | "evo"
  std::string ablation;        ///< "" or a planted-bug variant name
  std::int64_t budget = 1000;
  std::uint64_t search_seed = 1;
  std::int64_t eval_steps = 20'000;
  std::int64_t horizon = 64;
  bool recovery = false;
  bool reg_faults = false;

  // kind=replay
  obs::Json worst_plan;        ///< inline cilcoord.worst_plan.v1 document
  bool stream_events = false;  ///< stream the replay's events as trace frames
};

/// Parse + validate a request document. Throws ContractViolation with a
/// client-presentable message on a wrong tag, unknown kind, unknown enum
/// value, any out-of-cap numeric field, or a protocol, adversary or
/// ablation the run registry (core/registry.h) does not serve here.
JobSpec job_spec_from_json(const obs::Json& doc);

/// The normalized spec (only the fields meaningful for its kind): the echo
/// in the accepted frame, and the encoder every client-side request goes
/// through. job_spec_from_json of it reproduces the spec.
obs::Json job_spec_to_json(const JobSpec& spec);

// Frame builders. Each returns one complete line including the trailing
// '\n', ready to append to a session's write buffer.
std::string frame_hello();
std::string frame_accepted(const JobSpec& spec);
std::string frame_progress(const std::string& id, std::int64_t done,
                           std::int64_t total, std::int64_t decided,
                           std::int64_t total_steps);
/// `event_line` is a complete JSON object line from
/// obs::event_to_json_line; it is embedded verbatim.
std::string frame_trace(const std::string& id, const std::string& event_line);
/// `key` names the payload member: "summary" (sweep), "worst_plan" (hunt),
/// "replay" (replay).
std::string frame_result(const std::string& id, const std::string& key,
                         obs::Json payload);
std::string frame_error(const std::string& id, const std::string& what);
std::string frame_done(const std::string& id);
std::string frame_pong(const std::string& id);

}  // namespace cil::svc
