// The run registry: how the names every surface speaks become the objects
// a run is made of. tools/sweep, tools/hunt, the coordination service
// (src/svc), the fleet, loadgen and the benches all go through here, so
// these four decisions live in exactly one place:
//
//  * a protocol name, a process count and an ablation (a planted-bug
//    variant) become a Protocol — make_protocol;
//  * which protocols have a fixed process count — process_count;
//  * a sweep's inputs: process i proposes i & 1 — sweep_inputs;
//  * an adversary name becomes the LaneSchedSpec that seeds each run's
//    scheduler — sched_spec. The spec's defaults are the seeding constants
//    that cross-surface bit-identity rests on.
//
// Registered protocols (process count in parentheses where it is fixed):
//
//   name         object                          ablations
//   two (2)      Figure 1, TwoProcessProtocol    warm-recovery
//   one-bit (2)  Figure 1, one-bit registers     —
//   unbounded    Figure 2, UnboundedProtocol     literal-cond2
//   swsr         Figure 2 on 1W1R registers      —
//   bounded (3)  §6, BoundedThreeProtocol        naive-unanimity, no-guard
//   naive        §5's flawed "natural" protocol  —
//   multivalued  Theorem 5, 16 values from CP2   —
//
// The sweep surfaces (tools/sweep and every svc job kind) serve two,
// unbounded and bounded; tools/hunt serves all seven. Every rejection is a
// ContractViolation whose message names the bad value and fits a client.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sched/lane_engine.h"
#include "sched/protocol.h"

namespace cil::registry {

/// Build `name`'s protocol with `n` processes (ignored where the count is
/// fixed) and the planted bug `ablation` ("" for the paper's protocol).
/// `warm_lease` overrides Figure 1's warm-restart lease
/// (TwoProcessProtocol::Options::warm_lease_steps); it only matters under
/// the warm-recovery ablation. one-bit's registers are preset to the sweep
/// inputs (0, 1). Throws on an unknown name or an ablation that does not
/// belong to the protocol.
std::unique_ptr<Protocol> make_protocol(
    const std::string& name, int n, const std::string& ablation = "",
    std::optional<std::int64_t> warm_lease = std::nullopt);

/// The process count `name` runs with: its fixed count, or `n`.
int process_count(const std::string& name, int n);

/// Throws unless `ablation` is "" or one of `name`'s planted bugs.
void check_ablation(const std::string& name, const std::string& ablation);

/// Throws unless the sweep surfaces serve `name` (two|unbounded|bounded).
void check_sweep_protocol(const std::string& name);

/// A sweep's inputs for n processes: process i proposes i & 1.
std::vector<Value> sweep_inputs(int n);

/// How each run's scheduler derives from its seed, for an adversary name:
/// "random" (RandomScheduler) or "avoid" (DecisionAvoidingAdversary).
LaneSchedSpec sched_spec(const std::string& adversary);

}  // namespace cil::registry
