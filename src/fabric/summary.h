// Serialized, mergeable sweep summaries — the data plane of the fabric.
//
// A distributed sweep is a set of worker processes, each running one
// contiguous SeedRange shard through BatchRunner and persisting its
// BatchSummary as a versioned JSON artifact (cilcoord.batch_summary.v2).
// The artifact's size is O(distinct values), not O(runs): the per-run
// distributions travel as exact value -> count histograms, and which seed
// produced which record is pinned by a 64-bit fingerprint sum (see
// run_fingerprint in sched/batch.h).
//
// Shards combine through SweepSummary, a map keyed by each shard's
// first_seed whose union is the merge operation. Shards must be
// pairwise-disjoint seed ranges, and every field of a summary reduces by
// addition (counts, sums, histogram bins, the fingerprint mod 2^64), so the
// merge is associative and commutative BY CONSTRUCTION: any merge tree over
// any arrival order yields the same summary, bit-identical to a
// single-process sweep over the whole range (pinned by fabric_test against
// random partitions).
//
// What "bit-identical" covers: every field of BatchSummary except the
// wall-clock block (wall_seconds / construct_seconds / run_seconds), which
// is summed but explicitly outside the determinism contract — see
// deterministic_fields_equal().
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"
#include "sched/batch.h"

namespace cil::fabric {

/// Artifact tag for one serialized shard (or merged sweep) summary.
inline constexpr const char* kBatchSummaryArtifactName =
    "cilcoord.batch_summary.v2";

/// One shard's result: which seeds it covered and what came out. The range
/// is carried redundantly with summary.num_runs so a parsed artifact can be
/// validated (num_runs must equal range.num_runs and every histogram's
/// total).
struct ShardSummary {
  SeedRange range;
  BatchSummary summary;
};

/// Decode a 64-bit seed from its decimal-string form (the convention of
/// every fabric artifact): digits only — no sign, no trailing bytes — and
/// in range. Throws ContractViolation naming `what` otherwise.
std::uint64_t parse_seed(const std::string& s, const char* what);

/// Serialize one shard summary as a cilcoord.batch_summary.v2 document.
/// Seeds are 64-bit and JSON numbers are doubles, so first_seed travels as
/// a decimal string (same convention as search artifacts' sched_seed), and
/// the fingerprint as 16 lowercase hex digits. Histograms are arrays of
/// [value, count] pairs, ascending by value.
obs::Json shard_summary_to_json(const ShardSummary& shard);

/// Parse and validate a cilcoord.batch_summary.v2 document. Fleet peers
/// feed this untrusted bytes, so it throws ContractViolation on anything
/// but a well-formed document: a wrong artifact tag (v1 included), missing
/// or mistyped fields, counts out of range, histogram bins that are not
/// strictly ascending, non-positive bin counts, bin totals other than
/// num_runs (the probe histogram may also be empty), or a malformed
/// fingerprint.
ShardSummary shard_summary_from_json(const obs::Json& doc);

/// True when every deterministic field of the two summaries matches exactly
/// (counts, decision histogram, all five sample histograms, and the
/// fingerprint). The wall-clock block is ignored — it is honest
/// measurement, not part of the contract.
bool deterministic_fields_equal(const BatchSummary& a, const BatchSummary& b);

/// An order-insensitive accumulation of disjoint shard summaries. The merge
/// monoid of the fabric: empty() is the identity, add() is the operation,
/// and the internal map makes (A ∪ B) ∪ C == A ∪ (B ∪ C) structural rather
/// than something to prove per-field.
class SweepSummary {
 public:
  /// Fold one shard in. Throws ContractViolation if the shard's seed range
  /// overlaps any shard already held, or if the summary disagrees with the
  /// range on num_runs.
  void add(const ShardSummary& shard);

  /// Fold another accumulation in (same overlap rules, shard by shard).
  void add(const SweepSummary& other);

  bool empty() const { return shards_.empty(); }
  std::int64_t num_runs() const;
  std::size_t num_shards() const { return shards_.size(); }

  /// The held shard ranges, in seed order.
  std::vector<SeedRange> ranges() const;

  /// True when the held shards tile one gap-free contiguous seed range.
  bool contiguous() const;

  /// The covering range [lowest first_seed, highest last seed]. Only
  /// meaningful when contiguous(); throws ContractViolation when empty.
  SeedRange span() const;

  /// Add the shards into one BatchSummary — bit-identical to a
  /// single-process run when the shards are contiguous and complete.
  /// Wall-clock fields are summed across shards. Throws ContractViolation
  /// when the shards are not contiguous (a partial sweep must be reported
  /// as partial, not silently summed across a gap).
  BatchSummary to_batch_summary() const;

  /// Like to_batch_summary(), but for graceful degradation: adds whatever
  /// shards are present, gaps and all. Callers must report the missing
  /// ranges alongside (tools/sweep prints incomplete_shards).
  BatchSummary to_partial_batch_summary() const;

  /// {span(), to_batch_summary()} as one ShardSummary — the whole-sweep
  /// document a complete accumulation denotes, ready for
  /// shard_summary_to_json. This is what tools/sweep verifies against and
  /// what the coordination service streams back to a client at job end.
  /// Same preconditions as span()/to_batch_summary(): non-empty and
  /// contiguous.
  ShardSummary to_shard() const;

 private:
  void check_disjoint(const SeedRange& range) const;

  std::map<std::uint64_t, ShardSummary> shards_;  ///< keyed by first_seed
};

/// Convenience free function: the monoid operation on two accumulations.
SweepSummary merge(const SweepSummary& a, const SweepSummary& b);

}  // namespace cil::fabric
