// Lightweight statistics used by the bench harness and the tests:
// streaming moments, order statistics, tail tables, and a geometric-tail
// fit used to compare measured decision-time tails against the paper's
// exponential bounds (Theorems 7 and 9).
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace cil {

/// Streaming mean/variance via Welford's algorithm, plus min/max.
class RunningStats {
 public:
  void add(double x);

  std::int64_t count() const { return n_; }
  double mean() const;
  /// Unbiased sample variance (n-1 denominator); 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  /// Half-width of the 95% confidence interval for the mean (normal approx).
  double ci95_halfwidth() const;

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Collects integer samples as an exact value -> count histogram and answers
/// distribution queries. Used for steps-to-decision and max-register-value
/// distributions.
///
/// Storage is O(distinct values), never O(samples): small non-negative
/// values (below kDenseLimit) count in a dense array indexed by value, so
/// the per-sample add() is an increment with no lookup and, once the array
/// has grown to the largest value seen, no allocation; negative or large
/// outliers go to a sparse map. Every order statistic and tail probability
/// is a function of the histogram alone, so two sets with the same bins
/// answer every query identically, whatever order the samples arrived in —
/// which is what makes merge() (histogram addition) commutative and
/// associative.
class SampleSet {
 public:
  /// Values in [0, kDenseLimit) use the dense array.
  static constexpr std::int64_t kDenseLimit = 4096;

  void add(std::int64_t x) {
    if (static_cast<std::uint64_t>(x) < dense_.size()) {
      ++dense_[static_cast<std::size_t>(x)];
      ++n_;
    } else {
      add(x, 1);
    }
  }
  /// Add `count` (>= 1) samples of `value`.
  void add(std::int64_t value, std::int64_t count);
  /// Add every sample of `other` (histogram addition).
  void merge(const SampleSet& other);

  std::int64_t count() const { return n_; }
  double mean() const;
  double stddev() const;
  std::int64_t min() const;
  std::int64_t max() const;
  /// q in [0,1]; nearest-rank percentile.
  std::int64_t percentile(double q) const;
  /// Empirical P[X >= k].
  double tail_at_least(std::int64_t k) const;
  /// Empirical survival table for k = 0..k_max: vector[k] = P[X >= k].
  std::vector<double> survival(std::int64_t k_max) const;
  /// The distinct values with their counts, ascending by value; every count
  /// is positive and the counts sum to count().
  std::vector<std::pair<std::int64_t, std::int64_t>> bins() const;
  /// Every sample, ascending: an O(count()) expansion of bins(), built on
  /// each call. Kept for callers that want a flat list; prefer bins().
  std::vector<std::int64_t> samples() const;

  /// Equal histograms (the dense/sparse split is not observable).
  friend bool operator==(const SampleSet& a, const SampleSet& b) {
    return a.n_ == b.n_ && a.bins() == b.bins();
  }

 private:
  /// Calls f(value, count) for every non-empty bin, ascending by value.
  template <class F>
  void for_each_bin(F&& f) const;

  std::vector<std::int64_t> dense_;  ///< dense_[v] = count of v
  std::map<std::int64_t, std::int64_t> sparse_;  ///< v < 0 or v >= kDenseLimit
  std::int64_t n_ = 0;
};

/// One-stop summary of a SampleSet: the single code path behind every bench
/// mean/CI table and machine-readable run-report (bench/bench_util.h).
struct Summary {
  std::int64_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< unbiased (n-1)
  double ci95 = 0.0;    ///< half-width of the 95% CI (normal approximation)
  std::int64_t p50 = 0;
  std::int64_t p99 = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
};

/// Requires at least one sample.
Summary summarize(const SampleSet& s);

/// Fit P[X >= k] ≈ C * r^k on the tail of a sample set by least squares on
/// log-survival, ignoring bins with fewer than `min_count` samples. Returns
/// the estimated ratio r — e.g. the paper's Theorem 9 predicts r <= 3/4 for
/// the num-field distribution of the unbounded protocol.
double fit_geometric_tail_ratio(const SampleSet& s, std::int64_t k_min = 1,
                                std::int64_t min_count = 10);

}  // namespace cil
