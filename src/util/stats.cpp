#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace cil {

namespace {
__extension__ using Int128 = __int128;  // GCC/Clang; exact sums of int64s
}  // namespace

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const {
  CIL_EXPECTS(n_ > 0);
  return mean_;
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  CIL_EXPECTS(n_ > 0);
  return min_;
}

double RunningStats::max() const {
  CIL_EXPECTS(n_ > 0);
  return max_;
}

double RunningStats::ci95_halfwidth() const {
  if (n_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

void SampleSet::add(std::int64_t value, std::int64_t count) {
  CIL_EXPECTS(count > 0);
  CIL_EXPECTS(count <= std::numeric_limits<std::int64_t>::max() - n_);
  if (value >= 0 && value < kDenseLimit) {
    const auto v = static_cast<std::size_t>(value);
    if (v >= dense_.size()) {
      // Geometric growth: at most log2(kDenseLimit) allocations per set.
      dense_.resize(std::min<std::size_t>(
          kDenseLimit, std::max<std::size_t>({v + 1, 2 * dense_.size(), 16})));
    }
    dense_[v] += count;
  } else {
    sparse_[value] += count;
  }
  n_ += count;
}

void SampleSet::merge(const SampleSet& other) {
  other.for_each_bin(
      [this](std::int64_t value, std::int64_t count) { add(value, count); });
}

template <class F>
void SampleSet::for_each_bin(F&& f) const {
  auto it = sparse_.begin();
  for (; it != sparse_.end() && it->first < 0; ++it) f(it->first, it->second);
  for (std::size_t v = 0; v < dense_.size(); ++v)
    if (dense_[v] != 0) f(static_cast<std::int64_t>(v), dense_[v]);
  for (; it != sparse_.end(); ++it) f(it->first, it->second);
}

std::vector<std::pair<std::int64_t, std::int64_t>> SampleSet::bins() const {
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  for_each_bin([&out](std::int64_t value, std::int64_t count) {
    out.emplace_back(value, count);
  });
  return out;
}

std::vector<std::int64_t> SampleSet::samples() const {
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(n_));
  for_each_bin([&out](std::int64_t value, std::int64_t count) {
    out.insert(out.end(), static_cast<std::size_t>(count), value);
  });
  return out;
}

double SampleSet::mean() const {
  CIL_EXPECTS(n_ > 0);
  // Exact integer sum: the same double a sequential sum gives whenever that
  // sum is exact (below 2^53), and no order dependence beyond it.
  Int128 sum = 0;
  for_each_bin([&sum](std::int64_t value, std::int64_t count) {
    sum += static_cast<Int128>(value) * count;
  });
  return static_cast<double>(sum) / static_cast<double>(n_);
}

double SampleSet::stddev() const {
  if (n_ < 2) return 0.0;
  const double m = mean();
  double acc = 0;
  for_each_bin([&](std::int64_t value, std::int64_t count) {
    const double d = static_cast<double>(value) - m;
    acc += static_cast<double>(count) * d * d;
  });
  return std::sqrt(acc / static_cast<double>(n_ - 1));
}

std::int64_t SampleSet::min() const {
  CIL_EXPECTS(n_ > 0);
  if (!sparse_.empty() && sparse_.begin()->first < 0)
    return sparse_.begin()->first;
  for (std::size_t v = 0; v < dense_.size(); ++v)
    if (dense_[v] != 0) return static_cast<std::int64_t>(v);
  return sparse_.begin()->first;
}

std::int64_t SampleSet::max() const {
  CIL_EXPECTS(n_ > 0);
  if (!sparse_.empty() && sparse_.rbegin()->first >= 0)
    return sparse_.rbegin()->first;
  for (std::size_t v = dense_.size(); v-- > 0;)
    if (dense_[v] != 0) return static_cast<std::int64_t>(v);
  return sparse_.rbegin()->first;
}

std::int64_t SampleSet::percentile(double q) const {
  CIL_EXPECTS(n_ > 0);
  CIL_EXPECTS(q >= 0.0 && q <= 1.0);
  // Nearest-rank: the smallest value with at least q*n samples <= it.
  std::int64_t rank =
      static_cast<std::int64_t>(std::ceil(q * static_cast<double>(n_)));
  if (rank > 0) --rank;
  if (rank >= n_) rank = n_ - 1;
  std::int64_t below = 0;  // samples in the bins already passed
  std::int64_t out = 0;
  bool found = false;
  for_each_bin([&](std::int64_t value, std::int64_t count) {
    if (found) return;
    below += count;
    if (below > rank) {
      out = value;
      found = true;
    }
  });
  return out;
}

double SampleSet::tail_at_least(std::int64_t k) const {
  if (n_ == 0) return 0.0;
  std::int64_t at_least = 0;
  for_each_bin([&](std::int64_t value, std::int64_t count) {
    if (value >= k) at_least += count;
  });
  return static_cast<double>(at_least) / static_cast<double>(n_);
}

std::vector<double> SampleSet::survival(std::int64_t k_max) const {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(k_max) + 1);
  for (std::int64_t k = 0; k <= k_max; ++k) out.push_back(tail_at_least(k));
  return out;
}

Summary summarize(const SampleSet& s) {
  CIL_EXPECTS(s.count() > 0);
  Summary out;
  out.count = s.count();
  out.mean = s.mean();
  out.stddev = s.stddev();
  out.ci95 = s.count() >= 2 ? 1.96 * out.stddev /
                                  std::sqrt(static_cast<double>(s.count()))
                            : 0.0;
  out.p50 = s.percentile(0.5);
  out.p99 = s.percentile(0.99);
  out.min = s.min();
  out.max = s.max();
  return out;
}

double fit_geometric_tail_ratio(const SampleSet& s, std::int64_t k_min,
                                std::int64_t min_count) {
  CIL_EXPECTS(s.count() > 0);
  // Least squares on (k, log P[X >= k]) for the ks where the empirical tail
  // still has enough mass to be trustworthy.
  std::vector<std::pair<double, double>> pts;
  for (std::int64_t k = k_min; k <= s.max(); ++k) {
    const double p = s.tail_at_least(k);
    const double n_at_k = p * static_cast<double>(s.count());
    if (n_at_k < static_cast<double>(min_count)) break;
    pts.emplace_back(static_cast<double>(k), std::log(p));
  }
  if (pts.size() < 2) return 0.0;  // tail too short to fit
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (auto [x, y] : pts) {
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double n = static_cast<double>(pts.size());
  const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  return std::exp(slope);
}

}  // namespace cil
