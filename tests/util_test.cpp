#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "util/bitfield.h"
#include "util/check.h"
#include "util/net.h"
#include "util/rng.h"
#include "util/stats.h"

namespace cil {
namespace {

TEST(Check, CheckThrowsOnFalse) {
  EXPECT_THROW(CIL_CHECK(1 == 2), ContractViolation);
  EXPECT_NO_THROW(CIL_CHECK(1 == 1));
}

TEST(Check, MessageIncludesExpressionAndNote) {
  try {
    CIL_CHECK_MSG(false, "extra context");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("false"), std::string::npos);
    EXPECT_NE(what.find("extra context"), std::string::npos);
  }
}

TEST(Check, NarrowRoundTrips) {
  EXPECT_EQ(narrow<std::int32_t>(std::int64_t{42}), 42);
  EXPECT_EQ(narrow<std::uint8_t>(255), 255);
}

TEST(Check, NarrowThrowsOnLoss) {
  EXPECT_THROW(narrow<std::int8_t>(1000), ContractViolation);
  EXPECT_THROW(narrow<std::uint32_t>(std::int64_t{-1}), ContractViolation);
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.bits(), b.bits());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differ = 0;
  for (int i = 0; i < 64; ++i) differ += (a.bits() != b.bits());
  EXPECT_GT(differ, 60);
}

TEST(Rng, FlipIsRoughlyFair) {
  Rng rng(123);
  int heads = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) heads += rng.flip();
  EXPECT_NEAR(static_cast<double>(heads) / trials, 0.5, 0.01);
}

TEST(Rng, BelowStaysInRangeAndCoversIt) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ForkIndependence) {
  Rng parent(5);
  Rng child = parent.fork();
  // The child stream should not simply replay the parent stream.
  Rng parent2(5);
  (void)parent2.bits();  // advance equally
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (child.bits() == parent2.bits());
  EXPECT_LT(same, 4);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, CiShrinksWithSamples) {
  RunningStats small, large;
  Rng rng(3);
  for (int i = 0; i < 10; ++i) small.add(rng.uniform());
  for (int i = 0; i < 10000; ++i) large.add(rng.uniform());
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(SampleSet, PercentilesAndTail) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_EQ(s.min(), 1);
  EXPECT_EQ(s.max(), 100);
  EXPECT_EQ(s.percentile(0.5), 50);
  EXPECT_EQ(s.percentile(1.0), 100);
  EXPECT_DOUBLE_EQ(s.tail_at_least(101), 0.0);
  EXPECT_DOUBLE_EQ(s.tail_at_least(1), 1.0);
  EXPECT_DOUBLE_EQ(s.tail_at_least(51), 0.5);
}

TEST(SampleSet, SurvivalTable) {
  SampleSet s;
  s.add(0);
  s.add(1);
  s.add(1);
  s.add(3);
  const auto surv = s.survival(4);
  ASSERT_EQ(surv.size(), 5u);
  EXPECT_DOUBLE_EQ(surv[0], 1.0);
  EXPECT_DOUBLE_EQ(surv[1], 0.75);
  EXPECT_DOUBLE_EQ(surv[2], 0.25);
  EXPECT_DOUBLE_EQ(surv[3], 0.25);
  EXPECT_DOUBLE_EQ(surv[4], 0.0);
}

TEST(SampleSet, WeightedAddMergeAndBins) {
  SampleSet s;
  s.add(3);
  s.add(-7, 2);                          // sparse: negative
  s.add(SampleSet::kDenseLimit + 5, 3);  // sparse: large
  s.add(0, 4);
  s.add(3);
  EXPECT_EQ(s.count(), 11);
  using Bins = std::vector<std::pair<std::int64_t, std::int64_t>>;
  EXPECT_EQ(s.bins(), (Bins{{-7, 2}, {0, 4}, {3, 2},
                            {SampleSet::kDenseLimit + 5, 3}}));
  EXPECT_EQ(s.min(), -7);
  EXPECT_EQ(s.max(), SampleSet::kDenseLimit + 5);
  const std::vector<std::int64_t> flat = s.samples();
  EXPECT_TRUE(std::is_sorted(flat.begin(), flat.end()));
  EXPECT_EQ(flat.size(), 11u);

  SampleSet other;
  other.add(3, 5);
  other.add(-7);
  s.merge(other);
  EXPECT_EQ(s.count(), 17);
  EXPECT_EQ(s.bins(), (Bins{{-7, 3}, {0, 4}, {3, 7},
                            {SampleSet::kDenseLimit + 5, 3}}));
  EXPECT_THROW(s.add(1, 0), ContractViolation);
}

TEST(SampleSet, EqualityIsOfHistogramsNotInsertionOrder) {
  SampleSet a;
  SampleSet b;
  for (const std::int64_t x : {5, 1, 9000, 1, -2}) a.add(x);
  for (const std::int64_t x : {-2, 1, 1, 5, 9000}) b.add(x);
  EXPECT_EQ(a, b);
  SampleSet c;  // grew its dense array differently; same histogram
  c.add(1, 2);
  c.add(5);
  c.add(-2);
  c.add(9000);
  EXPECT_EQ(a, c);
  c.add(5);
  EXPECT_FALSE(a == c);
}

TEST(SampleSet, AnswersMatchASortedReference) {
  // Every query against the plain sorted-vector definitions, on a mix of
  // dense, negative and large values.
  Rng rng(7);
  SampleSet s;
  std::vector<std::int64_t> ref;
  for (int i = 0; i < 5000; ++i) {
    std::int64_t x = static_cast<std::int64_t>(rng.below(40));
    if (rng.with_probability(0.05))
      x = -static_cast<std::int64_t>(rng.below(9));
    if (rng.with_probability(0.05))
      x = SampleSet::kDenseLimit + static_cast<std::int64_t>(rng.below(100000));
    s.add(x);
    ref.push_back(x);
  }
  std::sort(ref.begin(), ref.end());
  const auto n = static_cast<double>(ref.size());
  double sum = 0;
  for (const std::int64_t x : ref) sum += static_cast<double>(x);
  EXPECT_EQ(s.mean(), sum / n);  // exact: the integer sum is below 2^53
  double acc = 0;
  for (const std::int64_t x : ref) {
    const double d = static_cast<double>(x) - sum / n;
    acc += d * d;
  }
  EXPECT_NEAR(s.stddev(), std::sqrt(acc / (n - 1)), 1e-9 * s.stddev());
  EXPECT_EQ(s.min(), ref.front());
  EXPECT_EQ(s.max(), ref.back());
  for (int k = 0; k <= 100; ++k) {
    const double q = k / 100.0;
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
    if (rank > 0) --rank;
    if (rank >= ref.size()) rank = ref.size() - 1;
    EXPECT_EQ(s.percentile(q), ref[rank]) << q;
  }
  for (const std::int64_t k :
       {-10, -1, 0, 1, 20, 39, 40, 4096, 50000, 200000}) {
    const auto at_least = static_cast<double>(
        ref.end() - std::lower_bound(ref.begin(), ref.end(), k));
    EXPECT_EQ(s.tail_at_least(k), at_least / n) << k;
  }
}

TEST(Stats, GeometricTailFitRecoversRatio) {
  // Sample a geometric distribution with ratio 0.75 (Theorem 9's bound).
  Rng rng(42);
  SampleSet s;
  for (int i = 0; i < 200000; ++i) {
    std::int64_t k = 0;
    while (rng.with_probability(0.75)) ++k;
    s.add(k);
  }
  const double r = fit_geometric_tail_ratio(s);
  EXPECT_NEAR(r, 0.75, 0.03);
}

TEST(BitField, PackUnpack) {
  BitLayout layout;
  const BitField a = layout.field(3);
  const BitField b = layout.field(5);
  EXPECT_EQ(layout.width(), 8);
  std::uint64_t w = 0;
  w = a.set(w, 5);
  w = b.set(w, 19);
  EXPECT_EQ(a.get(w), 5u);
  EXPECT_EQ(b.get(w), 19u);
  // Overwriting one field leaves the other intact.
  w = a.set(w, 2);
  EXPECT_EQ(a.get(w), 2u);
  EXPECT_EQ(b.get(w), 19u);
}

TEST(BitField, RejectsOverflowingValue) {
  const BitField f{0, 3};
  std::uint64_t w = 0;
  EXPECT_THROW(f.set(w, 8), ContractViolation);
  EXPECT_NO_THROW(f.set(w, 7));
}

TEST(BitField, BitWidth) {
  EXPECT_EQ(bit_width_u64(0), 0);
  EXPECT_EQ(bit_width_u64(1), 1);
  EXPECT_EQ(bit_width_u64(2), 2);
  EXPECT_EQ(bit_width_u64(255), 8);
  EXPECT_EQ(bit_width_u64(256), 9);
}

#ifndef _WIN32

TEST(Net, WriteAllAndReadRetryRoundTripThroughPipe) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  // Big enough to exceed the default 64KiB pipe buffer if written in one
  // go, so write_all's short-write loop actually loops.
  const std::string payload(200'000, 'q');
  std::string received;
  std::thread reader([&] {
    char buf[4096];
    for (;;) {
      const ssize_t n = net::read_retry(fds[0], buf, sizeof buf);
      ASSERT_GE(n, 0);
      if (n == 0) break;
      received.append(buf, static_cast<std::size_t>(n));
    }
  });
  EXPECT_TRUE(net::write_all(fds[1], payload));
  EXPECT_EQ(net::close_retry(fds[1]), 0);
  reader.join();
  EXPECT_EQ(received, payload);
  EXPECT_EQ(net::close_retry(fds[0]), 0);
}

TEST(Net, WriteAllFailsCleanlyOnClosedPipe) {
  net::ignore_sigpipe();  // without this the EPIPE below would kill us
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  EXPECT_EQ(net::close_retry(fds[0]), 0);
  // The write must report failure (EPIPE), not raise SIGPIPE.
  EXPECT_FALSE(net::write_all(fds[1], "doomed"));
  EXPECT_EQ(errno, EPIPE);
  EXPECT_EQ(net::close_retry(fds[1]), 0);
}

TEST(Net, SetNonblockingMakesReadsReturnEagain) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  EXPECT_TRUE(net::set_nonblocking(fds[0]));
  char buf[8];
  EXPECT_EQ(net::read_retry(fds[0], buf, sizeof buf), -1);
  EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);
  EXPECT_EQ(net::close_retry(fds[0]), 0);
  EXPECT_EQ(net::close_retry(fds[1]), 0);
}

#endif  // _WIN32

}  // namespace
}  // namespace cil
