#include "game/public_board.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"
#include "data/generators.h"
#include "exp/schemes.h"
#include "fleet/tenant.h"
#include "ldp/attacks.h"
#include "ldp/mechanism.h"
#include "ml/linreg.h"
#include "stats/quantile.h"

#include "game/summary_test_util.h"

namespace itrim {
namespace {

TEST(PublicBoardTest, EmptyQuantileFails) {
  PublicBoard board;
  board.Seal();
  EXPECT_FALSE(board.Quantile(0.5).ok());
  EXPECT_EQ(board.Quantile(0.5).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(board.PercentileRank(1.0), 0.0);
  EXPECT_EQ(board.FractionAtOrAbove(1.0), 0.0);
}

TEST(PublicBoardTest, RecordsAndQueries) {
  PublicBoard board;
  board.Record({4.0, 2.0, 3.0, 1.0});
  EXPECT_FALSE(board.sealed());
  board.Seal();
  EXPECT_TRUE(board.sealed());
  EXPECT_EQ(board.size(), 4u);
  EXPECT_EQ(board.total_recorded(), 4u);
  EXPECT_DOUBLE_EQ(board.Quantile(0.5).ValueOrDie(), 2.5);
}

TEST(PublicBoardTest, SealSortsTheValues) {
  PublicBoard board;
  board.Record({3.0, -1.0, 2.0, 2.0});
  EXPECT_EQ(board.values(), (std::vector<double>{3.0, -1.0, 2.0, 2.0}));
  board.Seal();
  EXPECT_EQ(board.values(), (std::vector<double>{-1.0, 2.0, 2.0, 3.0}));
}

TEST(PublicBoardTest, PercentileRank) {
  PublicBoard board;
  board.Record({1.0, 2.0, 3.0, 4.0});
  board.Seal();
  EXPECT_DOUBLE_EQ(board.PercentileRank(2.5), 0.5);
  EXPECT_DOUBLE_EQ(board.PercentileRank(0.0), 0.0);
  EXPECT_DOUBLE_EQ(board.PercentileRank(10.0), 1.0);
}

TEST(PublicBoardTest, FractionAtOrAboveCountsTiesAndIgnoresNaN) {
  PublicBoard board;
  board.Record({1.0, 2.0, 2.0, 3.0});
  board.Seal();
  EXPECT_DOUBLE_EQ(board.FractionAtOrAbove(2.0), 0.75);
  EXPECT_DOUBLE_EQ(board.FractionAtOrAbove(2.5), 0.25);
  EXPECT_DOUBLE_EQ(board.FractionAtOrAbove(-5.0), 1.0);
  EXPECT_DOUBLE_EQ(board.FractionAtOrAbove(5.0), 0.0);
  // `v >= NaN` holds for no value, so a NaN band edge counts nothing.
  EXPECT_EQ(board.FractionAtOrAbove(std::nan("")), 0.0);
  EXPECT_DOUBLE_EQ(
      board.FractionAtOrAbove(-std::numeric_limits<double>::infinity()), 1.0);
}

TEST(PublicBoardTest, CapacityBoundsMemory) {
  PublicBoard board(100, 1);
  for (int i = 0; i < 10000; ++i) board.RecordOne(static_cast<double>(i));
  EXPECT_EQ(board.size(), 100u);
  EXPECT_EQ(board.total_recorded(), 10000u);
}

TEST(PublicBoardTest, ReserveIsClampedToCapacity) {
  PublicBoard bounded(64, 1);
  bounded.Reserve(500);
  EXPECT_EQ(bounded.values().capacity(), 64u);
  PublicBoard unbounded(0, 1);
  unbounded.Reserve(500);
  EXPECT_EQ(unbounded.values().capacity(), 500u);
  PublicBoard roomy(20000, 1);
  roomy.Reserve(500);
  EXPECT_EQ(roomy.values().capacity(), 500u);
}

TEST(PublicBoardTest, ReservoirIsApproximatelyUnbiased) {
  // With uniform input, the capped board's median should track the stream
  // median.
  PublicBoard board(500, 2);
  Rng rng(9);
  for (int i = 0; i < 50000; ++i) board.RecordOne(rng.Uniform());
  board.Seal();
  EXPECT_NEAR(board.Quantile(0.5).ValueOrDie(), 0.5, 0.08);
  EXPECT_NEAR(board.Quantile(0.9).ValueOrDie(), 0.9, 0.08);
}

TEST(PublicBoardTest, ClearResetsAndUnseals) {
  PublicBoard board;
  board.Record({1.0, 2.0});
  board.Seal();
  board.Clear();
  EXPECT_FALSE(board.sealed());
  EXPECT_EQ(board.size(), 0u);
  EXPECT_EQ(board.total_recorded(), 0u);
  board.Seal();
  EXPECT_FALSE(board.Quantile(0.5).ok());
}

// A rebuild after Clear() repeats the reservoir draws of the first build,
// which is what lets a session restore rebuild its board by re-running
// the bootstrap.
TEST(PublicBoardTest, ClearRestartsTheReservoirStream) {
  PublicBoard board(8, 5);
  auto build = [&board] {
    Rng rng(13);
    for (int i = 0; i < 200; ++i) board.RecordOne(rng.Uniform());
    board.Seal();
    return board.values();
  };
  const std::vector<double> first = build();
  board.Clear();
  EXPECT_EQ(build(), first);
}

TEST(PublicBoardTest, UnboundedWhenCapacityZero) {
  PublicBoard board(0, 3);
  for (int i = 0; i < 5000; ++i) board.RecordOne(static_cast<double>(i));
  EXPECT_EQ(board.size(), 5000u);
}

// Every query of a sealed board against the same queries over `sorted`
// (the held values ordered by std::sort) on a 1,000-point grid: quantiles
// at q = i / 999, ranks and tail fractions at points spanning the values'
// range and a margin past each end.
void ExpectQueriesMatchStdSortedReplica(const PublicBoard& board,
                                        const std::vector<double>& sorted) {
  ASSERT_EQ(board.size(), sorted.size());
  for (size_t r = 0; r < sorted.size(); ++r) {
    ASSERT_TRUE(BitEqual(board.values()[r], sorted[r])) << "rank " << r;
  }
  const double lo = sorted.front();
  const double hi = sorted.back();
  const double margin = 0.05 * (hi - lo);
  const size_t n = sorted.size();
  for (size_t i = 0; i < 1000; ++i) {
    const double t = static_cast<double>(i) / 999.0;
    EXPECT_TRUE(BitEqual(board.Quantile(t).ValueOrDie(),
                         QuantileSorted(sorted, t)))
        << "q " << t;
    const double x = Lerp(lo - margin, hi + margin, t);
    EXPECT_TRUE(BitEqual(board.PercentileRank(x),
                         PercentileRankSorted(sorted, x)))
        << "x " << x;
    const size_t at_or_above = static_cast<size_t>(
        sorted.end() - std::lower_bound(sorted.begin(), sorted.end(), x));
    EXPECT_TRUE(BitEqual(board.FractionAtOrAbove(x),
                         static_cast<double>(at_or_above) /
                             static_cast<double>(n)))
        << "x " << x;
  }
}

// A range whose width overflows (finite values from -1e308 to 1e308) and
// one holding infinities: the seal must order both like std::sort, not
// bucket them with a zero or infinite scale.
TEST(PublicBoardTest, SealOrdersExtremeRangesLikeStdSort) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(21);
  for (bool with_infinities : {false, true}) {
    SCOPED_TRACE(with_infinities ? "infinities" : "overflowing range");
    PublicBoard board;
    std::vector<double> recorded;
    for (int i = 0; i < 500; ++i) {
      double v = (i % 2 == 0 ? 1.0 : -1.0) * 1e308 * rng.Uniform();
      if (with_infinities && i % 50 == 7) v = i % 100 == 7 ? kInf : -kInf;
      board.RecordOne(v);
      recorded.push_back(v);
    }
    board.Seal();
    std::sort(recorded.begin(), recorded.end());
    for (size_t r = 0; r < recorded.size(); ++r) {
      ASSERT_TRUE(BitEqual(board.values()[r], recorded[r])) << "rank " << r;
    }
  }
}

// The bootstrap boards of the benchmark's five tenant kinds (scalar,
// distance, LDP, residual, fitted residual) at the paper's shape: a
// session's sealed board answers every query exactly as the same bootstrap
// sample sorted by std::sort. The replica re-runs the kind's bootstrap
// into an unsealed board, which keeps the values in record order.
TEST(PublicBoardTest, BootstrapBoardsOfEveryKindMatchStdSortedReplica) {
  constexpr uint64_t kDataSeed = 2024;
  std::vector<double> taxi;
  for (const auto& row : MakeTaxi(kDataSeed, 20000).rows) {
    taxi.push_back(row[0]);
  }
  const Dataset control = MakeControl(kDataSeed, 600);
  std::vector<double> population;
  Rng population_rng(kDataSeed);
  for (int i = 0; i < 4000; ++i) {
    population.push_back(population_rng.Uniform(-1.0, 1.0));
  }
  const RegressionData regression =
      MakeSyntheticRegression(4000, 3, 0.1, kDataSeed);
  const PiecewiseMechanism mechanism(2.0);
  InputManipulationAttack attack(1.0);
  const std::vector<SchemeId> schemes = PlottedSchemes();

  enum class Kind { kScalar, kDistance, kLdp, kResidual, kFitted };
  for (Kind kind : {Kind::kScalar, Kind::kDistance, Kind::kLdp,
                    Kind::kResidual, Kind::kFitted}) {
    for (size_t index = 0; index < 3; ++index) {
      SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)) +
                   " tenant " + std::to_string(index));
      TenantSpec spec;
      spec.scheme = schemes[index % schemes.size()];
      spec.game.round_size = 500;
      spec.game.bootstrap_size = 500;
      spec.game.attack_ratio = 0.1;
      switch (kind) {
        case Kind::kScalar:
          spec.model = TenantModelKind::kScalar;
          spec.scalar_pool = &taxi;
          break;
        case Kind::kDistance:
          spec.model = TenantModelKind::kDistance;
          spec.dataset = &control;
          break;
        case Kind::kLdp:
          spec.model = TenantModelKind::kLdp;
          spec.ldp_population = &population;
          spec.ldp_mechanism = &mechanism;
          spec.ldp_attack = &attack;
          break;
        case Kind::kResidual:
        case Kind::kFitted:
          spec.model = TenantModelKind::kResidual;
          spec.regression = &regression;
          if (kind == Kind::kFitted) {
            spec.reference = TenantReferenceKind::kFittedModel;
          }
          break;
      }
      const uint64_t seed = DeriveTenantSeed(900, index);
      Tenant tenant = MaterializeTenant(spec, seed).ValueOrDie();
      ASSERT_TRUE(tenant.session->Bootstrap().ok());

      Tenant replica = MaterializeTenant(spec, seed).ValueOrDie();
      ASSERT_TRUE(replica.model->BeginRun().ok());
      Rng rng(replica.config.seed);
      PublicBoard unsealed(0);
      ASSERT_TRUE(replica.model
                      ->Bootstrap(replica.config.bootstrap_size, &rng,
                                  &unsealed)
                      .ok());
      std::vector<double> sorted = unsealed.values();
      std::sort(sorted.begin(), sorted.end());
      // No -0.0 on these boards, so std::sort's arrangement is unique.
      for (double v : sorted) ASSERT_FALSE(v == 0.0 && std::signbit(v));
      ExpectQueriesMatchStdSortedReplica(tenant.session->board(), sorted);
    }
  }
}

#ifndef NDEBUG
TEST(PublicBoardDeathTest, RecordAfterSealAsserts) {
  PublicBoard board;
  board.RecordOne(1.0);
  board.Seal();
  EXPECT_DEATH(board.RecordOne(2.0), "sealed");
}

TEST(PublicBoardDeathTest, QueryBeforeSealAsserts) {
  PublicBoard board;
  board.RecordOne(1.0);
  EXPECT_DEATH((void)board.Quantile(0.5), "unsealed");
  EXPECT_DEATH((void)board.PercentileRank(0.5), "unsealed");
}
#endif

}  // namespace
}  // namespace itrim
