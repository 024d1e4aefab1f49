// Bit-identity, streaming, checkpoint and determinism tests of the
// TrimmingSession engine.
//
// The refactor's core guarantee is that the batch adapters
// (ScalarCollectionGame / DistanceCollectionGame / LdpCollectionGame's
// trimming path) reproduce the seed implementation's GameSummary bit for
// bit at fixed seed. The Legacy* functions below are line-by-line replicas
// of the pre-refactor monolithic Run() loops — including the seed
// PublicBoard's sort-per-invalidation query semantics (LegacySortBoard) —
// and every scheme of the paper's five experiment pipelines is pitted
// against the session-backed implementation.
#include "game/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/math_util.h"
#include "common/thread_pool.h"
#include "data/generators.h"
#include "exp/schemes.h"
#include "game/collection_game.h"
#include "game/score_model.h"
#include "game/trimmer.h"
#include "ldp/attacks.h"
#include "ldp/ldp_game.h"
#include "ldp/mechanism.h"
#include "stats/quantile.h"

#include "game/summary_test_util.h"

namespace itrim {
namespace {

// --------------------------------------------------------------------------
// Seed replicas
// --------------------------------------------------------------------------

// Replica of the seed PublicBoard: full re-sort on the first query after an
// invalidating record. Deliberately independent of the sealed PublicBoard
// so this file checks the refactor end to end. It is a snapshot of the
// seed code and must never diverge from it.
class LegacySortBoard {
 public:
  explicit LegacySortBoard(size_t capacity, uint64_t seed)
      : capacity_(capacity), rng_(seed) {}

  void RecordOne(double value) {
    ++total_recorded_;
    if (capacity_ == 0 || values_.size() < capacity_) {
      values_.push_back(value);
    } else {
      size_t j = static_cast<size_t>(rng_.UniformInt(total_recorded_));
      if (j < capacity_) values_[j] = value;
    }
    cache_valid_ = false;
  }

  Result<double> Quantile(double q) const {
    if (values_.empty()) {
      return Status::FailedPrecondition("public board is empty");
    }
    EnsureSorted();
    return QuantileSorted(sorted_cache_, q);
  }

  double PercentileRank(double x) const {
    if (values_.empty()) return 0.0;
    EnsureSorted();
    return PercentileRankSorted(sorted_cache_, x);
  }

  const std::vector<double>& values() const { return values_; }

 private:
  void EnsureSorted() const {
    if (cache_valid_) return;
    sorted_cache_ = values_;
    std::sort(sorted_cache_.begin(), sorted_cache_.end());
    cache_valid_ = true;
  }

  size_t capacity_;
  size_t total_recorded_ = 0;
  Rng rng_;
  std::vector<double> values_;
  mutable std::vector<double> sorted_cache_;
  mutable bool cache_valid_ = false;
};

// The seed games evaluated quality against the (new-API) PublicBoard; the
// evaluators only read the board's order statistics, so an adapter
// board fed the same records produces the same quality scores. To keep the
// replicas fully seed-faithful we mirror every record into a PublicBoard
// for the QualityEvaluation interface while all *game* queries go through
// the legacy sort board. The replicas record only during the bootstrap, so
// the PublicBoard is sealed right after it, as the session does.
struct MirroredBoards {
  MirroredBoards(size_t capacity, uint64_t seed)
      : legacy(capacity, seed), quality_view(capacity, seed) {}
  void RecordOne(double v) {
    legacy.RecordOne(v);
    quality_view.RecordOne(v);
  }
  void Seal() { quality_view.Seal(); }
  LegacySortBoard legacy;
  PublicBoard quality_view;
};

RoundContext LegacyContext(int round, const GameConfig& config,
                           const PublicBoard* board,
                           const RoundObservation* prev) {
  RoundContext ctx;
  ctx.round = round;
  ctx.tth = config.tth;
  ctx.board = board;
  if (prev != nullptr) {
    ctx.prev_collector_percentile = prev->collector_percentile;
    ctx.prev_injection_percentile = prev->injection_percentile;
    ctx.prev_quality = prev->quality;
  }
  return ctx;
}

// Line-by-line replica of the seed ScalarCollectionGame::Run().
Result<GameSummary> LegacyScalarRun(const GameConfig& config,
                                    const std::vector<double>& benign_pool,
                                    CollectorStrategy* collector,
                                    AdversaryStrategy* adversary,
                                    QualityEvaluation* quality,
                                    std::vector<double>* retained,
                                    std::vector<char>* retained_is_poison) {
  ITRIM_RETURN_NOT_OK(config.Validate());
  if (benign_pool.empty()) {
    return Status::FailedPrecondition("benign pool is empty");
  }
  Rng rng(config.seed);
  collector->Reset();
  adversary->Reset();
  MirroredBoards board(config.board_capacity,
                       config.seed ^ 0x9E3779B97F4A7C15ULL);
  retained->clear();
  retained_is_poison->clear();

  for (size_t i = 0; i < config.bootstrap_size; ++i) {
    board.RecordOne(benign_pool[rng.UniformInt(benign_pool.size())]);
  }
  board.Seal();

  GameSummary summary;
  RoundObservation prev;
  bool have_prev = false;
  double poison_quota = 0.0;

  for (int round = 1; round <= config.rounds; ++round) {
    poison_quota +=
        config.attack_ratio * static_cast<double>(config.round_size);
    const size_t poison_count = static_cast<size_t>(poison_quota);
    poison_quota -= static_cast<double>(poison_count);
    RoundContext ctx = LegacyContext(round, config, &board.quality_view,
                                     have_prev ? &prev : nullptr);
    double trim_percentile = collector->TrimPercentile(ctx);

    std::vector<double> received;
    std::vector<char> is_poison;
    received.reserve(config.round_size + poison_count);
    is_poison.reserve(config.round_size + poison_count);
    for (size_t i = 0; i < config.round_size; ++i) {
      received.push_back(benign_pool[rng.UniformInt(benign_pool.size())]);
      is_poison.push_back(0);
    }
    double injection_sum = 0.0;
    for (size_t i = 0; i < poison_count; ++i) {
      double a = adversary->InjectionPercentile(ctx, &rng);
      a = Clamp(a, 0.0, 1.0);
      injection_sum += a;
      ITRIM_ASSIGN_OR_RETURN(double value, board.legacy.Quantile(a));
      received.push_back(value);
      is_poison.push_back(1);
    }
    double injection_mean =
        poison_count > 0 ? injection_sum / static_cast<double>(poison_count)
                         : std::nan("");

    double quality_score =
        quality != nullptr ? quality->Evaluate(received, board.quality_view)
                           : 1.0;

    TrimOutcome outcome;
    if (trim_percentile >= 1.0) {
      outcome.keep.assign(received.size(), 1);
      outcome.kept_count = received.size();
      outcome.cutoff = std::numeric_limits<double>::infinity();
    } else if (config.round_mass_trimming) {
      outcome = TrimTopFraction(received, trim_percentile);
    } else {
      ITRIM_ASSIGN_OR_RETURN(
          outcome, TrimAtReferencePercentile(received, board.legacy.values(),
                                             trim_percentile));
    }

    RoundRecord record;
    record.round = round;
    record.collector_percentile = trim_percentile;
    record.injection_percentile = injection_mean;
    record.cutoff = outcome.cutoff;
    record.quality = quality_score;
    for (size_t i = 0; i < received.size(); ++i) {
      bool poison = is_poison[i] != 0;
      if (poison) {
        ++record.poison_received;
      } else {
        ++record.benign_received;
      }
      if (outcome.keep[i]) {
        if (poison) {
          ++record.poison_kept;
        } else {
          ++record.benign_kept;
        }
        retained->push_back(received[i]);
        retained_is_poison->push_back(is_poison[i]);
      }
    }
    summary.rounds.push_back(record);

    prev = RoundObservation{round,
                            trim_percentile,
                            injection_mean,
                            quality_score,
                            received.size(),
                            record.benign_kept + record.poison_kept,
                            record.poison_received,
                            record.poison_kept};
    have_prev = true;
    collector->Observe(prev);
    adversary->Observe(prev);
  }
  summary.termination_round = collector->termination_round();
  return summary;
}

// Line-by-line replica of the seed DistanceCollectionGame::Run().
Result<GameSummary> LegacyDistanceRun(const GameConfig& config,
                                      const Dataset& source,
                                      CollectorStrategy* collector,
                                      AdversaryStrategy* adversary,
                                      QualityEvaluation* quality,
                                      Dataset* retained,
                                      std::vector<char>* retained_is_poison) {
  ITRIM_RETURN_NOT_OK(config.Validate());
  if (source.rows.empty()) {
    return Status::FailedPrecondition("source dataset is empty");
  }
  Rng rng(config.seed);
  collector->Reset();
  adversary->Reset();
  MirroredBoards board(config.board_capacity,
                       config.seed ^ 0xC2B2AE3D27D4EB4FULL);
  *retained = Dataset{};
  retained->name = source.name + "/retained";
  retained->num_clusters = source.num_clusters;
  retained_is_poison->clear();

  std::vector<std::vector<double>> bootstrap;
  bootstrap.reserve(config.bootstrap_size);
  for (size_t i = 0; i < config.bootstrap_size; ++i) {
    bootstrap.push_back(source.rows[rng.UniformInt(source.rows.size())]);
  }
  PositionMap position_map;
  ITRIM_ASSIGN_OR_RETURN(position_map, PositionMap::Build(bootstrap));
  for (const auto& row : bootstrap) {
    board.RecordOne(position_map.PositionOfRow(row));
  }
  board.Seal();

  GameSummary summary;
  RoundObservation prev;
  bool have_prev = false;
  const bool labeled = source.labeled();
  double poison_quota = 0.0;

  for (int round = 1; round <= config.rounds; ++round) {
    poison_quota +=
        config.attack_ratio * static_cast<double>(config.round_size);
    const size_t poison_count = static_cast<size_t>(poison_quota);
    poison_quota -= static_cast<double>(poison_count);
    RoundContext ctx = LegacyContext(round, config, &board.quality_view,
                                     have_prev ? &prev : nullptr);
    double trim_percentile = collector->TrimPercentile(ctx);

    std::vector<std::vector<double>> received;
    std::vector<int> received_labels;
    std::vector<char> is_poison;
    received.reserve(config.round_size + poison_count);
    for (size_t i = 0; i < config.round_size; ++i) {
      size_t idx = static_cast<size_t>(rng.UniformInt(source.rows.size()));
      received.push_back(source.rows[idx]);
      if (labeled) received_labels.push_back(source.labels[idx]);
      is_poison.push_back(0);
    }

    std::vector<double> direction = rng.UnitVector(source.dims());
    {
      const auto& qdir = position_map.quantile_direction();
      double norm_sq = 0.0;
      for (size_t j = 0; j < direction.size(); ++j) {
        direction[j] = qdir[j] + 0.5 * direction[j];
        norm_sq += direction[j] * direction[j];
      }
      double inv = 1.0 / std::sqrt(norm_sq);
      for (double& v : direction) v *= inv;
    }
    double injection_sum = 0.0;
    for (size_t i = 0; i < poison_count; ++i) {
      double a = adversary->InjectionPercentile(ctx, &rng);
      a = Clamp(a, 0.0, 1.5);
      injection_sum += a;
      received.push_back(position_map.MakePoint(a, direction));
      if (labeled) {
        received_labels.push_back(static_cast<int>(
            rng.UniformInt(std::max<size_t>(1, source.num_clusters))));
      }
      is_poison.push_back(1);
    }
    double injection_mean =
        poison_count > 0 ? injection_sum / static_cast<double>(poison_count)
                         : std::nan("");

    std::vector<double> scores;
    scores.reserve(received.size());
    for (const auto& row : received) {
      scores.push_back(position_map.PositionOfRow(row));
    }
    double quality_score =
        quality != nullptr ? quality->Evaluate(scores, board.quality_view)
                           : 1.0;

    TrimOutcome outcome;
    if (trim_percentile >= 1.0) {
      outcome.keep.assign(received.size(), 1);
      outcome.kept_count = received.size();
      outcome.cutoff = std::numeric_limits<double>::infinity();
    } else if (config.round_mass_trimming) {
      outcome = TrimTopFraction(scores, trim_percentile);
    } else {
      outcome = TrimAboveValue(scores, trim_percentile);
    }

    RoundRecord record;
    record.round = round;
    record.collector_percentile = trim_percentile;
    record.injection_percentile = injection_mean;
    record.cutoff = outcome.cutoff;
    record.quality = quality_score;
    for (size_t i = 0; i < received.size(); ++i) {
      bool poison = is_poison[i] != 0;
      if (poison) {
        ++record.poison_received;
      } else {
        ++record.benign_received;
      }
      if (outcome.keep[i]) {
        if (poison) {
          ++record.poison_kept;
        } else {
          ++record.benign_kept;
        }
        retained->rows.push_back(std::move(received[i]));
        if (labeled) retained->labels.push_back(received_labels[i]);
        retained_is_poison->push_back(is_poison[i]);
      }
    }
    summary.rounds.push_back(record);

    prev = RoundObservation{round,
                            trim_percentile,
                            injection_mean,
                            quality_score,
                            received.size(),
                            record.benign_kept + record.poison_kept,
                            record.poison_received,
                            record.poison_kept};
    have_prev = true;
    collector->Observe(prev);
    adversary->Observe(prev);
  }
  summary.termination_round = collector->termination_round();
  return summary;
}

// Line-by-line replica of the seed LdpCollectionGame::RunTrimming().
Result<LdpRunResult> LegacyLdpRunTrimming(const LdpGameConfig& config,
                                          const std::vector<double>& population,
                                          const LdpMechanism& mechanism,
                                          LdpAttack* attack,
                                          CollectorStrategy* collector,
                                          QualityEvaluation* quality) {
  ITRIM_RETURN_NOT_OK(config.Validate());
  if (population.empty()) {
    return Status::FailedPrecondition("empty population");
  }
  Rng rng(config.seed);
  collector->Reset();
  MirroredBoards board(config.board_capacity, config.seed ^ 0x1234567ULL);

  for (size_t i = 0; i < config.bootstrap_size; ++i) {
    double x = population[rng.UniformInt(population.size())];
    board.RecordOne(mechanism.Perturb(x, &rng));
  }
  board.Seal();

  LdpRunResult result;
  result.true_mean = Mean(population);
  double kept_sum = 0.0;
  size_t kept_count = 0;
  RoundObservation prev;
  bool have_prev = false;
  std::vector<double> reports;
  std::vector<char> is_poison;

  for (int round = 1; round <= config.rounds; ++round) {
    RoundContext ctx;
    ctx.round = round;
    ctx.tth = config.tth;
    ctx.board = &board.quality_view;
    if (have_prev) {
      ctx.prev_collector_percentile = prev.collector_percentile;
      ctx.prev_injection_percentile = prev.injection_percentile;
      ctx.prev_quality = prev.quality;
    }
    double trim_percentile = collector->TrimPercentile(ctx);

    const size_t attackers = static_cast<size_t>(std::llround(
        config.attack_ratio * static_cast<double>(config.users_per_round)));
    reports.clear();
    is_poison.clear();
    for (size_t i = 0; i < config.users_per_round; ++i) {
      double x = population[rng.UniformInt(population.size())];
      reports.push_back(mechanism.Perturb(x, &rng));
      is_poison.push_back(0);
    }
    for (size_t i = 0; i < attackers; ++i) {
      reports.push_back(attack->PoisonReport(mechanism, &rng));
      is_poison.push_back(1);
    }

    double injection_estimate = std::nan("");
    {
      auto tail_cut = board.legacy.Quantile(config.tth);
      if (tail_cut.ok()) {
        double sum = 0.0;
        size_t count = 0;
        for (double v : reports) {
          if (v > *tail_cut) {
            sum += v;
            ++count;
          }
        }
        if (count > 0) {
          injection_estimate =
              board.legacy.PercentileRank(sum / static_cast<double>(count));
        }
      }
    }

    double quality_score =
        quality != nullptr ? quality->Evaluate(reports, board.quality_view)
                           : 1.0;

    TrimOutcome outcome;
    if (trim_percentile >= 1.0) {
      outcome.keep.assign(reports.size(), 1);
      outcome.kept_count = reports.size();
      outcome.cutoff = std::numeric_limits<double>::infinity();
    } else {
      ITRIM_ASSIGN_OR_RETURN(double upper_cut,
                             board.legacy.Quantile(trim_percentile));
      ITRIM_ASSIGN_OR_RETURN(double lower_cut,
                             board.legacy.Quantile(1.0 - trim_percentile));
      outcome.cutoff = upper_cut;
      outcome.keep.assign(reports.size(), 1);
      for (size_t i = 0; i < reports.size(); ++i) {
        if (reports[i] > upper_cut || reports[i] < lower_cut) {
          outcome.keep[i] = 0;
          ++outcome.removed_count;
        } else {
          ++outcome.kept_count;
        }
      }
    }

    RoundRecord record;
    record.round = round;
    record.collector_percentile = trim_percentile;
    record.injection_percentile = injection_estimate;
    record.cutoff = outcome.cutoff;
    record.quality = quality_score;
    for (size_t i = 0; i < reports.size(); ++i) {
      bool poison = is_poison[i] != 0;
      if (poison) {
        ++record.poison_received;
      } else {
        ++record.benign_received;
      }
      if (outcome.keep[i]) {
        if (poison) {
          ++record.poison_kept;
        } else {
          ++record.benign_kept;
        }
        kept_sum += reports[i];
        ++kept_count;
      }
    }
    result.game.rounds.push_back(record);

    prev = RoundObservation{round,
                            trim_percentile,
                            injection_estimate,
                            quality_score,
                            reports.size(),
                            record.benign_kept + record.poison_kept,
                            record.poison_received,
                            record.poison_kept};
    have_prev = true;
    collector->Observe(prev);
  }
  result.game.termination_round = collector->termination_round();
  result.estimated_mean =
      kept_count > 0 ? kept_sum / static_cast<double>(kept_count) : 0.0;
  double err = result.estimated_mean - result.true_mean;
  result.squared_error = err * err;
  return result;
}

// Bitwise comparison helpers and UniformPool live in
// tests/game/summary_test_util.h, shared with the property and fleet
// determinism suites.

// --------------------------------------------------------------------------
// Bit-identity across every scheme, both game variants, both trim semantics
// --------------------------------------------------------------------------

class SchemeBitIdentityTest : public ::testing::TestWithParam<SchemeId> {};

TEST_P(SchemeBitIdentityTest, ScalarGameMatchesSeedLoop) {
  const SchemeId id = GetParam();
  auto pool = UniformPool(3000, 21);
  for (bool round_mass : {false, true}) {
    GameConfig config;
    config.rounds = 12;
    config.round_size = 180;
    config.attack_ratio = 0.17;  // fractional quota path
    config.tth = 0.9;
    config.bootstrap_size = 400;
    config.round_mass_trimming = round_mass;
    config.seed = 1000 + static_cast<uint64_t>(id);

    SchemeOptions options;
    options.titfortat_trigger_quality = 0.8;  // let the trigger participate
    SchemeInstance legacy_scheme = MakeScheme(id, config.tth, options);
    SchemeInstance new_scheme = MakeScheme(id, config.tth, options);

    std::vector<double> legacy_retained;
    std::vector<char> legacy_flags;
    auto legacy = LegacyScalarRun(
        config, pool, legacy_scheme.collector.get(),
        legacy_scheme.adversary.get(), legacy_scheme.quality.get(),
        &legacy_retained, &legacy_flags);
    ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();

    ScalarCollectionGame game(config, &pool, new_scheme.collector.get(),
                              new_scheme.adversary.get(),
                              new_scheme.quality.get());
    auto summary = game.Run();
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();

    ExpectSummaryBitIdentical(*legacy, *summary);
    ASSERT_EQ(game.retained().size(), legacy_retained.size());
    for (size_t i = 0; i < legacy_retained.size(); ++i) {
      EXPECT_TRUE(BitEqual(game.retained()[i], legacy_retained[i]));
    }
    EXPECT_EQ(game.retained_is_poison(), legacy_flags);
  }
}

TEST_P(SchemeBitIdentityTest, DistanceGameMatchesSeedLoop) {
  const SchemeId id = GetParam();
  Dataset data = MakeControl(31, 120);
  for (bool round_mass : {false, true}) {
    GameConfig config;
    config.rounds = 8;
    config.round_size = 120;
    config.attack_ratio = 0.3;
    config.tth = 0.9;
    config.bootstrap_size = 250;
    config.round_mass_trimming = round_mass;
    config.seed = 2000 + static_cast<uint64_t>(id);

    SchemeOptions options;
    options.titfortat_trigger_quality = 0.8;
    SchemeInstance legacy_scheme = MakeScheme(id, config.tth, options);
    SchemeInstance new_scheme = MakeScheme(id, config.tth, options);

    Dataset legacy_retained;
    std::vector<char> legacy_flags;
    auto legacy = LegacyDistanceRun(
        config, data, legacy_scheme.collector.get(),
        legacy_scheme.adversary.get(), legacy_scheme.quality.get(),
        &legacy_retained, &legacy_flags);
    ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();

    DistanceCollectionGame game(config, &data, new_scheme.collector.get(),
                                new_scheme.adversary.get(),
                                new_scheme.quality.get());
    auto summary = game.Run();
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();

    ExpectSummaryBitIdentical(*legacy, *summary);
    ASSERT_EQ(game.retained_data().rows.size(), legacy_retained.rows.size());
    EXPECT_EQ(game.retained_data().rows, legacy_retained.rows);
    EXPECT_EQ(game.retained_data().labels, legacy_retained.labels);
    EXPECT_EQ(game.retained_is_poison(), legacy_flags);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeBitIdentityTest,
    ::testing::Values(SchemeId::kGroundtruth, SchemeId::kOstrich,
                      SchemeId::kBaseline09, SchemeId::kBaselineStatic,
                      SchemeId::kTitfortat, SchemeId::kElastic01,
                      SchemeId::kElastic05));

TEST(LdpBitIdentityTest, TrimmingPathMatchesSeedLoop) {
  Dataset taxi = MakeTaxi(3, 8000);
  std::vector<double> population;
  for (const auto& row : taxi.rows) population.push_back(row[0]);

  LdpGameConfig config;
  config.rounds = 6;
  config.users_per_round = 600;
  config.attack_ratio = 0.12;
  config.tth = 0.9;
  config.bootstrap_size = 600;
  config.seed = 77;

  PiecewiseMechanism mechanism(2.0);
  InputManipulationAttack attack(1.0);

  struct Defense {
    const char* label;
    bool titfortat;
  };
  for (const Defense& d : {Defense{"titfortat", true},
                           Defense{"elastic", false}}) {
    SCOPED_TRACE(d.label);
    LdpRunResult legacy, current;
    if (d.titfortat) {
      TitfortatCollector c1(+0.01, -0.03, -1.0), c2(+0.01, -0.03, -1.0);
      TailMassQuality q1(config.tth), q2(config.tth);
      legacy = LegacyLdpRunTrimming(config, population, mechanism, &attack,
                                    &c1, &q1)
                   .ValueOrDie();
      LdpCollectionGame game(config, &population, &mechanism, &attack);
      current = game.RunTrimming(&c2, &q2).ValueOrDie();
    } else {
      ElasticCollector c1(0.5), c2(0.5);
      legacy = LegacyLdpRunTrimming(config, population, mechanism, &attack,
                                    &c1, nullptr)
                   .ValueOrDie();
      LdpCollectionGame game(config, &population, &mechanism, &attack);
      current = game.RunTrimming(&c2, nullptr).ValueOrDie();
    }
    ExpectSummaryBitIdentical(legacy.game, current.game);
    EXPECT_TRUE(BitEqual(legacy.estimated_mean, current.estimated_mean));
    EXPECT_TRUE(BitEqual(legacy.true_mean, current.true_mean));
    EXPECT_TRUE(BitEqual(legacy.squared_error, current.squared_error));
  }
}

// --------------------------------------------------------------------------
// Streaming API
// --------------------------------------------------------------------------

TEST(TrimmingSessionTest, StepwiseStreamEqualsBatchRun) {
  auto pool = UniformPool(2000, 5);
  GameConfig config;
  config.rounds = 10;
  config.round_size = 150;
  config.attack_ratio = 0.2;
  config.seed = 9;

  ElasticCollector c_batch(0.5), c_stream(0.5);
  ElasticAdversary a_batch(0.5), a_stream(0.5);

  IdentityScoreModel m_batch(&pool);
  TrimmingSession batch(config, &m_batch, &c_batch, &a_batch, nullptr);
  GameSummary batch_summary = batch.RunToCompletion().ValueOrDie();

  IdentityScoreModel m_stream(&pool);
  TrimmingSession stream(config, &m_stream, &c_stream, &a_stream, nullptr);
  ASSERT_TRUE(stream.Bootstrap().ok());
  for (int round = 1; round <= config.rounds; ++round) {
    auto record = stream.Step();
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record->round, round);
  }
  ExpectSummaryBitIdentical(batch_summary, stream.Finish());
  EXPECT_EQ(m_batch.retained(), m_stream.retained());
}

TEST(TrimmingSessionTest, StepBeforeBootstrapFails) {
  auto pool = UniformPool(100, 6);
  IdentityScoreModel model(&pool);
  OstrichCollector collector;
  FixedPercentileAdversary adversary(0.99);
  TrimmingSession session(GameConfig{}, &model, &collector, &adversary,
                          nullptr);
  EXPECT_EQ(session.Step().status().code(), StatusCode::kFailedPrecondition);
}

TEST(TrimmingSessionTest, NullAdversaryRejectedForPositionRequiringModels) {
  auto pool = UniformPool(200, 16);
  IdentityScoreModel model(&pool);
  StaticCollector collector(0.9, "static");
  GameConfig config;
  config.attack_ratio = 0.1;
  TrimmingSession session(config, &model, &collector, /*adversary=*/nullptr,
                          nullptr);
  Status status = session.Bootstrap();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);

  // A poison-free session may run without an adversary.
  config.attack_ratio = 0.0;
  IdentityScoreModel clean_model(&pool);
  TrimmingSession clean(config, &clean_model, &collector, nullptr, nullptr);
  ASSERT_TRUE(clean.Bootstrap().ok());
  EXPECT_TRUE(clean.Step().ok());
}

TEST(TrimmingSessionTest, StreamRunsPastConfiguredRounds) {
  auto pool = UniformPool(500, 7);
  GameConfig config;
  config.rounds = 3;
  config.round_size = 50;
  IdentityScoreModel model(&pool);
  StaticCollector collector(0.9, "static");
  FixedPercentileAdversary adversary(0.95);
  TrimmingSession session(config, &model, &collector, &adversary, nullptr);
  ASSERT_TRUE(session.Bootstrap().ok());
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(session.Step().ok()) << "step " << i;
  }
  EXPECT_EQ(session.Finish().rounds.size(), 7u);
}

// --------------------------------------------------------------------------
// Checkpoint / restore
// --------------------------------------------------------------------------

TEST(TrimmingSessionTest, CheckpointRestoreResumesBitIdentically) {
  Dataset data = MakeControl(41, 100);
  GameConfig config;
  config.rounds = 12;
  config.round_size = 100;
  config.attack_ratio = 0.25;
  config.seed = 13;

  // Reference: straight 12-round run.
  TitfortatCollector c_ref(+0.01, -0.03, 0.9);
  ElasticAdversary a_ref(0.5);
  DefectShareQuality q_ref(0.90, 0.99,
                           DefectShareQuality::CutoffMode::kAbsolute);
  DistanceScoreModel m_ref(&data);
  TrimmingSession reference(config, &m_ref, &c_ref, &a_ref, &q_ref);
  GameSummary full = reference.RunToCompletion().ValueOrDie();

  // Interrupted run: 6 rounds, checkpoint, restore into a *fresh* session
  // with fresh strategy objects, then 6 more rounds.
  TitfortatCollector c_first(+0.01, -0.03, 0.9);
  ElasticAdversary a_first(0.5);
  DefectShareQuality q_first(0.90, 0.99,
                             DefectShareQuality::CutoffMode::kAbsolute);
  DistanceScoreModel m_first(&data);
  TrimmingSession first(config, &m_first, &c_first, &a_first, &q_first);
  ASSERT_TRUE(first.Bootstrap().ok());
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(first.Step().ok());
  SessionCheckpoint checkpoint = first.Checkpoint();
  EXPECT_EQ(checkpoint.next_round, 7);

  TitfortatCollector c_resumed(+0.01, -0.03, 0.9);
  ElasticAdversary a_resumed(0.5);
  DefectShareQuality q_resumed(0.90, 0.99,
                               DefectShareQuality::CutoffMode::kAbsolute);
  DistanceScoreModel m_resumed(&data);
  TrimmingSession resumed(config, &m_resumed, &c_resumed, &a_resumed,
                          &q_resumed);
  ASSERT_TRUE(resumed.Restore(checkpoint).ok());
  EXPECT_EQ(resumed.next_round(), 7);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(resumed.Step().ok());

  ExpectSummaryBitIdentical(full, resumed.Finish());
}

// --------------------------------------------------------------------------
// Thread determinism: sessions fanned out over ParallelFor
// --------------------------------------------------------------------------

TEST(TrimmingSessionTest, ParallelForOneVsManyThreadsBitIdentical) {
  Dataset data = MakeControl(51, 80);
  constexpr size_t kArms = 8;

  auto run_all = [&](int threads) {
    std::vector<GameSummary> out(kArms);
    ParallelFor(
        kArms,
        [&](size_t arm) {
          GameConfig config;
          config.rounds = 6;
          config.round_size = 80;
          config.attack_ratio = 0.2;
          config.round_mass_trimming = true;
          config.seed = 400 + arm * 7919;
          ElasticCollector collector(0.5);
          ElasticAdversary adversary(0.5);
          DistanceScoreModel model(&data);
          TrimmingSession session(config, &model, &collector, &adversary,
                                  nullptr);
          out[arm] = session.RunToCompletion().ValueOrDie();
        },
        threads);
    return out;
  };

  std::vector<GameSummary> serial = run_all(1);
  std::vector<GameSummary> parallel = run_all(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t arm = 0; arm < kArms; ++arm) {
    SCOPED_TRACE(arm);
    ExpectSummaryBitIdentical(serial[arm], parallel[arm]);
  }
}

// --------------------------------------------------------------------------
// Config validation surfaced from construction, one field at a time
// --------------------------------------------------------------------------

TEST(TrimmingSessionTest, RejectsEachInvalidConfigField) {
  auto pool = UniformPool(100, 8);
  OstrichCollector collector;
  FixedPercentileAdversary adversary(0.9);

  auto expect_rejected = [&](GameConfig config, const char* label) {
    IdentityScoreModel model(&pool);
    TrimmingSession session(config, &model, &collector, &adversary, nullptr);
    Status status = session.Bootstrap();
    EXPECT_FALSE(status.ok()) << label;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << label;
    // The batch adapter surfaces the same status.
    ScalarCollectionGame game(config, &pool, &collector, &adversary, nullptr);
    EXPECT_EQ(game.Run().status().code(), StatusCode::kInvalidArgument)
        << label;
  };

  GameConfig config;
  config.rounds = 0;
  expect_rejected(config, "rounds");
  config = GameConfig{};
  config.round_size = 0;
  expect_rejected(config, "round_size");
  config = GameConfig{};
  config.attack_ratio = -0.5;
  expect_rejected(config, "attack_ratio");
  config = GameConfig{};
  config.tth = 1.0;
  expect_rejected(config, "tth upper");
  config = GameConfig{};
  config.tth = 0.0;
  expect_rejected(config, "tth lower");
  config = GameConfig{};
  config.bootstrap_size = 0;
  expect_rejected(config, "bootstrap_size");
}

TEST(TrimmingSessionTest, LdpGameSurfacesEachInvalidConfigField) {
  auto population = UniformPool(200, 9);
  PiecewiseMechanism mechanism(2.0);
  InputManipulationAttack attack(1.0);

  auto expect_rejected = [&](LdpGameConfig config, const char* label) {
    LdpCollectionGame game(config, &population, &mechanism, &attack);
    ElasticCollector collector(0.5);
    EXPECT_EQ(game.RunTrimming(&collector, nullptr).status().code(),
              StatusCode::kInvalidArgument)
        << label;
    EXPECT_EQ(game.RunUndefended().status().code(),
              StatusCode::kInvalidArgument)
        << label;
    EXPECT_EQ(game.RunEmf(EmfConfig{}).status().code(),
              StatusCode::kInvalidArgument)
        << label;
  };

  LdpGameConfig config;
  config.rounds = 0;
  expect_rejected(config, "rounds");
  config = LdpGameConfig{};
  config.users_per_round = 0;
  expect_rejected(config, "users_per_round");
  config = LdpGameConfig{};
  config.attack_ratio = -1.0;
  expect_rejected(config, "attack_ratio");
  config = LdpGameConfig{};
  config.tth = 1.5;
  expect_rejected(config, "tth");
  config = LdpGameConfig{};
  config.bootstrap_size = 0;
  expect_rejected(config, "bootstrap_size");
}

}  // namespace
}  // namespace itrim
