// Randomized property tests of the streaming TrimmingSession engine.
//
// For random game configurations and strategy pairs (every scheme of
// Section VI-A, scalar and distance data settings, both trim semantics,
// bounded and unbounded boards) the engine must satisfy:
//
//   1. Step-by-step equals RunToCompletion: driving the stream manually
//      (Bootstrap + Step x rounds + Finish) is bit-identical to the batch
//      shape, and the records returned by Step() are the records in the
//      summary.
//   2. Checkpoint/Restore at *every* round k resumes bit-identically: the
//      interrupted stream, restored into a fresh session with fresh
//      strategy objects, finishes exactly like the uninterrupted one.
//   3. GameSummary invariants: per round, kept <= received for both
//      populations, accepted + trimmed = received, and every derived
//      fraction lies in [0, 1].
//
// The paper's strategies are all replay-exact (their state is a function
// of the observation history), which is precisely what property 2
// exercises; a strategy drawing private randomness inside Observe() would
// fail it (see the session.h header contract).
#include "game/session.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "exp/schemes.h"
#include "game/reference_policy.h"
#include "game/score_model.h"

#include "game/summary_test_util.h"

namespace itrim {
namespace {

enum class DataKind { kScalar, kDistance };

// One randomly drawn game setup. The scheme instance (strategy pair +
// quality) is rebuilt per session so no state leaks between runs.
struct TrialSetup {
  DataKind kind = DataKind::kScalar;
  SchemeId scheme = SchemeId::kElastic05;
  GameConfig config;
  bool round_mass = false;  ///< RoundMassReference instead of the board's

  std::string Describe() const {
    return std::string(kind == DataKind::kScalar ? "scalar" : "distance") +
           "/" + SchemeName(scheme) + " rounds=" +
           std::to_string(config.rounds) + " round_size=" +
           std::to_string(config.round_size) + " attack_ratio=" +
           std::to_string(config.attack_ratio) + " capacity=" +
           std::to_string(config.board_capacity) +
           (round_mass ? " round_mass" : " board_ref") +
           " seed=" + std::to_string(config.seed);
  }
};

TrialSetup DrawTrial(Rng* rng, DataKind kind) {
  const std::vector<SchemeId> schemes = AllSchemes();
  TrialSetup trial;
  trial.kind = kind;
  trial.scheme = schemes[rng->UniformInt(schemes.size())];
  trial.config.rounds = 2 + static_cast<int>(rng->UniformInt(6));
  trial.config.round_size = 20 + rng->UniformInt(70);
  trial.config.attack_ratio =
      rng->Bernoulli(0.2) ? 0.0 : rng->Uniform(0.02, 0.35);
  trial.config.tth = rng->Uniform(0.82, 0.96);
  trial.config.bootstrap_size = 40 + rng->UniformInt(110);
  const size_t capacities[] = {0, 64, 4096};
  trial.config.board_capacity = capacities[rng->UniformInt(3)];
  trial.round_mass = rng->Bernoulli(0.5);
  trial.config.seed = rng->NextU64();
  return trial;
}

// Drives the session-construction boilerplate of one trial: fresh scheme
// objects, fresh model over the shared data source, then hands the session
// to `body`.
class PropertyHarness {
 public:
  PropertyHarness()
      : pool_(UniformPool(3000, 5)), data_(MakeControl(35, 60)) {}

  template <typename Body>
  void WithSession(const TrialSetup& trial, Body body,
                   bool retain_survivors = true) {
    SchemeInstance scheme = MakeScheme(trial.scheme, trial.config.tth);
    RoundMassReference round_mass;
    ReferencePolicy* reference = trial.round_mass ? &round_mass : nullptr;
    if (trial.kind == DataKind::kScalar) {
      IdentityScoreModel model(&pool_);
      model.set_retain_survivors(retain_survivors);
      TrimmingSession session(trial.config, &model, scheme.collector.get(),
                              scheme.adversary.get(), scheme.quality.get(),
                              reference);
      body(&session);
    } else {
      DistanceScoreModel model(&data_);
      model.set_retain_survivors(retain_survivors);
      TrimmingSession session(trial.config, &model, scheme.collector.get(),
                              scheme.adversary.get(), scheme.quality.get(),
                              reference);
      body(&session);
    }
  }

 private:
  std::vector<double> pool_;
  Dataset data_;
};

void ExpectSummaryInvariants(const GameSummary& summary,
                             const GameConfig& config) {
  size_t expected_round = 0;
  for (const RoundRecord& record : summary.rounds) {
    ++expected_round;
    EXPECT_EQ(record.round, static_cast<int>(expected_round));
    EXPECT_EQ(record.benign_received, config.round_size);
    EXPECT_LE(record.benign_kept, record.benign_received);
    EXPECT_LE(record.poison_kept, record.poison_received);
    // accepted + trimmed = received, population by population: the keep
    // mask partitions the round, nothing is created or double-counted.
    size_t received = record.benign_received + record.poison_received;
    size_t kept = record.benign_kept + record.poison_kept;
    size_t trimmed = (record.benign_received - record.benign_kept) +
                     (record.poison_received - record.poison_kept);
    EXPECT_EQ(kept + trimmed, received);
    if (!std::isnan(record.quality)) {
      EXPECT_GE(record.quality, 0.0);
      EXPECT_LE(record.quality, 1.0);
    }
  }
  for (double fraction :
       {summary.UntrimmedPoisonFraction(), summary.BenignLossFraction(),
        summary.PoisonSurvivalRate()}) {
    EXPECT_GE(fraction, 0.0);
    EXPECT_LE(fraction, 1.0);
  }
  EXPECT_LE(summary.TotalKept(), summary.TotalReceived());
  EXPECT_EQ(summary.TotalReceived(),
            summary.TotalBenignReceived() + summary.TotalPoisonReceived());
  EXPECT_GE(summary.termination_round, 0);
  EXPECT_LE(summary.termination_round,
            static_cast<int>(summary.rounds.size()));
}

class SessionPropertyTest : public ::testing::TestWithParam<DataKind> {
 protected:
  PropertyHarness harness_;
};

TEST_P(SessionPropertyTest, StepByStepEqualsRunToCompletion) {
  Rng rng(GetParam() == DataKind::kScalar ? 901 : 902);
  const int kTrials = GetParam() == DataKind::kScalar ? 24 : 12;
  for (int t = 0; t < kTrials; ++t) {
    TrialSetup trial = DrawTrial(&rng, GetParam());
    SCOPED_TRACE(trial.Describe());

    GameSummary batch;
    harness_.WithSession(trial, [&](TrimmingSession* session) {
      batch = session->RunToCompletion().ValueOrDie();
    });

    harness_.WithSession(trial, [&](TrimmingSession* session) {
      ASSERT_TRUE(session->Bootstrap().ok());
      std::vector<RoundRecord> stepped;
      for (int r = 1; r <= trial.config.rounds; ++r) {
        stepped.push_back(session->Step().ValueOrDie());
      }
      GameSummary manual = session->Finish();
      ExpectSummaryBitIdentical(batch, manual);
      // The records Step() hands back are the records in the book.
      ASSERT_EQ(stepped.size(), manual.rounds.size());
      for (size_t i = 0; i < stepped.size(); ++i) {
        EXPECT_EQ(stepped[i].round, manual.rounds[i].round);
        EXPECT_TRUE(BitEqual(stepped[i].cutoff, manual.rounds[i].cutoff));
        EXPECT_EQ(stepped[i].benign_kept, manual.rounds[i].benign_kept);
        EXPECT_EQ(stepped[i].poison_kept, manual.rounds[i].poison_kept);
      }
      ExpectSummaryInvariants(manual, trial.config);
    });
  }
}

TEST_P(SessionPropertyTest, CheckpointAtEveryRoundResumesBitIdentically) {
  Rng rng(GetParam() == DataKind::kScalar ? 903 : 904);
  const int kTrials = GetParam() == DataKind::kScalar ? 10 : 6;
  for (int t = 0; t < kTrials; ++t) {
    TrialSetup trial = DrawTrial(&rng, GetParam());
    SCOPED_TRACE(trial.Describe());

    GameSummary reference;
    harness_.WithSession(trial, [&](TrimmingSession* session) {
      reference = session->RunToCompletion().ValueOrDie();
    });

    for (int k = 0; k <= trial.config.rounds; ++k) {
      SCOPED_TRACE("checkpoint after round " + std::to_string(k));
      SessionCheckpoint checkpoint;
      harness_.WithSession(trial, [&](TrimmingSession* session) {
        ASSERT_TRUE(session->Bootstrap().ok());
        for (int r = 0; r < k; ++r) ASSERT_TRUE(session->Step().ok());
        checkpoint = session->Checkpoint();
      });
      harness_.WithSession(trial, [&](TrimmingSession* session) {
        ASSERT_TRUE(session->Restore(checkpoint).ok());
        EXPECT_EQ(session->next_round(), k + 1);
        for (int r = k; r < trial.config.rounds; ++r) {
          ASSERT_TRUE(session->Step().ok());
        }
        ExpectSummaryBitIdentical(reference, session->Finish());
      });
    }
  }
}

// The retained-survivor store is an output sink, never an input: switching
// it off (the streaming/fleet mode) must leave every record of the game
// bit-identical.
TEST_P(SessionPropertyTest, RetentionToggleNeverChangesRecords) {
  Rng rng(GetParam() == DataKind::kScalar ? 905 : 906);
  const int kTrials = GetParam() == DataKind::kScalar ? 12 : 8;
  for (int t = 0; t < kTrials; ++t) {
    TrialSetup trial = DrawTrial(&rng, GetParam());
    SCOPED_TRACE(trial.Describe());

    GameSummary retaining, streaming;
    harness_.WithSession(
        trial,
        [&](TrimmingSession* session) {
          retaining = session->RunToCompletion().ValueOrDie();
        },
        /*retain_survivors=*/true);
    harness_.WithSession(
        trial,
        [&](TrimmingSession* session) {
          streaming = session->RunToCompletion().ValueOrDie();
        },
        /*retain_survivors=*/false);
    ExpectSummaryBitIdentical(retaining, streaming);
  }
}

INSTANTIATE_TEST_SUITE_P(DataSettings, SessionPropertyTest,
                         ::testing::Values(DataKind::kScalar,
                                           DataKind::kDistance),
                         [](const auto& info) {
                           return info.param == DataKind::kScalar
                                      ? "Scalar"
                                      : "Distance";
                         });

}  // namespace
}  // namespace itrim
