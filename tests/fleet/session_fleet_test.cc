// SessionFleet tests: thread-count determinism, fleet checkpoint/restore,
// heterogeneous-tenant aggregation against a sequential oracle loop, and
// per-field config rejection (FleetConfig and TenantSpec).
#include "fleet/session_fleet.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "exp/schemes.h"
#include "fleet/tenant.h"
#include "ldp/attacks.h"
#include "ldp/mechanism.h"
#include "ml/linreg.h"

#include "game/summary_test_util.h"

namespace itrim {
namespace {

void ExpectQuantilesBitIdentical(const FleetQuantiles& a,
                                 const FleetQuantiles& b) {
  EXPECT_TRUE(BitEqual(a.p10, b.p10));
  EXPECT_TRUE(BitEqual(a.p50, b.p50));
  EXPECT_TRUE(BitEqual(a.p90, b.p90));
}

void ExpectAggregatesBitIdentical(const std::vector<FleetRoundAggregate>& a,
                                  const std::vector<FleetRoundAggregate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("aggregate round " + std::to_string(i));
    EXPECT_EQ(a[i].round, b[i].round);
    EXPECT_EQ(a[i].tenants, b[i].tenants);
    EXPECT_EQ(a[i].benign_received, b[i].benign_received);
    EXPECT_EQ(a[i].poison_received, b[i].poison_received);
    EXPECT_EQ(a[i].benign_kept, b[i].benign_kept);
    EXPECT_EQ(a[i].poison_kept, b[i].poison_kept);
    EXPECT_TRUE(BitEqual(a[i].trim_rate, b[i].trim_rate));
    EXPECT_TRUE(BitEqual(a[i].poison_acceptance, b[i].poison_acceptance));
    ExpectQuantilesBitIdentical(a[i].tenant_trim_rate, b[i].tenant_trim_rate);
    ExpectQuantilesBitIdentical(a[i].tenant_poison_acceptance,
                                b[i].tenant_poison_acceptance);
    ExpectQuantilesBitIdentical(a[i].tenant_quality, b[i].tenant_quality);
  }
}

void ExpectFleetSummaryBitIdentical(const FleetSummary& a,
                                    const FleetSummary& b) {
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (size_t i = 0; i < a.tenants.size(); ++i) {
    SCOPED_TRACE("tenant " + std::to_string(i));
    ExpectSummaryBitIdentical(a.tenants[i], b.tenants[i]);
  }
  ExpectQuantilesBitIdentical(a.untrimmed_poison_fraction,
                              b.untrimmed_poison_fraction);
  ExpectQuantilesBitIdentical(a.benign_loss_fraction, b.benign_loss_fraction);
  ExpectQuantilesBitIdentical(a.poison_survival_rate, b.poison_survival_rate);
  EXPECT_EQ(a.total_received, b.total_received);
  EXPECT_EQ(a.total_kept, b.total_kept);
  EXPECT_EQ(a.total_poison_kept, b.total_poison_kept);
}

// Steps a bootstrapped fleet `rounds` times, appending each aggregate
// StepRound returns to `aggregates`.
void StepRounds(SessionFleet* fleet, int rounds,
                std::vector<FleetRoundAggregate>* aggregates) {
  for (int r = 0; r < rounds; ++r) {
    Result<FleetRoundAggregate> aggregate = fleet->StepRound();
    ASSERT_TRUE(aggregate.ok()) << aggregate.status().ToString();
    aggregates->push_back(*aggregate);
  }
}

// A whole lockstep run: Bootstrap, config().rounds StepRounds, Finish.
struct FleetRun {
  std::vector<FleetRoundAggregate> aggregates;  ///< as StepRound returned
  FleetSummary summary;
};

FleetRun RunFleet(SessionFleet* fleet) {
  FleetRun run;
  EXPECT_TRUE(fleet->Bootstrap().ok());
  StepRounds(fleet, fleet->config().rounds, &run.aggregates);
  run.summary = fleet->Finish();
  return run;
}

// Shared data sources + per-tenant LDP attacks for heterogeneous fleets.
// Sources are owned here and borrowed by the specs, like production code
// would hold them.
class SessionFleetTest : public ::testing::Test {
 protected:
  SessionFleetTest()
      : pool_(UniformPool(4000, 11)), data_(MakeControl(21, 80)),
        population_(UniformPool(3000, 31)), mechanism_(2.0) {}

  // A tenant population cycling through model kinds, schemes and attack
  // ratios: the heterogeneous mix of the issue.
  std::vector<TenantSpec> HeterogeneousSpecs(size_t count) {
    std::vector<SchemeId> schemes = AllSchemes();
    std::vector<TenantSpec> specs;
    specs.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      TenantSpec spec;
      spec.name = "tenant-" + std::to_string(i);
      spec.model = static_cast<TenantModelKind>(i % 3);
      spec.scheme = schemes[i % schemes.size()];
      spec.game.round_size = 40 + 10 * (i % 3);
      spec.game.bootstrap_size = 80;
      spec.game.attack_ratio = 0.1 + 0.05 * static_cast<double>(i % 4);
      spec.game.board_capacity = 2000;
      // Even tenants trim by round mass, except LDP ones: their band trim
      // is defined against the board reference.
      if ((i % 2) == 0 && spec.model != TenantModelKind::kLdp) {
        spec.reference = TenantReferenceKind::kRoundMass;
      }
      switch (spec.model) {
        case TenantModelKind::kScalar:
          spec.scalar_pool = &pool_;
          break;
        case TenantModelKind::kDistance:
          spec.dataset = &data_;
          break;
        case TenantModelKind::kLdp:
          spec.ldp_population = &population_;
          spec.ldp_mechanism = &mechanism_;
          attacks_.push_back(std::make_unique<InputManipulationAttack>(1.0));
          spec.ldp_attack = attacks_.back().get();
          break;
        case TenantModelKind::kResidual:
          // i % 3 never reaches kResidual: these fixtures mix the three
          // percentile-reference kinds only.
          ADD_FAILURE() << "unexpected kResidual spec at tenant " << i;
          break;
      }
      specs.push_back(spec);
    }
    return specs;
  }

  std::vector<double> pool_;
  Dataset data_;
  std::vector<double> population_;
  PiecewiseMechanism mechanism_;
  std::vector<std::unique_ptr<LdpAttack>> attacks_;
};

// --------------------------------------------------------------------------
// Determinism: 1 thread vs N threads
// --------------------------------------------------------------------------

TEST_F(SessionFleetTest, OneVsManyThreadsBitIdentical) {
  auto run = [&](int threads) {
    FleetConfig config;
    config.rounds = 6;
    config.threads = threads;
    config.seed = 77;
    SessionFleet fleet(config, HeterogeneousSpecs(24));
    return RunFleet(&fleet);
  };
  const FleetRun serial = run(1);
  for (const FleetRun& other : {run(4), run(3), run(2)}) {
    ExpectFleetSummaryBitIdentical(serial.summary, other.summary);
    ExpectAggregatesBitIdentical(serial.aggregates, other.aggregates);
  }
}

// --------------------------------------------------------------------------
// Checkpoint / restore
// --------------------------------------------------------------------------

TEST_F(SessionFleetTest, CheckpointRestoreResumesBitIdentically) {
  FleetConfig config;
  config.rounds = 10;
  config.threads = 2;
  config.seed = 345;

  // Reference: uninterrupted run.
  SessionFleet reference(config, HeterogeneousSpecs(12));
  const FleetRun full = RunFleet(&reference);

  // Interrupted run: 4 rounds, checkpoint mid-stream, restore into a
  // fresh fleet, 6 more rounds.
  std::vector<FleetRoundAggregate> aggregates;
  SessionFleet first(config, HeterogeneousSpecs(12));
  ASSERT_TRUE(first.Bootstrap().ok());
  StepRounds(&first, 4, &aggregates);
  FleetCheckpoint checkpoint = first.Checkpoint().ValueOrDie();
  EXPECT_EQ(checkpoint.next_round, 5);
  ASSERT_EQ(checkpoint.sessions.size(), 12u);

  SessionFleet resumed(config, HeterogeneousSpecs(12));
  ASSERT_TRUE(resumed.Restore(checkpoint).ok());
  EXPECT_EQ(resumed.next_round(), 5);
  StepRounds(&resumed, 6, &aggregates);

  // Everything matches: per-tenant books, including the rounds the
  // restored fleet never itself played, and the first fleet's aggregates
  // followed by the resumed fleet's.
  ExpectFleetSummaryBitIdentical(full.summary, resumed.Finish());
  ExpectAggregatesBitIdentical(full.aggregates, aggregates);
}

// A checkpoint whose round counter disagrees with the per-session record
// counts (hand-edited, corrupted, or non-lockstep) must be rejected, not
// resumed with sessions at different rounds — and the rejection must leave
// the fleet's live state untouched (all-or-nothing Restore).
TEST_F(SessionFleetTest, RestoreRejectsInconsistentRoundCounts) {
  FleetConfig config;
  config.rounds = 4;
  SessionFleet fleet(config, HeterogeneousSpecs(3));
  ASSERT_TRUE(fleet.Bootstrap().ok());
  ASSERT_TRUE(fleet.StepRound().ok());
  ASSERT_TRUE(fleet.StepRound().ok());
  FleetCheckpoint checkpoint = fleet.Checkpoint().ValueOrDie();

  FleetCheckpoint inflated = checkpoint;
  inflated.next_round = 7;  // sessions only carry 2 round records
  EXPECT_EQ(fleet.Restore(inflated).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(fleet.bootstrapped());

  FleetCheckpoint negative = checkpoint;
  negative.next_round = 0;
  EXPECT_EQ(fleet.Restore(negative).code(), StatusCode::kInvalidArgument);

  // One session privately ahead of the lockstep counter is just as bad.
  FleetCheckpoint skewed = checkpoint;
  skewed.sessions[1].next_round = 9;
  EXPECT_EQ(fleet.Restore(skewed).code(), StatusCode::kInvalidArgument);

  // Record round indices that don't count 1..k betray a reordered or
  // hand-spliced record log.
  FleetCheckpoint shuffled = checkpoint;
  shuffled.sessions[0].records[0].round = 2;
  shuffled.sessions[0].records[1].round = 1;
  EXPECT_EQ(fleet.Restore(shuffled).code(), StatusCode::kInvalidArgument);

  // The untouched checkpoint still restores fine afterwards.
  ASSERT_TRUE(fleet.Restore(checkpoint).ok());
  EXPECT_TRUE(fleet.bootstrapped());
  EXPECT_EQ(fleet.next_round(), 3);
}

TEST_F(SessionFleetTest, RestoreRejectsTenantCountMismatch) {
  FleetConfig config;
  config.rounds = 3;
  SessionFleet fleet(config, HeterogeneousSpecs(4));
  ASSERT_TRUE(fleet.Bootstrap().ok());
  ASSERT_TRUE(fleet.StepRound().ok());
  FleetCheckpoint checkpoint = fleet.Checkpoint().ValueOrDie();
  checkpoint.sessions.pop_back();
  Status status = fleet.Restore(checkpoint);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // All-or-nothing: the rejected restore must not have torn down the
  // live fleet.
  EXPECT_TRUE(fleet.bootstrapped());
  EXPECT_EQ(fleet.next_round(), 2);
}

// The regression the all-or-nothing contract exists for: a corrupted
// checkpoint thrown at a mid-stream fleet must bounce off — the fleet
// keeps stepping and finishes bit-identical to a never-interrupted run.
TEST_F(SessionFleetTest, RejectedRestoreLeavesFleetBitIdentical) {
  FleetConfig config;
  config.rounds = 6;
  SessionFleet reference(config, HeterogeneousSpecs(6));
  const FleetRun full = RunFleet(&reference);

  std::vector<FleetRoundAggregate> aggregates;
  SessionFleet fleet(config, HeterogeneousSpecs(6));
  ASSERT_TRUE(fleet.Bootstrap().ok());
  StepRounds(&fleet, 3, &aggregates);

  // Corrupt a copy of the fleet's own checkpoint three different ways and
  // throw each at the live fleet.
  FleetCheckpoint checkpoint = fleet.Checkpoint().ValueOrDie();
  FleetCheckpoint truncated = checkpoint;
  truncated.sessions.pop_back();
  EXPECT_FALSE(fleet.Restore(truncated).ok());
  FleetCheckpoint inflated = checkpoint;
  inflated.next_round = 99;
  EXPECT_FALSE(fleet.Restore(inflated).ok());
  FleetCheckpoint skewed = checkpoint;
  skewed.sessions[0].records.pop_back();
  EXPECT_FALSE(fleet.Restore(skewed).ok());

  // The fleet never noticed: remaining rounds play out bit-identically.
  EXPECT_TRUE(fleet.bootstrapped());
  EXPECT_EQ(fleet.next_round(), 4);
  StepRounds(&fleet, 3, &aggregates);
  ExpectFleetSummaryBitIdentical(full.summary, fleet.Finish());
  ExpectAggregatesBitIdentical(full.aggregates, aggregates);
}

// --------------------------------------------------------------------------
// Heterogeneous aggregation vs a sequential oracle loop
// --------------------------------------------------------------------------

TEST_F(SessionFleetTest, MatchesSequentialOracleLoop) {
  const size_t kTenants = 9;
  const int kRounds = 5;
  FleetConfig config;
  config.rounds = kRounds;
  config.threads = 4;
  config.seed = 2024;

  std::vector<TenantSpec> specs = HeterogeneousSpecs(kTenants);
  SessionFleet fleet(config, specs);
  const FleetRun run = RunFleet(&fleet);
  const FleetSummary& summary = run.summary;

  // Oracle: materialize the same tenants with the same derived seeds and
  // run them one by one, entirely outside the fleet machinery.
  std::vector<TenantSpec> oracle_specs = HeterogeneousSpecs(kTenants);
  ASSERT_EQ(summary.tenants.size(), kTenants);
  size_t benign_received = 0, poison_received = 0;
  size_t benign_kept = 0, poison_kept = 0;
  for (size_t i = 0; i < kTenants; ++i) {
    SCOPED_TRACE("tenant " + std::to_string(i));
    Tenant tenant =
        MaterializeTenant(oracle_specs[i], DeriveTenantSeed(config.seed, i))
            .ValueOrDie();
    ASSERT_TRUE(tenant.session->Bootstrap().ok());
    for (int r = 0; r < kRounds; ++r) {
      ASSERT_TRUE(tenant.session->Step().ok());
    }
    GameSummary expected = tenant.session->Finish();
    ExpectSummaryBitIdentical(expected, summary.tenants[i]);
    benign_received += expected.TotalBenignReceived();
    poison_received += expected.TotalPoisonReceived();
    benign_kept += expected.TotalBenignKept();
    poison_kept += expected.TotalPoisonKept();
  }

  // Aggregates re-derived from the oracle runs.
  ASSERT_EQ(run.aggregates.size(), static_cast<size_t>(kRounds));
  size_t agg_benign_received = 0, agg_poison_received = 0;
  size_t agg_benign_kept = 0, agg_poison_kept = 0;
  for (const FleetRoundAggregate& round : run.aggregates) {
    EXPECT_EQ(round.tenants, kTenants);
    agg_benign_received += round.benign_received;
    agg_poison_received += round.poison_received;
    agg_benign_kept += round.benign_kept;
    agg_poison_kept += round.poison_kept;
    EXPECT_GE(round.trim_rate, 0.0);
    EXPECT_LE(round.trim_rate, 1.0);
    EXPECT_GE(round.poison_acceptance, 0.0);
    EXPECT_LE(round.poison_acceptance, 1.0);
    EXPECT_LE(round.tenant_trim_rate.p10, round.tenant_trim_rate.p90);
    EXPECT_LE(round.tenant_poison_acceptance.p10,
              round.tenant_poison_acceptance.p90);
  }
  EXPECT_EQ(agg_benign_received, benign_received);
  EXPECT_EQ(agg_poison_received, poison_received);
  EXPECT_EQ(agg_benign_kept, benign_kept);
  EXPECT_EQ(agg_poison_kept, poison_kept);
  EXPECT_EQ(summary.total_received, benign_received + poison_received);
  EXPECT_EQ(summary.total_kept, benign_kept + poison_kept);
  EXPECT_EQ(summary.total_poison_kept, poison_kept);
}

// Groundtruth tenants are the clean reference: no poison ever arrives.
TEST_F(SessionFleetTest, GroundtruthTenantRunsClean) {
  TenantSpec spec;
  spec.model = TenantModelKind::kScalar;
  spec.scheme = SchemeId::kGroundtruth;
  spec.scalar_pool = &pool_;
  spec.game.attack_ratio = 0.3;  // forced to 0 at materialization
  spec.game.round_size = 50;
  spec.game.bootstrap_size = 50;
  FleetConfig config;
  config.rounds = 4;
  SessionFleet fleet(config, {spec});
  FleetSummary summary = fleet.RunToCompletion().ValueOrDie();
  EXPECT_EQ(summary.tenants[0].TotalPoisonReceived(), 0u);
  EXPECT_EQ(summary.total_poison_kept, 0u);
}

// Fixed per-tenant seeds: two identical specs produce identical streams
// when derivation is off, distinct streams when it is on.
TEST_F(SessionFleetTest, SeedDerivationTogglesTenantIndependence) {
  TenantSpec spec;
  spec.model = TenantModelKind::kScalar;
  spec.scheme = SchemeId::kElastic05;
  spec.scalar_pool = &pool_;
  spec.game.round_size = 60;
  spec.game.bootstrap_size = 60;
  spec.game.seed = 99;

  FleetConfig verbatim;
  verbatim.rounds = 4;
  verbatim.derive_tenant_seeds = false;
  SessionFleet twins(verbatim, {spec, spec});
  FleetSummary twin_summary = twins.RunToCompletion().ValueOrDie();
  ExpectSummaryBitIdentical(twin_summary.tenants[0], twin_summary.tenants[1]);

  FleetConfig derived;
  derived.rounds = 4;
  SessionFleet cousins(derived, {spec, spec});
  FleetSummary cousin_summary = cousins.RunToCompletion().ValueOrDie();
  // Same config, different derived streams: the clean bootstrap samples
  // alone make the boards differ, so cutoffs diverge.
  bool any_difference = false;
  for (size_t r = 0; r < cousin_summary.tenants[0].rounds.size(); ++r) {
    if (!BitEqual(cousin_summary.tenants[0].rounds[r].cutoff,
                  cousin_summary.tenants[1].rounds[r].cutoff)) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

// --------------------------------------------------------------------------
// Validation: fleet-level and per-tenant, one field at a time
// --------------------------------------------------------------------------

TEST_F(SessionFleetTest, StepBeforeBootstrapFails) {
  SessionFleet fleet(FleetConfig{}, HeterogeneousSpecs(2));
  EXPECT_EQ(fleet.StepRound().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(SessionFleetTest, RejectsEachInvalidFleetConfigField) {
  auto expect_rejected = [&](FleetConfig config, const char* label) {
    EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument)
        << label;
    SessionFleet fleet(config, HeterogeneousSpecs(2));
    EXPECT_EQ(fleet.Bootstrap().code(), StatusCode::kInvalidArgument)
        << label;
    EXPECT_EQ(fleet.RunToCompletion().status().code(),
              StatusCode::kInvalidArgument)
        << label;
  };

  FleetConfig config;
  config.rounds = 0;
  expect_rejected(config, "rounds");
  config = FleetConfig{};
  config.threads = -1;
  expect_rejected(config, "threads");

  EXPECT_TRUE(FleetConfig{}.Validate().ok());
}

TEST_F(SessionFleetTest, RejectsEmptyTenantList) {
  SessionFleet fleet(FleetConfig{}, {});
  EXPECT_EQ(fleet.Bootstrap().code(), StatusCode::kInvalidArgument);
}

TEST_F(SessionFleetTest, RejectsEachInvalidTenantSpecField) {
  auto expect_rejected = [&](TenantSpec spec, const char* label) {
    EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument) << label;
    FleetConfig config;
    config.rounds = 2;
    // The offending tenant rides second so the error must carry its index.
    SessionFleet fleet(config, {HeterogeneousSpecs(1)[0], spec});
    Status status = fleet.Bootstrap();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << label;
    EXPECT_NE(status.message().find("tenant #1"), std::string::npos)
        << label << ": " << status.message();
  };

  std::vector<double> empty_pool;
  TenantSpec spec;
  spec.model = TenantModelKind::kScalar;
  spec.scalar_pool = nullptr;
  expect_rejected(spec, "null scalar_pool");
  spec.scalar_pool = &empty_pool;
  expect_rejected(spec, "empty scalar_pool");

  spec = TenantSpec{};
  spec.model = TenantModelKind::kDistance;
  spec.dataset = nullptr;
  expect_rejected(spec, "null dataset");
  Dataset empty_data;
  spec.dataset = &empty_data;
  expect_rejected(spec, "empty dataset");

  spec = TenantSpec{};
  spec.model = TenantModelKind::kLdp;
  spec.ldp_mechanism = &mechanism_;
  attacks_.push_back(std::make_unique<InputManipulationAttack>(1.0));
  spec.ldp_attack = attacks_.back().get();
  spec.ldp_population = nullptr;
  expect_rejected(spec, "null ldp_population");
  spec.ldp_population = &population_;
  spec.ldp_mechanism = nullptr;
  expect_rejected(spec, "null ldp_mechanism");
  spec.ldp_mechanism = &mechanism_;
  spec.ldp_attack = nullptr;
  expect_rejected(spec, "null ldp_attack with poison");
  // ...but a poison-free LDP tenant does not need an attack.
  spec.game.attack_ratio = 0.0;
  EXPECT_TRUE(spec.Validate().ok());
  // ...and neither does a Groundtruth (clean reference) LDP tenant, whose
  // attack_ratio is forced to 0 at materialization.
  spec.game.attack_ratio = 0.2;
  spec.scheme = SchemeId::kGroundtruth;
  EXPECT_TRUE(spec.Validate().ok());
  EXPECT_TRUE(
      MaterializeTenant(spec, /*seed=*/5).ValueOrDie().session != nullptr);
  // The LDP band trim is defined against the board reference, so the
  // round-mass rule is refused.
  spec.reference = TenantReferenceKind::kRoundMass;
  expect_rejected(spec, "ldp with round-mass reference");

  // Fitted-model options go through the policy's own option check.
  RegressionData regression = MakeSyntheticRegression(100, 2, 0.1, 11);
  spec = TenantSpec{};
  spec.model = TenantModelKind::kResidual;
  spec.regression = &regression;
  spec.reference = TenantReferenceKind::kFittedModel;
  EXPECT_TRUE(spec.Validate().ok());
  spec.fitted_reference.max_refits = 0;
  expect_rejected(spec, "fitted_reference.max_refits");
  spec.fitted_reference = FittedModelReference::Options{};
  spec.fitted_reference.tol = std::numeric_limits<double>::quiet_NaN();
  expect_rejected(spec, "fitted_reference.tol");

  // Game-config fields are validated through the same path.
  spec = TenantSpec{};
  spec.model = TenantModelKind::kScalar;
  spec.scalar_pool = &pool_;
  spec.game.rounds = 0;
  expect_rejected(spec, "game.rounds");
  spec.game = GameConfig{};
  spec.game.round_size = 0;
  expect_rejected(spec, "game.round_size");
  spec.game = GameConfig{};
  spec.game.attack_ratio = -0.1;
  expect_rejected(spec, "game.attack_ratio");
  spec.game = GameConfig{};
  spec.game.tth = 1.0;
  expect_rejected(spec, "game.tth");
  spec.game = GameConfig{};
  spec.game.bootstrap_size = 0;
  expect_rejected(spec, "game.bootstrap_size");
}

}  // namespace
}  // namespace itrim
