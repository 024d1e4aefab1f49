// Tenant hibernation/rehydration bit-identity: evicting a session to its
// compact checkpoint and rebuilding it later must not perturb the stream.
// The checkpoint carries no board, so rehydration rebuilds the sealed board
// by re-running the bootstrap; that rebuild is checked per model kind
// (scalar / distance / LDP / residual), with a board that holds the whole
// bootstrap sample and with one whose reservoir drops part of it, mid-stream
// at every round boundary, and across repeated hibernate-rehydrate cycles.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "data/generators.h"
#include "exp/schemes.h"
#include "fleet/session_fleet.h"
#include "fleet/tenant.h"
#include "game/public_board.h"
#include "ldp/attacks.h"
#include "ldp/mechanism.h"
#include "ml/linreg.h"

#include "game/summary_test_util.h"

namespace itrim {
namespace {

void ExpectRecordsBitIdentical(const std::vector<RoundRecord>& a,
                               const std::vector<RoundRecord>& b) {
  GameSummary sa;
  sa.rounds = a;
  GameSummary sb;
  sb.rounds = b;
  ExpectSummaryBitIdentical(sa, sb);
}

// Board capacities: one above the bootstrap size (80), one below it, so the
// reservoir's replacement draws decide which bootstrap values are kept.
constexpr size_t kWholeBoard = 2000;
constexpr size_t kReservoirBoard = 48;

const TenantModelKind kAllKinds[] = {
    TenantModelKind::kScalar, TenantModelKind::kDistance,
    TenantModelKind::kLdp, TenantModelKind::kResidual};

class HibernationTest : public ::testing::Test {
 protected:
  HibernationTest()
      : pool_(UniformPool(4000, 11)), data_(MakeControl(21, 80)),
        population_(UniformPool(3000, 31)), mechanism_(2.0),
        regression_(MakeSyntheticRegression(600, 3, 0.05, 47)) {}

  TenantSpec SpecFor(TenantModelKind model, size_t board_capacity) {
    TenantSpec spec;
    spec.name = TenantModelKindName(model) + "/capacity=" +
                std::to_string(board_capacity);
    spec.model = model;
    spec.scheme = SchemeId::kElastic05;
    spec.game.round_size = 40;
    spec.game.bootstrap_size = 80;
    spec.game.attack_ratio = 0.15;
    spec.game.board_capacity = board_capacity;
    switch (model) {
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
        // The fitted-model reference is the interesting hibernation case:
        // its scratch must be rebuilt from the checkpoint alone.
        spec.regression = &regression_;
        spec.reference = TenantReferenceKind::kFittedModel;
        break;
    }
    return spec;
  }

  // A fresh one-tenant fleet in per-tenant mode.
  SessionFleet MakeFleet(const TenantSpec& spec) {
    FleetConfig config;
    config.threads = 1;
    config.seed = 909;
    SessionFleet fleet(config, {spec});
    EXPECT_TRUE(fleet.Bootstrap().ok());
    EXPECT_TRUE(fleet.BeginPerTenantStepping().ok());
    return fleet;
  }

  std::vector<double> pool_;
  Dataset data_;
  std::vector<double> population_;
  PiecewiseMechanism mechanism_;
  std::vector<std::unique_ptr<LdpAttack>> attacks_;
  RegressionData regression_;
};

// The core contract, swept over every (model kind, board capacity) cell:
// for every split point k in a 8-round stream, playing k rounds,
// hibernating, rehydrating and playing the rest equals the uninterrupted
// stream bit for bit.
TEST_F(HibernationTest, MidStreamHibernationIsBitIdenticalEverywhere) {
  const int kRounds = 8;
  for (TenantModelKind model : kAllKinds) {
    for (size_t capacity : {kWholeBoard, kReservoirBoard}) {
      TenantSpec spec = SpecFor(model, capacity);
      SCOPED_TRACE(spec.name);

      SessionFleet reference = MakeFleet(spec);
      for (int r = 0; r < kRounds; ++r) {
        ASSERT_TRUE(reference.StepTenant(0).ok());
      }
      std::vector<RoundRecord> expected =
          reference.TenantRounds(0).ValueOrDie();

      for (int split = 0; split <= kRounds; ++split) {
        SCOPED_TRACE("split after round " + std::to_string(split));
        SessionFleet fleet = MakeFleet(spec);
        for (int r = 0; r < split; ++r) {
          ASSERT_TRUE(fleet.StepTenant(0).ok());
        }
        ASSERT_TRUE(fleet.HibernateTenant(0).ok());
        EXPECT_FALSE(fleet.TenantResident(0));
        EXPECT_EQ(fleet.ResidentTenants(), 0u);
        // Parked tenants still answer for their history.
        ExpectRecordsBitIdentical(
            std::vector<RoundRecord>(expected.begin(),
                                     expected.begin() + split),
            fleet.TenantRounds(0).ValueOrDie());
        ASSERT_TRUE(fleet.RehydrateTenant(0).ok());
        EXPECT_TRUE(fleet.TenantResident(0));
        for (int r = split; r < kRounds; ++r) {
          ASSERT_TRUE(fleet.StepTenant(0).ok());
        }
        ExpectRecordsBitIdentical(expected, fleet.TenantRounds(0).ValueOrDie());
      }
    }
  }
}

// Repeated park/rebuild cycles at every round boundary — two in a row with
// no round in between — accumulate no drift, for every model kind with the
// reservoir engaged. Each rebuild must also reproduce the never-hibernated
// tenant's board exactly: same sample, same sealed order.
TEST_F(HibernationTest, RepeatedCyclesAccumulateNoDrift) {
  for (TenantModelKind model : kAllKinds) {
    TenantSpec spec = SpecFor(model, kReservoirBoard);
    SCOPED_TRACE(spec.name);
    SessionFleet reference = MakeFleet(spec);
    for (int r = 0; r < 6; ++r) ASSERT_TRUE(reference.StepTenant(0).ok());
    const PublicBoard& reference_board = reference.tenant(0).session->board();
    ASSERT_EQ(reference_board.size(), kReservoirBoard);
    ASSERT_EQ(reference_board.total_recorded(), spec.game.bootstrap_size);

    SessionFleet fleet = MakeFleet(spec);
    for (int r = 0; r < 6; ++r) {
      ASSERT_TRUE(fleet.HibernateTenant(0).ok());
      ASSERT_TRUE(fleet.RehydrateTenant(0).ok());
      ASSERT_TRUE(fleet.HibernateTenant(0).ok());
      ASSERT_TRUE(fleet.RehydrateTenant(0).ok());
      const PublicBoard& board = fleet.tenant(0).session->board();
      ASSERT_TRUE(board.sealed());
      ASSERT_EQ(board.values(), reference_board.values());
      ASSERT_EQ(board.total_recorded(), reference_board.total_recorded());
      ASSERT_TRUE(fleet.StepTenant(0).ok());
    }
    ExpectRecordsBitIdentical(reference.TenantRounds(0).ValueOrDie(),
                              fleet.TenantRounds(0).ValueOrDie());
  }
}

// Finish() must account hibernated tenants from their parked checkpoints:
// a fleet finished while parked reports the same per-tenant books as one
// finished while resident.
TEST_F(HibernationTest, FinishAccountsParkedTenants) {
  TenantSpec spec = SpecFor(TenantModelKind::kScalar, kWholeBoard);
  SessionFleet resident = MakeFleet(spec);
  for (int r = 0; r < 5; ++r) ASSERT_TRUE(resident.StepTenant(0).ok());
  FleetSummary expected = resident.Finish();

  SessionFleet parked = MakeFleet(spec);
  for (int r = 0; r < 5; ++r) ASSERT_TRUE(parked.StepTenant(0).ok());
  ASSERT_TRUE(parked.HibernateTenant(0).ok());
  FleetSummary actual = parked.Finish();
  ASSERT_EQ(actual.tenants.size(), 1u);
  ExpectSummaryBitIdentical(expected.tenants[0], actual.tenants[0]);
  EXPECT_EQ(expected.total_received, actual.total_received);
  EXPECT_EQ(expected.total_kept, actual.total_kept);
}

// Mode and state guards: the per-tenant surface refuses outside
// per-tenant mode, the lockstep surface (StepRound, fleet Checkpoint and
// Restore) refuses inside it, double hibernation/rehydration is refused,
// and a hibernated tenant cannot step.
TEST_F(HibernationTest, GuardsRejectInvalidTransitions) {
  TenantSpec spec = SpecFor(TenantModelKind::kScalar, kWholeBoard);
  FleetConfig config;
  config.threads = 1;
  SessionFleet fleet(config, {spec});
  EXPECT_EQ(fleet.Checkpoint().status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(fleet.Bootstrap().ok());
  const FleetCheckpoint lockstep = fleet.Checkpoint().ValueOrDie();

  // Lockstep mode: per-tenant calls are refused.
  EXPECT_EQ(fleet.StepTenant(0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(fleet.HibernateTenant(0).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(fleet.RehydrateTenant(0).code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(fleet.BeginPerTenantStepping().ok());
  // Per-tenant mode: lockstep stepping and fleet checkpoints are refused.
  EXPECT_EQ(fleet.StepRound().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(fleet.Checkpoint().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(fleet.Restore(lockstep).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(fleet.per_tenant_mode());

  EXPECT_EQ(fleet.StepTenant(7).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(fleet.AttachTenantObservability(fleet.num_tenants(), {}).code(),
            StatusCode::kOutOfRange);
  ASSERT_TRUE(fleet.HibernateTenant(0).ok());
  EXPECT_EQ(fleet.HibernateTenant(0).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(fleet.StepTenant(0).status().code(),
            StatusCode::kFailedPrecondition);
  // A parked tenant has no session to checkpoint.
  EXPECT_EQ(fleet.Checkpoint().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(fleet.Restore(lockstep).code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(fleet.TenantResident(0));
  ASSERT_TRUE(fleet.RehydrateTenant(0).ok());
  EXPECT_EQ(fleet.RehydrateTenant(0).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(fleet.StepTenant(0).ok());

  // Re-Bootstrap returns the fleet to lockstep mode.
  ASSERT_TRUE(fleet.Bootstrap().ok());
  EXPECT_FALSE(fleet.per_tenant_mode());
  EXPECT_TRUE(fleet.StepRound().ok());
}

}  // namespace
}  // namespace itrim
