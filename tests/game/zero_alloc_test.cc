// The zero-allocation contract of the streaming round hot path.
//
// ISSUE 4's tentpole claims steady-state TrimmingSession::Step() and
// (serial) SessionFleet::StepRound() perform zero heap allocations once
// scratch capacity is warm. These tests measure that claim directly with
// the counting allocator from bench/alloc_counter.h (linked into this
// binary via itrim_bench): warm the engine up, snapshot the calling
// thread's counters, play more rounds, and require an exact zero delta.
//
// The contract is defined for sessions whose score model has
// retain_survivors off (the streaming/fleet shape — an ever-growing
// survivor store is inherently allocating) and for fleets on the serial
// fast path (thread pools hand work to other threads through type-erased
// tasks; the 1-thread path is the one that must stay clean, and the only
// one a thread-local counter can observe faithfully).
#include "game/session.h"

#include <memory>
#include <vector>

#include "bench/alloc_counter.h"
#include "data/generators.h"
#include "exp/schemes.h"
#include "fleet/session_fleet.h"
#include "game/score_model.h"
#include "game/strategies.h"
#include "gtest/gtest.h"
#include "game/reference_policy.h"
#include "ldp/attacks.h"
#include "ldp/mechanism.h"
#include "ldp/report_score_model.h"
#include "ml/linreg.h"
#include "ml/residual_score_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace itrim {
namespace {

// Steps `rounds` rounds and returns the allocation delta on this thread.
uint64_t AllocationsOver(TrimmingSession* session, int rounds) {
  bench::AllocCounts before = bench::ThreadAllocCounts();
  for (int i = 0; i < rounds; ++i) {
    auto record = session->Step();
    EXPECT_TRUE(record.ok()) << record.status().ToString();
  }
  return (bench::ThreadAllocCounts() - before).allocations;
}

GameConfig StreamingConfig() {
  GameConfig config;
  config.rounds = 200;  // generous horizon: records_ reserve covers the test
  config.round_size = 60;
  config.attack_ratio = 0.15;
  config.bootstrap_size = 80;
  config.board_capacity = 64;  // small cap: exercises reservoir replacement
  config.seed = 97;
  return config;
}

constexpr int kWarmupRounds = 20;
constexpr int kMeasuredRounds = 50;

TEST(ZeroAllocTest, CountingAllocatorSeesThisThread) {
  bench::AllocCounts before = bench::ThreadAllocCounts();
  { std::vector<double> v(1000, 1.0); }
  bench::AllocCounts delta = bench::ThreadAllocCounts() - before;
  EXPECT_GE(delta.allocations, 1u);
  EXPECT_GE(delta.bytes, 1000 * sizeof(double));
  EXPECT_GE(delta.deallocations, 1u);
}

TEST(ZeroAllocTest, ScalarSessionSteadyStateStepIsAllocationFree) {
  std::vector<double> pool;
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) pool.push_back(rng.Uniform());
  for (bool round_mass : {false, true}) {
    SCOPED_TRACE(round_mass ? "round_mass" : "board_reference");
    IdentityScoreModel model(&pool);
    model.set_retain_survivors(false);
    ElasticCollector collector(0.5);
    ElasticAdversary adversary(0.5);
    TailMassQuality quality(0.9);
    RoundMassReference reference;
    TrimmingSession session(StreamingConfig(), &model, &collector,
                            &adversary, &quality,
                            round_mass ? &reference : nullptr);
    ASSERT_TRUE(session.Bootstrap().ok());
    AllocationsOver(&session, kWarmupRounds);
    EXPECT_EQ(AllocationsOver(&session, kMeasuredRounds), 0u);
  }
}

TEST(ZeroAllocTest, DistanceSessionSteadyStateStepIsAllocationFree) {
  Dataset data = MakeControl(5, 80);
  for (bool round_mass : {false, true}) {
    SCOPED_TRACE(round_mass ? "round_mass" : "board_reference");
    DistanceScoreModel model(&data);
    model.set_retain_survivors(false);
    ElasticCollector collector(0.1);
    ElasticAdversary adversary(0.1);
    RoundMassReference reference;
    TrimmingSession session(StreamingConfig(), &model, &collector,
                            &adversary, nullptr,
                            round_mass ? &reference : nullptr);
    ASSERT_TRUE(session.Bootstrap().ok());
    AllocationsOver(&session, kWarmupRounds);
    EXPECT_EQ(AllocationsOver(&session, kMeasuredRounds), 0u);
  }
}

TEST(ZeroAllocTest, LdpSessionSteadyStateStepIsAllocationFree) {
  std::vector<double> population;
  Rng rng(13);
  for (int i = 0; i < 1500; ++i) population.push_back(rng.Uniform(-1.0, 1.0));
  PiecewiseMechanism mechanism(2.0);
  InputManipulationAttack attack(1.0);
  GameConfig config = StreamingConfig();
  LdpReportScoreModel model(&population, &mechanism, &attack, config.tth);
  model.set_retain_survivors(false);
  ElasticCollector collector(0.5);
  TrimmingSession session(config, &model, &collector, nullptr, nullptr);
  ASSERT_TRUE(session.Bootstrap().ok());
  AllocationsOver(&session, kWarmupRounds);
  EXPECT_EQ(AllocationsOver(&session, kMeasuredRounds), 0u);
}

// The residual workload's hot path — batched kernel scoring plus a full
// refit-and-reselect inside FittedModelReference::TrimRound every round —
// must also settle to zero: the regressor's normal-equation scratch, the
// policy's residual/order/gather buffers and the model's row store are all
// reused once warm.
TEST(ZeroAllocTest, ResidualSessionSteadyStateStepIsAllocationFree) {
  RegressionData source = MakeSyntheticRegression(800, 3, 0.05, 59);
  for (bool fitted : {false, true}) {
    SCOPED_TRACE(fitted ? "fitted_model" : "percentile");
    ResidualScoreModel model(&source);
    model.set_retain_survivors(false);
    ElasticCollector collector(0.5);
    ElasticAdversary adversary(0.5);
    FittedModelReference reference;
    TrimmingSession session(StreamingConfig(), &model, &collector,
                            &adversary, nullptr,
                            fitted ? &reference : nullptr);
    ASSERT_TRUE(session.Bootstrap().ok());
    AllocationsOver(&session, kWarmupRounds);
    EXPECT_EQ(AllocationsOver(&session, kMeasuredRounds), 0u);
  }
}

// The observability contract (ISSUE 10): recording into attached metric
// slots and trace rings is wait-free on preallocated storage, so the
// steady-state hot path stays allocation-free with metrics ENABLED — the
// session arm of the same proof the plain arms above run unobserved.
TEST(ZeroAllocTest, InstrumentedSessionSteadyStateStepIsAllocationFree) {
  std::vector<double> pool;
  Rng rng(41);
  for (int i = 0; i < 2000; ++i) pool.push_back(rng.Uniform());
  obs::MetricsRegistry registry;
  obs::MetricSlot* slot = registry.AddSlot("session");
  obs::TraceBuffer trace(256);
  IdentityScoreModel model(&pool);
  model.set_retain_survivors(false);
  ElasticCollector collector(0.5);
  ElasticAdversary adversary(0.5);
  TailMassQuality quality(0.9);
  TrimmingSession session(StreamingConfig(), &model, &collector,
                          &adversary, &quality);
  SessionObs sinks;
  sinks.metrics = slot;
  sinks.trace = &trace;
  sinks.tenant = 3;
  session.set_observability(sinks);
  ASSERT_TRUE(session.Bootstrap().ok());
  AllocationsOver(&session, kWarmupRounds);
  EXPECT_EQ(AllocationsOver(&session, kMeasuredRounds), 0u);
  // The recording actually happened — this arm must not pass vacuously.
  EXPECT_EQ(slot->Get(obs::Counter::kSessionRoundsPlayed),
            static_cast<uint64_t>(kWarmupRounds + kMeasuredRounds));
  EXPECT_GT(trace.recorded(), 0u);
}

// Fleet arm of the instrumented proof: round wall-time histogram and the
// tenant-quantile gauges recorded every StepRound, still zero allocations.
TEST(ZeroAllocTest, InstrumentedSerialFleetStepRoundIsAllocationFree) {
  std::vector<double> pool;
  Rng rng(43);
  for (int i = 0; i < 2000; ++i) pool.push_back(rng.Uniform());
  std::vector<TenantSpec> specs;
  for (size_t i = 0; i < 6; ++i) {
    TenantSpec spec;
    spec.model = TenantModelKind::kScalar;
    spec.scalar_pool = &pool;
    spec.game = StreamingConfig();
    if ((i % 2) == 0) spec.reference = TenantReferenceKind::kRoundMass;
    specs.push_back(spec);
  }
  FleetConfig config;
  config.rounds = 200;
  config.threads = 1;
  config.seed = 37;
  SessionFleet fleet(config, std::move(specs));
  obs::MetricsRegistry registry;
  obs::MetricSlot* fleet_slot = registry.AddSlot("fleet");
  obs::TraceBuffer trace(512);
  fleet.AttachObservability(fleet_slot);
  ASSERT_TRUE(fleet.Bootstrap().ok());
  for (size_t i = 0; i < fleet.num_tenants(); ++i) {
    SessionObs sinks;
    sinks.metrics = fleet_slot;
    sinks.trace = &trace;
    sinks.tenant = i;
    ASSERT_TRUE(fleet.AttachTenantObservability(i, sinks).ok());
  }
  for (int r = 0; r < kWarmupRounds; ++r) {
    ASSERT_TRUE(fleet.StepRound().ok());
  }
  bench::AllocCounts before = bench::ThreadAllocCounts();
  for (int r = 0; r < kMeasuredRounds; ++r) {
    ASSERT_TRUE(fleet.StepRound().ok());
  }
  EXPECT_EQ((bench::ThreadAllocCounts() - before).allocations, 0u);
  EXPECT_EQ(fleet_slot->Get(obs::Counter::kSessionRoundsPlayed),
            static_cast<uint64_t>(6 * (kWarmupRounds + kMeasuredRounds)));
  EXPECT_EQ(fleet_slot->Get(obs::Gauge::kFleetRound),
            static_cast<double>(kWarmupRounds + kMeasuredRounds));
}

// The retaining mode is *expected* to allocate (that is what an append-only
// survivor store does); this guards the test methodology against a silent
// counting-allocator regression that would make every measurement zero.
TEST(ZeroAllocTest, RetainingSessionDoesAllocate) {
  std::vector<double> pool;
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) pool.push_back(rng.Uniform());
  IdentityScoreModel model(&pool);
  ASSERT_TRUE(model.retain_survivors());  // batch-game default
  ElasticCollector collector(0.5);
  ElasticAdversary adversary(0.5);
  TrimmingSession session(StreamingConfig(), &model, &collector,
                          &adversary, nullptr);
  ASSERT_TRUE(session.Bootstrap().ok());
  AllocationsOver(&session, kWarmupRounds);
  EXPECT_GT(AllocationsOver(&session, kMeasuredRounds), 0u);
}

// Fleet counterpart: a heterogeneous serial fleet's StepRound settles to
// zero allocations once the per-round scratch is warm.
TEST(ZeroAllocTest, SerialFleetSteadyStateStepRoundIsAllocationFree) {
  std::vector<double> pool;
  std::vector<double> population;
  Rng rng(23);
  for (int i = 0; i < 2000; ++i) pool.push_back(rng.Uniform());
  for (int i = 0; i < 1500; ++i) population.push_back(rng.Uniform(-1.0, 1.0));
  Dataset data = MakeControl(7, 60);
  PiecewiseMechanism mechanism(2.0);
  RegressionData regression = MakeSyntheticRegression(800, 2, 0.05, 67);
  std::vector<std::unique_ptr<LdpAttack>> attacks;

  const std::vector<SchemeId> schemes = AllSchemes();
  std::vector<TenantSpec> specs;
  const size_t tenants = 12;
  for (size_t i = 0; i < tenants; ++i) {
    TenantSpec spec;
    spec.model = static_cast<TenantModelKind>(i % 4);
    spec.scheme = schemes[i % schemes.size()];
    spec.game = StreamingConfig();
    // Even tenants trim by round mass, except LDP ones: their band trim is
    // defined against the board reference.
    if ((i % 2) == 0 && spec.model != TenantModelKind::kLdp) {
      spec.reference = TenantReferenceKind::kRoundMass;
    }
    ASSERT_FALSE(spec.retain_survivors);  // the fleet default is streaming
    switch (spec.model) {
      case TenantModelKind::kScalar:
        spec.scalar_pool = &pool;
        break;
      case TenantModelKind::kDistance:
        spec.dataset = &data;
        break;
      case TenantModelKind::kLdp:
        spec.ldp_population = &population;
        spec.ldp_mechanism = &mechanism;
        attacks.push_back(std::make_unique<InputManipulationAttack>(1.0));
        spec.ldp_attack = attacks.back().get();
        break;
      case TenantModelKind::kResidual:
        spec.regression = &regression;
        // Alternate the two reference policies across residual tenants.
        spec.reference = (i % 8) < 4 ? TenantReferenceKind::kFittedModel
                                     : TenantReferenceKind::kPercentile;
        break;
    }
    specs.push_back(spec);
  }

  FleetConfig config;
  config.rounds = 200;
  config.threads = 1;  // the serial fast path is the zero-alloc contract
  config.seed = 31;
  SessionFleet fleet(config, std::move(specs));
  ASSERT_TRUE(fleet.Bootstrap().ok());
  for (int r = 0; r < kWarmupRounds; ++r) {
    ASSERT_TRUE(fleet.StepRound().ok());
  }
  bench::AllocCounts before = bench::ThreadAllocCounts();
  for (int r = 0; r < kMeasuredRounds; ++r) {
    ASSERT_TRUE(fleet.StepRound().ok());
  }
  EXPECT_EQ((bench::ThreadAllocCounts() - before).allocations, 0u);
}

}  // namespace
}  // namespace itrim
