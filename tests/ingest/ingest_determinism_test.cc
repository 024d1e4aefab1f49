// The ingest determinism contract: a tenant's round records are a pure
// function of its own admitted arrival sequence — bit-identical to
// stepping that tenant alone — regardless of shard count, cross-tenant
// arrival interleaving, producer concurrency, queue batching, or
// hibernation cycles in between.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "exp/schemes.h"
#include "fleet/session_fleet.h"
#include "fleet/tenant.h"
#include "ingest/ingest.h"
#include "ldp/attacks.h"
#include "ldp/mechanism.h"

#include "game/summary_test_util.h"

namespace itrim {
namespace {

class IngestDeterminismTest : public ::testing::Test {
 protected:
  IngestDeterminismTest()
      : pool_(UniformPool(4000, 11)), data_(MakeControl(21, 80)),
        population_(UniformPool(3000, 31)), mechanism_(2.0) {}

  // Heterogeneous tenants cycling model kinds, schemes and round sizes
  // (same mix as the fleet suites).
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

  SessionFleet MakeFleet(size_t tenants) {
    FleetConfig config;
    config.threads = 1;
    config.seed = 1234;
    SessionFleet fleet(config, HeterogeneousSpecs(tenants));
    EXPECT_TRUE(fleet.Bootstrap().ok());
    return fleet;
  }

  // Reference books: tenant i stepped alone, `rounds[i]` times, in a
  // fleet the ingest service never touched.
  std::vector<std::vector<RoundRecord>> SoloReplay(
      size_t tenants, const std::vector<int>& rounds) {
    SessionFleet fleet = MakeFleet(tenants);
    EXPECT_TRUE(fleet.BeginPerTenantStepping().ok());
    std::vector<std::vector<RoundRecord>> books(tenants);
    for (size_t i = 0; i < tenants; ++i) {
      for (int r = 0; r < rounds[i]; ++r) {
        EXPECT_TRUE(fleet.StepTenant(i).ok());
      }
      books[i] = fleet.TenantRounds(i).ValueOrDie();
    }
    return books;
  }

  static void ExpectBooksBitIdentical(
      const std::vector<std::vector<RoundRecord>>& expected,
      SessionFleet& fleet) {
    for (size_t i = 0; i < expected.size(); ++i) {
      SCOPED_TRACE("tenant " + std::to_string(i));
      GameSummary a;
      a.rounds = expected[i];
      GameSummary b;
      b.rounds = fleet.TenantRounds(i).ValueOrDie();
      ExpectSummaryBitIdentical(a, b);
    }
  }

  std::vector<double> pool_;
  Dataset data_;
  std::vector<double> population_;
  PiecewiseMechanism mechanism_;
  std::vector<std::unique_ptr<LdpAttack>> attacks_;
};

// Shard counts, arrival interleavings and event granularities all produce
// the same books as the solo replay: the round count per tenant is a pure
// function of its cumulative admitted reports.
TEST_F(IngestDeterminismTest, ShardingAndInterleavingAreInvisible) {
  const size_t kTenants = 9;
  // Uneven traffic: tenant i receives (2 + i % 4) rounds' worth of
  // reports plus a sub-round remainder that must never play.
  std::vector<int> rounds(kTenants);
  std::vector<uint32_t> reports(kTenants);
  std::vector<TenantSpec> specs = HeterogeneousSpecs(kTenants);
  for (size_t i = 0; i < kTenants; ++i) {
    rounds[i] = 2 + static_cast<int>(i % 4);
    reports[i] = static_cast<uint32_t>(rounds[i] * specs[i].game.round_size +
                                       static_cast<int>(i % 7));
  }
  std::vector<std::vector<RoundRecord>> expected = SoloReplay(kTenants, rounds);

  for (int shards : {1, 2, 3}) {
    for (int pattern = 0; pattern < 3; ++pattern) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " pattern=" + std::to_string(pattern));
      SessionFleet fleet = MakeFleet(kTenants);
      IngestConfig config;
      config.shards = shards;
      config.queue_capacity = 64;
      config.batch_max = 16;
      IngestService service(config, &fleet);
      ASSERT_TRUE(service.Start().ok());

      std::vector<uint32_t> left = reports;
      if (pattern == 0) {
        // Round-robin single-report events across tenants.
        bool any = true;
        while (any) {
          any = false;
          for (size_t i = 0; i < kTenants; ++i) {
            if (left[i] == 0) continue;
            ASSERT_TRUE(service.Submit({i, 1}).ok());
            --left[i];
            any = true;
          }
        }
      } else if (pattern == 1) {
        // Whole per-tenant bursts, back to back.
        for (size_t i = 0; i < kTenants; ++i) {
          ASSERT_TRUE(service.Submit({i, left[i]}).ok());
        }
      } else {
        // Seeded random interleaving of random-sized events.
        Rng rng(4242);
        size_t remaining = kTenants;
        while (remaining > 0) {
          size_t i = static_cast<size_t>(rng.Uniform() *
                                         static_cast<double>(kTenants));
          if (i >= kTenants || left[i] == 0) continue;
          uint32_t chunk = 1 + static_cast<uint32_t>(rng.Uniform() * 30.0);
          if (chunk > left[i]) chunk = left[i];
          ASSERT_TRUE(service.Submit({i, chunk}).ok());
          left[i] -= chunk;
          if (left[i] == 0) --remaining;
        }
      }

      ASSERT_TRUE(service.Flush().ok());
      ExpectBooksBitIdentical(expected, fleet);
      ASSERT_TRUE(service.Stop().ok());
    }
  }
}

// Hibernation churn mid-stream changes nothing: with at most one resident
// tenant per shard, every arrival burst forces an evict/rebuild cycle,
// and the books still match the solo replay bit for bit.
TEST_F(IngestDeterminismTest, HibernationChurnIsBitIdentical) {
  const size_t kTenants = 6;
  std::vector<int> rounds(kTenants, 3);
  std::vector<std::vector<RoundRecord>> expected = SoloReplay(kTenants, rounds);

  for (int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    SessionFleet fleet = MakeFleet(kTenants);
    IngestConfig config;
    config.shards = shards;
    config.batch_max = 4;
    config.max_resident_per_shard = 1;
    IngestService service(config, &fleet);
    ASSERT_TRUE(service.Start().ok());

    std::vector<TenantSpec> specs = HeterogeneousSpecs(kTenants);
    // Three passes of one-round bursts per tenant: every pass revisits a
    // tenant some other tenant's traffic has since evicted.
    for (int pass = 0; pass < 3; ++pass) {
      for (size_t i = 0; i < kTenants; ++i) {
        ASSERT_TRUE(
            service
                .Submit({i, static_cast<uint32_t>(specs[i].game.round_size)})
                .ok());
      }
    }
    ASSERT_TRUE(service.Flush().ok());

    IngestStats stats = service.Stats();
    EXPECT_GT(stats.hibernations, 0u);
    EXPECT_GT(stats.rehydrations, 0u);
    ExpectBooksBitIdentical(expected, fleet);
    ASSERT_TRUE(service.Stop().ok());
  }
}

// Concurrent producers: two submitter threads own disjoint tenant sets,
// so each tenant's arrival sequence is still well-defined while the
// cross-tenant interleaving is racy — and the books don't care.
TEST_F(IngestDeterminismTest, ConcurrentProducersPreservePerTenantOrder) {
  const size_t kTenants = 8;
  std::vector<int> rounds(kTenants, 4);
  std::vector<std::vector<RoundRecord>> expected = SoloReplay(kTenants, rounds);

  SessionFleet fleet = MakeFleet(kTenants);
  IngestConfig config;
  config.shards = 2;
  config.queue_capacity = 8;  // small: exercises Push backpressure blocking
  IngestService service(config, &fleet);
  ASSERT_TRUE(service.Start().ok());

  std::vector<TenantSpec> specs = HeterogeneousSpecs(kTenants);
  auto produce = [&](size_t begin, size_t end) {
    for (int r = 0; r < 4; ++r) {
      for (size_t i = begin; i < end; ++i) {
        uint32_t burst = static_cast<uint32_t>(specs[i].game.round_size);
        // Split each round's worth into two events for extra coalescing.
        ASSERT_TRUE(service.Submit({i, burst / 2}).ok());
        ASSERT_TRUE(service.Submit({i, burst - burst / 2}).ok());
      }
    }
  };
  std::thread first(produce, 0, kTenants / 2);
  std::thread second(produce, kTenants / 2, kTenants);
  first.join();
  second.join();
  ASSERT_TRUE(service.Flush().ok());
  ExpectBooksBitIdentical(expected, fleet);
  ASSERT_TRUE(service.Stop().ok());
}

}  // namespace
}  // namespace itrim
