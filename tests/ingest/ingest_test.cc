// IngestService unit behavior: the binary frame codec, config/lifecycle
// guards, the bounded queue's backpressure semantics, report coalescing
// into rounds, the LRU hibernation policy bounding the resident set (and
// its exact eviction order), and restarting a stopped service.
#include "ingest/ingest.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/rng.h"
#include "data/generators.h"
#include "exp/schemes.h"
#include "fleet/tenant.h"

#include "game/summary_test_util.h"

namespace itrim {
namespace {

// ---------------------------------------------------------------------------
// Wire frame codec
// ---------------------------------------------------------------------------

TEST(IngestFrameTest, RoundTripsThroughTheWireFormat) {
  IngestEvent event;
  event.tenant_id = 0x0123456789ABCDEFULL;
  event.reports = 0xDEADBEEF;
  unsigned char frame[kIngestFrameBytes];
  EncodeIngestEvent(event, frame);
  IngestEvent decoded =
      DecodeIngestEvent(frame, kIngestFrameBytes).ValueOrDie();
  EXPECT_EQ(decoded.tenant_id, event.tenant_id);
  EXPECT_EQ(decoded.reports, event.reports);
}

TEST(IngestFrameTest, FrameIsLittleEndian) {
  IngestEvent event;
  event.tenant_id = 0x0102030405060708ULL;
  event.reports = 0x0A0B0C0D;
  unsigned char frame[kIngestFrameBytes];
  EncodeIngestEvent(event, frame);
  EXPECT_EQ(frame[0], 0x08);
  EXPECT_EQ(frame[7], 0x01);
  EXPECT_EQ(frame[8], 0x0D);
  EXPECT_EQ(frame[11], 0x0A);
}

TEST(IngestFrameTest, RejectsBadFrames) {
  unsigned char frame[kIngestFrameBytes] = {0};
  EXPECT_EQ(DecodeIngestEvent(nullptr, kIngestFrameBytes).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeIngestEvent(frame, kIngestFrameBytes - 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeIngestEvent(frame, kIngestFrameBytes + 1).status().code(),
            StatusCode::kInvalidArgument);
  // All-zero frame carries zero reports.
  EXPECT_EQ(DecodeIngestEvent(frame, kIngestFrameBytes).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Bounded MPSC queue
// ---------------------------------------------------------------------------

TEST(BoundedQueueTest, DeliversFifoInBatches) {
  BoundedMpscQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(queue.Push(i));
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(&out, 3), 3u);
  EXPECT_EQ(queue.PopBatch(&out, 8), 2u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(BoundedQueueTest, TryPushRefusesWhenFullOrClosed) {
  BoundedMpscQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // full
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(&out, 1), 1u);
  EXPECT_TRUE(queue.TryPush(3));  // slot freed
  queue.Close();
  EXPECT_FALSE(queue.TryPush(4));  // closed
  EXPECT_FALSE(queue.Push(4));     // closed, must not block
}

TEST(BoundedQueueTest, ConsumerDrainsBacklogAfterClose) {
  BoundedMpscQueue<int> queue(4);
  EXPECT_TRUE(queue.Push(1));
  EXPECT_TRUE(queue.Push(2));
  queue.Close();
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(&out, 10), 2u);
  EXPECT_EQ(queue.PopBatch(&out, 10), 0u);  // closed and drained
}

TEST(BoundedQueueTest, PushBlocksUntilConsumerFreesASlot) {
  BoundedMpscQueue<int> queue(1);
  EXPECT_TRUE(queue.Push(1));
  std::thread producer([&] { EXPECT_TRUE(queue.Push(2)); });
  std::vector<int> out;
  // Pop until both items arrive; the blocked producer resumes after the
  // first pop frees the slot.
  while (out.size() < 2) queue.PopBatch(&out, 1);
  producer.join();
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
}

TEST(BoundedQueueTest, ZeroCapacityClampsToOne) {
  BoundedMpscQueue<int> queue(0);
  EXPECT_EQ(queue.capacity(), 1u);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_FALSE(queue.TryPush(2));
}

// ---------------------------------------------------------------------------
// Service fixture
// ---------------------------------------------------------------------------

class IngestServiceTest : public ::testing::Test {
 protected:
  IngestServiceTest() : pool_(UniformPool(4000, 11)) {}

  std::vector<TenantSpec> ScalarSpecs(size_t count, int round_size = 40) {
    std::vector<TenantSpec> specs;
    specs.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      TenantSpec spec;
      spec.name = "tenant-" + std::to_string(i);
      spec.model = TenantModelKind::kScalar;
      spec.scalar_pool = &pool_;
      spec.game.round_size = round_size;
      spec.game.bootstrap_size = 80;
      spec.game.attack_ratio = 0.1;
      spec.game.board_capacity = 2000;
      specs.push_back(spec);
    }
    return specs;
  }

  std::vector<double> pool_;
};

TEST_F(IngestServiceTest, ValidatesConfigAndLifecycle) {
  FleetConfig config;
  SessionFleet fleet(config, ScalarSpecs(2));

  IngestConfig bad;
  bad.queue_capacity = 0;
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
  bad = IngestConfig{};
  bad.batch_max = 0;
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
  bad = IngestConfig{};
  bad.shards = -1;
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
  bad = IngestConfig{};
  bad.trace_capacity = obs::kMaxTraceCapacity;
  EXPECT_TRUE(bad.Validate().ok());
  bad.trace_capacity = obs::kMaxTraceCapacity + 1;
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
  bad.trace_capacity = SIZE_MAX;
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);

  // Start requires a bootstrapped fleet; Submit requires Start.
  IngestService service(IngestConfig{}, &fleet);
  EXPECT_EQ(service.Submit({0, 1}).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Start().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(fleet.Bootstrap().ok());
  // An oversized trace ring fails Start() before any ring is allocated.
  IngestService oversized(bad, &fleet);
  EXPECT_EQ(oversized.Start().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(service.Start().ok());
  EXPECT_EQ(service.Start().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(fleet.per_tenant_mode());

  // Bad events are rejected at the door and counted.
  EXPECT_EQ(service.Submit({99, 1}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.Submit({0, 0}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.Stats().events_rejected, 3u);  // incl. pre-Start submit

  EXPECT_TRUE(service.Stop().ok());
  EXPECT_TRUE(service.Stop().ok());  // idempotent
  EXPECT_EQ(service.Submit({0, 1}).code(), StatusCode::kFailedPrecondition);
}

TEST_F(IngestServiceTest, CoalescesReportsIntoRounds) {
  FleetConfig config;
  SessionFleet fleet(config, ScalarSpecs(3, /*round_size=*/40));
  ASSERT_TRUE(fleet.Bootstrap().ok());

  IngestConfig ingest;
  ingest.shards = 2;
  IngestService service(ingest, &fleet);
  ASSERT_TRUE(service.Start().ok());

  // Tenant 0: 25 + 25 reports = one round + 10 pending; +30 = second round.
  ASSERT_TRUE(service.Submit({0, 25}).ok());
  ASSERT_TRUE(service.Submit({0, 25}).ok());
  ASSERT_TRUE(service.Flush().ok());
  ASSERT_TRUE(service.Submit({0, 30}).ok());
  // Tenant 1 rides the binary API: 40 single-report frames = one round.
  for (int i = 0; i < 40; ++i) {
    IngestEvent event;
    event.tenant_id = 1;
    event.reports = 1;
    unsigned char frame[kIngestFrameBytes];
    EncodeIngestEvent(event, frame);
    ASSERT_TRUE(service.SubmitFrame(frame, kIngestFrameBytes).ok());
  }
  // Tenant 2: 39 reports — not enough for a round.
  ASSERT_TRUE(service.Submit({2, 39}).ok());
  ASSERT_TRUE(service.Flush().ok());

  EXPECT_EQ(fleet.TenantRounds(0).ValueOrDie().size(), 2u);
  EXPECT_EQ(fleet.TenantRounds(1).ValueOrDie().size(), 1u);
  EXPECT_EQ(fleet.TenantRounds(2).ValueOrDie().size(), 0u);

  IngestStats stats = service.Stats();
  EXPECT_EQ(stats.events_accepted, 44u);
  EXPECT_EQ(stats.reports_enqueued, 25u + 25u + 30u + 40u + 39u);
  EXPECT_EQ(stats.rounds_played, 3u);
  EXPECT_TRUE(service.Stop().ok());
}

// One frame carrying the largest uint32 count used to wrap the lane's
// 32-bit pending count: 1 + 0xFFFFFFFF admitted reports left pending at 0
// and played no round. The frame is now refused at the door, and the
// report already pending still completes a round with the next ones.
TEST_F(IngestServiceTest, RejectsEventsAboveTheReportBound) {
  const int kRoundSize = 40;
  FleetConfig config;
  SessionFleet fleet(config, ScalarSpecs(1, kRoundSize));
  ASSERT_TRUE(fleet.Bootstrap().ok());
  IngestConfig ingest;
  ingest.shards = 1;
  IngestService service(ingest, &fleet);
  ASSERT_TRUE(service.Start().ok());

  auto submit_frame = [&service](uint32_t reports) {
    unsigned char frame[kIngestFrameBytes];
    EncodeIngestEvent({0, reports}, frame);
    return service.SubmitFrame(frame, kIngestFrameBytes);
  };
  ASSERT_TRUE(submit_frame(1).ok());
  ASSERT_TRUE(service.Flush().ok());
  EXPECT_EQ(submit_frame(0xFFFFFFFFu).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(submit_frame(kMaxReportsPerEvent + 1).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(service.Flush().ok());
  IngestStats stats = service.Stats();
  EXPECT_EQ(stats.events_rejected, 2u);
  EXPECT_EQ(stats.reports_enqueued, 1u);
  EXPECT_EQ(stats.rounds_played, 0u);

  // rounds_played * round_size + pending == reports admitted: the one
  // pending report plus 39 more play exactly one round.
  ASSERT_TRUE(submit_frame(kRoundSize - 1).ok());
  ASSERT_TRUE(service.Flush().ok());
  stats = service.Stats();
  EXPECT_EQ(stats.reports_enqueued, static_cast<uint64_t>(kRoundSize));
  EXPECT_EQ(stats.rounds_played, 1u);
  EXPECT_EQ(fleet.TenantRounds(0).ValueOrDie().size(), 1u);
  EXPECT_TRUE(service.Stop().ok());
}

// Random and boundary report counts through SubmitFrame: zero counts fail
// to decode, counts above kMaxReportsPerEvent are refused and counted, and
// the rest are played exactly — rounds_played * round_size + pending equals
// the reports admitted, with pending < round_size after a flush. The large
// round keeps the events at the bound to a few hundred rounds each.
TEST_F(IngestServiceTest, FrameCountFuzzKeepsTheExactWorkIdentity) {
  const int kRoundSize = 5000;
  const uint32_t kBound = kMaxReportsPerEvent;
  FleetConfig config;
  SessionFleet fleet(config, ScalarSpecs(2, kRoundSize));
  ASSERT_TRUE(fleet.Bootstrap().ok());
  IngestConfig ingest;
  ingest.shards = 2;
  IngestService service(ingest, &fleet);
  ASSERT_TRUE(service.Start().ok());

  const uint32_t boundary[] = {0,          1,          kBound - 1,
                               kBound,     kBound + 1, 0x7FFFFFFFu,
                               0x80000000u, 0xFFFFFFFEu, 0xFFFFFFFFu};
  Rng rng(2024);
  uint64_t admitted[2] = {0, 0};
  uint64_t refused = 0;
  for (int i = 0; i < 120; ++i) {
    IngestEvent event;
    event.tenant_id = rng.UniformInt(2);
    switch (rng.UniformInt(3)) {
      case 0:
        event.reports = boundary[rng.UniformInt(std::size(boundary))];
        break;
      case 1:
        event.reports = static_cast<uint32_t>(rng.UniformInt(3 * kRoundSize));
        break;
      default:
        event.reports =
            static_cast<uint32_t>(rng.UniformInt(uint64_t{1} << 32));
        break;
    }
    unsigned char frame[kIngestFrameBytes];
    EncodeIngestEvent(event, frame);
    const Status status = service.SubmitFrame(frame, kIngestFrameBytes);
    if (event.reports >= 1 && event.reports <= kBound) {
      ASSERT_TRUE(status.ok()) << event.reports;
      admitted[event.tenant_id] += event.reports;
    } else {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << event.reports;
      // A zero count fails to decode and never reaches the service.
      if (event.reports != 0) ++refused;
    }
  }
  ASSERT_TRUE(service.Flush().ok());
  const IngestStats stats = service.Stats();
  EXPECT_EQ(stats.events_rejected, refused);
  EXPECT_EQ(stats.reports_enqueued, admitted[0] + admitted[1]);
  uint64_t rounds = 0;
  for (size_t t = 0; t < 2; ++t) {
    const uint64_t played = fleet.TenantRounds(t).ValueOrDie().size();
    EXPECT_EQ(played, admitted[t] / kRoundSize) << "tenant " << t;
    rounds += played;
  }
  EXPECT_EQ(stats.rounds_played, rounds);
  EXPECT_TRUE(service.Stop().ok());
}

TEST_F(IngestServiceTest, HibernationBoundsTheResidentSet) {
  FleetConfig config;
  SessionFleet fleet(config, ScalarSpecs(6, /*round_size=*/40));
  ASSERT_TRUE(fleet.Bootstrap().ok());

  IngestConfig ingest;
  ingest.shards = 1;
  ingest.max_resident_per_shard = 2;
  IngestService service(ingest, &fleet);
  ASSERT_TRUE(service.Start().ok());
  EXPECT_EQ(service.Stats().resident_tenants, 6u);

  for (uint64_t t = 0; t < 6; ++t) {
    ASSERT_TRUE(service.Submit({t, 40}).ok());
  }
  ASSERT_TRUE(service.Flush().ok());

  // The fleet's residency is the behavioral fact; the Stats() view of it
  // rides the obs hibernation counters and must agree.
  EXPECT_LE(fleet.ResidentTenants(), 2u);
  IngestStats stats = service.Stats();
  EXPECT_LE(stats.resident_tenants, 2u);
  EXPECT_GE(stats.hibernations, 4u);
  EXPECT_EQ(stats.rounds_played, 6u);
  EXPECT_EQ(fleet.ResidentTenants(), stats.resident_tenants);

  // Traffic for a hibernated tenant rehydrates it transparently.
  const uint64_t parked = 0;
  ASSERT_FALSE(fleet.TenantResident(parked));
  ASSERT_TRUE(service.Submit({parked, 40}).ok());
  ASSERT_TRUE(service.Flush().ok());
  EXPECT_GE(service.Stats().rehydrations, 1u);
  EXPECT_LE(service.Stats().resident_tenants, 2u);
  EXPECT_EQ(fleet.TenantRounds(parked).ValueOrDie().size(), 2u);
  EXPECT_LE(fleet.ResidentTenants(), 2u);
  EXPECT_TRUE(service.Stop().ok());
}

// The eviction rule, step by step: never-active tenants go first, then the
// oldest batch stamp, ties broken by the smaller id. Flushing after every
// Submit makes each event its own batch, so each step's stamps are known.
TEST_F(IngestServiceTest, EvictsLeastRecentlyActiveTenantsInOrder) {
  FleetConfig config;
  SessionFleet fleet(config, ScalarSpecs(5, /*round_size=*/40));
  ASSERT_TRUE(fleet.Bootstrap().ok());

  IngestConfig ingest;
  ingest.shards = 1;
  ingest.max_resident_per_shard = 2;
  IngestService service(ingest, &fleet);
  ASSERT_TRUE(service.Start().ok());

  auto resident = [&fleet] {
    std::vector<size_t> ids;
    for (size_t i = 0; i < fleet.num_tenants(); ++i) {
      if (fleet.TenantResident(i)) ids.push_back(i);
    }
    return ids;
  };
  using Ids = std::vector<size_t>;
  // Residency is only enforced after a batch: Start evicts nobody.
  EXPECT_EQ(resident(), (Ids{0, 1, 2, 3, 4}));

  struct Step {
    IngestEvent event;
    Ids resident_after;
  };
  const Step steps[] = {
      // 0, 1, 2 and 4 never saw traffic; the smaller ids go first.
      {{3, 40}, {3, 4}},
      // 0 rehydrates; never-active 4 is evicted before 3.
      {{0, 40}, {0, 3}},
      // 4 rehydrates; 3 holds the oldest stamp.
      {{4, 40}, {0, 4}},
      // One report completes no round, so 1 stays hibernated.
      {{1, 1}, {0, 4}},
      // 1 rehydrates; 0 holds the oldest stamp.
      {{1, 39}, {1, 4}},
  };
  for (const Step& step : steps) {
    SCOPED_TRACE("after {" + std::to_string(step.event.tenant_id) + "," +
                 std::to_string(step.event.reports) + "}");
    ASSERT_TRUE(service.Submit(step.event).ok());
    ASSERT_TRUE(service.Flush().ok());
    EXPECT_EQ(resident(), step.resident_after);
  }
  EXPECT_TRUE(service.Stop().ok());
}

// Stop() then Start() on the same service: counters accumulate across the
// two runs, and each lane's unplayed remainder is dropped when Start()
// rebuilds the lanes. Each tenant gets 79 reports in run 1 (one round, 39
// dropped) and 41 in run 2 (one round, 1 left pending): 2 rounds each,
// where carrying the remainder would have made 3.
TEST_F(IngestServiceTest, RestartDropsUnplayedRemainders) {
  const size_t kTenants = 6;
  FleetConfig config;
  SessionFleet fleet(config, ScalarSpecs(kTenants, /*round_size=*/40));
  ASSERT_TRUE(fleet.Bootstrap().ok());

  IngestConfig ingest;
  ingest.shards = 2;
  ingest.max_resident_per_shard = 1;
  IngestService service(ingest, &fleet);

  ASSERT_TRUE(service.Start().ok());
  for (uint64_t t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(service.Submit({t, 79}).ok());
  }
  ASSERT_TRUE(service.Stop().ok());
  IngestStats stats = service.Stats();
  EXPECT_EQ(stats.events_accepted, kTenants);
  EXPECT_EQ(stats.reports_enqueued, kTenants * 79);
  EXPECT_EQ(stats.rounds_played, kTenants);
  EXPECT_EQ(stats.reports_dropped, 0u);  // the 39-report remainders pend
  EXPECT_EQ(stats.resident_tenants, 2u);
  EXPECT_EQ(fleet.ResidentTenants(), 2u);

  ASSERT_TRUE(service.Start().ok());
  EXPECT_EQ(service.Stats().reports_dropped, kTenants * 39);
  for (uint64_t t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(service.Submit({t, 41}).ok());
  }
  ASSERT_TRUE(service.Stop().ok());
  stats = service.Stats();
  EXPECT_EQ(stats.events_accepted, 2 * kTenants);
  EXPECT_EQ(stats.reports_enqueued, 720u);
  EXPECT_EQ(stats.rounds_played, 2 * kTenants);  // 480 reports played
  EXPECT_EQ(stats.reports_dropped, 234u);  // the restart's remainders
  // One report per tenant still pends: 720 - 480 - 234.
  EXPECT_EQ(stats.reports_enqueued - stats.rounds_played * 40 -
                stats.reports_dropped,
            6u);
  EXPECT_EQ(stats.resident_tenants, 2u);
  EXPECT_EQ(fleet.ResidentTenants(), 2u);
  for (size_t t = 0; t < kTenants; ++t) {
    EXPECT_EQ(fleet.TenantRounds(t).ValueOrDie().size(), 2u) << "tenant " << t;
  }
}

TEST_F(IngestServiceTest, StopDrainsPendingEvents) {
  FleetConfig config;
  SessionFleet fleet(config, ScalarSpecs(1, /*round_size=*/40));
  ASSERT_TRUE(fleet.Bootstrap().ok());

  IngestConfig ingest;
  ingest.shards = 1;
  IngestService service(ingest, &fleet);
  ASSERT_TRUE(service.Start().ok());
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(service.Submit({0, 1}).ok());
  }
  // No Flush: Stop itself must apply the backlog before joining.
  ASSERT_TRUE(service.Stop().ok());
  EXPECT_EQ(fleet.TenantRounds(0).ValueOrDie().size(), 3u);
}

// Submit() is safe from any number of producer threads, Stop() included:
// producers keep submitting frames while the owner stops the service, and
// each keeps going until it has seen a few rejections. Every call is
// either accepted or refused as not running, and each one is counted once.
TEST_F(IngestServiceTest, ProducersSubmitWhileTheOwnerStops) {
  constexpr size_t kTenants = 4;
  constexpr int kProducers = 4;
  constexpr int kRejectionsEach = 3;
  FleetConfig config;
  SessionFleet fleet(config, ScalarSpecs(kTenants, /*round_size=*/40));
  ASSERT_TRUE(fleet.Bootstrap().ok());

  IngestConfig ingest;
  ingest.shards = 2;
  IngestService service(ingest, &fleet);
  ASSERT_TRUE(service.Start().ok());

  std::atomic<uint64_t> submitted{0};
  std::vector<uint64_t> calls(kProducers, 0);
  std::vector<int> unexpected(kProducers, 0);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      unsigned char frame[kIngestFrameBytes];
      int rejections = 0;
      for (uint64_t i = 0; rejections < kRejectionsEach; ++i) {
        EncodeIngestEvent({(p + i) % kTenants, 1}, frame);
        const Status status = service.SubmitFrame(frame, kIngestFrameBytes);
        ++calls[p];
        submitted.fetch_add(1, std::memory_order_relaxed);
        if (status.code() == StatusCode::kFailedPrecondition) {
          ++rejections;
        } else if (!status.ok()) {
          ++unexpected[p];
        }
      }
    });
  }
  // Stop once the producers are well under way.
  while (submitted.load(std::memory_order_relaxed) < 2000) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(service.Stop().ok());
  for (std::thread& producer : producers) producer.join();

  uint64_t total = 0;
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(unexpected[p], 0) << "producer " << p;
    total += calls[p];
  }
  const IngestStats stats = service.Stats();
  EXPECT_EQ(stats.events_accepted + stats.events_rejected, total);
  EXPECT_GE(stats.events_rejected,
            static_cast<uint64_t>(kProducers * kRejectionsEach));
}

}  // namespace
}  // namespace itrim
