// Arrival-driven ingestion front-end over SessionFleet.
//
// The paper's game steps one round per collection window; the production
// shape is the inverse — reports *arrive*, and rounds happen because
// traffic showed up. IngestService is that front-end: producers submit
// binary IngestEvents (tenant id + report count), a hash of the tenant id
// routes every event for one tenant to exactly one shard worker, and each
// worker coalesces co-arriving reports into full rounds of the tenant's
// session via SessionFleet::StepTenant().
//
// Determinism contract: a tenant plays one round for every
// `round_size` reports admitted, so its round records are a pure function
// of its own admitted arrival sequence — bit-identical to driving that
// session alone, regardless of shard count, cross-tenant interleaving,
// queue batching, or hibernation cycles in between (session
// checkpoint/restore is bit-exact). The only nondeterministic inputs —
// wall-clock token-bucket refill and load-shedding TrySubmit — act
// *before* admission and only change which reports are admitted, never
// how admitted reports are played.
//
// Backpressure: each shard owns a bounded queue; Submit() blocks while
// the shard is `queue_capacity` events behind, TrySubmit() refuses with
// Unavailable instead (the load-shedding shape). Per-tenant token-bucket
// rate limiting and LRU hibernation of idle tenants (bounding the
// resident set per shard) run worker-side.
#ifndef ITRIM_INGEST_INGEST_H_
#define ITRIM_INGEST_INGEST_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/bounded_queue.h"
#include "common/status.h"
#include "fleet/session_fleet.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace itrim {

/// \brief One ingestion event: `reports` co-arriving reports for a tenant.
/// `tenant_id` is the tenant's index in the backing fleet.
struct IngestEvent {
  uint64_t tenant_id = 0;
  uint32_t reports = 1;
};

/// \brief Size of the fixed binary wire frame of one IngestEvent.
inline constexpr size_t kIngestFrameBytes = 12;

/// \brief Largest report count one event may carry. A frame's count is a
/// uint32, and the shard worker plays every round it completes before the
/// next event, so this bounds the work (and the round records) one
/// untrusted frame can command. Larger events are rejected, counted in
/// events_rejected.
inline constexpr uint32_t kMaxReportsPerEvent = uint32_t{1} << 20;

/// \brief Serializes an event into the 12-byte little-endian wire frame
/// (u64 tenant_id, u32 reports) — the binary ingest API's unit.
void EncodeIngestEvent(const IngestEvent& event,
                       unsigned char out[kIngestFrameBytes]);

/// \brief Parses one wire frame. Rejects short/long buffers and frames
/// with a zero report count.
Result<IngestEvent> DecodeIngestEvent(const unsigned char* data, size_t size);

/// \brief Tuning knobs of the ingestion front-end.
struct IngestConfig {
  /// Shard workers (each owns a queue + thread); 0 = DefaultNumThreads().
  int shards = 0;
  /// Per-shard queue bound — the backpressure depth, in events.
  size_t queue_capacity = 4096;
  /// Max events a worker drains per batch (coalescing window).
  size_t batch_max = 256;
  /// Per-tenant admitted-report rate (reports/sec); 0 disables limiting.
  double rate_limit_per_sec = 0.0;
  /// Token-bucket burst capacity; 0 = max(1, rate_limit_per_sec).
  double rate_limit_burst = 0.0;
  /// Max resident (non-hibernated) tenants per shard; when a shard's
  /// active-tenant count exceeds this, the least-recently-active tenants
  /// are hibernated to their compact checkpoints. 0 = unbounded.
  size_t max_resident_per_shard = 0;

  // -- Observability (src/obs/) --------------------------------------------

  /// Registry the service's metric slots ("ingest" + one "shard<N>" per
  /// shard) live in; null = a service-owned registry. Inject one to scrape
  /// ingest counters alongside fleet/pool slots through a single exporter.
  /// Must outlive the service.
  obs::MetricsRegistry* metrics = nullptr;
  /// Per-shard game-event trace ring capacity in events (rounded up to a
  /// power of two, at most obs::kMaxTraceCapacity); 0 disables tracing.
  size_t trace_capacity = 0;
  /// Deep telemetry: wires per-tenant session sinks (round/trim/refit
  /// counters and trace events land on the owning shard's slot/ring) and
  /// turns on the clock-reading histograms (submit latency, per-round
  /// wall time). Off by default — the always-on counters never read a
  /// clock on the hot path.
  bool observe_rounds = false;

  Status Validate() const;
};

/// \brief Monotonic service counters (all since construction; they
/// accumulate across Start/Stop cycles). The counters live on the
/// service's obs metric slots.
struct IngestStats {
  uint64_t events_accepted = 0;   ///< events enqueued (Submit + TrySubmit)
  uint64_t events_rejected = 0;   ///< bad event / full TrySubmit / closed
  uint64_t reports_enqueued = 0;  ///< reports carried by accepted events
  uint64_t reports_rate_limited = 0;  ///< reports dropped by token buckets
  uint64_t rounds_played = 0;     ///< StepTenant calls across all shards
  uint64_t hibernations = 0;
  uint64_t rehydrations = 0;
  size_t resident_tenants = 0;    ///< live sessions in the backing fleet
};

/// \brief Sharded arrival-driven ingestion service.
///
/// The fleet is borrowed, must be bootstrapped before Start(), and must
/// not be driven through its lockstep surface while the service runs
/// (Start() switches it to per-tenant stepping). Submit/TrySubmit are
/// safe from any number of producer threads; Start/Stop/Flush are for
/// the owning thread.
///
///   IngestService service(config, &fleet);
///   ITRIM_RETURN_NOT_OK(service.Start());
///   service.Submit({.tenant_id = 7, .reports = 3});
///   ITRIM_RETURN_NOT_OK(service.Flush());   // all submitted work applied
///   ITRIM_RETURN_NOT_OK(service.Stop());    // drain + join workers
class IngestService {
 public:
  IngestService(IngestConfig config, SessionFleet* fleet);
  ~IngestService();

  IngestService(const IngestService&) = delete;
  IngestService& operator=(const IngestService&) = delete;

  /// \brief Validates the config, switches the fleet to per-tenant
  /// stepping and spawns the shard workers.
  Status Start();

  /// \brief Enqueues an event on its tenant's shard, blocking while that
  /// shard's queue is full (backpressure). Fails on an unknown tenant id,
  /// a zero report count or one above kMaxReportsPerEvent, or a stopped
  /// service.
  Status Submit(const IngestEvent& event);

  /// \brief Like Submit() but refuses with Unavailable instead of
  /// blocking when the shard queue is full (load shedding).
  Status TrySubmit(const IngestEvent& event);

  /// \brief Decodes one binary wire frame and Submit()s it.
  Status SubmitFrame(const unsigned char* data, size_t size);

  /// \brief Blocks until every event submitted before this call has been
  /// fully applied to the fleet.
  Status Flush();

  /// \brief Closes the queues, lets the workers drain what is already
  /// queued, and joins them. Idempotent. Returns the first worker error
  /// (shard order), if any.
  Status Stop();

  /// \brief Current counters (safe to call concurrently with producers
  /// and workers).
  IngestStats Stats() const;

  const IngestConfig& config() const { return config_; }
  int shards() const { return static_cast<int>(shards_.size()); }
  bool started() const { return started_; }

  /// \brief Shard that owns `tenant_id` (exposed for tests).
  size_t ShardOf(uint64_t tenant_id) const;

  // -- Observability -------------------------------------------------------

  /// \brief Registry holding the service's metric slots — the injected
  /// one, or the service-owned default.
  obs::MetricsRegistry* metrics_registry() const { return registry_; }

  /// \brief Refreshes the scrape-time gauges (per-shard queue depth,
  /// resident tenants) and scrapes the registry. Safe concurrently with
  /// producers and workers; never touches session state.
  obs::MetricsSnapshot Scrape() const;

  /// \brief Snapshot of the per-shard trace rings, merged and sorted by
  /// timestamp. Empty when trace_capacity == 0.
  std::vector<obs::TraceEvent> TraceSnapshot() const;

  /// \brief Trace events lost to ring wraparound, summed over shards.
  uint64_t TraceDropped() const;

 private:
  /// Per-tenant coalescing state, owned by the tenant's shard worker.
  struct TenantLane {
    uint64_t pending = 0;       ///< admitted reports not yet played
    int round_size = 0;         ///< cached from the tenant's game config
    double tokens = 0.0;        ///< token bucket fill
    int64_t last_refill_ns = 0;  ///< steady-clock stamp of the last refill
    uint64_t last_active_batch = 0;  ///< LRU stamp (worker batch counter)
    uint32_t wall_tick = 0;  ///< 1-in-4 round-wall sampling (deep obs only)
  };

  struct Shard {
    explicit Shard(size_t queue_capacity) : queue(queue_capacity) {}

    BoundedMpscQueue<IngestEvent> queue;
    std::thread worker;
    std::unordered_map<uint64_t, TenantLane> lanes;

    // Worker-private state (no locking: one consumer per shard).
    std::vector<uint64_t> owned;  ///< tenant ids this shard is home to
    size_t resident_owned = 0;    ///< live sessions among `owned`

    // Producer- and worker-side telemetry sinks, borrowed from the
    // service (the slot from the registry, the ring from shard_traces_);
    // both persist across Start/Stop cycles. Counters that used to be
    // bespoke atomics here now live on the slot.
    obs::MetricSlot* slot = nullptr;
    obs::TraceBuffer* trace = nullptr;  ///< null = tracing disabled

    // Flush accounting: events enqueued vs events fully applied.
    std::atomic<uint64_t> submitted{0};
    std::atomic<uint64_t> processed{0};

    // First error this shard's worker hit (sticky; the worker keeps
    // draining its queue so producers never hang on a dead shard).
    std::mutex error_mu;
    Status error;
  };

  Status Admit(const IngestEvent& event, bool blocking);
  void WorkerLoop(size_t shard_index);
  /// Plays full rounds for one lane; rehydrates its tenant first if
  /// needed. Returns false (and records the shard error) on failure.
  bool DrainLane(Shard& shard, uint64_t tenant_id, TenantLane& lane);
  /// Hibernates least-recently-active resident tenants of this shard
  /// until it is back under max_resident_per_shard.
  void EnforceResidency(Shard& shard);

  IngestConfig config_;
  SessionFleet* fleet_;
  std::vector<std::unique_ptr<Shard>> shards_;
  bool started_ = false;
  std::atomic<bool> stopping_{false};
  Status stop_status_;

  // Observability plumbing. The registry, the service slot (reject
  // counter + resident gauge) and the per-shard slots/trace rings are
  // created once (constructor / first Start) and persist across
  // Start/Stop cycles so the counters stay monotonic.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_ = nullptr;
  obs::MetricSlot* service_slot_ = nullptr;
  std::vector<obs::MetricSlot*> shard_slots_;
  std::vector<std::unique_ptr<obs::TraceBuffer>> shard_traces_;
  bool tenant_sinks_attached_ = false;

  // Deep observation samples Submit latency 1-in-kSubmitSampleEvery: two
  // clock reads per event would dominate the producer fast path on cheap
  // workloads (bench_obs holds the total overhead under 5%).
  static constexpr uint64_t kSubmitSampleEvery = 32;
  std::atomic<uint64_t> submit_tick_{0};

  // Residency is tracked via counters so Stats() never reads tenant state
  // that a worker may be mutating: resident = resident_base_ − (lifetime
  // hibernations − rehydrations). The base folds the churn counters'
  // values at Start() back in, so restarted services stay exact.
  int64_t resident_base_ = 0;

  std::mutex flush_mu_;
  std::condition_variable flush_cv_;
};

}  // namespace itrim

#endif  // ITRIM_INGEST_INGEST_H_
