// Deterministic-safe metrics: a fixed compile-time catalog of counters,
// gauges and fixed-bucket histograms, recorded into preallocated per-shard
// slots of relaxed atomics and merged only at scrape time.
//
// Contract with the rest of the engine:
//   - Recording never allocates, never locks, and never reads or writes any
//     session/fleet state: a slot is a flat array of std::atomic words and
//     Inc/Set/Observe are single relaxed RMW/stores. The zero-allocation
//     steady-state proof (tests/game/zero_alloc_test.cc) runs with metrics
//     attached.
//   - Observability never perturbs computation or RNG, so every bit-identity
//     invariant (thread counts, kernel variants, checkpoint, hibernation)
//     holds with recording on or off. Enforced by bench_obs.
//   - The layer is always compiled. Telemetry is turned off at run time by
//     attaching no slot (call sites null-check their sinks).
//
// Registration (MetricsRegistry::AddSlot) and Scrape() are setup/control-plane
// operations: they take a mutex and may allocate, and are safe to run
// concurrently with hot-path recording (the scrape reads the same atomics).
#ifndef ITRIM_OBS_METRICS_H_
#define ITRIM_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace itrim::obs {

// ---------------------------------------------------------------------------
// Catalog. X-macros keep the enum, the Prometheus name and the help string in
// one place; adding a metric is one line here plus the recording call.
// Prometheus series names are prefixed `itrim_` (and `_total` for counters)
// at export time.
// ---------------------------------------------------------------------------

#define ITRIM_OBS_COUNTERS(X)                                                  \
  X(kIngestEventsAccepted, "ingest_events_accepted",                           \
    "Wire events admitted into a shard queue")                                 \
  X(kIngestEventsRejected, "ingest_events_rejected",                           \
    "Wire events rejected before enqueue (bad frame, unknown tenant, stop)")   \
  X(kIngestReportsEnqueued, "ingest_reports_enqueued",                         \
    "Reports admitted into tenant lanes after rate limiting")                  \
  X(kIngestReportsShed, "ingest_reports_shed",                                 \
    "Reports dropped by the per-tenant token-bucket rate limiter")             \
  X(kIngestRoundsPlayed, "ingest_rounds_played",                               \
    "Game rounds stepped by ingest workers")                                   \
  X(kIngestHibernations, "ingest_hibernations",                                \
    "Tenants hibernated to their checkpoints by the LRU residency cap")        \
  X(kIngestRehydrations, "ingest_rehydrations",                                \
    "Hibernated tenants restored on a fresh arrival")                          \
  X(kIngestBackpressureBlocks, "ingest_backpressure_blocks",                   \
    "Blocking Submit calls that found their shard queue full")                 \
  X(kIngestBatchesPopped, "ingest_batches_popped",                             \
    "PopBatch calls that returned at least one event")                         \
  X(kSessionRoundsPlayed, "session_rounds_played",                             \
    "Rounds committed by instrumented trimming sessions")                      \
  X(kSessionBenignReceived, "session_benign_received",                         \
    "Benign observations received by instrumented sessions")                   \
  X(kSessionPoisonReceived, "session_poison_received",                         \
    "Poison observations received by instrumented sessions")                   \
  X(kSessionBenignKept, "session_benign_kept",                                 \
    "Benign observations surviving the trim")                                  \
  X(kSessionPoisonKept, "session_poison_kept",                                 \
    "Poison observations accepted past the trim (attacker payoff)")            \
  X(kSessionObservationsTrimmed, "session_observations_trimmed",               \
    "Observations removed by trim decisions")                                  \
  X(kSessionReferenceRefits, "session_reference_refits",                       \
    "Rounds in which the reference policy refit its model")                    \
  X(kSessionRefitIterations, "session_refit_iterations",                       \
    "Total reference-model refit iterations (inner trim-refit loops)")         \
  X(kPoolTasksExecuted, "pool_tasks_executed",                                 \
    "Tasks executed by instrumented thread-pool workers")                      \
  X(kPoolIdleNanos, "pool_idle_nanos",                                         \
    "Nanoseconds instrumented pool workers spent parked waiting for work")

#define ITRIM_OBS_GAUGES(X)                                                    \
  X(kIngestQueueDepth, "ingest_queue_depth",                                   \
    "Events submitted but not yet processed (computed at scrape time)")        \
  X(kIngestResidentTenants, "ingest_resident_tenants",                         \
    "Tenants currently resident (not hibernated)")                             \
  X(kFleetRound, "fleet_round", "Last lockstep round index played")            \
  X(kFleetTrimRateP10, "fleet_trim_rate_p10",                                  \
    "Tenant-quantile p10 of the last round's trim rate")                       \
  X(kFleetTrimRateP50, "fleet_trim_rate_p50",                                  \
    "Tenant-quantile p50 of the last round's trim rate")                       \
  X(kFleetTrimRateP90, "fleet_trim_rate_p90",                                  \
    "Tenant-quantile p90 of the last round's trim rate")                       \
  X(kFleetPoisonAcceptP10, "fleet_poison_acceptance_p10",                      \
    "Tenant-quantile p10 of the last round's poison acceptance")               \
  X(kFleetPoisonAcceptP50, "fleet_poison_acceptance_p50",                      \
    "Tenant-quantile p50 of the last round's poison acceptance")               \
  X(kFleetPoisonAcceptP90, "fleet_poison_acceptance_p90",                      \
    "Tenant-quantile p90 of the last round's poison acceptance")               \
  X(kFleetQualityP10, "fleet_quality_p10",                                     \
    "Tenant-quantile p10 of the last round's collection quality")              \
  X(kFleetQualityP50, "fleet_quality_p50",                                     \
    "Tenant-quantile p50 of the last round's collection quality")              \
  X(kFleetQualityP90, "fleet_quality_p90",                                     \
    "Tenant-quantile p90 of the last round's collection quality")              \
  X(kMlEpsHat, "ml_eps_hat",                                                   \
    "Last iTrim contamination estimate (eps_hat) recorded by a defense run")

#define ITRIM_OBS_HISTOGRAMS(X)                                                \
  X(kIngestSubmitLatencyUs, "ingest_submit_latency_us",                        \
    "Producer-side Submit latency (microseconds; sampled 1-in-32 so the "      \
    "clock reads stay off the fast path)", kLatencyUsBounds)                   \
  X(kIngestPopBatchSize, "ingest_pop_batch_size",                              \
    "Events per non-empty PopBatch (arrival coalescing)", kBatchBounds)        \
  X(kIngestRoundWallUs, "ingest_round_wall_us",                                \
    "Wall time of one coalesced tenant round in an ingest worker "             \
    "(microseconds; sampled 1-in-4 per lane)", kLatencyUsBounds)               \
  X(kFleetRoundWallUs, "fleet_round_wall_us",                                  \
    "Wall time of one lockstep fleet round (microseconds)", kRoundUsBounds)    \
  X(kPoolTaskUs, "pool_task_us",                                               \
    "Thread-pool task execution time (microseconds)", kLatencyUsBounds)

enum class Counter : int {
#define ITRIM_OBS_ENUM(sym, name, help) sym,
  ITRIM_OBS_COUNTERS(ITRIM_OBS_ENUM)
#undef ITRIM_OBS_ENUM
      kNumCounters,
};

enum class Gauge : int {
#define ITRIM_OBS_ENUM(sym, name, help) sym,
  ITRIM_OBS_GAUGES(ITRIM_OBS_ENUM)
#undef ITRIM_OBS_ENUM
      kNumGauges,
};

enum class Histogram : int {
#define ITRIM_OBS_ENUM(sym, name, help, bounds) sym,
  ITRIM_OBS_HISTOGRAMS(ITRIM_OBS_ENUM)
#undef ITRIM_OBS_ENUM
      kNumHistograms,
};

inline constexpr int kNumCounters = static_cast<int>(Counter::kNumCounters);
inline constexpr int kNumGauges = static_cast<int>(Gauge::kNumGauges);
inline constexpr int kNumHistograms =
    static_cast<int>(Histogram::kNumHistograms);

// Largest bucket-bound list in the catalog; every histogram stores
// kMaxBuckets+1 counts (the last is the +Inf overflow bucket) so slots stay
// fixed-size flat arrays.
inline constexpr int kMaxBuckets = 12;

struct CounterInfo {
  const char* name;
  const char* help;
};
struct GaugeInfo {
  const char* name;
  const char* help;
};
struct HistogramInfo {
  const char* name;
  const char* help;
  std::span<const double> bounds;  // ascending upper bounds, +Inf implied
};

const CounterInfo& MetaOf(Counter c);
const GaugeInfo& MetaOf(Gauge g);
const HistogramInfo& MetaOf(Histogram h);

// ---------------------------------------------------------------------------
// MetricSlot: one writer domain's storage (a shard, the service, a pool...).
// All methods below are hot-path safe: wait-free single relaxed atomic ops,
// no allocation. Slots are created by (and owned by) a MetricsRegistry.
// ---------------------------------------------------------------------------
class MetricSlot {
 public:
  void Inc(Counter c, uint64_t n = 1) {
    counters_[static_cast<int>(c)].fetch_add(n, std::memory_order_relaxed);
  }

  void Set(Gauge g, double v) {
    gauges_[static_cast<int>(g)].store(v, std::memory_order_relaxed);
  }

  void Observe(Histogram h, double v) {
    const HistogramInfo& info = MetaOf(h);
    int bucket = 0;
    const int n = static_cast<int>(info.bounds.size());
    while (bucket < n && v > info.bounds[bucket]) ++bucket;
    HistogramCells& cells = histograms_[static_cast<int>(h)];
    cells.counts[bucket].fetch_add(1, std::memory_order_relaxed);
    // fetch_add on atomic<double> (C++20); libstdc++/libc++ lower it to a CAS
    // loop, which is still lock-free and allocation-free.
    cells.sum.fetch_add(v, std::memory_order_relaxed);
  }

  uint64_t Get(Counter c) const {
    return counters_[static_cast<int>(c)].load(std::memory_order_relaxed);
  }

  double Get(Gauge g) const {
    return gauges_[static_cast<int>(g)].load(std::memory_order_relaxed);
  }

  const std::string& label() const { return label_; }

 private:
  friend class MetricsRegistry;
  explicit MetricSlot(std::string label) : label_(std::move(label)) {}

  std::string label_;
  struct HistogramCells {
    std::array<std::atomic<uint64_t>, kMaxBuckets + 1> counts{};
    std::atomic<double> sum{0.0};
  };
  std::array<std::atomic<uint64_t>, kNumCounters> counters_{};
  std::array<std::atomic<double>, kNumGauges> gauges_{};
  std::array<HistogramCells, kNumHistograms> histograms_{};
};

// ---------------------------------------------------------------------------
// Scrape snapshot: plain values, merged and per-slot views. Building one
// allocates; that is fine, Scrape() is control-plane.
// ---------------------------------------------------------------------------
struct HistogramValue {
  std::vector<uint64_t> counts;  // bounds.size() + 1 entries (last = +Inf)
  double sum = 0.0;
  uint64_t count = 0;  // sum of `counts` (Scrape derives it, see there)
};

struct SlotValues {
  std::string label;  // "" for the merged view
  std::array<uint64_t, kNumCounters> counters{};
  std::array<double, kNumGauges> gauges{};
  std::vector<HistogramValue> histograms;  // kNumHistograms entries
};

struct MetricsSnapshot {
  SlotValues merged;              // counters/histograms summed, gauges summed
  std::vector<SlotValues> slots;  // one per registered slot, in AddSlot order
  // Build/deploy identity (kernel variant, shard count, ...), exported as
  // an `itrim_build_info{...} 1` series.
  std::vector<std::pair<std::string, std::string>> info;
};

// ---------------------------------------------------------------------------
// MetricsRegistry: owns slots, hands out stable pointers, merges on Scrape.
// AddSlot/SetInfo/Scrape serialize on an internal mutex; recording into
// already-created slots never touches it.
// ---------------------------------------------------------------------------
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Creates a new slot labeled e.g. {"shard", "3"}. The returned pointer is
  // owned by the registry and stable for its lifetime.
  MetricSlot* AddSlot(std::string label);

  // Attaches a build/deploy identity pair ("kernel_variant", "avx2"), merged
  // into every snapshot. Last write per key wins.
  void SetInfo(const std::string& key, const std::string& value);

  MetricsSnapshot Scrape() const;

  size_t num_slots() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<MetricSlot>> slots_;
  std::vector<std::pair<std::string, std::string>> info_;
};

// Monotonic nanosecond clock used by every obs timestamp (trace events,
// latency histograms). Never feeds back into game state.
int64_t MonotonicNowNs();

}  // namespace itrim::obs

#endif  // ITRIM_OBS_METRICS_H_
