// TraceBuffer: a fixed-capacity ring of compact game events with monotonic
// timestamps. Writers (ingest workers, producers on the backpressure path,
// instrumented sessions) record with a handful of relaxed atomic stores and
// one release publish — no locks, no allocation — while Snapshot() can run
// concurrently from a scraper thread: each ring slot is a seqlock (a sequence
// stamp written around the payload), so a reader either observes a fully
// published event or skips the slot.
//
// When the ring wraps, the oldest events are overwritten; `dropped()` counts
// them so exporters can say "showing last N of M".
#ifndef ITRIM_OBS_TRACE_H_
#define ITRIM_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "obs/metrics.h"  // MonotonicNowNs

namespace itrim::obs {

// Event kinds. `value` carries one kind-specific datum:
//   kRoundStart        round index about to play
//   kRoundEnd          the round's collection quality
//   kTrimDecision      observations removed by this round's trim
//   kReferenceRefit    refit iterations the reference policy ran
//   kHibernate         rounds the tenant had played when parked
//   kRehydrate         rounds the tenant had played when restored
//   kBackpressureBlock capacity of the full shard queue
enum class TraceKind : uint8_t {
  kRoundStart = 0,
  kRoundEnd,
  kTrimDecision,
  kReferenceRefit,
  kHibernate,
  kRehydrate,
  kBackpressureBlock,
  kNumKinds,
};

const char* TraceKindName(TraceKind kind);

struct TraceEvent {
  uint64_t seq = 0;     // global record order within this buffer
  int64_t ts_ns = 0;    // MonotonicNowNs() at record time
  TraceKind kind = TraceKind::kRoundStart;
  uint64_t tenant = 0;  // tenant id, or 0 when not tenant-scoped
  double value = 0.0;   // kind-specific datum (see above)
};

// Largest ring a TraceBuffer allocates: 1M events, 32 MiB. Larger requests
// are clamped here and rejected by IngestConfig::Validate.
inline constexpr size_t kMaxTraceCapacity = size_t{1} << 20;

class TraceBuffer {
 public:
  // Capacity is clamped to [1, kMaxTraceCapacity] and rounded up to a power
  // of two (callers gate tracing by not constructing/attaching a buffer).
  explicit TraceBuffer(size_t capacity);

  // Hot path. Multi-writer safe: slots are claimed with one fetch_add; a
  // reader racing a rewrite of the same slot discards it via the seq stamp.
  void Record(TraceKind kind, uint64_t tenant, double value) {
    RecordAt(MonotonicNowNs(), kind, tenant, value);
  }

  // Timestamp-passing variant: callers that already hold a clock reading
  // for the same instant (a round boundary feeding both a trace event and
  // a wall-time histogram) reuse it instead of paying a second clock read.
  void RecordAt(int64_t ts_ns, TraceKind kind, uint64_t tenant,
                double value) {
    const uint64_t seq = head_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[seq & mask_];
    slot.seq.store(kDirty, std::memory_order_relaxed);
    slot.ts_ns.store(ts_ns, std::memory_order_relaxed);
    slot.meta.store(PackMeta(kind, tenant), std::memory_order_relaxed);
    slot.value_bits.store(BitsOf(value), std::memory_order_relaxed);
    slot.seq.store(seq, std::memory_order_release);
  }

  // Copies the currently valid window (oldest retained .. newest) into *out
  // (cleared first), oldest first. Safe concurrently with writers; events
  // overwritten mid-read are skipped, so the result can have gaps under
  // heavy wrap pressure.
  void Snapshot(std::vector<TraceEvent>* out) const;

  // Total events ever recorded / overwritten-before-read capacity loss.
  uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const {
    const uint64_t n = recorded();
    return n > capacity_ ? n - capacity_ : 0;
  }
  size_t capacity() const { return capacity_; }

 private:
  static constexpr uint64_t kDirty = ~uint64_t{0};

  static uint64_t PackMeta(TraceKind kind, uint64_t tenant) {
    return (static_cast<uint64_t>(kind) << 56) |
           (tenant & ((uint64_t{1} << 56) - 1));
  }
  static uint64_t BitsOf(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
  }

  struct Slot {
    std::atomic<uint64_t> seq{kDirty};
    std::atomic<int64_t> ts_ns{0};
    std::atomic<uint64_t> meta{0};
    std::atomic<uint64_t> value_bits{0};
  };
  std::vector<Slot> slots_;
  std::atomic<uint64_t> head_{0};
  uint64_t mask_ = 0;
  size_t capacity_ = 0;
};

}  // namespace itrim::obs

#endif  // ITRIM_OBS_TRACE_H_
