#include "obs/trace.h"

#include <algorithm>
#include <bit>

namespace itrim::obs {

const char* TraceKindName(TraceKind kind) {
  switch (kind) {
    case TraceKind::kRoundStart:
      return "round_start";
    case TraceKind::kRoundEnd:
      return "round_end";
    case TraceKind::kTrimDecision:
      return "trim_decision";
    case TraceKind::kReferenceRefit:
      return "reference_refit";
    case TraceKind::kHibernate:
      return "hibernate";
    case TraceKind::kRehydrate:
      return "rehydrate";
    case TraceKind::kBackpressureBlock:
      return "backpressure_block";
    case TraceKind::kNumKinds:
      break;
  }
  return "unknown";
}

TraceBuffer::TraceBuffer(size_t capacity) {
  capacity_ = std::bit_ceil(std::clamp<size_t>(capacity, 1, kMaxTraceCapacity));
  slots_ = std::vector<Slot>(capacity_);
  mask_ = capacity_ - 1;
}

void TraceBuffer::Snapshot(std::vector<TraceEvent>* out) const {
  out->clear();
  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t start = head > capacity_ ? head - capacity_ : 0;
  out->reserve(static_cast<size_t>(head - start));
  for (uint64_t seq = start; seq < head; ++seq) {
    const Slot& slot = slots_[seq & mask_];
    if (slot.seq.load(std::memory_order_acquire) != seq) continue;
    TraceEvent ev;
    ev.seq = seq;
    ev.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
    const uint64_t meta = slot.meta.load(std::memory_order_relaxed);
    const uint64_t bits = slot.value_bits.load(std::memory_order_relaxed);
    // Re-validate after reading the payload: a writer lapping this slot
    // mid-read stamps it kDirty first, so a changed stamp means the fields
    // above may be mixed — drop the event. The fence keeps the payload loads
    // from sinking past the second stamp check.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != seq) continue;
    ev.kind = static_cast<TraceKind>(meta >> 56);
    ev.tenant = meta & ((uint64_t{1} << 56) - 1);
    std::memcpy(&ev.value, &bits, sizeof(ev.value));
    out->push_back(ev);
  }
}

}  // namespace itrim::obs
