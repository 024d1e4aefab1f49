#include "obs/metrics.h"

#include <chrono>

namespace itrim::obs {
namespace {

// Bucket bounds (ascending upper edges; +Inf is implicit). Sized for the
// engine's real scales: sub-microsecond submits, ~256-event batches,
// millisecond fleet rounds. Each list must fit kMaxBuckets.
constexpr double kLatencyUsBounds[] = {0.5, 1,   2,    5,    10,   25,
                                       50,  100, 1000, 1e4,  1e5,  1e6};
constexpr double kBatchBounds[] = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512};
constexpr double kRoundUsBounds[] = {10,  25,  50,   100,  250,  500,
                                    1000, 2500, 5000, 1e4,  1e5,  1e6};

constexpr CounterInfo kCounterInfo[] = {
#define ITRIM_OBS_ROW(sym, name, help) {name, help},
    ITRIM_OBS_COUNTERS(ITRIM_OBS_ROW)
#undef ITRIM_OBS_ROW
};
constexpr GaugeInfo kGaugeInfo[] = {
#define ITRIM_OBS_ROW(sym, name, help) {name, help},
    ITRIM_OBS_GAUGES(ITRIM_OBS_ROW)
#undef ITRIM_OBS_ROW
};
const HistogramInfo kHistogramInfo[] = {
#define ITRIM_OBS_ROW(sym, name, help, bounds) {name, help, bounds},
    ITRIM_OBS_HISTOGRAMS(ITRIM_OBS_ROW)
#undef ITRIM_OBS_ROW
};

static_assert(std::size(kCounterInfo) == kNumCounters);
static_assert(std::size(kGaugeInfo) == kNumGauges);
static_assert(std::size(kHistogramInfo) == kNumHistograms);
static_assert(std::size(kLatencyUsBounds) <= kMaxBuckets);
static_assert(std::size(kBatchBounds) <= kMaxBuckets);
static_assert(std::size(kRoundUsBounds) <= kMaxBuckets);

}  // namespace

const CounterInfo& MetaOf(Counter c) {
  return kCounterInfo[static_cast<int>(c)];
}
const GaugeInfo& MetaOf(Gauge g) { return kGaugeInfo[static_cast<int>(g)]; }
const HistogramInfo& MetaOf(Histogram h) {
  return kHistogramInfo[static_cast<int>(h)];
}

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricSlot* MetricsRegistry::AddSlot(std::string label) {
  std::lock_guard<std::mutex> lock(mu_);
  slots_.push_back(
      std::unique_ptr<MetricSlot>(new MetricSlot(std::move(label))));
  return slots_.back().get();
}

void MetricsRegistry::SetInfo(const std::string& key,
                              const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& kv : info_) {
    if (kv.first == key) {
      kv.second = value;
      return;
    }
  }
  info_.emplace_back(key, value);
}

size_t MetricsRegistry::num_slots() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

namespace {

SlotValues ReadSlot(const MetricSlot& slot) {
  SlotValues out;
  out.label = slot.label();
  for (int c = 0; c < kNumCounters; ++c) {
    out.counters[c] = slot.Get(static_cast<Counter>(c));
  }
  for (int g = 0; g < kNumGauges; ++g) {
    out.gauges[g] = slot.Get(static_cast<Gauge>(g));
  }
  out.histograms.resize(kNumHistograms);
  for (int h = 0; h < kNumHistograms; ++h) {
    const HistogramInfo& info = MetaOf(static_cast<Histogram>(h));
    out.histograms[h].counts.assign(info.bounds.size() + 1, 0);
    // Histogram cells are private to MetricSlot; Scrape() (a friend via
    // MetricsRegistry membership) fills them in below.
  }
  return out;
}

}  // namespace

MetricsSnapshot MetricsRegistry::Scrape() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.info = info_;
  snap.merged.label = "";
  snap.merged.histograms.resize(kNumHistograms);
  for (int h = 0; h < kNumHistograms; ++h) {
    snap.merged.histograms[h].counts.assign(
        MetaOf(static_cast<Histogram>(h)).bounds.size() + 1, 0);
  }
  snap.slots.reserve(slots_.size());
  for (const auto& slot : slots_) {
    SlotValues values = ReadSlot(*slot);
#if ITRIM_OBS
    for (int h = 0; h < kNumHistograms; ++h) {
      const auto& cells = slot->histograms_[h];
      HistogramValue& hv = values.histograms[h];
      // The total is the sum of the buckets as loaded, so the exported
      // +Inf/count line cannot run ahead of the bucket lines while
      // Observe() calls race this scrape.
      for (size_t b = 0; b < hv.counts.size(); ++b) {
        hv.counts[b] = cells.counts[b].load(std::memory_order_relaxed);
        hv.count += hv.counts[b];
      }
      hv.sum = cells.sum.load(std::memory_order_relaxed);
    }
#endif
    for (int c = 0; c < kNumCounters; ++c) {
      snap.merged.counters[c] += values.counters[c];
    }
    for (int g = 0; g < kNumGauges; ++g) {
      snap.merged.gauges[g] += values.gauges[g];
    }
    for (int h = 0; h < kNumHistograms; ++h) {
      HistogramValue& dst = snap.merged.histograms[h];
      const HistogramValue& src = values.histograms[h];
      for (size_t b = 0; b < dst.counts.size(); ++b) {
        dst.counts[b] += src.counts[b];
      }
      dst.sum += src.sum;
      dst.count += src.count;
    }
    snap.slots.push_back(std::move(values));
  }
  return snap;
}

int64_t MonotonicNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace itrim::obs
