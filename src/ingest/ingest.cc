#include "ingest/ingest.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/thread_pool.h"
#include "game/kernels.h"

namespace itrim {

namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// SplitMix64 finalizer: tenant ids are often dense small integers, so the
// raw id modulo shards would stripe neighboring tenants onto neighboring
// shards; the mix spreads any id pattern uniformly.
uint64_t MixTenantId(uint64_t id) {
  uint64_t z = id + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

void EncodeIngestEvent(const IngestEvent& event,
                       unsigned char out[kIngestFrameBytes]) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<unsigned char>(event.tenant_id >> (8 * i));
  }
  for (int i = 0; i < 4; ++i) {
    out[8 + i] = static_cast<unsigned char>(event.reports >> (8 * i));
  }
}

Result<IngestEvent> DecodeIngestEvent(const unsigned char* data, size_t size) {
  if (data == nullptr || size != kIngestFrameBytes) {
    return Status::InvalidArgument(
        "ingest frame must be exactly " + std::to_string(kIngestFrameBytes) +
        " bytes, got " + std::to_string(size));
  }
  IngestEvent event;
  event.tenant_id = 0;
  for (int i = 0; i < 8; ++i) {
    event.tenant_id |= static_cast<uint64_t>(data[i]) << (8 * i);
  }
  event.reports = 0;
  for (int i = 0; i < 4; ++i) {
    event.reports |= static_cast<uint32_t>(data[8 + i]) << (8 * i);
  }
  if (event.reports == 0) {
    return Status::InvalidArgument("ingest frame carries zero reports");
  }
  return event;
}

Status IngestConfig::Validate() const {
  if (shards < 0) {
    return Status::InvalidArgument("shards must be >= 0");
  }
  if (queue_capacity == 0) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  if (batch_max == 0) {
    return Status::InvalidArgument("batch_max must be >= 1");
  }
  // Negated so NaN fails too: a NaN rate would disable limiting and a NaN
  // burst would fall back to the default.
  if (!(rate_limit_per_sec >= 0.0)) {
    return Status::InvalidArgument("rate_limit_per_sec must be >= 0");
  }
  if (!(rate_limit_burst >= 0.0)) {
    return Status::InvalidArgument("rate_limit_burst must be >= 0");
  }
  if (trace_capacity > obs::kMaxTraceCapacity) {
    return Status::InvalidArgument("trace_capacity must be <= " +
                                   std::to_string(obs::kMaxTraceCapacity));
  }
  return Status::OK();
}

IngestService::IngestService(IngestConfig config, SessionFleet* fleet)
    : config_(std::move(config)), fleet_(fleet) {
  if (config_.metrics != nullptr) {
    registry_ = config_.metrics;
  } else {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry_ = owned_registry_.get();
  }
  // The service slot exists from birth so pre-Start rejections count too.
  service_slot_ = registry_->AddSlot("ingest");
}

IngestService::~IngestService() { Stop(); }

size_t IngestService::ShardOf(uint64_t tenant_id) const {
  return static_cast<size_t>(MixTenantId(tenant_id) % shards_.size());
}

Status IngestService::Start() {
  if (started_) {
    return Status::FailedPrecondition("ingest service already started");
  }
  ITRIM_RETURN_NOT_OK(config_.Validate());
  if (fleet_ == nullptr) {
    return Status::InvalidArgument("ingest service needs a fleet");
  }
  if (!fleet_->bootstrapped()) {
    return Status::FailedPrecondition(
        "fleet must be bootstrapped before ingestion starts");
  }
  ITRIM_RETURN_NOT_OK(fleet_->BeginPerTenantStepping());

  const int shard_count =
      config_.shards > 0 ? config_.shards : DefaultNumThreads();
  stopping_.store(false, std::memory_order_relaxed);
  stop_status_ = Status::OK();
  shards_.clear();
  shards_.reserve(static_cast<size_t>(shard_count));
  for (int s = 0; s < shard_count; ++s) {
    shards_.push_back(std::make_unique<Shard>(config_.queue_capacity));
  }
  // Telemetry sinks persist across Start/Stop cycles (slots stay in the
  // registry, counters stay monotonic); grow them on demand and point the
  // fresh shards at them.
  while (shard_slots_.size() < shards_.size()) {
    shard_slots_.push_back(
        registry_->AddSlot("shard" + std::to_string(shard_slots_.size())));
  }
  if (config_.trace_capacity > 0) {
    while (shard_traces_.size() < shards_.size()) {
      shard_traces_.push_back(
          std::make_unique<obs::TraceBuffer>(config_.trace_capacity));
    }
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->slot = shard_slots_[s];
    shards_[s]->trace =
        s < shard_traces_.size() ? shard_traces_[s].get() : nullptr;
  }
  // Fold any prior churn back in so `resident_base_ − (hibernations −
  // rehydrations)` stays exact over the lifetime counters.
  int64_t prior_churn = 0;
  for (obs::MetricSlot* slot : shard_slots_) {
    prior_churn +=
        static_cast<int64_t>(slot->Get(obs::Counter::kIngestHibernations)) -
        static_cast<int64_t>(slot->Get(obs::Counter::kIngestRehydrations));
  }
  resident_base_ =
      static_cast<int64_t>(fleet_->ResidentTenants()) + prior_churn;
  // Scrape-context identity: which kernel build this service's rounds
  // actually run on.
  registry_->SetInfo("kernel",
                     kernels::VariantName(kernels::ActiveVariant()));
  registry_->SetInfo("shards", std::to_string(shard_count));
  // Home assignment before any worker runs: every tenant belongs to
  // exactly one shard, so per-tenant event order is total and tenant
  // state is never touched by two threads.
  for (size_t i = 0; i < fleet_->num_tenants(); ++i) {
    Shard& shard = *shards_[ShardOf(i)];
    shard.owned.push_back(i);
    if (fleet_->TenantResident(i)) ++shard.resident_owned;
  }
  // Deep telemetry: every session reports into its home shard's slot and
  // trace ring (persisted on the Tenant, so hibernation keeps the sinks).
  if (config_.observe_rounds) {
    for (const auto& shard : shards_) {
      for (uint64_t id : shard->owned) {
        SessionObs sinks;
        sinks.metrics = shard->slot;
        sinks.trace = shard->trace;
        sinks.tenant = id;
        ITRIM_RETURN_NOT_OK(fleet_->AttachTenantObservability(
            static_cast<size_t>(id), sinks));
      }
    }
    tenant_sinks_attached_ = true;
  }
  started_ = true;
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->worker = std::thread([this, s] { WorkerLoop(s); });
  }
  return Status::OK();
}

Status IngestService::Admit(const IngestEvent& event, bool blocking) {
  if (!started_ || stopping_.load(std::memory_order_relaxed)) {
    service_slot_->Inc(obs::Counter::kIngestEventsRejected);
    return Status::FailedPrecondition("ingest service is not running");
  }
  if (event.reports == 0) {
    service_slot_->Inc(obs::Counter::kIngestEventsRejected);
    return Status::InvalidArgument("event carries zero reports");
  }
  if (event.reports > kMaxReportsPerEvent) {
    service_slot_->Inc(obs::Counter::kIngestEventsRejected);
    return Status::InvalidArgument(
        "event carries " + std::to_string(event.reports) +
        " reports, above kMaxReportsPerEvent " +
        std::to_string(kMaxReportsPerEvent));
  }
  if (event.tenant_id >= fleet_->num_tenants()) {
    service_slot_->Inc(obs::Counter::kIngestEventsRejected);
    return Status::InvalidArgument("unknown tenant id " +
                                   std::to_string(event.tenant_id));
  }
  Shard& shard = *shards_[ShardOf(event.tenant_id)];
  const bool deep = config_.observe_rounds;
  const bool timed =
      deep && submit_tick_.fetch_add(1, std::memory_order_relaxed) %
                      kSubmitSampleEvery ==
                  0;
  const int64_t t0 = timed ? obs::MonotonicNowNs() : 0;
  // TryPush first so a full queue is observable: a blocking Submit that
  // failed the fast path is a backpressure stall, counted and traced
  // before the producer parks on Push.
  bool pushed = shard.queue.TryPush(event);
  if (!pushed && blocking) {
    if (!shard.queue.closed()) {
      shard.slot->Inc(obs::Counter::kIngestBackpressureBlocks);
      if (shard.trace != nullptr) {
        shard.trace->Record(obs::TraceKind::kBackpressureBlock,
                            event.tenant_id,
                            static_cast<double>(config_.queue_capacity));
      }
    }
    pushed = shard.queue.Push(event);
  }
  if (!pushed) {
    service_slot_->Inc(obs::Counter::kIngestEventsRejected);
    if (stopping_.load(std::memory_order_relaxed) || shard.queue.closed()) {
      return Status::FailedPrecondition("ingest service is stopping");
    }
    return Status::Unavailable("ingest shard queue is full");
  }
  shard.submitted.fetch_add(1, std::memory_order_release);
  shard.slot->Inc(obs::Counter::kIngestEventsAccepted);
  shard.slot->Inc(obs::Counter::kIngestReportsEnqueued, event.reports);
  if (timed) {
    shard.slot->Observe(
        obs::Histogram::kIngestSubmitLatencyUs,
        static_cast<double>(obs::MonotonicNowNs() - t0) / 1000.0);
  }
  return Status::OK();
}

Status IngestService::Submit(const IngestEvent& event) {
  return Admit(event, /*blocking=*/true);
}

Status IngestService::TrySubmit(const IngestEvent& event) {
  return Admit(event, /*blocking=*/false);
}

Status IngestService::SubmitFrame(const unsigned char* data, size_t size) {
  ITRIM_ASSIGN_OR_RETURN(IngestEvent event, DecodeIngestEvent(data, size));
  return Submit(event);
}

bool IngestService::DrainLane(Shard& shard, uint64_t tenant_id,
                              TenantLane& lane) {
  const size_t i = static_cast<size_t>(tenant_id);
  const uint64_t round_size = static_cast<uint64_t>(lane.round_size);
  const bool deep = config_.observe_rounds;
  while (lane.pending >= round_size) {
    if (!fleet_->TenantResident(i)) {
      Status status = fleet_->RehydrateTenant(i);
      if (!status.ok()) {
        std::lock_guard<std::mutex> lock(shard.error_mu);
        if (shard.error.ok()) shard.error = status;
        lane.pending = 0;  // drop; retrying every batch would spin
        return false;
      }
      shard.slot->Inc(obs::Counter::kIngestRehydrations);
      if (shard.trace != nullptr) {
        shard.trace->Record(
            obs::TraceKind::kRehydrate, tenant_id,
            static_cast<double>(fleet_->tenant(i).session->next_round() - 1));
      }
      ++shard.resident_owned;
    }
    // Round wall time is sampled 1-in-4 per lane: the session's own trace
    // events already stamp every round boundary, so the histogram can
    // afford to skip clock reads on the hot path.
    const bool timed = deep && (lane.wall_tick++ & 3u) == 0;
    const int64_t t0 = timed ? obs::MonotonicNowNs() : 0;
    Result<RoundRecord> record = fleet_->StepTenant(i);
    if (!record.ok()) {
      std::lock_guard<std::mutex> lock(shard.error_mu);
      if (shard.error.ok()) shard.error = record.status();
      lane.pending = 0;
      return false;
    }
    shard.slot->Inc(obs::Counter::kIngestRoundsPlayed);
    if (timed) {
      shard.slot->Observe(
          obs::Histogram::kIngestRoundWallUs,
          static_cast<double>(obs::MonotonicNowNs() - t0) / 1000.0);
    }
    lane.pending -= round_size;
  }
  return true;
}

void IngestService::EnforceResidency(Shard& shard) {
  if (config_.max_resident_per_shard == 0) return;
  while (shard.resident_owned > config_.max_resident_per_shard) {
    // Least-recently-active owned tenant; tenants with no traffic yet
    // stamp 0, so they hibernate first. Ties break on the smaller id for
    // a deterministic eviction order.
    uint64_t victim = 0;
    uint64_t victim_stamp = 0;
    bool found = false;
    for (uint64_t id : shard.owned) {
      if (!fleet_->TenantResident(static_cast<size_t>(id))) continue;
      auto it = shard.lanes.find(id);
      const uint64_t stamp = it == shard.lanes.end() ? 0 : it->second.last_active_batch;
      if (!found || stamp < victim_stamp ||
          (stamp == victim_stamp && id < victim)) {
        victim = id;
        victim_stamp = stamp;
        found = true;
      }
    }
    if (!found) return;
    // Rounds-at-park, read before the session is released.
    const int parked_rounds =
        fleet_->tenant(static_cast<size_t>(victim)).session->next_round() - 1;
    Status status = fleet_->HibernateTenant(static_cast<size_t>(victim));
    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(shard.error_mu);
      if (shard.error.ok()) shard.error = status;
      return;
    }
    shard.slot->Inc(obs::Counter::kIngestHibernations);
    if (shard.trace != nullptr) {
      shard.trace->Record(obs::TraceKind::kHibernate, victim,
                          static_cast<double>(parked_rounds));
    }
    --shard.resident_owned;
  }
}

void IngestService::WorkerLoop(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  const double rate = config_.rate_limit_per_sec;
  const double burst = config_.rate_limit_burst > 0.0
                           ? config_.rate_limit_burst
                           : std::max(1.0, rate);
  std::vector<IngestEvent> batch;
  batch.reserve(config_.batch_max);
  uint64_t batch_counter = 0;

  for (;;) {
    batch.clear();
    const size_t taken = shard.queue.PopBatch(&batch, config_.batch_max);
    if (taken == 0) break;  // closed and fully drained
    ++batch_counter;
    shard.slot->Inc(obs::Counter::kIngestBatchesPopped);
    shard.slot->Observe(obs::Histogram::kIngestPopBatchSize,
                        static_cast<double>(taken));
    const int64_t now_ns = SteadyNowNs();

    for (const IngestEvent& event : batch) {
      TenantLane& lane = shard.lanes[event.tenant_id];
      if (lane.round_size == 0) {  // first arrival: set up the lane
        lane.round_size =
            fleet_->tenant(static_cast<size_t>(event.tenant_id))
                .config.round_size;
        lane.tokens = burst;  // buckets start full
        lane.last_refill_ns = now_ns;
      }
      lane.last_active_batch = batch_counter;

      uint32_t admitted = event.reports;
      if (rate > 0.0) {
        const double elapsed =
            static_cast<double>(now_ns - lane.last_refill_ns) * 1e-9;
        lane.tokens = std::min(burst, lane.tokens + elapsed * rate);
        lane.last_refill_ns = now_ns;
        if (lane.tokens >= static_cast<double>(event.reports)) {
          lane.tokens -= static_cast<double>(event.reports);
        } else {
          admitted = 0;
          shard.slot->Inc(obs::Counter::kIngestReportsShed, event.reports);
          if (shard.trace != nullptr) {
            shard.trace->Record(obs::TraceKind::kRateLimitShed,
                                event.tenant_id,
                                static_cast<double>(event.reports));
          }
        }
      }
      lane.pending += admitted;
      if (lane.round_size > 0 &&
          lane.pending >= static_cast<uint64_t>(lane.round_size)) {
        DrainLane(shard, event.tenant_id, lane);
      }
    }

    EnforceResidency(shard);
    shard.processed.fetch_add(taken, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(flush_mu_);
    }
    flush_cv_.notify_all();
  }
}

Status IngestService::Flush() {
  if (!started_) {
    return Status::FailedPrecondition("ingest service is not running");
  }
  std::vector<uint64_t> targets(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    targets[s] = shards_[s]->submitted.load(std::memory_order_acquire);
  }
  std::unique_lock<std::mutex> lock(flush_mu_);
  flush_cv_.wait(lock, [&] {
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (shards_[s]->processed.load(std::memory_order_acquire) < targets[s]) {
        return false;
      }
    }
    return true;
  });
  return Status::OK();
}

Status IngestService::Stop() {
  if (!started_) return stop_status_;
  if (!stopping_.exchange(true)) {
    for (auto& shard : shards_) shard->queue.Close();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  // Detach per-tenant sinks: a later owner of the fleet should not keep
  // writing ingest-attributed telemetry into this service's slots.
  if (tenant_sinks_attached_) {
    for (size_t i = 0; i < fleet_->num_tenants(); ++i) {
      (void)fleet_->AttachTenantObservability(i, SessionObs{});
    }
    tenant_sinks_attached_ = false;
  }
  Status first = Status::OK();
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->error_mu);
    if (first.ok() && !shard->error.ok()) first = shard->error;
  }
  stop_status_ = first;
  started_ = false;
  return stop_status_;
}

IngestStats IngestService::Stats() const {
  IngestStats stats;
  stats.events_rejected =
      service_slot_->Get(obs::Counter::kIngestEventsRejected);
  int64_t resident = resident_base_;
  for (const auto& shard : shards_) {
    const obs::MetricSlot& slot = *shard->slot;
    stats.events_accepted += slot.Get(obs::Counter::kIngestEventsAccepted);
    stats.reports_enqueued += slot.Get(obs::Counter::kIngestReportsEnqueued);
    stats.reports_rate_limited += slot.Get(obs::Counter::kIngestReportsShed);
    stats.rounds_played += slot.Get(obs::Counter::kIngestRoundsPlayed);
    // Rehydrations first: every rehydration is preceded by its
    // hibernation on the same shard, so this read order keeps
    // hibernations >= rehydrations even while the worker is flipping
    // tenants between the two loads.
    const uint64_t rehydrations = slot.Get(obs::Counter::kIngestRehydrations);
    const uint64_t hibernations = slot.Get(obs::Counter::kIngestHibernations);
    stats.hibernations += hibernations;
    stats.rehydrations += rehydrations;
    resident -= static_cast<int64_t>(hibernations - rehydrations);
  }
  stats.resident_tenants =
      static_cast<size_t>(std::max<int64_t>(0, resident));
  return stats;
}

obs::MetricsSnapshot IngestService::Scrape() const {
  // Refresh the scrape-time gauges. Depth reads `processed` before
  // `submitted` (events are submitted before they are processed), so the
  // difference can never go negative mid-flight.
  for (const auto& shard : shards_) {
    const uint64_t processed =
        shard->processed.load(std::memory_order_acquire);
    const uint64_t submitted =
        shard->submitted.load(std::memory_order_acquire);
    shard->slot->Set(obs::Gauge::kIngestQueueDepth,
                     static_cast<double>(submitted - processed));
  }
  service_slot_->Set(obs::Gauge::kIngestResidentTenants,
                     static_cast<double>(Stats().resident_tenants));
  return registry_->Scrape();
}

std::vector<obs::TraceEvent> IngestService::TraceSnapshot() const {
  std::vector<obs::TraceEvent> merged;
  std::vector<obs::TraceEvent> events;
  for (const auto& trace : shard_traces_) {
    trace->Snapshot(&events);
    merged.insert(merged.end(), events.begin(), events.end());
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return merged;
}

uint64_t IngestService::TraceDropped() const {
  uint64_t dropped = 0;
  for (const auto& trace : shard_traces_) dropped += trace->dropped();
  return dropped;
}

}  // namespace itrim
