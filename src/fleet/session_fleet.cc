#include "fleet/session_fleet.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "stats/quantile.h"

namespace itrim {

Status FleetConfig::Validate() const {
  if (rounds < 1) return Status::InvalidArgument("rounds must be >= 1");
  if (threads < 0) return Status::InvalidArgument("threads must be >= 0");
  if (shard_size < 0) {
    return Status::InvalidArgument("shard_size must be >= 0");
  }
  return Status::OK();
}

namespace {

// Re-wraps a tenant-level error with the tenant's identity, preserving the
// status code.
Status TenantStatus(size_t index, const std::string& name,
                    const Status& status) {
  std::string msg = "tenant #" + std::to_string(index);
  if (!name.empty()) msg += " (" + name + ")";
  msg += ": " + status.message();
  return Status::WithCode(status.code(), std::move(msg));
}

// In-place p10/p50/p90: sorts `values` and interpolates exactly like
// Quantiles(values, {0.10, 0.50, 0.90}) (same sort, same QuantileSorted
// arithmetic — bit-identical), but without the copy and the result-vector
// allocation, so the per-round reduction can run entirely in fleet scratch.
FleetQuantiles QuantileTriple(std::vector<double>* values) {
  FleetQuantiles q;
  if (values->empty()) return q;
  std::sort(values->begin(), values->end());
  q.p10 = QuantileSorted(*values, 0.10);
  q.p50 = QuantileSorted(*values, 0.50);
  q.p90 = QuantileSorted(*values, 0.90);
  return q;
}

double SafeRatio(size_t num, size_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

SessionFleet::SessionFleet(FleetConfig config, std::vector<TenantSpec> tenants)
    : config_(config), specs_(std::move(tenants)) {}

Status SessionFleet::Materialize() {
  // A failed (re-)build must leave the fleet un-steppable, mirroring the
  // session contract.
  bootstrapped_ = false;
  ITRIM_RETURN_NOT_OK(config_.Validate());
  if (specs_.empty()) {
    return Status::InvalidArgument("fleet needs at least one tenant");
  }
  // Materialization is cheap and allocation-heavy; run it serially so the
  // first invalid spec is reported deterministically.
  tenants_.clear();
  tenants_.reserve(specs_.size());
  for (size_t i = 0; i < specs_.size(); ++i) {
    uint64_t seed = config_.derive_tenant_seeds
                        ? DeriveTenantSeed(config_.seed, i)
                        : specs_[i].game.seed;
    Result<Tenant> tenant = MaterializeTenant(specs_[i], seed);
    if (!tenant.ok()) {
      return TenantStatus(i, specs_[i].name, tenant.status());
    }
    tenants_.push_back(std::move(tenant).ValueOrDie());
  }
  return Status::OK();
}

Status SessionFleet::Bootstrap() {
  ITRIM_RETURN_NOT_OK(Materialize());

  // Bootstraps are where the real work is (clean calibration samples,
  // PositionMap geometry): shard them across the pool. Statuses land in
  // per-tenant slots; the first failure in tenant order wins.
  const size_t n = tenants_.size();
  std::vector<Status> statuses(n);
  ParallelForShards(
      n, static_cast<size_t>(config_.shard_size),
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          statuses[i] = tenants_[i].session->Bootstrap();
        }
      },
      config_.threads);
  for (size_t i = 0; i < n; ++i) {
    if (!statuses[i].ok()) {
      return TenantStatus(i, specs_[i].name, statuses[i]);
    }
  }

  round_aggregates_.clear();
  // Pre-size the lockstep book and the per-round scratch so steady-state
  // StepRounds within the configured horizon never grow them.
  round_aggregates_.reserve(static_cast<size_t>(config_.rounds));
  step_records_.resize(tenants_.size());
  step_statuses_.resize(tenants_.size());
  reduce_trim_rates_.reserve(tenants_.size());
  reduce_acceptances_.reserve(tenants_.size());
  reduce_qualities_.reserve(tenants_.size());
  next_round_ = 1;
  per_tenant_mode_ = false;
  bootstrapped_ = true;
  return Status::OK();
}

Status SessionFleet::BeginPerTenantStepping() {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("fleet is not bootstrapped");
  }
  per_tenant_mode_ = true;
  return Status::OK();
}

Result<RoundRecord> SessionFleet::StepTenant(size_t i) {
  if (!per_tenant_mode_) {
    return Status::FailedPrecondition(
        "per-tenant stepping requires BeginPerTenantStepping()");
  }
  if (i >= tenants_.size()) {
    return Status::OutOfRange("tenant index " + std::to_string(i) +
                              " out of range");
  }
  if (!tenants_[i].resident()) {
    return Status::FailedPrecondition(
        "tenant #" + std::to_string(i) + " is hibernated; rehydrate first");
  }
  Result<RoundRecord> record = tenants_[i].session->Step();
  if (!record.ok()) {
    return TenantStatus(i, specs_[i].name, record.status());
  }
  return record;
}

Status SessionFleet::HibernateTenant(size_t i) {
  if (!per_tenant_mode_) {
    return Status::FailedPrecondition(
        "hibernation requires BeginPerTenantStepping()");
  }
  if (i >= tenants_.size()) {
    return Status::OutOfRange("tenant index " + std::to_string(i) +
                              " out of range");
  }
  Status status = itrim::HibernateTenant(&tenants_[i]);
  if (!status.ok()) return TenantStatus(i, specs_[i].name, status);
  return Status::OK();
}

Status SessionFleet::RehydrateTenant(size_t i) {
  if (!per_tenant_mode_) {
    return Status::FailedPrecondition(
        "rehydration requires BeginPerTenantStepping()");
  }
  if (i >= tenants_.size()) {
    return Status::OutOfRange("tenant index " + std::to_string(i) +
                              " out of range");
  }
  Status status = itrim::RehydrateTenant(&tenants_[i]);
  if (!status.ok()) return TenantStatus(i, specs_[i].name, status);
  return Status::OK();
}

bool SessionFleet::TenantResident(size_t i) const {
  return i < tenants_.size() && tenants_[i].resident();
}

size_t SessionFleet::ResidentTenants() const {
  size_t n = 0;
  for (const Tenant& tenant : tenants_) {
    if (tenant.resident()) ++n;
  }
  return n;
}

Result<std::vector<RoundRecord>> SessionFleet::TenantRounds(size_t i) const {
  if (i >= tenants_.size()) {
    return Status::OutOfRange("tenant index " + std::to_string(i) +
                              " out of range");
  }
  if (tenants_[i].resident()) {
    return tenants_[i].session->round_log().ToVector();
  }
  if (tenants_[i].hibernated != nullptr) {
    return tenants_[i].hibernated->checkpoint.records;
  }
  return Status::FailedPrecondition("tenant #" + std::to_string(i) +
                                    " was never materialized");
}

Result<FleetRoundAggregate> SessionFleet::StepRound() {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("fleet is not bootstrapped");
  }
  if (per_tenant_mode_) {
    return Status::FailedPrecondition(
        "fleet is in per-tenant stepping mode; lockstep rounds are "
        "unavailable (re-Bootstrap() to return to lockstep)");
  }
  const int64_t obs_t0 =
      (obs::kEnabled && obs_slot_ != nullptr) ? obs::MonotonicNowNs() : 0;
  const size_t n = tenants_.size();
  step_records_.resize(n);
  step_statuses_.resize(n);
  auto step_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      Result<RoundRecord> record = tenants_[i].session->Step();
      if (record.ok()) {
        step_records_[i] = std::move(record).ValueOrDie();
        step_statuses_[i] = Status::OK();
      } else {
        step_statuses_[i] = record.status();
      }
    }
  };
  // Serial fast path: stepping inline skips the type-erased ParallelFor
  // plumbing (std::function wrappers and futures), which is what keeps a
  // single-threaded steady-state StepRound off the heap entirely.
  const int jobs =
      config_.threads > 0 ? config_.threads : DefaultNumThreads();
  if (jobs <= 1 || n == 1) {
    step_range(0, n);
  } else {
    ParallelForShards(n, static_cast<size_t>(config_.shard_size), step_range,
                      config_.threads);
  }
  for (size_t i = 0; i < n; ++i) {
    if (!step_statuses_[i].ok()) {
      // A partial round breaks the lockstep invariant (some sessions have
      // advanced, this one has not); the fleet must not be steppable
      // again, or later aggregates would mix records of different rounds.
      bootstrapped_ = false;
      return TenantStatus(i, specs_[i].name, step_statuses_[i]);
    }
  }

  FleetRoundAggregate aggregate = ReduceRound(next_round_, step_records_);
  round_aggregates_.push_back(aggregate);
  ++next_round_;
  if constexpr (obs::kEnabled) {
    if (obs_slot_ != nullptr) {
      obs::MetricSlot& m = *obs_slot_;
      m.Observe(obs::Histogram::kFleetRoundWallUs,
                static_cast<double>(obs::MonotonicNowNs() - obs_t0) / 1000.0);
      m.Set(obs::Gauge::kFleetRound, static_cast<double>(aggregate.round));
      m.Set(obs::Gauge::kFleetTrimRateP10, aggregate.tenant_trim_rate.p10);
      m.Set(obs::Gauge::kFleetTrimRateP50, aggregate.tenant_trim_rate.p50);
      m.Set(obs::Gauge::kFleetTrimRateP90, aggregate.tenant_trim_rate.p90);
      m.Set(obs::Gauge::kFleetPoisonAcceptP10,
            aggregate.tenant_poison_acceptance.p10);
      m.Set(obs::Gauge::kFleetPoisonAcceptP50,
            aggregate.tenant_poison_acceptance.p50);
      m.Set(obs::Gauge::kFleetPoisonAcceptP90,
            aggregate.tenant_poison_acceptance.p90);
      m.Set(obs::Gauge::kFleetQualityP10, aggregate.tenant_quality.p10);
      m.Set(obs::Gauge::kFleetQualityP50, aggregate.tenant_quality.p50);
      m.Set(obs::Gauge::kFleetQualityP90, aggregate.tenant_quality.p90);
    }
  }
  return aggregate;
}

Status SessionFleet::AttachTenantObservability(size_t i,
                                               const SessionObs& sinks) {
  if (!bootstrapped_ && !per_tenant_mode_) {
    return Status::FailedPrecondition("fleet is not bootstrapped");
  }
  if (i >= tenants_.size()) {
    return Status::InvalidArgument("tenant index out of range");
  }
  tenants_[i].obs = sinks;
  if (tenants_[i].resident()) {
    tenants_[i].session->set_observability(sinks);
  }
  return Status::OK();
}

Result<FleetSummary> SessionFleet::RunToCompletion() {
  ITRIM_RETURN_NOT_OK(Bootstrap());
  for (int round = 1; round <= config_.rounds; ++round) {
    ITRIM_RETURN_NOT_OK(StepRound().status());
  }
  return Finish();
}

FleetSummary SessionFleet::Finish() const {
  FleetSummary summary;
  summary.rounds = round_aggregates_;
  summary.tenants.reserve(tenants_.size());
  std::vector<double> untrimmed, benign_loss, survival;
  untrimmed.reserve(tenants_.size());
  benign_loss.reserve(tenants_.size());
  survival.reserve(tenants_.size());
  for (const Tenant& tenant : tenants_) {
    GameSummary game;
    if (tenant.resident()) {
      game = tenant.session->Finish();
    } else if (tenant.hibernated != nullptr) {
      // Summarize from the parked checkpoint without waking the tenant.
      game.rounds = tenant.hibernated->checkpoint.records;
      game.termination_round = tenant.hibernated->termination_round;
    }
    untrimmed.push_back(game.UntrimmedPoisonFraction());
    benign_loss.push_back(game.BenignLossFraction());
    survival.push_back(game.PoisonSurvivalRate());
    summary.total_received += game.TotalReceived();
    summary.total_kept += game.TotalKept();
    summary.total_poison_kept += game.TotalPoisonKept();
    summary.tenants.push_back(std::move(game));
  }
  summary.untrimmed_poison_fraction = QuantileTriple(&untrimmed);
  summary.benign_loss_fraction = QuantileTriple(&benign_loss);
  summary.poison_survival_rate = QuantileTriple(&survival);
  return summary;
}

FleetCheckpoint SessionFleet::Checkpoint() const {
  assert(bootstrapped_ && "Checkpoint() before Bootstrap()");
  assert(!per_tenant_mode_ &&
         "fleet checkpoints are lockstep-only (sessions at one round)");
  FleetCheckpoint checkpoint;
  checkpoint.next_round = next_round_;
  checkpoint.sessions.reserve(tenants_.size());
  for (const Tenant& tenant : tenants_) {
    checkpoint.sessions.push_back(tenant.session->Checkpoint());
  }
  return checkpoint;
}

Status SessionFleet::Restore(const FleetCheckpoint& checkpoint) {
  // All-or-nothing: the validation phase below inspects the whole
  // checkpoint against the fleet's config and specs and touches *no*
  // mutable state — a truncated or corrupt checkpoint is rejected while
  // the fleet's current stream (if any) remains live and steppable. Only
  // a checkpoint that passes every check reaches the mutation phase.
  ITRIM_RETURN_NOT_OK(config_.Validate());
  if (specs_.empty()) {
    return Status::InvalidArgument("fleet needs at least one tenant");
  }
  for (size_t i = 0; i < specs_.size(); ++i) {
    Status status = specs_[i].Validate();
    if (!status.ok()) return TenantStatus(i, specs_[i].name, status);
  }
  if (checkpoint.sessions.size() != specs_.size()) {
    return Status::InvalidArgument(
        "checkpoint holds " + std::to_string(checkpoint.sessions.size()) +
        " sessions for a fleet of " + std::to_string(specs_.size()));
  }
  // Lockstep stepping means every session must carry exactly the rounds
  // the fleet played; a checkpoint violating that (hand-edited, corrupted,
  // or from a non-lockstep source) would index past round_log() below.
  if (checkpoint.next_round < 1) {
    return Status::InvalidArgument("checkpoint next_round must be >= 1");
  }
  const size_t rounds_played = static_cast<size_t>(checkpoint.next_round - 1);
  for (size_t i = 0; i < checkpoint.sessions.size(); ++i) {
    const SessionCheckpoint& session = checkpoint.sessions[i];
    if (session.records.size() != rounds_played ||
        session.next_round != checkpoint.next_round) {
      return Status::InvalidArgument(
          "checkpoint session #" + std::to_string(i) + " holds " +
          std::to_string(session.records.size()) +
          " round records at round " + std::to_string(session.next_round) +
          " for a fleet at round " + std::to_string(checkpoint.next_round));
    }
    for (size_t r = 0; r < session.records.size(); ++r) {
      if (session.records[r].round != static_cast<int>(r) + 1) {
        return Status::InvalidArgument(
            "checkpoint session #" + std::to_string(i) + " record " +
            std::to_string(r) + " carries round index " +
            std::to_string(session.records[r].round) +
            " (expected " + std::to_string(r + 1) + ")");
      }
    }
  }

  // Mutation phase: rebuild tenants from the specs (fresh
  // strategies/models), then drop each session onto its checkpointed
  // stream state — session Restore runs its own bootstrap internally, so
  // the fleet-level bootstrap pass is skipped here (running it too would
  // do every clean calibration twice). Session restores replay the
  // recorded observations, so strategy state is reconstructed exactly; the
  // fleet's aggregates are then recomputed from the replayed records
  // (tenant order), keeping FleetCheckpoint minimal.
  ITRIM_RETURN_NOT_OK(Materialize());
  const size_t n = tenants_.size();
  std::vector<Status> statuses(n);
  ParallelForShards(
      n, static_cast<size_t>(config_.shard_size),
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          statuses[i] = tenants_[i].session->Restore(checkpoint.sessions[i]);
        }
      },
      config_.threads);
  for (size_t i = 0; i < n; ++i) {
    if (!statuses[i].ok()) {
      return TenantStatus(i, specs_[i].name, statuses[i]);
    }
  }
  next_round_ = checkpoint.next_round;
  RebuildAggregates();
  bootstrapped_ = true;
  return Status::OK();
}

FleetRoundAggregate SessionFleet::ReduceRound(
    int round, const std::vector<RoundRecord>& records) {
  FleetRoundAggregate aggregate;
  aggregate.round = round;
  aggregate.tenants = records.size();
  reduce_trim_rates_.clear();
  reduce_acceptances_.clear();
  reduce_qualities_.clear();
  for (const RoundRecord& record : records) {
    aggregate.benign_received += record.benign_received;
    aggregate.poison_received += record.poison_received;
    aggregate.benign_kept += record.benign_kept;
    aggregate.poison_kept += record.poison_kept;
    size_t received = record.benign_received + record.poison_received;
    size_t kept = record.benign_kept + record.poison_kept;
    reduce_trim_rates_.push_back(SafeRatio(received - kept, received));
    reduce_acceptances_.push_back(SafeRatio(record.poison_kept,
                                            record.poison_received));
    reduce_qualities_.push_back(record.quality);
  }
  size_t received = aggregate.benign_received + aggregate.poison_received;
  size_t kept = aggregate.benign_kept + aggregate.poison_kept;
  aggregate.trim_rate = SafeRatio(received - kept, received);
  aggregate.poison_acceptance =
      SafeRatio(aggregate.poison_kept, aggregate.poison_received);
  aggregate.tenant_trim_rate = QuantileTriple(&reduce_trim_rates_);
  aggregate.tenant_poison_acceptance = QuantileTriple(&reduce_acceptances_);
  aggregate.tenant_quality = QuantileTriple(&reduce_qualities_);
  return aggregate;
}

void SessionFleet::RebuildAggregates() {
  round_aggregates_.clear();
  const size_t rounds_played = static_cast<size_t>(next_round_ - 1);
  round_aggregates_.reserve(rounds_played);
  std::vector<RoundRecord> row(tenants_.size());
  for (size_t r = 0; r < rounds_played; ++r) {
    for (size_t i = 0; i < tenants_.size(); ++i) {
      row[i] = tenants_[i].session->round_log().Get(r);
    }
    round_aggregates_.push_back(ReduceRound(static_cast<int>(r) + 1, row));
  }
}

}  // namespace itrim
