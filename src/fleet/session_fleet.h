// SessionFleet: many concurrent trimming games, stepped in lockstep.
//
// The paper defines the interactive trimming game per collector; the
// production shape is thousands of such games running at once — one per
// tenant data stream, each with its own data setting, strategy pair,
// attack intensity and RNG stream. SessionFleet owns N independent
// TrimmingSessions and advances them in batched rounds: every StepRound()
// plays round i of *all* tenants, sharded across the thread pool, then
// reduces the per-tenant RoundRecords — in tenant order — into one
// FleetRoundAggregate (arrival/keep totals, trim rate, poison acceptance,
// and cross-tenant quantiles of the per-tenant rates). StepRound() returns
// each aggregate and the fleet keeps none of them, so its state does not
// grow with the rounds played; callers that want the history keep it.
//
// Determinism contract (the PR 1 ordered-reduction discipline): every
// tenant derives its seed purely from (fleet seed, tenant index), sessions
// never share mutable state, per-tenant results land in pre-sized slots,
// and every reduction runs in tenant order on the calling thread. A
// K-thread fleet run is therefore bit-identical to the 1-thread run.
//
// Fleets are checkpointable: Checkpoint() captures every session's
// SessionCheckpoint (plus the lockstep round counter) and Restore() resumes
// an identically configured fleet bit-identically: every later StepRound()
// returns the aggregate the uninterrupted fleet would have returned.
#ifndef ITRIM_FLEET_SESSION_FLEET_H_
#define ITRIM_FLEET_SESSION_FLEET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "fleet/tenant.h"
#include "game/session.h"

namespace itrim {

/// \brief Fleet-level engine configuration.
struct FleetConfig {
  int rounds = 20;   ///< lockstep rounds played by RunToCompletion()
  int threads = 0;   ///< fan-out width; 0 = ITRIM_THREADS / hardware
  uint64_t seed = 2024;  ///< root of the per-tenant seed derivation
  /// When true (default), tenant i's session seed is
  /// DeriveTenantSeed(seed, i); when false, each TenantSpec's own
  /// game.seed is used verbatim (e.g. to replay one tenant in isolation).
  bool derive_tenant_seeds = true;

  Status Validate() const;
};

/// \brief p10/p50/p90 of a per-tenant statistic, reduced across the fleet.
struct FleetQuantiles {
  double p10 = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
};

/// \brief One lockstep round, reduced over all tenants.
struct FleetRoundAggregate {
  int round = 0;
  size_t tenants = 0;
  size_t benign_received = 0;
  size_t poison_received = 0;
  size_t benign_kept = 0;
  size_t poison_kept = 0;
  /// Fleet-wide removed / received for this round.
  double trim_rate = 0.0;
  /// Fleet-wide poison kept / poison received; 0 when no poison arrived.
  double poison_acceptance = 0.0;
  /// Cross-tenant spread of the per-tenant round statistics.
  FleetQuantiles tenant_trim_rate;
  FleetQuantiles tenant_poison_acceptance;
  FleetQuantiles tenant_quality;
};

/// \brief Outcome of a fleet run: per-tenant books, whole-run totals and
/// cross-tenant quantiles. Per-round aggregates are not repeated here:
/// StepRound() returns each one as it is played.
struct FleetSummary {
  std::vector<GameSummary> tenants;        ///< tenant order
  /// Cross-tenant quantiles of the whole-run per-tenant fractions. Benign
  /// loss is the collector's trimming-overhead payoff proxy; poison
  /// survival is the adversary's gain proxy (Section III payoffs).
  FleetQuantiles untrimmed_poison_fraction;
  FleetQuantiles benign_loss_fraction;
  FleetQuantiles poison_survival_rate;
  size_t total_received = 0;
  size_t total_kept = 0;
  size_t total_poison_kept = 0;
};

/// \brief Serializable mid-stream state of a SessionFleet.
struct FleetCheckpoint {
  int next_round = 1;
  std::vector<SessionCheckpoint> sessions;  ///< tenant order
};

/// \brief Sharded multi-tenant engine over TrimmingSessions.
///
/// Tenant specs are copied in; their borrowed data sources must outlive
/// the fleet. Typical use mirrors the single-session API:
///
///   SessionFleet fleet(config, specs);
///   ITRIM_RETURN_NOT_OK(fleet.Bootstrap());
///   for (int r = 1; r <= config.rounds; ++r) {
///     FleetRoundAggregate agg = fleet.StepRound().ValueOrDie();
///   }
///   FleetSummary summary = fleet.Finish();
class SessionFleet {
 public:
  SessionFleet(FleetConfig config, std::vector<TenantSpec> tenants);

  /// \brief Validates the fleet config and every tenant spec, materializes
  /// the tenants, and bootstraps all sessions in parallel. Tenant errors
  /// are surfaced with the tenant index (first failing tenant in tenant
  /// order, regardless of thread count).
  Status Bootstrap();

  /// \brief Plays the next lockstep round on every tenant and returns the
  /// reduced aggregate. Like sessions, fleets are open-ended streams:
  /// StepRound() may be called past config().rounds. A tenant failure
  /// mid-round leaves the fleet un-steppable (the surviving tenants have
  /// already advanced, so the lockstep invariant is gone); re-Bootstrap()
  /// or Restore() to continue.
  Result<FleetRoundAggregate> StepRound();

  /// \brief Bootstrap + config().rounds StepRounds + Finish. The rounds'
  /// aggregates are dropped; step the fleet directly to keep them.
  Result<FleetSummary> RunToCompletion();

  /// \brief Summary of everything played so far; the fleet remains
  /// steppable. Hibernated tenants are summarized from their parked
  /// checkpoints without rehydration.
  FleetSummary Finish() const;

  /// \brief Captures the lockstep round counter and every session's
  /// checkpoint. FailedPrecondition before a successful Bootstrap() and in
  /// per-tenant mode.
  Result<FleetCheckpoint> Checkpoint() const;

  /// \brief Resumes from a checkpoint of an identically configured fleet;
  /// subsequent StepRounds are bit-identical to the original stream. The
  /// aggregates of the rounds before the checkpoint are not rebuilt.
  ///
  /// All-or-nothing: the whole checkpoint (session count, lockstep round
  /// alignment, per-session record shape) is validated *before* any
  /// session is touched, so a truncated or corrupt checkpoint is rejected
  /// with the fleet's current state — including a live, steppable stream —
  /// fully intact. FailedPrecondition in per-tenant mode.
  Status Restore(const FleetCheckpoint& checkpoint);

  // -- Arrival-driven (per-tenant) stepping --------------------------------
  //
  // The ingest front-end (src/ingest/) drives tenants individually as their
  // traffic arrives instead of in lockstep rounds. Per-tenant stepping is
  // an explicit mode switch: once entered, the lockstep surface (StepRound,
  // Checkpoint, Restore) is refused — sessions advance at different rates,
  // so lockstep aggregates and fleet checkpoints would silently mix rounds.
  // Re-Bootstrap() returns the fleet to lockstep mode.
  //
  // Thread-safety contract: after BeginPerTenantStepping(), calls for
  // *distinct* tenant indices may run concurrently (each touches only that
  // tenant's objects); calls for the same index must be externally ordered
  // — the ingest service guarantees this by hashing each tenant to exactly
  // one shard worker.

  /// \brief Switches a bootstrapped fleet from lockstep rounds to
  /// per-tenant stepping.
  Status BeginPerTenantStepping();

  /// \brief Plays one round of tenant `i` only (per-tenant mode). The
  /// tenant must be resident.
  Result<RoundRecord> StepTenant(size_t i);

  /// \brief Evicts tenant `i` to its compact checkpoint, releasing its
  /// session, model and strategies (per-tenant mode).
  Status HibernateTenant(size_t i);

  /// \brief Rebuilds hibernated tenant `i` and restores its parked state;
  /// its subsequent stream is bit-identical to never having hibernated.
  Status RehydrateTenant(size_t i);

  /// \brief True when tenant `i`'s session is live (false = hibernated).
  bool TenantResident(size_t i) const;

  /// \brief Number of live (non-hibernated) tenant sessions.
  size_t ResidentTenants() const;

  /// \brief Round records tenant `i` has played so far, resident or
  /// hibernated (hibernated tenants answer from the parked checkpoint).
  Result<std::vector<RoundRecord>> TenantRounds(size_t i) const;

  // -- Observability -------------------------------------------------------

  /// \brief Attaches a borrowed fleet-level metric slot (src/obs/):
  /// StepRound then records its wall time and publishes the cross-tenant
  /// quantile payoffs (trim rate, poison acceptance, quality) as gauges.
  /// Null detaches; with no slot attached StepRound takes no timestamps.
  /// Recording is write-only telemetry — aggregates and records are
  /// bit-identical with or without it.
  void AttachObservability(obs::MetricSlot* slot) { obs_slot_ = slot; }

  /// \brief Attaches per-tenant session sinks (survives hibernation: the
  /// sinks are persisted on the Tenant and re-attached on rehydration).
  /// Requires a bootstrapped fleet and a valid index. Default-constructed
  /// sinks detach.
  Status AttachTenantObservability(size_t i, const SessionObs& sinks);

  /// \brief True when the fleet is in per-tenant stepping mode.
  bool per_tenant_mode() const { return per_tenant_mode_; }

  const FleetConfig& config() const { return config_; }
  size_t num_tenants() const { return specs_.size(); }
  /// \brief 1-based index of the next lockstep round.
  int next_round() const { return next_round_; }
  bool bootstrapped() const { return bootstrapped_; }
  /// \brief Materialized tenant i (valid after a successful Bootstrap()).
  const Tenant& tenant(size_t i) const { return tenants_[i]; }

 private:
  /// Validates config + specs and rebuilds tenants_ (un-bootstrapped);
  /// marks the fleet un-steppable until the caller finishes its pass.
  Status Materialize();
  /// Reduces one lockstep round's records (tenant order) into an aggregate.
  /// Non-const: the cross-tenant quantile reduction runs in the reduce
  /// scratch below.
  FleetRoundAggregate ReduceRound(int round,
                                  const std::vector<RoundRecord>& records);
  /// FailedPrecondition in per-tenant mode (the lockstep surface:
  /// StepRound, Checkpoint, Restore).
  Status RequireLockstep() const;
  /// OutOfRange unless `i` names a materialized tenant.
  Status CheckTenantIndex(size_t i) const;

  FleetConfig config_;
  std::vector<TenantSpec> specs_;
  std::vector<Tenant> tenants_;
  int next_round_ = 1;
  bool bootstrapped_ = false;
  // Set by BeginPerTenantStepping() (single-threaded, before any worker
  // runs) and cleared by Bootstrap(); read-only while workers step.
  bool per_tenant_mode_ = false;
  // Borrowed fleet-level metric slot; null = lockstep rounds untimed.
  obs::MetricSlot* obs_slot_ = nullptr;
  // StepRound scratch, sized to the tenant count once and reused every
  // round: per-tenant result/status slots plus the reduction's rate
  // vectors. With these (and the sessions' own scratch) a steady-state
  // StepRound performs zero heap allocations at threads == 1
  // (tests/game/zero_alloc_test.cc).
  std::vector<RoundRecord> step_records_;
  std::vector<Status> step_statuses_;
  std::vector<double> reduce_trim_rates_;
  std::vector<double> reduce_acceptances_;
  std::vector<double> reduce_qualities_;
};

}  // namespace itrim

#endif  // ITRIM_FLEET_SESSION_FLEET_H_
