// One tenant of a SessionFleet: a declarative spec and its materialized
// per-tenant game objects.
//
// The fleet serves many concurrent trimming games, and tenants are
// deliberately heterogeneous — a production collector fields scalar
// streams, d-dimensional ML feeds and LDP report channels side by side,
// each defended by its own strategy pair (the scenario space of randomized
// prediction games: a *population* of strategy mixes, not one matchup).
// TenantSpec is the declarative description (data setting, scheme, game
// shape); MaterializeTenant turns it into owned strategy/model/session
// objects so tenants can be stepped independently on any thread.
#ifndef ITRIM_FLEET_TENANT_H_
#define ITRIM_FLEET_TENANT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "exp/schemes.h"
#include "exp/score_model_factory.h"
#include "game/reference_policy.h"
#include "game/score_model.h"
#include "game/session.h"
#include "ldp/attacks.h"
#include "ldp/mechanism.h"

namespace itrim {

/// \brief Data setting a tenant's session runs in — the fleet speaks the
/// library-wide ModelKind vocabulary (exp/score_model_factory.h).
using TenantModelKind = ModelKind;

/// \brief Display name of a model kind
/// ("scalar", "distance", "ldp", "residual").
std::string TenantModelKindName(TenantModelKind kind);

/// \brief Which trim reference the tenant's session plays against.
enum class TenantReferenceKind {
  kPercentile = 0,  ///< board-quantile cutoff (the classical protocol)
  /// Model-in-the-loop: cutoff from residuals against a model refit on the
  /// round's survivor candidates (requires TenantModelKind::kResidual).
  kFittedModel,
};

/// \brief Declarative description of one fleet tenant.
///
/// Data sources are borrowed and must outlive the fleet; they are shared
/// read-only across tenants (the LDP mechanism is const and thread-safe,
/// the attack is not promised to be — give each LDP tenant its own attack
/// instance when stepping in parallel). The per-tenant `game` seed is
/// overwritten with a derived stream when the owning fleet's
/// `derive_tenant_seeds` is set (the default), so tenants never share RNG
/// streams by accident.
struct TenantSpec {
  std::string name;  ///< optional label surfaced in summaries/errors
  TenantModelKind model = TenantModelKind::kScalar;
  SchemeId scheme = SchemeId::kElastic05;
  SchemeOptions scheme_options;
  GameConfig game;
  /// When true, the tenant's score model accumulates the sanitized
  /// survivors of every round (the batch-game behavior, reachable through
  /// SessionFleet::tenant(i).model). Fleets default it OFF: the fleet
  /// product is the per-round aggregates, and an ever-growing survivor
  /// store per tenant is an unbounded memory cost times thousands of
  /// tenants — and the one per-round heap allocation left in a
  /// steady-state Step(). Round records and aggregates are bit-identical
  /// either way.
  bool retain_survivors = false;

  // Data sources, required per model kind:
  const std::vector<double>* scalar_pool = nullptr;   ///< kScalar
  const Dataset* dataset = nullptr;                   ///< kDistance
  const std::vector<double>* ldp_population = nullptr;  ///< kLdp
  const LdpMechanism* ldp_mechanism = nullptr;          ///< kLdp
  LdpAttack* ldp_attack = nullptr;                      ///< kLdp
  const RegressionData* regression = nullptr;           ///< kResidual
  PoisonShape regression_poison = PoisonShape::kFlipShift;  ///< kResidual

  /// Trim reference the session plays against; kFittedModel requires the
  /// kResidual model kind (the only setting exposing observations).
  TenantReferenceKind reference = TenantReferenceKind::kPercentile;
  FittedModelReference::Options fitted_reference;  ///< kFittedModel only

  /// \brief Assembles the factory inputs this spec describes.
  ScoreModelInputs ModelInputs() const;

  /// \brief Checks the game config, the model kind's data sources and the
  /// reference policy options.
  Status Validate() const;
};

/// \brief Compact parked state of a hibernated tenant: the session
/// checkpoint (round records + RNG) plus the one summary field the
/// checkpoint cannot reconstruct without the live collector. Everything
/// else — strategies, score-model geometry and pools, the sealed public
/// board — is rebuilt on rehydration by re-running the bootstrap.
struct TenantHibernation {
  SessionCheckpoint checkpoint;
  int termination_round = 0;
};

/// \brief A materialized tenant: owned strategies, score model and session.
///
/// Movable, not copyable. The session borrows the other members, which are
/// heap-owned, so moving a Tenant keeps every borrowed pointer valid.
///
/// A tenant is either *resident* (session/model/strategies live,
/// `hibernated` null) or *hibernated* (live objects released, state parked
/// in `hibernated`); HibernateTenant/RehydrateTenant flip between the two.
struct Tenant {
  TenantSpec spec;             ///< the spec this tenant was built from
  GameConfig config;           ///< effective config (derived seed applied)
  SchemeInstance scheme;       ///< owned collector/adversary/quality
  std::unique_ptr<ScoreModel> model;
  /// Owned trim reference; null for kPercentile tenants (the session falls
  /// back to the shared stateless default).
  std::unique_ptr<ReferencePolicy> reference;
  std::unique_ptr<TrimmingSession> session;
  std::unique_ptr<TenantHibernation> hibernated;
  /// Borrowed observability sinks (src/obs/). Persisted here — not in the
  /// session — so hibernation keeps them and RehydrateTenant re-attaches
  /// them to the rebuilt session.
  SessionObs obs;

  bool resident() const { return session != nullptr; }
};

/// \brief Deterministic per-tenant seed stream: a pure function of the
/// fleet seed and the tenant index, so materialization order and thread
/// count never influence any tenant's randomness.
uint64_t DeriveTenantSeed(uint64_t fleet_seed, size_t tenant_index);

/// \brief Builds the tenant's strategies, score model and (un-bootstrapped)
/// session from a validated spec. `seed` becomes the session seed;
/// Groundtruth tenants run with attack_ratio forced to 0 (the clean
/// reference, as in the experiment runners). LDP tenants run without an
/// AdversaryStrategy (their attack materializes poison itself) and with
/// board-reference trimming semantics.
Result<Tenant> MaterializeTenant(const TenantSpec& spec, uint64_t seed);

/// \brief Evicts a quiet tenant to its compact checkpoint: captures the
/// session state, then releases the session, score model and strategies.
/// Requires a resident, bootstrapped tenant. The tenant's spec and
/// effective config stay behind, so rehydration needs no external input.
Status HibernateTenant(Tenant* tenant);

/// \brief Rebuilds a hibernated tenant from its spec and restores the
/// parked checkpoint; the subsequent stream is bit-identical to never
/// having hibernated (the session checkpoint/restore contract). On error
/// the tenant is left untouched (still hibernated).
Status RehydrateTenant(Tenant* tenant);

}  // namespace itrim

#endif  // ITRIM_FLEET_TENANT_H_
