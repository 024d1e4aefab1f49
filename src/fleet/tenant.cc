#include "fleet/tenant.h"

#include <utility>

#include "common/rng.h"

namespace itrim {

std::string TenantModelKindName(TenantModelKind kind) {
  return ModelKindName(kind);
}

ScoreModelInputs TenantSpec::ModelInputs() const {
  ScoreModelInputs inputs;
  inputs.scalar_pool = scalar_pool;
  inputs.dataset = dataset;
  inputs.ldp_population = ldp_population;
  inputs.ldp_mechanism = ldp_mechanism;
  inputs.ldp_attack = ldp_attack;
  inputs.ldp_tth = game.tth;
  inputs.regression = regression;
  inputs.regression_poison = regression_poison;
  return inputs;
}

Status TenantSpec::Validate() const {
  ITRIM_RETURN_NOT_OK(game.Validate());
  ITRIM_RETURN_NOT_OK(ValidateScoreModelInputs(model, ModelInputs()));
  // Groundtruth tenants run with attack_ratio forced to 0 at
  // materialization, so they never draw a poison report; only the tenant
  // knows that, so the attack requirement stays here rather than in the
  // factory's per-kind check.
  if (model == TenantModelKind::kLdp && ldp_attack == nullptr &&
      game.attack_ratio > 0.0 && scheme != SchemeId::kGroundtruth) {
    return Status::InvalidArgument(
        "ldp tenant with attack_ratio > 0 needs an ldp_attack");
  }
  if (reference == TenantReferenceKind::kFittedModel) {
    if (model != TenantModelKind::kResidual) {
      return Status::InvalidArgument(
          "fitted-model reference requires the residual model kind");
    }
    if (fitted_reference.max_refits < 1) {
      return Status::InvalidArgument(
          "fitted-model reference needs max_refits >= 1");
    }
    if (!(fitted_reference.tol >= 0.0)) {
      return Status::InvalidArgument(
          "fitted-model reference needs tol >= 0");
    }
  }
  return Status::OK();
}

uint64_t DeriveTenantSeed(uint64_t fleet_seed, size_t tenant_index) {
  // Weyl-offset SplitMix64: distinct, well-mixed streams per index, and a
  // pure function of (fleet_seed, index) so scheduling cannot perturb it.
  uint64_t index = static_cast<uint64_t>(tenant_index) + 1;
  SplitMix64 stream(fleet_seed ^ (0x9E3779B97F4A7C15ULL * index));
  return stream.Next();
}

Result<Tenant> MaterializeTenant(const TenantSpec& spec, uint64_t seed) {
  ITRIM_RETURN_NOT_OK(spec.Validate());
  Tenant tenant;
  tenant.spec = spec;
  tenant.config = spec.game;
  tenant.config.seed = seed;
  if (spec.scheme == SchemeId::kGroundtruth) {
    // Clean reference tenant, as in the experiment runners.
    tenant.config.attack_ratio = 0.0;
  }
  tenant.scheme =
      MakeScheme(spec.scheme, tenant.config.tth, spec.scheme_options);

  AdversaryStrategy* adversary = tenant.scheme.adversary.get();
  ScoreModelInputs inputs = spec.ModelInputs();
  inputs.ldp_tth = tenant.config.tth;
  if (spec.model == TenantModelKind::kLdp) {
    // Poison is materialized by the attack, so the session runs without an
    // AdversaryStrategy (one would consume RNG draws the LDP report stream
    // never makes). LdpCollectionGame::RunTrimming wires its hand-built
    // session the same way.
    adversary = nullptr;
    // The symmetric band trim is defined against the board reference.
    tenant.config.round_mass_trimming = false;
  }
  ITRIM_ASSIGN_OR_RETURN(tenant.model, MakeScoreModel(spec.model, inputs));
  tenant.model->set_retain_survivors(spec.retain_survivors);
  if (spec.reference == TenantReferenceKind::kFittedModel) {
    tenant.reference =
        std::make_unique<FittedModelReference>(spec.fitted_reference);
  }
  tenant.session = std::make_unique<TrimmingSession>(
      tenant.config, tenant.model.get(), tenant.scheme.collector.get(),
      adversary, tenant.scheme.quality.get(), tenant.reference.get());
  return tenant;
}

Status HibernateTenant(Tenant* tenant) {
  if (!tenant->resident()) {
    return Status::FailedPrecondition("tenant is already hibernated");
  }
  if (!tenant->session->bootstrapped()) {
    return Status::FailedPrecondition(
        "cannot hibernate an un-bootstrapped tenant");
  }
  auto parked = std::make_unique<TenantHibernation>();
  parked->checkpoint = tenant->session->Checkpoint();
  parked->termination_round = tenant->scheme.collector->termination_round();
  // Release the live objects only after the checkpoint is safely captured;
  // the session borrows the model, reference and strategies, so it goes
  // first.
  tenant->session.reset();
  tenant->model.reset();
  tenant->reference.reset();
  tenant->scheme = SchemeInstance{};
  tenant->hibernated = std::move(parked);
  return Status::OK();
}

Status RehydrateTenant(Tenant* tenant) {
  if (tenant->resident()) {
    return Status::FailedPrecondition("tenant is already resident");
  }
  if (tenant->hibernated == nullptr) {
    return Status::FailedPrecondition(
        "tenant was never materialized/hibernated");
  }
  // Build the fresh tenant on the side so a failed restore leaves this one
  // parked and intact. The effective config's seed is the derived seed the
  // tenant originally ran with, so the rebuilt bootstrap replays the exact
  // round-0 draws the checkpoint's stream continued from.
  ITRIM_ASSIGN_OR_RETURN(Tenant fresh,
                         MaterializeTenant(tenant->spec, tenant->config.seed));
  ITRIM_RETURN_NOT_OK(fresh.session->Restore(tenant->hibernated->checkpoint));
  // Carry the observability sinks across the rebuild (the fresh session
  // starts with none attached).
  fresh.obs = tenant->obs;
  fresh.session->set_observability(fresh.obs);
  *tenant = std::move(fresh);  // drops `hibernated` (fresh's is null)
  return Status::OK();
}

}  // namespace itrim
