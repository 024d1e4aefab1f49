#include "fleet/tenant.h"

#include <utility>

#include "common/rng.h"
#include "ldp/report_score_model.h"

namespace itrim {

std::string TenantModelKindName(TenantModelKind kind) {
  switch (kind) {
    case TenantModelKind::kScalar:
      return "scalar";
    case TenantModelKind::kDistance:
      return "distance";
    case TenantModelKind::kLdp:
      return "ldp";
    case TenantModelKind::kResidual:
      return "residual";
  }
  return "unknown";
}

namespace {

// Verifies the model kind's required data sources are present and
// non-empty.
Status ValidateDataSources(const TenantSpec& spec) {
  switch (spec.model) {
    case TenantModelKind::kScalar:
      if (spec.scalar_pool == nullptr || spec.scalar_pool->empty()) {
        return Status::InvalidArgument(
            "scalar model needs a non-empty scalar_pool");
      }
      break;
    case TenantModelKind::kDistance:
      if (spec.dataset == nullptr || spec.dataset->rows.empty()) {
        return Status::InvalidArgument(
            "distance model needs a non-empty dataset");
      }
      break;
    case TenantModelKind::kLdp:
      if (spec.ldp_population == nullptr || spec.ldp_population->empty()) {
        return Status::InvalidArgument(
            "ldp model needs a non-empty ldp_population");
      }
      if (spec.ldp_mechanism == nullptr) {
        return Status::InvalidArgument("ldp model needs an ldp_mechanism");
      }
      break;
    case TenantModelKind::kResidual:
      if (spec.regression == nullptr || spec.regression->size() == 0) {
        return Status::InvalidArgument(
            "residual model needs non-empty regression data");
      }
      if (spec.regression->dims == 0) {
        return Status::InvalidArgument(
            "residual model needs regression data with dims >= 1");
      }
      if (spec.regression->xs.size() !=
          spec.regression->size() * spec.regression->dims) {
        return Status::InvalidArgument(
            "residual model regression data shape mismatch (xs must hold "
            "size() * dims doubles)");
      }
      break;
  }
  return Status::OK();
}

// Builds the score model of a validated spec over its borrowed sources.
std::unique_ptr<ScoreModel> MakeScoreModel(const TenantSpec& spec) {
  switch (spec.model) {
    case TenantModelKind::kScalar:
      return std::make_unique<IdentityScoreModel>(spec.scalar_pool);
    case TenantModelKind::kDistance:
      return std::make_unique<DistanceScoreModel>(spec.dataset);
    case TenantModelKind::kLdp:
      return std::make_unique<LdpReportScoreModel>(
          spec.ldp_population, spec.ldp_mechanism, spec.ldp_attack,
          spec.game.tth);
    case TenantModelKind::kResidual:
      return std::make_unique<ResidualScoreModel>(spec.regression,
                                                  spec.regression_poison);
  }
  return nullptr;
}

}  // namespace

Status TenantSpec::Validate() const {
  ITRIM_RETURN_NOT_OK(game.Validate());
  ITRIM_RETURN_NOT_OK(ValidateDataSources(*this));
  // Groundtruth tenants run with attack_ratio forced to 0 at
  // materialization, so they never draw a poison report.
  if (model == TenantModelKind::kLdp && ldp_attack == nullptr &&
      game.attack_ratio > 0.0 && scheme != SchemeId::kGroundtruth) {
    return Status::InvalidArgument(
        "ldp tenant with attack_ratio > 0 needs an ldp_attack");
  }
  if (reference == TenantReferenceKind::kRoundMass &&
      model == TenantModelKind::kLdp) {
    return Status::InvalidArgument(
        "round-mass reference is undefined for the ldp model kind (its band "
        "trim is defined against the board reference)");
  }
  if (reference == TenantReferenceKind::kFittedModel) {
    if (model != TenantModelKind::kResidual) {
      return Status::InvalidArgument(
          "fitted-model reference requires the residual model kind");
    }
    ITRIM_RETURN_NOT_OK(fitted_reference.Validate());
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

  // LDP poison is materialized by the attack, so the session runs without
  // an AdversaryStrategy (one would consume RNG draws the LDP report stream
  // never makes). LdpCollectionGame::RunTrimming wires its hand-built
  // session the same way.
  AdversaryStrategy* adversary = spec.model == TenantModelKind::kLdp
                                     ? nullptr
                                     : tenant.scheme.adversary.get();
  tenant.model = MakeScoreModel(spec);
  tenant.model->set_retain_survivors(spec.retain_survivors);
  switch (spec.reference) {
    case TenantReferenceKind::kPercentile:
      break;
    case TenantReferenceKind::kFittedModel:
      tenant.reference =
          std::make_unique<FittedModelReference>(spec.fitted_reference);
      break;
    case TenantReferenceKind::kRoundMass:
      tenant.reference = std::make_unique<RoundMassReference>();
      break;
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
