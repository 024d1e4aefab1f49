// The one construction seam for score models.
//
// Every place that used to new up a concrete ScoreModel from ad-hoc
// arguments (fleet tenant materialization, the experiment pipelines, bench
// drivers) goes through MakeScoreModel: a ModelKind picks the data setting,
// ScoreModelInputs carries the borrowed data sources, and
// ValidateScoreModelInputs is the shared per-kind option check — so a new
// kind (like the residual regression setting, or future vector-valued
// settings) plugs in here once and every construction site can serve it.
#ifndef ITRIM_EXP_SCORE_MODEL_FACTORY_H_
#define ITRIM_EXP_SCORE_MODEL_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "game/score_model.h"
#include "ldp/attacks.h"
#include "ldp/mechanism.h"
#include "ml/linreg.h"
#include "ml/residual_score_model.h"

namespace itrim {

/// \brief Data setting a score model serves.
enum class ModelKind {
  kScalar = 0,  ///< IdentityScoreModel over a shared value pool
  kDistance,    ///< DistanceScoreModel over a shared Dataset
  kLdp,         ///< LdpReportScoreModel over population + mechanism + attack
  kResidual,    ///< ResidualScoreModel over shared RegressionData
};

/// \brief Display name of a model kind
/// ("scalar" / "distance" / "ldp" / "residual").
std::string ModelKindName(ModelKind kind);

/// \brief Borrowed data sources for MakeScoreModel; only the fields of the
/// requested kind are read. All pointers must outlive the built model.
struct ScoreModelInputs {
  const std::vector<double>* scalar_pool = nullptr;  ///< kScalar
  const Dataset* dataset = nullptr;                  ///< kDistance
  const std::vector<double>* ldp_population = nullptr;  ///< kLdp
  const LdpMechanism* ldp_mechanism = nullptr;          ///< kLdp
  /// kLdp; may stay null for attack-free runs (the kind check does not
  /// require it — whether an attack is needed depends on the game's
  /// attack_ratio and scheme, which the caller owns).
  LdpAttack* ldp_attack = nullptr;
  double ldp_tth = 0.9;  ///< kLdp: nominal threshold of the band trim
  const RegressionData* regression = nullptr;  ///< kResidual
  PoisonShape regression_poison = PoisonShape::kFlipShift;  ///< kResidual
};

/// \brief Per-kind input check (the shared half of TenantSpec::Validate):
/// verifies the kind's required data sources are present and non-empty.
Status ValidateScoreModelInputs(ModelKind kind,
                                const ScoreModelInputs& inputs);

/// \brief Builds a score model of `kind` over `inputs` (validated first).
Result<std::unique_ptr<ScoreModel>> MakeScoreModel(
    ModelKind kind, const ScoreModelInputs& inputs);

}  // namespace itrim

#endif  // ITRIM_EXP_SCORE_MODEL_FACTORY_H_
