// The six evaluation schemes of Section VI-A: each pairs a collector
// strategy with the adversary the paper specifies for it.
//
//   Groundtruth     — no poison, no trimming (reference only).
//   Ostrich         — no defense; adversary injects at the 99th percentile.
//   Baseline 0.9    — static threshold 0.9; adversary uniform in [0.9, 1].
//   Baseline static — static threshold Tth; the ideal attack at Tth - 1%.
//   Titfortat       — soft trim Tth + 1% (hard Tth - 3% once triggered);
//                     the rational adversary plays the maximum position that
//                     still survives, i.e. the collector's threshold.
//   Elastic k       — the coupled Elastic updates with strength k
//                     (k = 0.1 and 0.5 in the paper).
#ifndef ITRIM_EXP_SCHEMES_H_
#define ITRIM_EXP_SCHEMES_H_

#include <memory>
#include <string>
#include <vector>

#include "game/quality.h"
#include "game/strategies.h"

namespace itrim {

/// \brief Identifier of an evaluation scheme.
enum class SchemeId {
  kGroundtruth = 0,
  kOstrich,
  kBaseline09,
  kBaselineStatic,
  kTitfortat,
  kElastic01,
  kElastic05,
};

/// \brief Display name matching the paper's legends.
std::string SchemeName(SchemeId id);

/// \brief A ready-to-run (collector, adversary, quality) triple.
struct SchemeInstance {
  SchemeId id;
  std::string name;
  std::unique_ptr<CollectorStrategy> collector;
  std::unique_ptr<AdversaryStrategy> adversary;
  std::unique_ptr<QualityEvaluation> quality;  ///< may be null
};

/// \brief Options tweaking scheme construction.
struct SchemeOptions {
  /// Titfortat trigger threshold on the quality score; the Fig 4/5 setup
  /// assumes no early termination, so the default never triggers.
  double titfortat_trigger_quality = -1.0;
  /// Quality-evaluation band (defect band lower / upper percentile).
  double band_lo = 0.90;
  double band_hi = 0.99;
  uint64_t seed = 1234;
};

/// \brief Builds the scheme's strategy objects for nominal threshold `tth`.
SchemeInstance MakeScheme(SchemeId id, double tth,
                          const SchemeOptions& options = {});

/// \brief All six plotted schemes, in the paper's legend order.
std::vector<SchemeId> PlottedSchemes();

/// \brief Every scheme including Groundtruth (fleet tenant populations
/// cycle through these to mix strategy pairs).
std::vector<SchemeId> AllSchemes();

}  // namespace itrim

#endif  // ITRIM_EXP_SCHEMES_H_
