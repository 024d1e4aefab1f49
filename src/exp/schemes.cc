#include "exp/schemes.h"

namespace itrim {

std::string SchemeName(SchemeId id) {
  switch (id) {
    case SchemeId::kGroundtruth:
      return "Groundtruth";
    case SchemeId::kOstrich:
      return "Ostrich";
    case SchemeId::kBaseline09:
      return "Baseline0.9";
    case SchemeId::kBaselineStatic:
      return "Baselinestatic";
    case SchemeId::kTitfortat:
      return "Titfortat";
    case SchemeId::kElastic01:
      return "Elastic0.1";
    case SchemeId::kElastic05:
      return "Elastic0.5";
  }
  return "unknown";
}

SchemeInstance MakeScheme(SchemeId id, double tth,
                          const SchemeOptions& options) {
  SchemeInstance s;
  s.id = id;
  s.name = SchemeName(id);
  switch (id) {
    case SchemeId::kGroundtruth:
      // Clean reference: no trimming; pair with a dormant adversary (the
      // runner sets attack_ratio = 0 for this scheme).
      s.collector = std::make_unique<OstrichCollector>();
      s.adversary = std::make_unique<FixedPercentileAdversary>(0.99);
      break;
    case SchemeId::kOstrich:
      s.collector = std::make_unique<OstrichCollector>();
      s.adversary = std::make_unique<FixedPercentileAdversary>(0.99);
      break;
    case SchemeId::kBaseline09:
      s.collector = std::make_unique<StaticCollector>(0.9, "Baseline0.9");
      s.adversary = std::make_unique<UniformRangeAdversary>(0.9, 1.0);
      break;
    case SchemeId::kBaselineStatic:
      s.collector = std::make_unique<StaticCollector>(tth, "Baselinestatic");
      s.adversary = std::make_unique<ThresholdOffsetAdversary>(-0.01);
      break;
    case SchemeId::kTitfortat:
      s.collector = std::make_unique<TitfortatCollector>(
          +0.01, -0.03, options.titfortat_trigger_quality);
      // The Theorem-3-compliant adversary: under the trigger threat it
      // concedes the utility compromise delta and plays the soft position
      // Tth - 3% (the same concession the Elastic equilibrium converges
      // to), keeping the quality evaluation clear of the defect band.
      s.adversary = std::make_unique<FixedPercentileAdversary>(tth - 0.03);
      // Band edges are percentile *positions* (the distance game's score
      // domain), hence the absolute cutoff mode.
      s.quality = std::make_unique<DefectShareQuality>(
          options.band_lo, options.band_hi,
          DefectShareQuality::CutoffMode::kAbsolute);
      break;
    case SchemeId::kElastic01:
      s.collector = std::make_unique<ElasticCollector>(0.1);
      s.adversary = std::make_unique<ElasticAdversary>(0.1);
      break;
    case SchemeId::kElastic05:
      s.collector = std::make_unique<ElasticCollector>(0.5);
      s.adversary = std::make_unique<ElasticAdversary>(0.5);
      break;
  }
  return s;
}

std::vector<SchemeId> PlottedSchemes() {
  return {SchemeId::kOstrich,    SchemeId::kBaseline09,
          SchemeId::kBaselineStatic, SchemeId::kTitfortat,
          SchemeId::kElastic01,  SchemeId::kElastic05};
}

std::vector<SchemeId> AllSchemes() {
  std::vector<SchemeId> all = {SchemeId::kGroundtruth};
  for (SchemeId id : PlottedSchemes()) all.push_back(id);
  return all;
}

}  // namespace itrim
