#include "ldp/ldp_game.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/math_util.h"
#include "game/public_board.h"
#include "game/score_model.h"
#include "game/session.h"
#include "game/trimmer.h"
#include "ldp/report_score_model.h"

namespace itrim {

LdpCollectionGame::LdpCollectionGame(GameConfig config,
                                     const std::vector<double>* population,
                                     const LdpMechanism* mechanism,
                                     LdpAttack* attack)
    : config_(config), config_status_(config.Validate()),
      population_(population), mechanism_(mechanism), attack_(attack) {
  assert(population != nullptr && mechanism != nullptr && attack != nullptr);
}

double LdpCollectionGame::TrueMean() const { return Mean(*population_); }

void LdpCollectionGame::ReportBounds(double* lo, double* hi) const {
  *lo = mechanism_->report_lo();
  *hi = mechanism_->report_hi();
  if (!std::isfinite(*lo) || !std::isfinite(*hi)) {
    // Laplace reports are unbounded; cover all but a negligible tail.
    double spread = 1.0 + 2.0 / mechanism_->epsilon() * 8.0;
    *lo = -spread;
    *hi = spread;
  }
}

void LdpCollectionGame::GenerateRound(Rng* rng, std::vector<double>* reports,
                                      std::vector<char>* is_poison) const {
  const size_t attackers = static_cast<size_t>(std::llround(
      config_.attack_ratio * static_cast<double>(config_.round_size)));
  reports->clear();
  is_poison->clear();
  reports->reserve(config_.round_size + attackers);
  is_poison->reserve(config_.round_size + attackers);
  for (size_t i = 0; i < config_.round_size; ++i) {
    double x = (*population_)[rng->UniformInt(population_->size())];
    reports->push_back(mechanism_->Perturb(x, rng));
    is_poison->push_back(0);
  }
  for (size_t i = 0; i < attackers; ++i) {
    reports->push_back(attack_->PoisonReport(*mechanism_, rng));
    is_poison->push_back(1);
  }
}

Result<LdpRunResult> LdpCollectionGame::RunTrimming(
    CollectorStrategy* collector, QualityEvaluation* quality) {
  ITRIM_RETURN_NOT_OK(config_status_);
  LdpReportScoreModel model(population_, mechanism_, attack_, config_.tth);
  TrimmingSession session(config_, &model, collector, /*adversary=*/nullptr,
                          quality);
  LdpRunResult result;
  ITRIM_ASSIGN_OR_RETURN(result.game, session.RunToCompletion());
  result.true_mean = TrueMean();

  double kept_sum = 0.0;
  for (double v : model.retained()) kept_sum += v;
  const size_t kept_count = model.retained().size();
  result.estimated_mean =
      kept_count > 0 ? kept_sum / static_cast<double>(kept_count) : 0.0;
  double err = result.estimated_mean - result.true_mean;
  result.squared_error = err * err;
  return result;
}

Result<LdpRunResult> LdpCollectionGame::RunEmf(const EmfConfig& emf_config) {
  ITRIM_RETURN_NOT_OK(config_status_);
  if (population_->empty()) {
    return Status::FailedPrecondition("empty population");
  }
  Rng rng(config_.seed);
  std::vector<double> all_reports;
  std::vector<double> reports;
  std::vector<char> is_poison;
  for (int round = 1; round <= config_.rounds; ++round) {
    GenerateRound(&rng, &reports, &is_poison);
    all_reports.insert(all_reports.end(), reports.begin(), reports.end());
  }

  // The collector knows the protocol, so the conditional report model is
  // public knowledge; EMF needs no clean calibration sample.
  double lo, hi;
  ReportBounds(&lo, &hi);
  ReportModel model;
  ITRIM_ASSIGN_OR_RETURN(
      model, ReportModel::Build(*mechanism_, lo, hi, /*input_bins=*/20,
                                /*report_bins=*/40, /*samples_per_bin=*/4000,
                                config_.seed ^ 0xE3F1ULL));
  EmfResult fit;
  ITRIM_ASSIGN_OR_RETURN(fit, FitEmFilter(model, all_reports, emf_config));

  LdpRunResult result;
  result.true_mean = TrueMean();
  result.estimated_mean = fit.WeightedMean(all_reports);
  result.emf_beta = fit.beta;
  double err = result.estimated_mean - result.true_mean;
  result.squared_error = err * err;
  return result;
}

Result<LdpRunResult> LdpCollectionGame::RunUndefended() {
  ITRIM_RETURN_NOT_OK(config_status_);
  if (population_->empty()) {
    return Status::FailedPrecondition("empty population");
  }
  Rng rng(config_.seed);
  double sum = 0.0;
  size_t count = 0;
  std::vector<double> reports;
  std::vector<char> is_poison;
  for (int round = 1; round <= config_.rounds; ++round) {
    GenerateRound(&rng, &reports, &is_poison);
    for (double v : reports) {
      sum += v;
      ++count;
    }
  }
  LdpRunResult result;
  result.true_mean = TrueMean();
  result.estimated_mean = count > 0 ? sum / static_cast<double>(count) : 0.0;
  double err = result.estimated_mean - result.true_mean;
  result.squared_error = err * err;
  return result;
}

}  // namespace itrim
