#include "ldp/report_score_model.h"

#include <algorithm>
#include <cmath>

#include "game/kernels.h"

namespace itrim {

Status LdpReportScoreModel::BeginRun() {
  if (population_ == nullptr || population_->empty()) {
    return Status::FailedPrecondition("empty population");
  }
  retained_.clear();
  return Status::OK();
}

Status LdpReportScoreModel::Bootstrap(size_t bootstrap_size, Rng* rng,
                                      PublicBoard* board) {
  // Clean bootstrap of honest reports fixes the percentile reference
  // (the calibration sample behind Algorithm 1's QE(X0)).
  for (size_t i = 0; i < bootstrap_size; ++i) {
    double x = (*population_)[rng->UniformInt(population_->size())];
    board->RecordOne(mechanism_->Perturb(x, rng));
  }
  return Status::OK();
}

// The attack fields a fixed head count per round, not an accrued quota.
size_t LdpReportScoreModel::PoisonCount(const GameConfig& config,
                                        double* /*quota*/) const {
  return static_cast<size_t>(std::llround(
      config.attack_ratio * static_cast<double>(config.round_size)));
}

void LdpReportScoreModel::AppendBenignBatch(size_t count, Rng* rng) {
  // Each report consumes draw-then-perturb on the engine stream; the
  // mechanism's RNG use is data-dependent, so this loop is the batch (the
  // single virtual call is the round-level win, not intra-loop SIMD).
  for (size_t i = 0; i < count; ++i) {
    double x = (*population_)[rng->UniformInt(population_->size())];
    AppendScore(mechanism_->Perturb(x, rng), false);
  }
}

Status LdpReportScoreModel::AppendPoison(double /*position*/, Rng* rng,
                                         const PublicBoard& /*board*/) {
  AppendScore(attack_->PoisonReport(*mechanism_, rng), true);
  return Status::OK();
}

double LdpReportScoreModel::ScoreObservation(
    std::span<const double> obs) const {
  // A perturbed report IS its score.
  return obs[0];
}

// Collector-side estimate of the attack position: the board rank of the
// centroid of this round's upper-tail excess (what an Elastic defender
// can actually observe).
double LdpReportScoreModel::InjectionSignal(const PublicBoard& board,
                                            double /*adversary_mean*/) const {
  double estimate = std::nan("");
  auto tail_cut = board.Quantile(tth_);
  if (tail_cut.ok()) {
    double sum = 0.0;
    size_t count = 0;
    for (double v : scores()) {
      if (v > *tail_cut) {
        sum += v;
        ++count;
      }
    }
    if (count > 0) {
      estimate = board.PercentileRank(sum / static_cast<double>(count));
    }
  }
  return estimate;
}

Status LdpReportScoreModel::TrimAtReference(double percentile,
                                            const PublicBoard& board,
                                            TrimOutcome* out) {
  ITRIM_ASSIGN_OR_RETURN(double upper_cut, board.Quantile(percentile));
  ITRIM_ASSIGN_OR_RETURN(double lower_cut, board.Quantile(1.0 - percentile));
  const std::span<const double> reports = scores();
  out->cutoff = upper_cut;
  out->keep.resize(reports.size());
  out->kept_count = kernels::MaskInBand(reports.data(), reports.size(),
                                        lower_cut, upper_cut,
                                        out->keep.data());
  out->removed_count = reports.size() - out->kept_count;
  return Status::OK();
}

void LdpReportScoreModel::Commit(std::span<const char> keep) {
  if (!retain_survivors_) return;
  const std::span<const double> reports = scores();
  for (size_t i = 0; i < reports.size(); ++i) {
    if (keep[i]) retained_.push_back(reports[i]);
  }
}

}  // namespace itrim
