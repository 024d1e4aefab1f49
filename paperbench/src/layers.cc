// Per-layer probes of the traced run: each times one public call of one
// module on a small per-kind fleet or standalone session, so a change to
// that module shows here even when the end-to-end figures blur it.
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fleet/tenant.h"
#include "game/reference_policy.h"
#include "game/score_model.h"
#include "ingest/ingest.h"
#include "obs/export.h"
#include "stats.h"
#include "workloads.h"

namespace paperbench {
namespace {

constexpr size_t kProbeTenants = 12;
constexpr int kProbeRounds = 20;
constexpr int kProbeCycles = 4;
constexpr size_t kObsRows = kRoundSize + kRoundSize / 10;  // one round + poison

// Keeps a computed value alive so the timed loop producing it stays.
inline void KeepAlive(double value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

template <typename F>
double TimeUs(F&& f) {
  const int64_t t0 = NowNs();
  f();
  return MicrosBetween(t0, NowNs());
}

// One round's worth of raw observations for `kind`, laid out as the kind's
// score model reads them (ObsWidth() doubles per row).
std::vector<double> RoundObservations(const Fixture& fx, Kind kind) {
  std::vector<double> obs;
  itrim::Rng rng(fx.seed + 7);
  for (size_t r = 0; r < kObsRows; ++r) {
    switch (kind) {
      case Kind::kScalar:
        obs.push_back(fx.taxi[r]);
        break;
      case Kind::kDistance:
        obs.insert(obs.end(), fx.control.rows[r].begin(),
                   fx.control.rows[r].end());
        break;
      case Kind::kLdp:
        obs.push_back(fx.mechanism.Perturb(fx.population[r], &rng));
        break;
      case Kind::kResidual:
      case Kind::kFitted: {
        const size_t d = fx.regression.dims;
        obs.insert(obs.end(), fx.regression.xs.begin() + r * d,
                   fx.regression.xs.begin() + (r + 1) * d);
        obs.push_back(fx.regression.ys[r]);
        break;
      }
    }
  }
  return obs;
}

struct KindProbe {
  std::vector<Metric> metrics;
  std::string error;
  void Add(const std::string& name, double value, const char* unit,
           const char* moves) {
    metrics.push_back({name, value, unit, moves});
  }
  bool Check(const itrim::Status& status, const char* what) {
    if (!status.ok() && error.empty()) {
      error = std::string(what) + ": " + status.ToString();
    }
    return status.ok();
  }
};

// fleet.* on a one-kind mini-fleet, game.* on a standalone session.
void ProbeKind(const Fixture& fx, Kind kind, KindProbe* out) {
  const std::string k = KindName(kind);
  // -- fleet: bootstrap, per-tenant step, hibernate, rehydrate.
  FleetSpecs specs = KindSpecs(fx, kind, kProbeTenants);
  itrim::FleetConfig config;
  config.threads = 1;
  config.seed = fx.seed + 11;
  SessionFleet fleet(config, specs.specs);
  itrim::Status status;
  const double boot_us = TimeUs([&] { status = fleet.Bootstrap(); });
  if (!out->Check(status, "probe bootstrap") ||
      !out->Check(fleet.BeginPerTenantStepping(), "probe per-tenant mode")) {
    return;
  }
  std::vector<double> step_us, hibernate_us, rehydrate_us;
  for (int r = 0; r < kProbeRounds; ++r) {
    for (size_t i = 0; i < kProbeTenants; ++i) {
      step_us.push_back(TimeUs([&] { status = fleet.StepTenant(i).status(); }));
      if (!out->Check(status, "probe step")) return;
    }
  }
  for (int c = 0; c < kProbeCycles; ++c) {
    for (size_t i = 0; i < kProbeTenants; ++i) {
      hibernate_us.push_back(
          TimeUs([&] { status = fleet.HibernateTenant(i); }));
      if (!out->Check(status, "probe hibernate")) return;
      rehydrate_us.push_back(
          TimeUs([&] { status = fleet.RehydrateTenant(i); }));
      if (!out->Check(status, "probe rehydrate")) return;
    }
  }
  out->Add("fleet.bootstrap_us." + k, boot_us / kProbeTenants, "us",
           "every workload/setup_s");
  out->Add("fleet.step_tenant_us." + k, Median(step_us), "us",
           "steady-mix/cpu_us_per_round");
  out->Add("fleet.hibernate_us." + k, Median(hibernate_us), "us",
           "cold-churn/cpu_us_per_round");
  out->Add("fleet.rehydrate_us." + k, Median(rehydrate_us), "us",
           "cold-churn/trip_cpu_p90_us");

  // -- game: standalone sessions, one per scheme (the first six specs), so
  // the step median matches the fleet's scheme mix; the last one also
  // serves checkpoint, restore and scoring.
  std::vector<itrim::Tenant> sessions;
  std::vector<double> session_us;
  for (size_t i = 0; i < 6; ++i) {
    auto tenant = itrim::MaterializeTenant(specs.specs[i], fx.seed + 13 + i);
    if (!out->Check(tenant.status(), "probe materialize")) return;
    sessions.push_back(std::move(tenant).ValueOrDie());
    itrim::TrimmingSession& session = *sessions.back().session;
    if (!out->Check(session.Bootstrap(), "probe session bootstrap")) return;
    for (int r = 0; r < kProbeRounds; ++r) {
      session_us.push_back(TimeUs([&] { status = session.Step().status(); }));
      if (!out->Check(status, "probe session step")) return;
    }
  }
  itrim::Tenant& t = sessions.back();
  std::vector<double> checkpoint_us, restore_us;
  for (int c = 0; c < 2 * kProbeCycles; ++c) {
    itrim::SessionCheckpoint checkpoint;
    checkpoint_us.push_back(
        TimeUs([&] { checkpoint = t.session->Checkpoint(); }));
    auto fresh = itrim::MaterializeTenant(t.spec, t.config.seed);
    if (!out->Check(fresh.status(), "probe restore materialize")) return;
    restore_us.push_back(TimeUs(
        [&] { status = fresh.ValueOrDie().session->Restore(checkpoint); }));
    if (!out->Check(status, "probe restore")) return;
  }
  out->Add("game.session_step_us." + k, Median(session_us), "us",
           "steady-mix/cpu_us_per_round");
  out->Add("game.checkpoint_us." + k, Median(checkpoint_us), "us",
           "cold-churn/cpu_us_per_round");
  out->Add("game.restore_us." + k, Median(restore_us), "us",
           "cold-churn/cpu_us_per_round");

  if (kind == Kind::kFitted) {
    // The fitted reference: refit plus trim on the round the session just
    // played (the model still holds it).
    itrim::FittedModelReference reference;
    itrim::TrimOutcome outcome;
    std::vector<double> trim_us;
    for (int r = 0; r < kProbeRounds; ++r) {
      trim_us.push_back(TimeUs([&] {
        status = reference.TrimRound(0.9, t.model.get(), t.session->board(),
                                     &outcome);
      }));
      if (!out->Check(status, "probe fitted trim")) return;
    }
    out->Add("ml.fitted_trim_us", Median(trim_us), "us",
             "lockstep-fitted/cpu_us_per_round");
    return;  // scoring is the residual model's, probed under "residual"
  }
  const std::vector<double> obs = RoundObservations(fx, kind);
  std::vector<double> scores(kObsRows);
  std::vector<double> score_ns;
  constexpr int kScoreReps = 50;  // one round scores in well under 1 us
  for (int r = 0; r < kProbeRounds; ++r) {
    score_ns.push_back(TimeUs([&] {
                         for (int rep = 0; rep < kScoreReps; ++rep) {
                           status = t.model->ScoreInto(obs, scores);
                         }
                       }) *
                       1e3 / (kScoreReps * kObsRows));
    if (!out->Check(status, "probe score")) return;
  }
  out->Add("game.score_ns_per_row." + k, Median(score_ns), "ns",
           "steady-mix/cpu_us_per_round");

  if (kind == Kind::kScalar) {
    // Board order statistics: alternating quantile and rank queries.
    const itrim::PublicBoard& board = t.session->board();
    std::vector<double> query_ns;
    double sink = 0.0;
    for (int r = 0; r < kProbeRounds; ++r) {
      query_ns.push_back(TimeUs([&] {
        for (size_t q = 0; q < 1000; ++q) {
          const double x = static_cast<double>(q) / 1000.0;
          sink += board.Quantile(x).ValueOr(0.0) + board.PercentileRank(x);
        }
      }) * 1e3 / 2000.0);
    }
    KeepAlive(sink);
    out->Add("game.board_query_ns", Median(query_ns), "ns",
             "steady-mix/cpu_us_per_round");
  }
}

// LDP perturbation, closed-form refit, fleet thread scaling, scraping.
void ProbeShared(const Fixture& fx, KindProbe* out) {
  itrim::Rng rng(fx.seed + 17);
  std::vector<double> perturb_ns;
  double sink = 0.0;
  for (int r = 0; r < kProbeRounds; ++r) {
    perturb_ns.push_back(TimeUs([&] {
      for (size_t i = 0; i < 1000; ++i) {
        sink += fx.mechanism.Perturb(fx.population[i], &rng);
      }
    }) * 1e3 / 1000.0);
  }
  KeepAlive(sink);
  out->Add("ldp.perturb_ns_per_report", Median(perturb_ns), "ns",
           "steady-mix/cpu_us_per_round");

  const size_t d = fx.regression.dims;
  const std::span<const double> xs(fx.regression.xs.data(), kObsRows * d);
  const std::span<const double> ys(fx.regression.ys.data(), kObsRows);
  itrim::LinearRegressor regressor;
  itrim::LinearModel model;
  itrim::Status status;
  std::vector<double> refit_us;
  for (int r = 0; r < 4 * kProbeRounds; ++r) {
    refit_us.push_back(
        TimeUs([&] { status = regressor.FitClosedForm(xs, ys, d, &model); }));
    if (!out->Check(status, "probe refit")) return;
  }
  out->Add("ml.refit_us", Median(refit_us), "us",
           "lockstep-fitted/cpu_us_per_round");

  // 1-thread over 2-thread StepRound time on the same fitted fleet shape.
  double step_round_us[2] = {0.0, 0.0};
  for (int threads = 1; threads <= 2; ++threads) {
    FleetSpecs specs = KindSpecs(fx, Kind::kFitted, 128);
    itrim::FleetConfig config;
    config.threads = threads;
    config.seed = fx.seed + 19;
    SessionFleet fleet(config, std::move(specs.specs));
    if (!out->Check(fleet.Bootstrap(), "probe scaling bootstrap")) return;
    std::vector<double> us;
    for (int r = 0; r < 12; ++r) {
      us.push_back(TimeUs([&] { status = fleet.StepRound().status(); }));
      if (!out->Check(status, "probe scaling step")) return;
    }
    us.erase(us.begin(), us.begin() + 2);  // first rounds warm the scratch
    step_round_us[threads - 1] = Median(us);
  }
  out->Add("fleet.step_round_us", step_round_us[1], "us",
           "lockstep-fitted/trip_cpu_p50_us");
  out->Add("fleet.thread_scaling", step_round_us[0] / step_round_us[1],
           "ratio", "lockstep-fitted/cpu_us_per_round");

  // Scrape and Prometheus export of a small live service's registry.
  FleetSpecs specs = KindSpecs(fx, Kind::kScalar, 16);
  itrim::FleetConfig config;
  config.threads = 1;
  config.seed = fx.seed + 23;
  SessionFleet fleet(config, std::move(specs.specs));
  if (!out->Check(fleet.Bootstrap(), "probe obs bootstrap")) return;
  itrim::IngestConfig ingest;
  ingest.shards = 2;
  itrim::IngestService service(ingest, &fleet);
  if (!out->Check(service.Start(), "probe obs start")) return;
  for (uint64_t i = 0; i < 16; ++i) {
    if (!out->Check(service.Submit({i, static_cast<uint32_t>(kRoundSize)}),
                    "probe obs submit")) {
      return;
    }
  }
  if (!out->Check(service.Flush(), "probe obs flush")) return;
  std::vector<double> scrape_us, prom_us;
  size_t bytes = 0;
  for (int r = 0; r < kProbeRounds; ++r) {
    itrim::obs::MetricsSnapshot snap;
    scrape_us.push_back(TimeUs([&] { snap = service.Scrape(); }));
    prom_us.push_back(
        TimeUs([&] { bytes += itrim::obs::PrometheusText(snap).size(); }));
  }
  if (bytes == 0) out->error = "empty Prometheus export";
  out->Check(service.Stop(), "probe obs stop");
  out->Add("obs.scrape_us", Median(scrape_us), "us",
           "steady-mix/cpu_us_per_round");
  out->Add("obs.prometheus_us", Median(prom_us), "us",
           "steady-mix/cpu_us_per_round");
}

}  // namespace

std::vector<Metric> ProbeLayers(const Fixture& fixture, std::string* error) {
  KindProbe probe;
  for (int k = 0; k < kNumKinds && probe.error.empty(); ++k) {
    ProbeKind(fixture, static_cast<Kind>(k), &probe);
  }
  if (probe.error.empty()) ProbeShared(fixture, &probe);
  *error = probe.error;
  return probe.metrics;
}

}  // namespace paperbench
