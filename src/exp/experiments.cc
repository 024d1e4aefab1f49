#include "exp/experiments.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>

#include "common/math_util.h"
#include "common/thread_pool.h"
#include "data/generators.h"
#include "fleet/tenant.h"
#include "game/reference_policy.h"
#include "game/score_model.h"
#include "game/session.h"
#include "ldp/attacks.h"
#include "ldp/ldp_game.h"
#include "ldp/mechanism.h"
#include "ml/som.h"
#include "ml/svm.h"
#include "stats/metrics.h"

namespace itrim {

namespace {

// Builds the per-run game configuration shared by the ML experiments.
GameConfig MakeGameConfig(int rounds, size_t round_size, double attack_ratio,
                          double tth, uint64_t seed) {
  GameConfig g;
  g.rounds = rounds;
  g.round_size = round_size;
  g.attack_ratio = attack_ratio;
  g.tth = tth;
  g.bootstrap_size = std::max<size_t>(200, round_size);
  g.seed = seed;
  return g;
}

// Declares one scheme-driven arm of the ML experiments: `id` plays over the
// distance model of `data`, keeping its survivors for the model fit. The
// paper's MATLAB pipeline trims each round with prctile on the received
// data, i.e. removes the top (1 - T) mass fraction of the round, so every
// ML arm plays the round-mass trim.
TenantSpec DistanceArmSpec(const Dataset* data, SchemeId id,
                           const SchemeOptions& options,
                           const GameConfig& game) {
  TenantSpec spec;
  spec.model = TenantModelKind::kDistance;
  spec.reference = TenantReferenceKind::kRoundMass;
  spec.scheme = id;
  spec.scheme_options = options;
  spec.game = game;
  spec.retain_survivors = true;
  spec.dataset = data;
  return spec;
}

// Runs `body(arm)` for every arm in [0, n) across `threads` jobs and
// returns the first (lowest-arm) reported non-OK status, or OK. Each arm
// must be self-contained: it derives its own Rng streams and writes only
// into its own result slot, so the reduction the caller performs
// afterwards — in arm order — is bit-identical to the serial loop at any
// thread count. Once any arm fails, arms not yet started are skipped (the
// whole experiment is aborted anyway); when several arms would fail, which
// one is reported may therefore vary with scheduling.
Status ParallelArms(size_t n, int threads,
                    const std::function<Status(size_t)>& body) {
  std::vector<Status> statuses(n);
  std::atomic<bool> failed{false};
  ParallelFor(
      n,
      [&](size_t arm) {
        if (failed.load(std::memory_order_relaxed)) return;
        Status s = body(arm);
        if (!s.ok()) {
          statuses[arm] = std::move(s);
          failed.store(true, std::memory_order_relaxed);
        }
      },
      threads);
  if (failed.load()) {
    for (const Status& s : statuses) {
      if (!s.ok()) return s;
    }
  }
  return Status::OK();
}

// Clamps a repetition count to [0, n]; negative configs (e.g. a bad
// ITRIM_BENCH_REPS) must degrade to zero arms, as the serial loops did,
// not wrap through size_t into a gigantic allocation.
size_t ClampReps(int repetitions) {
  return repetitions > 0 ? static_cast<size_t>(repetitions) : 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// Fig 4 / Fig 5 — k-means
// ---------------------------------------------------------------------------

Result<KmeansExperimentResult> RunKmeansExperiment(
    const KmeansExperimentConfig& config) {
  Dataset data;
  ITRIM_ASSIGN_OR_RETURN(
      data, MakeByName(config.dataset, config.seed, config.dataset_scale));

  Rng rng(config.seed ^ 0xABCDEF12345ULL);
  Dataset eval_set = SampleWithReplacement(data, config.eval_size, &rng);

  KMeansConfig km;
  km.k = data.num_clusters;
  km.restarts = 3;
  km.seed = config.seed ^ 0x5555AAAAULL;

  // Ground-truth model from clean data of the same volume a scheme retains
  // (rounds x round_size resamples), so SSE comparisons are size-matched.
  Dataset gt_train = SampleWithReplacement(
      data, static_cast<size_t>(config.rounds) * config.round_size, &rng);
  KMeansResult gt;
  ITRIM_ASSIGN_OR_RETURN(gt, KMeans(gt_train.rows, km));
  KmeansExperimentResult result;
  result.groundtruth_sse = EvaluateSse(eval_set.rows, gt.centroids);

  // Every (scheme, ratio, repetition) arm is independent: it builds its own
  // strategies, game and model from arm-local seeds and reads the shared
  // datasets only. Fan all arms out at once and reduce in loop order.
  const std::vector<SchemeId> schemes = PlottedSchemes();
  const size_t n_ratios = config.attack_ratios.size();
  const size_t n_reps = ClampReps(config.repetitions);
  struct ArmOut {
    double sse = 0.0;
    double distance = 0.0;
  };
  std::vector<ArmOut> arms(schemes.size() * n_ratios * n_reps);

  Status run_status = ParallelArms(
      arms.size(), config.threads, [&](size_t arm) -> Status {
        const int rep = static_cast<int>(arm % n_reps);
        const double ratio = config.attack_ratios[(arm / n_reps) % n_ratios];
        const SchemeId id = schemes[arm / (n_reps * n_ratios)];

        SchemeOptions opts;
        opts.seed = config.seed + static_cast<uint64_t>(rep) * 7919;
        GameConfig game_config = MakeGameConfig(
            config.rounds, config.round_size, ratio, config.tth,
            config.seed + static_cast<uint64_t>(rep) * 104729 +
                static_cast<uint64_t>(id) * 31 +
                static_cast<uint64_t>(ratio * 10000.0) * 131);
        ITRIM_ASSIGN_OR_RETURN(
            Tenant tenant,
            MaterializeTenant(DistanceArmSpec(&data, id, opts, game_config),
                              game_config.seed));
        ITRIM_RETURN_NOT_OK(tenant.session->RunToCompletion().status());
        const Dataset& retained =
            static_cast<const DistanceScoreModel&>(*tenant.model)
                .retained_data();
        if (retained.rows.size() < km.k) {
          return Status::Internal("scheme " + SchemeName(id) +
                                  " retained too few rows");
        }
        KMeansConfig km_run = km;
        km_run.seed = km.seed + static_cast<uint64_t>(rep) * 13;
        KMeansResult model;
        ITRIM_ASSIGN_OR_RETURN(model, KMeans(retained.rows, km_run));
        arms[arm].sse = EvaluateSse(eval_set.rows, model.centroids);
        arms[arm].distance =
            CentroidSetDistance(model.centroids, gt.centroids);
        return Status::OK();
      });
  ITRIM_RETURN_NOT_OK(run_status);

  size_t arm = 0;
  for (SchemeId id : schemes) {
    KmeansSeries series;
    series.scheme = SchemeName(id);
    for (size_t ri = 0; ri < n_ratios; ++ri) {
      double sse_acc = 0.0, dist_acc = 0.0;
      for (size_t rep = 0; rep < n_reps; ++rep, ++arm) {
        sse_acc += arms[arm].sse;
        dist_acc += arms[arm].distance;
      }
      KmeansPoint point;
      point.attack_ratio = config.attack_ratios[ri];
      point.sse = sse_acc / config.repetitions;
      point.distance = dist_acc / config.repetitions;
      series.points.push_back(point);
    }
    result.series.push_back(std::move(series));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Fig 6a / Fig 7 — SVM
// ---------------------------------------------------------------------------

Result<SvmExperimentResult> RunSvmExperiment(const SvmExperimentConfig& c) {
  Dataset data = MakeControl(c.seed, std::max<size_t>(
                                        3, static_cast<size_t>(
                                               100 * c.dataset_scale)));
  SvmConfig svm_config;
  svm_config.c = 1.0;
  svm_config.seed = c.seed ^ 0x77;

  SvmExperimentResult result;
  {
    LinearSvm gt_model;
    ITRIM_ASSIGN_OR_RETURN(gt_model, LinearSvm::Train(data, svm_config));
    result.groundtruth_accuracy = gt_model.Evaluate(data);
    ConfusionMatrix cm(data.num_clusters);
    for (size_t i = 0; i < data.rows.size(); ++i) {
      cm.Add(static_cast<size_t>(data.labels[i]),
             static_cast<size_t>(gt_model.Predict(data.rows[i])));
    }
    for (size_t cls = 0; cls < data.num_clusters; ++cls) {
      result.groundtruth_ppv.push_back(cm.Ppv(cls));
    }
  }

  const std::vector<SchemeId> schemes = PlottedSchemes();
  const size_t n_reps = ClampReps(c.repetitions);
  struct ArmOut {
    double accuracy = 0.0;
    ConfusionMatrix cm;
    explicit ArmOut(size_t classes) : cm(classes) {}
  };
  std::vector<ArmOut> arms(schemes.size() * n_reps,
                           ArmOut(data.num_clusters));

  Status run_status = ParallelArms(
      arms.size(), c.threads, [&](size_t arm) -> Status {
        const int rep = static_cast<int>(arm % n_reps);
        const SchemeId id = schemes[arm / n_reps];

        SchemeOptions opts;
        opts.seed = c.seed + static_cast<uint64_t>(rep) * 7919;
        GameConfig game_config = MakeGameConfig(
            c.rounds, c.round_size, c.attack_ratio, c.tth,
            c.seed + static_cast<uint64_t>(rep) * 104729 +
                static_cast<uint64_t>(id) * 61);
        ITRIM_ASSIGN_OR_RETURN(
            Tenant tenant,
            MaterializeTenant(DistanceArmSpec(&data, id, opts, game_config),
                              game_config.seed));
        ITRIM_RETURN_NOT_OK(tenant.session->RunToCompletion().status());
        LinearSvm model;
        ITRIM_ASSIGN_OR_RETURN(
            model,
            LinearSvm::Train(static_cast<const DistanceScoreModel&>(
                                 *tenant.model)
                                 .retained_data(),
                             svm_config));
        arms[arm].accuracy = model.Evaluate(data);
        for (size_t i = 0; i < data.rows.size(); ++i) {
          arms[arm].cm.Add(static_cast<size_t>(data.labels[i]),
                           static_cast<size_t>(model.Predict(data.rows[i])));
        }
        return Status::OK();
      });
  ITRIM_RETURN_NOT_OK(run_status);

  size_t arm = 0;
  for (SchemeId id : schemes) {
    SvmSchemeResult scheme_result;
    scheme_result.scheme = SchemeName(id);
    double acc_sum = 0.0;
    ConfusionMatrix cm(data.num_clusters);
    for (size_t rep = 0; rep < n_reps; ++rep, ++arm) {
      acc_sum += arms[arm].accuracy;
      cm.Merge(arms[arm].cm);
    }
    scheme_result.accuracy = acc_sum / c.repetitions;
    for (size_t cls = 0; cls < data.num_clusters; ++cls) {
      scheme_result.class_ppv.push_back(cm.Ppv(cls));
    }
    result.schemes.push_back(std::move(scheme_result));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Fig 6b / Fig 8 — SOM
// ---------------------------------------------------------------------------

Result<SomExperimentResult> RunSomExperiment(const SomExperimentConfig& c) {
  Dataset data = MakeCreditcard(c.seed, c.dataset_size);
  SomConfig som_config;
  som_config.width = c.grid;
  som_config.height = c.grid;
  som_config.epochs = c.epochs;
  som_config.seed = c.seed ^ 0x5050;

  SomExperimentResult result;
  {
    Som gt_som;
    ITRIM_ASSIGN_OR_RETURN(gt_som, Som::Train(data, som_config));
    result.groundtruth_classes = gt_som.ClassesRepresented(data);
    result.groundtruth_qe = gt_som.QuantizationError(data.rows);
  }

  const std::vector<SchemeId> schemes = PlottedSchemes();
  const size_t n_reps = ClampReps(c.repetitions);
  struct ArmOut {
    double untrimmed_poison_fraction = 0.0;
    double green = 0.0, fraud = 0.0, premium = 0.0;
    double classes_represented = 0.0;
    double quantization_error = 0.0;
  };
  std::vector<ArmOut> arms(schemes.size() * n_reps);

  Status run_status = ParallelArms(
      arms.size(), c.threads, [&](size_t arm) -> Status {
        const int rep = static_cast<int>(arm % n_reps);
        const SchemeId id = schemes[arm / n_reps];

        SchemeOptions opts;
        opts.seed = c.seed * 3 + static_cast<uint64_t>(id) +
                    static_cast<uint64_t>(rep) * 7919;
        GameConfig game_config = MakeGameConfig(
            c.rounds, c.round_size, c.attack_ratio, c.tth,
            c.seed + static_cast<uint64_t>(id) * 101 +
                static_cast<uint64_t>(rep) * 104729);
        ITRIM_ASSIGN_OR_RETURN(
            Tenant tenant,
            MaterializeTenant(DistanceArmSpec(&data, id, opts, game_config),
                              game_config.seed));
        ITRIM_ASSIGN_OR_RETURN(GameSummary summary,
                               tenant.session->RunToCompletion());
        const auto& game_model =
            static_cast<const DistanceScoreModel&>(*tenant.model);

        arms[arm].untrimmed_poison_fraction =
            summary.UntrimmedPoisonFraction();
        const Dataset& retained = game_model.retained_data();
        const auto& poison_mask = game_model.retained_is_poison();
        bool green = false, fraud = false, premium = false;
        for (size_t i = 0; i < retained.rows.size(); ++i) {
          if (poison_mask[i]) continue;
          if (retained.labels[i] == 1) fraud = true;
          if (retained.labels[i] == 2) premium = true;
          if (retained.labels[i] == 3) green = true;
        }
        arms[arm].green = green ? 1.0 : 0.0;
        arms[arm].fraud = fraud ? 1.0 : 0.0;
        arms[arm].premium = premium ? 1.0 : 0.0;

        SomConfig rep_som = som_config;
        rep_som.seed = som_config.seed + static_cast<uint64_t>(rep) * 31;
        Som model;
        ITRIM_ASSIGN_OR_RETURN(model, Som::Train(retained, rep_som));
        // Structure preservation is judged by mapping the *clean* data
        // through the scheme-trained map.
        arms[arm].classes_represented =
            static_cast<double>(model.ClassesRepresented(data));
        arms[arm].quantization_error = model.QuantizationError(data.rows);
        return Status::OK();
      });
  ITRIM_RETURN_NOT_OK(run_status);

  size_t arm = 0;
  for (SchemeId id : schemes) {
    SomSchemeResult r;
    r.scheme = SchemeName(id);
    for (size_t rep = 0; rep < n_reps; ++rep, ++arm) {
      r.untrimmed_poison_fraction += arms[arm].untrimmed_poison_fraction;
      r.green_class_survives += arms[arm].green;
      r.fraud_point_survives += arms[arm].fraud;
      r.premium_point_survives += arms[arm].premium;
      r.classes_represented += arms[arm].classes_represented;
      r.quantization_error += arms[arm].quantization_error;
    }
    double inv = 1.0 / static_cast<double>(c.repetitions);
    r.untrimmed_poison_fraction *= inv;
    r.green_class_survives *= inv;
    r.fraud_point_survives *= inv;
    r.premium_point_survives *= inv;
    r.classes_represented *= inv;
    r.quantization_error *= inv;
    result.schemes.push_back(std::move(r));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Table III — non-equilibrium mixed strategies
// ---------------------------------------------------------------------------

Result<std::vector<NonEquilibriumRow>> RunNonEquilibriumExperiment(
    const NonEquilibriumConfig& config, const std::vector<double>& ps) {
  Dataset data = MakeControl(config.seed);

  const size_t n_reps = ClampReps(config.repetitions);
  struct ArmOut {
    double termination = 0.0;
    double titfortat_untrimmed = 0.0;
    double elastic_untrimmed = 0.0;
  };
  std::vector<ArmOut> arms(ps.size() * n_reps);

  Status run_status = ParallelArms(
      arms.size(), config.threads, [&](size_t arm) -> Status {
        const int rep = static_cast<int>(arm % n_reps);
        const double p = ps[arm / n_reps];

        uint64_t seed = config.seed + static_cast<uint64_t>(rep) * 92821 +
                        static_cast<uint64_t>(p * 1000.0);
        GameConfig game_config = MakeGameConfig(
            config.rounds, config.round_size, config.attack_ratio,
            config.tth, seed);

        // Titfortat: untriggered soft trim at Tth + 1%; once the judgement
        // fires, trims at the 90th percentile permanently (Section VI-D).
        double trigger_quality = p - config.redundancy;
        TitfortatCollector titfortat(+0.01, 0.90 - config.tth,
                                     trigger_quality);
        MixedPercentileAdversary adversary_tft(p);
        NoisyDefectShareQuality quality(
            0.90, 0.99, config.sigma0, config.sigma_tail, seed ^ 0xBEEF,
            DefectShareQuality::CutoffMode::kAbsolute);
        DistanceScoreModel model_tft(&data);
        RoundMassReference round_mass_tft;
        TrimmingSession game_tft(game_config, &model_tft, &titfortat,
                                 &adversary_tft, &quality, &round_mass_tft);
        GameSummary tft;
        ITRIM_ASSIGN_OR_RETURN(tft, game_tft.RunToCompletion());
        arms[arm].termination =
            tft.termination_round > 0
                ? static_cast<double>(tft.termination_round)
                : static_cast<double>(config.rounds);
        arms[arm].titfortat_untrimmed = tft.UntrimmedPoisonFraction();

        // Elastic: adapts the threshold to the observed injection position.
        ElasticCollector elastic(config.elastic_k);
        MixedPercentileAdversary adversary_ela(p);
        GameConfig elastic_config = game_config;
        elastic_config.seed = seed ^ 0xD00D;
        DistanceScoreModel model_ela(&data);
        RoundMassReference round_mass_ela;
        TrimmingSession game_ela(elastic_config, &model_ela, &elastic,
                                 &adversary_ela, nullptr, &round_mass_ela);
        GameSummary ela;
        ITRIM_ASSIGN_OR_RETURN(ela, game_ela.RunToCompletion());
        arms[arm].elastic_untrimmed = ela.UntrimmedPoisonFraction();
        return Status::OK();
      });
  ITRIM_RETURN_NOT_OK(run_status);

  std::vector<NonEquilibriumRow> rows;
  size_t arm = 0;
  for (double p : ps) {
    NonEquilibriumRow row;
    row.p = p;
    double term_acc = 0.0, tft_acc = 0.0, ela_acc = 0.0;
    for (size_t rep = 0; rep < n_reps; ++rep, ++arm) {
      term_acc += arms[arm].termination;
      tft_acc += arms[arm].titfortat_untrimmed;
      ela_acc += arms[arm].elastic_untrimmed;
    }
    row.avg_termination_round = term_acc / config.repetitions;
    row.titfortat_untrimmed = tft_acc / config.repetitions;
    row.elastic_untrimmed = ela_acc / config.repetitions;
    rows.push_back(row);
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Table IV — Elastic roundwise cost
// ---------------------------------------------------------------------------

ElasticTrace TraceElasticDynamics(double k, int rounds) {
  ElasticTrace trace;
  // Offsets from Tth; Section VI-A initial conditions.
  double t = -0.03;  // T(1) = Tth - 3%
  double a = +0.01;  // A(1) = Tth + 1%
  for (int i = 0; i < rounds; ++i) {
    trace.collector.push_back(t);
    trace.adversary.push_back(a);
    double t_next = k * (a - 0.01);   // T(i+1) = Tth + k (A(i) - Tth - 1%)
    double a_next = -0.03 + k * t;    // A(i+1) = Tth - 3% + k (T(i) - Tth)
    t = t_next;
    a = a_next;
  }
  // Fixed point of the coupled recurrence.
  trace.fixed_point_adversary = -(0.03 + 0.01 * k * k) / (1.0 - k * k);
  trace.fixed_point_collector = k * (trace.fixed_point_adversary - 0.01);
  return trace;
}

double ElasticRoundwiseCost(double k, int rounds) {
  ElasticTrace trace = TraceElasticDynamics(k, rounds);
  double acc = 0.0;
  for (double a : trace.adversary) {
    acc += std::fabs(a - trace.fixed_point_adversary);
  }
  return acc / static_cast<double>(rounds);
}

// ---------------------------------------------------------------------------
// Fig 9 — LDP vs EMF
// ---------------------------------------------------------------------------

Result<LdpExperimentResult> RunLdpExperiment(const LdpExperimentConfig& c) {
  Dataset taxi = MakeTaxi(c.seed, c.population_size);
  std::vector<double> population;
  population.reserve(taxi.rows.size());
  for (const auto& row : taxi.rows) population.push_back(row[0]);

  LdpExperimentResult result;
  result.epsilons = c.epsilons;

  struct SchemeSpec {
    std::string name;
    double elastic_k;  // <0 = Titfortat, >=0 = Elastic, NaN = EMF
  };
  const std::vector<SchemeSpec> specs = {
      {"Titfortat", -1.0},
      {"Elastic0.1", 0.1},
      {"Elastic0.5", 0.5},
      {"EMF", std::nan("")},
  };

  const size_t n_eps = c.epsilons.size();
  const size_t n_reps = ClampReps(c.repetitions);
  std::vector<double> arms(specs.size() * n_eps * n_reps, 0.0);

  // Mechanism construction is a pure function of (name, ε), so each arm
  // builds its own copy instead of sharing one across repetitions.
  Status run_status = ParallelArms(
      arms.size(), c.threads, [&](size_t arm) -> Status {
        const int rep = static_cast<int>(arm % n_reps);
        const double eps = c.epsilons[(arm / n_reps) % n_eps];
        const SchemeSpec& spec = specs[arm / (n_reps * n_eps)];

        std::unique_ptr<LdpMechanism> mechanism;
        ITRIM_ASSIGN_OR_RETURN(mechanism, MakeMechanism(c.mechanism, eps));
        GameConfig game_config;
        game_config.rounds = c.rounds;
        game_config.round_size = c.users_per_round;
        game_config.attack_ratio = c.attack_ratio;
        game_config.tth = c.tth;
        game_config.bootstrap_size = c.users_per_round;
        game_config.seed = c.seed + static_cast<uint64_t>(rep) * 65537 +
                           static_cast<uint64_t>(eps * 1000.0);
        InputManipulationAttack attack(1.0);
        LdpCollectionGame game(game_config, &population, mechanism.get(),
                               &attack);
        LdpRunResult run;
        if (std::isnan(spec.elastic_k)) {
          ITRIM_ASSIGN_OR_RETURN(run, game.RunEmf(EmfConfig{}));
        } else if (spec.elastic_k < 0.0) {
          TitfortatCollector collector(+0.01, -0.03, /*never triggers*/ -1.0);
          TailMassQuality quality(c.tth);
          ITRIM_ASSIGN_OR_RETURN(run,
                                 game.RunTrimming(&collector, &quality));
        } else {
          ElasticCollector collector(spec.elastic_k);
          ITRIM_ASSIGN_OR_RETURN(run,
                                 game.RunTrimming(&collector, nullptr));
        }
        arms[arm] = run.squared_error;
        return Status::OK();
      });
  ITRIM_RETURN_NOT_OK(run_status);

  size_t arm = 0;
  for (const auto& spec : specs) {
    LdpSeries series;
    series.scheme = spec.name;
    for (size_t ei = 0; ei < n_eps; ++ei) {
      double mse_acc = 0.0;
      for (size_t rep = 0; rep < n_reps; ++rep, ++arm) {
        mse_acc += arms[arm];
      }
      series.mse.push_back(mse_acc / c.repetitions);
    }
    result.series.push_back(std::move(series));
  }
  return result;
}

}  // namespace itrim
