// Example: protecting a k-means pipeline on the Control workload.
//
// Reproduces a single cell of the Fig 4 experiment end to end with the
// public API: generate the dataset, build each defense scheme's session
// from a TenantSpec, play the online collection game, train k-means on the
// sanitized data, and compare against the clean model.
#include <cstdio>
#include <string>

#include "data/generators.h"
#include "exp/schemes.h"
#include "fleet/tenant.h"
#include "game/score_model.h"
#include "ml/kmeans.h"
#include "stats/metrics.h"

int main(int argc, char** argv) {
  using namespace itrim;
  // Usage: kmeans_defense [attack_ratio] (default 0.3).
  double attack_ratio = argc > 1 ? std::atof(argv[1]) : 0.3;

  Dataset control = MakeControl(/*seed=*/2024);
  std::printf("dataset: %s, %zu rows x %zu dims, %zu clusters\n",
              control.name.c_str(), control.size(), control.dims(),
              control.num_clusters);

  // Clean reference model.
  KMeansConfig km;
  km.k = control.num_clusters;
  km.restarts = 2;
  auto groundtruth = KMeans(control.rows, km);
  if (!groundtruth.ok()) {
    std::fprintf(stderr, "%s\n", groundtruth.status().ToString().c_str());
    return 1;
  }

  std::printf("attack ratio: %.2f, Tth=0.90, 20 rounds\n\n", attack_ratio);
  std::printf("%-16s %12s %12s %14s %14s\n", "scheme", "eval SSE",
              "distance", "poison kept", "benign lost");
  for (SchemeId id : PlottedSchemes()) {
    const std::string name = SchemeName(id);
    TenantSpec spec;
    spec.model = TenantModelKind::kDistance;
    spec.scheme = id;
    spec.reference = TenantReferenceKind::kRoundMass;  // the Fig 4 pipeline
    spec.game.rounds = 20;
    spec.game.round_size = 150;
    spec.game.attack_ratio = attack_ratio;
    spec.game.tth = 0.9;
    spec.game.seed = 7;
    spec.retain_survivors = true;  // k-means trains on the survivors
    spec.dataset = &control;
    auto tenant = MaterializeTenant(spec, spec.game.seed);
    if (!tenant.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   tenant.status().ToString().c_str());
      return 1;
    }
    auto summary = tenant->session->RunToCompletion();
    if (!summary.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   summary.status().ToString().c_str());
      return 1;
    }
    const auto& survivors =
        static_cast<const DistanceScoreModel&>(*tenant->model).retained_data();
    auto model = KMeans(survivors.rows, km);
    if (!model.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   model.status().ToString().c_str());
      return 1;
    }
    double sse = EvaluateSse(control.rows, model->centroids);
    double dist =
        CentroidSetDistance(model->centroids, groundtruth->centroids);
    std::printf("%-16s %12.1f %12.4f %13.1f%% %13.1f%%\n", name.c_str(), sse,
                dist,
                100.0 * summary->UntrimmedPoisonFraction(),
                100.0 * summary->BenignLossFraction());
  }
  std::printf(
      "\nclean-model eval SSE: %.1f — compare the schemes' SSE/distance "
      "against it.\n",
      EvaluateSse(control.rows, groundtruth->centroids));
  return 0;
}
