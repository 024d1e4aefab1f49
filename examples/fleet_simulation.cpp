// Fleet quickstart: run many heterogeneous trimming games at once.
//
// A production collector rarely defends one stream — it defends thousands
// of tenants, each with its own data setting, defense scheme and attack
// intensity. SessionFleet shards those sessions across the thread pool and
// steps them in lockstep rounds, reducing per-round fleet aggregates
// (trim rate, poison acceptance, cross-tenant quantiles) as the streams
// advance. Results are bit-identical at any thread count.
//
// Here: 12 tenants mixing the three data settings (scalar, d-dimensional
// distance, LDP reports) and three defense schemes, stepped live with the
// fleet-wide aggregate printed per round.
#include <cstdio>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "fleet/session_fleet.h"
#include "ldp/attacks.h"
#include "ldp/mechanism.h"

int main() {
  using namespace itrim;

  // Shared read-only data sources, borrowed by the tenant specs.
  Rng rng(7);
  std::vector<double> pool;           // scalar tenants: values in [0, 1]
  for (int i = 0; i < 5000; ++i) pool.push_back(rng.Uniform());
  Dataset data = MakeControl(19, 80);  // distance tenants: synthetic control
  std::vector<double> population;      // LDP tenants: true values in [-1, 1]
  for (int i = 0; i < 4000; ++i) population.push_back(rng.Uniform(-1.0, 1.0));
  PiecewiseMechanism mechanism(/*epsilon=*/2.0);
  std::vector<std::unique_ptr<LdpAttack>> attacks;  // one per LDP tenant

  // 12 tenants: cycle data settings and defense schemes, vary the attack.
  const SchemeId defenses[] = {SchemeId::kElastic05, SchemeId::kTitfortat,
                               SchemeId::kBaselineStatic};
  std::vector<TenantSpec> specs;
  for (size_t i = 0; i < 12; ++i) {
    TenantSpec spec;
    spec.name = "tenant-" + std::to_string(i);
    spec.model = static_cast<TenantModelKind>(i % 3);
    spec.scheme = defenses[(i / 3) % 3];
    spec.game.round_size = 200;
    spec.game.bootstrap_size = 200;
    spec.game.attack_ratio = 0.1 + 0.05 * static_cast<double>(i % 4);
    switch (spec.model) {
      case TenantModelKind::kScalar:
        spec.scalar_pool = &pool;
        break;
      case TenantModelKind::kDistance:
        spec.dataset = &data;
        spec.reference = TenantReferenceKind::kRoundMass;  // ML pipelines
        break;
      case TenantModelKind::kLdp:
        spec.ldp_population = &population;
        spec.ldp_mechanism = &mechanism;
        attacks.push_back(std::make_unique<InputManipulationAttack>(1.0));
        spec.ldp_attack = attacks.back().get();
        break;
      case TenantModelKind::kResidual:
        // i % 3 never reaches kResidual: this mix has no regression source,
        // and a residual spec without one fails Validate().
        break;
    }
    specs.push_back(spec);
  }

  FleetConfig config;
  config.rounds = 8;
  config.threads = 0;  // ITRIM_THREADS / hardware concurrency
  config.seed = 2024;  // every tenant derives its own stream from this

  SessionFleet fleet(config, specs);
  if (Status s = fleet.Bootstrap(); !s.ok()) {
    std::fprintf(stderr, "bootstrap failed: %s\n", s.ToString().c_str());
    return 1;
  }

  std::printf("round  received  kept   trim%%   poison-acc%%   "
              "tenant trim%% p10/p50/p90\n");
  for (int round = 1; round <= config.rounds; ++round) {
    auto agg = fleet.StepRound();
    if (!agg.ok()) {
      std::fprintf(stderr, "round %d failed: %s\n", round,
                   agg.status().ToString().c_str());
      return 1;
    }
    size_t received = agg->benign_received + agg->poison_received;
    size_t kept = agg->benign_kept + agg->poison_kept;
    std::printf("%5d  %8zu  %5zu  %5.1f%%       %5.1f%%      "
                "%5.1f / %4.1f / %4.1f\n",
                agg->round, received, kept, 100.0 * agg->trim_rate,
                100.0 * agg->poison_acceptance,
                100.0 * agg->tenant_trim_rate.p10,
                100.0 * agg->tenant_trim_rate.p50,
                100.0 * agg->tenant_trim_rate.p90);
  }

  FleetSummary summary = fleet.Finish();
  std::printf("\nacross %zu tenants (p10 / p50 / p90):\n",
              summary.tenants.size());
  std::printf("  untrimmed poison fraction  %.4f / %.4f / %.4f\n",
              summary.untrimmed_poison_fraction.p10,
              summary.untrimmed_poison_fraction.p50,
              summary.untrimmed_poison_fraction.p90);
  std::printf("  benign loss fraction       %.4f / %.4f / %.4f\n",
              summary.benign_loss_fraction.p10,
              summary.benign_loss_fraction.p50,
              summary.benign_loss_fraction.p90);
  std::printf("  poison survival rate       %.4f / %.4f / %.4f\n",
              summary.poison_survival_rate.p10,
              summary.poison_survival_rate.p50,
              summary.poison_survival_rate.p90);
  return 0;
}
