// Shared experiment runners behind the bench binaries (one per paper
// table/figure). Keeping them in a library lets tests, examples and benches
// exercise the exact same pipelines.
#ifndef ITRIM_EXP_EXPERIMENTS_H_
#define ITRIM_EXP_EXPERIMENTS_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "exp/schemes.h"
#include "ml/kmeans.h"

namespace itrim {

// ---------------------------------------------------------------------------
// Fig 4 / Fig 5 — k-means under poisoning
// ---------------------------------------------------------------------------

/// \brief Configuration of the k-means defense experiment.
struct KmeansExperimentConfig {
  std::string dataset = "control";  ///< control | vehicle | letter
  double dataset_scale = 1.0;       ///< instance-count scale for fast runs
  double tth = 0.9;
  std::vector<double> attack_ratios;
  int repetitions = 5;
  int rounds = 20;
  size_t round_size = 150;
  size_t eval_size = 600;  ///< held-out clean evaluation sample
  uint64_t seed = 2024;
  /// Parallel jobs across (scheme, ratio, repetition) arms; 0 = the
  /// ITRIM_THREADS / hardware default, 1 = serial. Every arm derives its
  /// own Rng stream from `seed`, and per-arm results are reduced in arm
  /// order, so the output is bit-identical at any thread count.
  int threads = 0;
};

/// \brief One (attack_ratio -> metrics) sample of a scheme's series.
struct KmeansPoint {
  double attack_ratio = 0.0;
  double sse = 0.0;       ///< eval-set SSE against the learned centroids
  double distance = 0.0;  ///< centroid-set distance to the ground truth
};

/// \brief One scheme's series across attack ratios.
struct KmeansSeries {
  std::string scheme;
  std::vector<KmeansPoint> points;
};

/// \brief Full result: per-scheme series plus the clean reference.
struct KmeansExperimentResult {
  double groundtruth_sse = 0.0;
  std::vector<KmeansSeries> series;
};

/// \brief Runs the Fig 4/5 pipeline (k-means on sanitized data).
Result<KmeansExperimentResult> RunKmeansExperiment(
    const KmeansExperimentConfig& config);

// ---------------------------------------------------------------------------
// Fig 6a / Fig 7 — SVM accuracy under poisoning
// ---------------------------------------------------------------------------

/// \brief Configuration of the SVM defense experiment (CONTROL, Tth = 0.95,
/// attack ratio 0.4 in the paper).
struct SvmExperimentConfig {
  double dataset_scale = 1.0;
  double tth = 0.95;
  double attack_ratio = 0.4;
  int repetitions = 3;
  int rounds = 20;
  size_t round_size = 150;
  uint64_t seed = 77;
  int threads = 0;  ///< parallel jobs (0 = default, 1 = serial); see
                    ///< KmeansExperimentConfig::threads for semantics
};

/// \brief Accuracy of one scheme (plus per-class PPV of the last repetition).
struct SvmSchemeResult {
  std::string scheme;
  double accuracy = 0.0;
  std::vector<double> class_ppv;
};

struct SvmExperimentResult {
  double groundtruth_accuracy = 0.0;
  std::vector<double> groundtruth_ppv;
  std::vector<SvmSchemeResult> schemes;
};

Result<SvmExperimentResult> RunSvmExperiment(const SvmExperimentConfig& c);

// ---------------------------------------------------------------------------
// Fig 6b / Fig 8 — SOM structure preservation
// ---------------------------------------------------------------------------

struct SomExperimentConfig {
  size_t dataset_size = 4000;  ///< scaled-down CREDITCARD
  double tth = 0.95;
  double attack_ratio = 0.4;
  int rounds = 20;
  size_t round_size = 200;
  size_t grid = 20;  ///< SOM is grid x grid (paper: 20x20 = 400 neurons)
  int epochs = 6;
  int repetitions = 3;  ///< games/SOM fits averaged per scheme
  uint64_t seed = 55;
  int threads = 0;  ///< parallel jobs (0 = default, 1 = serial)
};

/// \brief Class-structure metrics for one scheme's sanitized data,
/// aggregated over repetitions.
struct SomSchemeResult {
  std::string scheme;
  double classes_represented = 0.0;  ///< mean, of the 4 CREDITCARD classes
  /// Fraction of repetitions in which rows of the class survived trimming.
  double green_class_survives = 0.0;  ///< the 5-point rare segment
  double fraud_point_survives = 0.0;
  double premium_point_survives = 0.0;
  double quantization_error = 0.0;
  double untrimmed_poison_fraction = 0.0;
};

struct SomExperimentResult {
  size_t groundtruth_classes = 0;
  double groundtruth_qe = 0.0;
  std::vector<SomSchemeResult> schemes;
};

Result<SomExperimentResult> RunSomExperiment(const SomExperimentConfig& c);

// ---------------------------------------------------------------------------
// Table III — non-equilibrium mixed strategies
// ---------------------------------------------------------------------------

struct NonEquilibriumConfig {
  double attack_ratio = 0.2;
  int rounds = 25;        ///< Table III reports termination up to round 25
  size_t round_size = 4000;
  double tth = 0.9;
  double redundancy = 0.05;
  double elastic_k = 0.5;
  int repetitions = 25;
  /// Estimation-noise calibration of the quality observable (see
  /// NoisyDefectShareQuality); chosen so equilibrium play terminates around
  /// round 13, as in the paper.
  double sigma0 = 0.005;
  double sigma_tail = 0.020;
  uint64_t seed = 31;
  int threads = 0;  ///< parallel jobs (0 = default, 1 = serial)
};

struct NonEquilibriumRow {
  double p = 0.0;
  double avg_termination_round = 0.0;
  double titfortat_untrimmed = 0.0;
  double elastic_untrimmed = 0.0;
};

Result<std::vector<NonEquilibriumRow>> RunNonEquilibriumExperiment(
    const NonEquilibriumConfig& config, const std::vector<double>& ps);

// ---------------------------------------------------------------------------
// Table IV — roundwise cost of the Elastic scheme
// ---------------------------------------------------------------------------

/// \brief The deterministic Elastic recurrences of Section VI-A:
/// T(i+1) = Tth + k (A(i) - Tth - 1%), A(i+1) = Tth - 3% + k (T(i) - Tth).
struct ElasticTrace {
  std::vector<double> collector;  ///< T(1..n) as offsets from Tth
  std::vector<double> adversary;  ///< A(1..n) as offsets from Tth
  double fixed_point_adversary = 0.0;  ///< A* - Tth
  double fixed_point_collector = 0.0;  ///< T* - Tth
};

/// \brief Iterates the recurrences for `rounds` rounds.
ElasticTrace TraceElasticDynamics(double k, int rounds);

/// \brief Roundwise cost after `rounds` rounds: the mean deviation of the
/// adversary's position from its equilibrium, (1/n) Σ |A(i) - A*|.
double ElasticRoundwiseCost(double k, int rounds);

// ---------------------------------------------------------------------------
// Fig 9 — LDP mean estimation vs EMF
// ---------------------------------------------------------------------------

struct LdpExperimentConfig {
  size_t population_size = 50000;  ///< scaled-down TAXI
  std::string mechanism = "piecewise";
  std::vector<double> epsilons;
  double attack_ratio = 0.1;
  int repetitions = 5;
  int rounds = 10;
  size_t users_per_round = 1000;
  double tth = 0.9;
  uint64_t seed = 404;
  int threads = 0;  ///< parallel jobs (0 = default, 1 = serial)
};

struct LdpSeries {
  std::string scheme;  ///< Titfortat | Elastic0.1 | Elastic0.5 | EMF
  std::vector<double> mse;  ///< parallel to config.epsilons
};

struct LdpExperimentResult {
  std::vector<double> epsilons;
  std::vector<LdpSeries> series;
};

Result<LdpExperimentResult> RunLdpExperiment(const LdpExperimentConfig& c);

}  // namespace itrim

#endif  // ITRIM_EXP_EXPERIMENTS_H_
