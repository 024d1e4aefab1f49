// Shared pieces of the paper-shaped benchmark: the seeded data fixture,
// tenant specs, heap and clock probes, in-memory spans and the metric list.
#ifndef PAPERBENCH_COMMON_H_
#define PAPERBENCH_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "fleet/session_fleet.h"
#include "ldp/attacks.h"
#include "ldp/mechanism.h"
#include "ml/linreg.h"

namespace paperbench {

using itrim::RoundRecord;
using itrim::SessionFleet;
using itrim::TenantSpec;

// The paper's game shape (Fu et al., ICDE 2024): 500-report rounds over a
// 500-report clean bootstrap, 10% poison, default board capacity.
inline constexpr size_t kRoundSize = 500;
inline constexpr size_t kBootstrapSize = 500;
inline constexpr double kAttackRatio = 0.1;

/// Tenant kinds: the four model kinds plus residual tenants trimmed
/// against a refit model (TenantReferenceKind::kFittedModel).
enum class Kind { kScalar = 0, kDistance, kLdp, kResidual, kFitted };
inline constexpr int kNumKinds = 5;
const char* KindName(Kind kind);

/// Read-only data sources plus the workload seed. The sources are the same
/// for every seed: drawn per seed, their quirks (how fast a refit loop
/// converges on one regression task) moved the per-round cost by ~5%
/// between seeds, where each seed's tenant streams alone move it by ~2%.
/// The seed drives every tenant's RNG stream (benign draws, poison,
/// strategies) through the fleet seed. Generation is not part of any timed
/// set-up.
struct Fixture {
  explicit Fixture(uint64_t seed);

  uint64_t seed;
  std::vector<double> taxi;          ///< scalar pool (MakeTaxi feature)
  itrim::Dataset control;            ///< distance rows, 3,600 x 60
  std::vector<double> population;    ///< LDP true values in [-1, 1]
  itrim::PiecewiseMechanism mechanism{2.0};
  itrim::RegressionData regression;  ///< 4,000 rows x 3 features
};

/// Specs of one fleet plus the per-tenant LDP attacks they borrow (attacks
/// are not promised stateless, so each LDP tenant owns one).
struct FleetSpecs {
  std::vector<TenantSpec> specs;
  std::vector<std::unique_ptr<itrim::LdpAttack>> attacks;
};

/// Tenant `index` of a fleet: scheme cycles over the six plotted
/// (non-Groundtruth) schemes.
TenantSpec MakeSpec(const Fixture& fixture, Kind kind, size_t index,
                    FleetSpecs* owner);
/// `n` tenants with kinds cycling scalar/distance/ldp/residual.
FleetSpecs MixedSpecs(const Fixture& fixture, size_t n);
/// `n` tenants of one kind.
FleetSpecs KindSpecs(const Fixture& fixture, Kind kind, size_t n);

/// Kind of tenant `index` in a MixedSpecs fleet.
inline Kind MixedKind(size_t index) { return static_cast<Kind>(index % 4); }

/// glibc in-use heap bytes (mallinfo2: arena chunks in use plus mmapped
/// chunks), summed over all arenas.
size_t HeapInUse();

int64_t NowNs();
/// CPU time consumed by all threads of this process. With paravirtualized
/// steal accounting the hypervisor's preemptions are not in it.
int64_t ProcessCpuNs();
inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}
inline double MicrosBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-3;
}

/// In-memory spans recorded around the benchmark's calls into the
/// library. Spans of one request share `request`; `parent` is the index of
/// the enclosing span (-1 for none).
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;
  uint64_t request;
};

class Trace {
 public:
  explicit Trace(size_t reserve) { spans_.reserve(reserve); }
  int64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t parent = -1, uint64_t request = 0) {
    spans_.push_back({name, start_ns, end_ns, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void SetEnd(int64_t index, int64_t end_ns) {
    spans_[static_cast<size_t>(index)].end_ns = end_ns;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// One reported number.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string moves;  ///< "<workload>/<end-to-end metric>" it should move
};

/// The round books of tenants `sample` of `fleet` must be bit-identical to
/// a solo replay of each (a one-tenant fleet with the seed the big fleet
/// derived for it). Returns "" or the first difference.
std::string SoloReplayDifference(const SessionFleet& fleet,
                                 const std::vector<size_t>& sample);

/// Throw-away mini-fleet played for `seconds` on the calling thread, so the
/// first timed set-up of a process does not pay the after-idle penalty.
bool WarmUp(const Fixture& fixture, double seconds);

}  // namespace paperbench

#endif  // PAPERBENCH_COMMON_H_
