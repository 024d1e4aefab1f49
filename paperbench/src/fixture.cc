#include <malloc.h>

#include <time.h>

#include <chrono>
#include <cstring>

#include "common.h"
#include "common/rng.h"
#include "data/generators.h"
#include "exp/schemes.h"

namespace paperbench {

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kScalar:
      return "scalar";
    case Kind::kDistance:
      return "distance";
    case Kind::kLdp:
      return "ldp";
    case Kind::kResidual:
      return "residual";
    case Kind::kFitted:
      return "fitted";
  }
  return "?";
}

Fixture::Fixture(uint64_t seed_in) : seed(seed_in) {
  constexpr uint64_t kDataSeed = 2024;
  const itrim::Dataset taxi_rows = itrim::MakeTaxi(kDataSeed, 20000);
  taxi.reserve(taxi_rows.size());
  for (const auto& row : taxi_rows.rows) taxi.push_back(row[0]);
  control = itrim::MakeControl(kDataSeed, 600);  // 6 classes x 600 rows
  itrim::Rng rng(kDataSeed);
  population.reserve(4000);
  for (int i = 0; i < 4000; ++i) population.push_back(rng.Uniform(-1.0, 1.0));
  regression = itrim::MakeSyntheticRegression(4000, 3, 0.1, kDataSeed);
}

TenantSpec MakeSpec(const Fixture& fixture, Kind kind, size_t index,
                    FleetSpecs* owner) {
  static const std::vector<itrim::SchemeId> schemes = itrim::PlottedSchemes();
  TenantSpec spec;
  spec.scheme = schemes[index % schemes.size()];
  spec.game.round_size = kRoundSize;
  spec.game.bootstrap_size = kBootstrapSize;
  spec.game.attack_ratio = kAttackRatio;
  switch (kind) {
    case Kind::kScalar:
      spec.model = itrim::TenantModelKind::kScalar;
      spec.scalar_pool = &fixture.taxi;
      break;
    case Kind::kDistance:
      spec.model = itrim::TenantModelKind::kDistance;
      spec.dataset = &fixture.control;
      break;
    case Kind::kLdp:
      spec.model = itrim::TenantModelKind::kLdp;
      spec.ldp_population = &fixture.population;
      spec.ldp_mechanism = &fixture.mechanism;
      owner->attacks.push_back(
          std::make_unique<itrim::InputManipulationAttack>(1.0));
      spec.ldp_attack = owner->attacks.back().get();
      break;
    case Kind::kResidual:
    case Kind::kFitted:
      spec.model = itrim::TenantModelKind::kResidual;
      spec.regression = &fixture.regression;
      if (kind == Kind::kFitted) {
        spec.reference = itrim::TenantReferenceKind::kFittedModel;
      }
      break;
  }
  return spec;
}

FleetSpecs MixedSpecs(const Fixture& fixture, size_t n) {
  FleetSpecs out;
  out.specs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.specs.push_back(MakeSpec(fixture, MixedKind(i), i, &out));
  }
  return out;
}

FleetSpecs KindSpecs(const Fixture& fixture, Kind kind, size_t n) {
  FleetSpecs out;
  out.specs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.specs.push_back(MakeSpec(fixture, kind, i, &out));
  }
  return out;
}

size_t HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

namespace {

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameRecord(const RoundRecord& a, const RoundRecord& b) {
  return a.round == b.round &&
         BitEqual(a.collector_percentile, b.collector_percentile) &&
         BitEqual(a.injection_percentile, b.injection_percentile) &&
         BitEqual(a.cutoff, b.cutoff) && BitEqual(a.quality, b.quality) &&
         a.benign_received == b.benign_received &&
         a.poison_received == b.poison_received &&
         a.benign_kept == b.benign_kept && a.poison_kept == b.poison_kept;
}

}  // namespace

std::string SoloReplayDifference(const SessionFleet& fleet,
                                 const std::vector<size_t>& sample) {
  for (size_t i : sample) {
    const std::string who = "tenant " + std::to_string(i);
    auto played = fleet.TenantRounds(i);
    if (!played.ok()) return who + ": " + played.status().ToString();
    const std::vector<RoundRecord>& book = played.ValueOrDie();

    FleetSpecs solo;
    TenantSpec spec = fleet.tenant(i).spec;
    spec.game.seed = fleet.tenant(i).config.seed;
    if (spec.ldp_attack != nullptr) {
      solo.attacks.push_back(
          std::make_unique<itrim::InputManipulationAttack>(1.0));
      spec.ldp_attack = solo.attacks.back().get();
    }
    solo.specs.push_back(spec);
    itrim::FleetConfig config;
    config.threads = 1;
    config.derive_tenant_seeds = false;
    SessionFleet replay(config, std::move(solo.specs));
    if (!replay.Bootstrap().ok() || !replay.BeginPerTenantStepping().ok()) {
      return who + ": solo replay failed to start";
    }
    for (size_t r = 0; r < book.size(); ++r) {
      auto record = replay.StepTenant(0);
      if (!record.ok()) return who + ": solo replay step failed";
      if (!SameRecord(record.ValueOrDie(), book[r])) {
        return who + " round " + std::to_string(r + 1) +
               " differs from its solo replay";
      }
    }
  }
  return "";
}

bool WarmUp(const Fixture& fixture, double seconds) {
  FleetSpecs specs;
  for (size_t i = 0; i < 120; ++i) {
    specs.specs.push_back(
        MakeSpec(fixture, static_cast<Kind>(i % kNumKinds), i, &specs));
  }
  itrim::FleetConfig config;
  // One thread: a warm-up spread over pool threads would leave the heap's
  // free lists in a timing-dependent state, and the footprint metrics
  // would read a few bytes differently from run to run.
  config.threads = 1;
  config.seed = fixture.seed + 1;
  SessionFleet fleet(config, std::move(specs.specs));
  if (!fleet.Bootstrap().ok()) return false;
  const int64_t start = NowNs();
  while (SecondsSince(start) < seconds) {
    if (!fleet.StepRound().ok()) return false;
  }
  return true;
}

}  // namespace paperbench
