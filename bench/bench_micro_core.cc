// google-benchmark microbenchmarks for the core library: quantiles,
// trimming, the public board, and the collection-game round loop.
#include <benchmark/benchmark.h>

#include "bench/gbench_bridge.h"

#include "common/rng.h"
#include "game/public_board.h"
#include "game/score_model.h"
#include "game/session.h"
#include "game/strategies.h"
#include "game/trimmer.h"
#include "ml/kmeans.h"
#include "stats/quantile.h"

namespace {

using namespace itrim;

std::vector<double> RandomValues(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.Normal();
  return v;
}

void BM_ExactQuantile(benchmark::State& state) {
  auto values = RandomValues(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Quantile(values, 0.9));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExactQuantile)->Range(1 << 10, 1 << 18);

void BM_P2Quantile(benchmark::State& state) {
  auto values = RandomValues(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    P2Quantile est(0.9);
    for (double v : values) est.Add(v);
    benchmark::DoNotOptimize(est.Estimate());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_P2Quantile)->Range(1 << 10, 1 << 18);

void BM_TrimAtReferencePercentile(benchmark::State& state) {
  auto reference = RandomValues(10000, 3);
  auto round = RandomValues(static_cast<size_t>(state.range(0)), 4);
  for (auto _ : state) {
    auto outcome = TrimAtReferencePercentile(round, reference, 0.9);
    benchmark::DoNotOptimize(outcome);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TrimAtReferencePercentile)->Range(1 << 8, 1 << 16);

void BM_TrimTopFraction(benchmark::State& state) {
  auto round = RandomValues(static_cast<size_t>(state.range(0)), 5);
  for (auto _ : state) {
    auto outcome = TrimTopFraction(round, 0.9);
    benchmark::DoNotOptimize(outcome);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TrimTopFraction)->Range(1 << 8, 1 << 16);

// The board's whole life in a session: build the reservoir, seal, query.
void BM_PublicBoardRecordSealAndQuantile(benchmark::State& state) {
  auto values = RandomValues(static_cast<size_t>(state.range(0)), 6);
  for (auto _ : state) {
    PublicBoard board(20000, 7);
    board.Reserve(values.size());
    board.Record(values);
    board.Seal();
    benchmark::DoNotOptimize(board.Quantile(0.9));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PublicBoardRecordSealAndQuantile)->Range(1 << 10, 1 << 16);

void BM_ScalarGameRound(benchmark::State& state) {
  auto pool = RandomValues(10000, 8);
  for (auto _ : state) {
    GameConfig config;
    config.rounds = 5;
    config.round_size = static_cast<size_t>(state.range(0));
    config.attack_ratio = 0.2;
    config.seed = 9;
    ElasticCollector collector(0.5);
    ElasticAdversary adversary(0.5);
    IdentityScoreModel model(&pool);
    TrimmingSession game(config, &model, &collector, &adversary, nullptr);
    benchmark::DoNotOptimize(game.RunToCompletion());
  }
  state.SetItemsProcessed(state.iterations() * 5 * state.range(0));
}
BENCHMARK(BM_ScalarGameRound)->Range(1 << 8, 1 << 12);

void BM_KMeans(benchmark::State& state) {
  Rng rng(10);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < state.range(0); ++i) {
    points.push_back({rng.Normal(i % 4, 0.3), rng.Normal(i % 2, 0.3)});
  }
  for (auto _ : state) {
    KMeansConfig config;
    config.k = 4;
    config.seed = 11;
    benchmark::DoNotOptimize(KMeans(points, config));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KMeans)->Range(1 << 8, 1 << 12);

}  // namespace

int main(int argc, char** argv) {
  return itrim::bench::RunGoogleBenchmarks("micro_core", argc, argv);
}
