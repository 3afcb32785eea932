// Figure 6: perturbation runtime of GeoDP vs DP across dimensionality and
// batch size, using google-benchmark. Expected shape: both grow with d and
// B; GeoDP carries a constant-factor overhead from the two coordinate
// conversions that grows with d (the sequential sin-product chain), while
// batch size affects only the clipped averaging stage shared by both.

#include <benchmark/benchmark.h>

#include "base/rng.h"
#include "common/bench_json.h"
#include "core/perturbation.h"
#include "core/spherical.h"
#include "data/gradient_dataset.h"
#include "tensor/tensor.h"

namespace geodp {
namespace {

Tensor MakeGradient(int64_t dim) {
  Rng rng(1234 + static_cast<uint64_t>(dim));
  Tensor g = Tensor::Randn({dim}, rng);
  g.ScaleInPlace(static_cast<float>(0.1 / g.L2Norm()));
  return g;
}

void BM_DpPerturb(benchmark::State& state) {
  const int64_t dim = state.range(0);
  const int64_t batch = state.range(1);
  PerturbationOptions options;
  options.clip_threshold = 0.1;
  options.batch_size = batch;
  options.noise_multiplier = 1.0;
  const DpPerturber perturber(options);
  const Tensor g = MakeGradient(dim);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(perturber.Perturb(g, rng));
  }
  state.SetItemsProcessed(state.iterations() * dim);
}

void BM_GeoDpPerturb(benchmark::State& state, double beta) {
  const int64_t dim = state.range(0);
  const int64_t batch = state.range(1);
  GeoDpOptions options;
  options.base.clip_threshold = 0.1;
  options.base.batch_size = batch;
  options.base.noise_multiplier = 1.0;
  options.beta = beta;
  const GeoDpPerturber perturber(options);
  const Tensor g = MakeGradient(dim);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(perturber.Perturb(g, rng));
  }
  state.SetItemsProcessed(state.iterations() * dim);
}

// The averaging stage shared by both strategies: dominates at large B and
// explains why runtime grows with batch size in the paper's Figure 6.
void BM_AverageClipped(benchmark::State& state) {
  const int64_t dim = state.range(0);
  const int64_t batch = state.range(1);
  const GradientDataset data =
      MakeConcentratedGradientDataset(64, dim, 0.1, 0.1, 99);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(data.AverageClipped(batch, 0.1, rng));
  }
  state.SetItemsProcessed(state.iterations() * dim * batch);
}

void BM_ToSpherical(benchmark::State& state) {
  const Tensor g = MakeGradient(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ToSpherical(g));
  }
}

void BM_ToCartesian(benchmark::State& state) {
  const SphericalCoordinates coords = ToSpherical(MakeGradient(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ToCartesian(coords));
  }
}

void DimBatchArgs(benchmark::internal::Benchmark* b) {
  for (int64_t dim : {1250, 5000, 20000, 80000}) {
    for (int64_t batch : {512, 2048}) {
      b->Args({dim, batch});
    }
  }
}

BENCHMARK(BM_DpPerturb)->Apply(DimBatchArgs);
BENCHMARK_CAPTURE(BM_GeoDpPerturb, fig6, 0.1)
    ->Name("BM_GeoDpPerturb")
    ->Apply(DimBatchArgs);
// The release of e2ebench's mlp_geodp_wide (d = 158,986, B = 64,
// beta = 0.01): the sine product underflows within the first few thousand
// coordinates, so ToCartesian spends most of the vector in its zero tail,
// which the Figure 6 rows and BM_ToCartesian's noise-free angles never
// reach.
BENCHMARK_CAPTURE(BM_GeoDpPerturb, mlp_beta_0.01, 0.01)
    ->Args({158986, 64});
BENCHMARK(BM_AverageClipped)
    ->Args({1250, 128})
    ->Args({1250, 512})
    ->Args({5000, 128})
    ->Args({5000, 512});
BENCHMARK(BM_ToSpherical)->Arg(1250)->Arg(5000)->Arg(20000)->Arg(80000);
BENCHMARK(BM_ToCartesian)->Arg(1250)->Arg(5000)->Arg(20000)->Arg(80000);

}  // namespace
}  // namespace geodp

int main(int argc, char** argv) {
  return geodp::bench::BenchmarkMainWithJson(argc, argv);
}
