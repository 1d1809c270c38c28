// Microbenchmarks for the tensor kernel behind local training and the observer's
// evaluation: MatMul at the shapes a round runs, m x k times k x n. Operands are dense
// Gaussians, so no zero multiplier is skipped, and every row runs on one thread, so the
// committed rows (BENCH_crypto.json, gated by CI's perf-trajectory job) track the kernel
// rather than the parallel layer.
#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "common/parallel.h"
#include "common/rng.h"
#include "tensor/tensor.h"

namespace {

using namespace deta;

void BM_MatMul(benchmark::State& state) {
  int m = static_cast<int>(state.range(0));
  int k = static_cast<int>(state.range(1));
  int n = static_cast<int>(state.range(2));
  parallel::ScopedThreads threads(1);
  Rng rng(5);
  Tensor a = Tensor::Gaussian({m, k}, rng, 0.0f, 1.0f);
  Tensor b = Tensor::Gaussian({k, n}, rng, 0.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * m * k * n);
}
// bulk_update_tcp's MLP 784 -> 2560 -> 10 at batch 8: the hidden layer's forward, the
// observer's 64-image evaluation forward, and the weight gradient x^T . g. Then
// ConvNet-8's largest GEMM (nn/models.cc): the second conv, 16 -> 32 channels with 3x3
// kernels on 14x14 maps, at deta_run's 28x28 inputs and batch 32, im2col rows
// (32 * 14 * 14) times C * k * k (16 * 9) times the output channels.
BENCHMARK(BM_MatMul)
    ->ArgNames({"m", "k", "n"})
    ->Args({8, 784, 2560})
    ->Args({64, 784, 2560})
    ->Args({784, 8, 2560})
    ->Args({6272, 144, 32})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

DETA_BENCH_MAIN();
