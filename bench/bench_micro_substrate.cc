// google-benchmark microbenches for the substrates the reproduction is
// built on: SGEMM, DCGAN conv forward/backward, generator sampling
// throughput, table encoding, and DCR search. These back the Table 4
// discussion (where the paper's GPU minutes become CPU seconds).

#include <vector>

#include <benchmark/benchmark.h>

#include "common/parallel.h"
#include "common/random.h"
#include "core/networks.h"
#include "core/table_gan.h"
#include "data/datasets.h"
#include "data/normalizer.h"
#include "data/record_matrix.h"
#include "eval/fidelity.h"
#include "nn/conv2d.h"
#include "nn/conv_transpose2d.h"
#include "nn/init.h"
#include "privacy/dcr.h"
#include "tensor/im2col.h"
#include "tensor/kernels/kernels.h"
#include "tensor/matmul.h"

namespace tablegan {
namespace {

// --- Per-backend kernel benches (BENCH_simd_kernels.json). Arg(0)
// selects the backend (0 = scalar, 1 = avx2, 2 = avx2fma); runs are
// single-threaded so items_per_second reads directly as FLOP/s of the
// serial kernel, and the avx2/scalar ratio is the SIMD speedup the
// dispatch layer buys. Hosts without AVX2 report the vector rows as
// skipped instead of failing.

const kernels::Backend* BenchBackend(int which) {
  switch (which) {
    case 0: return &kernels::Scalar();
    case 1: return kernels::Avx2(/*fma=*/false);
    default: return kernels::Avx2(/*fma=*/true);
  }
}

// Overrides dispatch for the duration of one benchmark run.
struct BackendScope {
  explicit BackendScope(const kernels::Backend* b) {
    kernels::OverrideBackend(b);
  }
  ~BackendScope() { kernels::OverrideBackend(nullptr); }
};

void BM_GemmBackend(benchmark::State& state) {
  const kernels::Backend* backend =
      BenchBackend(static_cast<int>(state.range(0)));
  if (backend == nullptr) {
    state.SkipWithError("AVX2 backend unavailable on this host");
    return;
  }
  const auto n = static_cast<int64_t>(state.range(1));
  Rng rng(1);
  Tensor a = Tensor::Uniform({n, n}, -1, 1, &rng);
  Tensor b = Tensor::Uniform({n, n}, -1, 1, &rng);
  Tensor c({n, n});
  BackendScope scope(backend);
  SetNumThreads(1);
  for (auto _ : state) {
    ops::Gemm(false, false, 1.0f, a, b, 0.0f, &c);
    benchmark::DoNotOptimize(c.data());
  }
  SetNumThreads(0);
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(backend->name);
}
BENCHMARK(BM_GemmBackend)
    ->ArgsProduct({{0, 1, 2}, {64, 128, 256}})
    ->UseRealTime();

// gemm_nn at the model-compatibility MLP's shapes whose A is a
// ReLU-masked gradient (batch 64; 13 features; hidden layers {64},
// {32, 16} or {64, 32}; a 1-unit head). Args: backend, m, n, k, percent
// of exact zeros in A. In the release-audit grid those A operands were
// measured at 48-57% zeros at random positions, which is what stresses
// the zero-skip; 0 is the dense control. n = 13 also exercises the 8-wide
// body plus a 5-column tail. The product cycles through several draws of
// A, so the branch predictor cannot learn one zero pattern (training sees
// a fresh one every step).
void BM_GemmSparseABackend(benchmark::State& state) {
  const kernels::Backend* backend =
      BenchBackend(static_cast<int>(state.range(0)));
  if (backend == nullptr) {
    state.SkipWithError("AVX2 backend unavailable on this host");
    return;
  }
  const int64_t m = state.range(1), n = state.range(2), k = state.range(3);
  const double zero_frac = static_cast<double>(state.range(4)) / 100.0;
  Rng rng(4);
  std::vector<Tensor> as;
  for (int v = 0; v < 16; ++v) {
    Tensor a = Tensor::Uniform({m, k}, -1, 1, &rng);
    for (int64_t i = 0; i < a.size(); ++i) {
      if (rng.NextBool(zero_frac)) a[i] = 0.0f;
    }
    as.push_back(std::move(a));
  }
  Tensor b = Tensor::Uniform({k, n}, -1, 1, &rng);
  Tensor c({m, n});
  BackendScope scope(backend);
  SetNumThreads(1);
  size_t v = 0;
  for (auto _ : state) {
    ops::Gemm(false, false, 1.0f, as[v], b, 0.0f, &c);
    v = (v + 1) % as.size();
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  SetNumThreads(0);
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
  state.SetLabel(backend->name);
}
BENCHMARK(BM_GemmSparseABackend)
    ->ArgsProduct({{0, 1, 2}, {64}, {13}, {64}, {0, 50}})
    ->ArgsProduct({{0, 1, 2}, {64}, {64}, {32}, {0, 50}})
    ->ArgsProduct({{0, 1, 2}, {64}, {32}, {16}, {0, 50}})
    ->ArgsProduct({{0, 1, 2}, {64}, {16}, {32}, {0, 50}})
    ->ArgsProduct({{0, 1, 2}, {64}, {1}, {64}, {0, 50}})
    ->UseRealTime();

void BM_GemmNtBackend(benchmark::State& state) {
  const kernels::Backend* backend =
      BenchBackend(static_cast<int>(state.range(0)));
  if (backend == nullptr) {
    state.SkipWithError("AVX2 backend unavailable on this host");
    return;
  }
  const auto n = static_cast<int64_t>(state.range(1));
  Rng rng(2);
  Tensor a = Tensor::Uniform({n, n}, -1, 1, &rng);
  Tensor b = Tensor::Uniform({n, n}, -1, 1, &rng);
  Tensor c({n, n});
  BackendScope scope(backend);
  SetNumThreads(1);
  for (auto _ : state) {
    ops::RawGemmNT(n, n, n, a.data(), b.data(), c.data(),
                   /*accumulate=*/false);
    benchmark::DoNotOptimize(c.data());
  }
  SetNumThreads(0);
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(backend->name);
}
BENCHMARK(BM_GemmNtBackend)
    ->ArgsProduct({{0, 1, 2}, {128, 256}})
    ->UseRealTime();

void BM_GemmTnBackend(benchmark::State& state) {
  const kernels::Backend* backend =
      BenchBackend(static_cast<int>(state.range(0)));
  if (backend == nullptr) {
    state.SkipWithError("AVX2 backend unavailable on this host");
    return;
  }
  const auto n = static_cast<int64_t>(state.range(1));
  Rng rng(3);
  Tensor a = Tensor::Uniform({n, n}, -1, 1, &rng);
  Tensor b = Tensor::Uniform({n, n}, -1, 1, &rng);
  Tensor c({n, n});
  BackendScope scope(backend);
  SetNumThreads(1);
  for (auto _ : state) {
    ops::RawGemmTN(n, n, n, a.data(), b.data(), c.data(),
                   /*accumulate=*/false);
    benchmark::DoNotOptimize(c.data());
  }
  SetNumThreads(0);
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(backend->name);
}
BENCHMARK(BM_GemmTnBackend)
    ->ArgsProduct({{0, 1, 2}, {128, 256}})
    ->UseRealTime();

void BM_ConvForwardBackend(benchmark::State& state) {
  const kernels::Backend* backend =
      BenchBackend(static_cast<int>(state.range(0)));
  if (backend == nullptr) {
    state.SkipWithError("AVX2 backend unavailable on this host");
    return;
  }
  Rng rng(4);
  nn::Conv2d conv(32, 64, 4, 2, 1);
  nn::DcganInitialize(&conv, &rng);
  Tensor x = Tensor::Uniform({64, 32, 16, 16}, -1, 1, &rng);
  BackendScope scope(backend);
  SetNumThreads(1);
  for (auto _ : state) {
    Tensor y = conv.Forward(x, true);
    benchmark::DoNotOptimize(y.data());
  }
  SetNumThreads(0);
  state.SetItemsProcessed(state.iterations() * 64);
  state.SetLabel(backend->name);
}
BENCHMARK(BM_ConvForwardBackend)->Arg(0)->Arg(1)->Arg(2)->UseRealTime();

void BM_ActivationBackend(benchmark::State& state) {
  const kernels::Backend* backend =
      BenchBackend(static_cast<int>(state.range(0)));
  if (backend == nullptr) {
    state.SkipWithError("AVX2 backend unavailable on this host");
    return;
  }
  const int64_t n = 1 << 16;
  Rng rng(5);
  Tensor x = Tensor::Uniform({n}, -1, 1, &rng);
  Tensor y({n});
  for (auto _ : state) {
    backend->leaky_relu(n, 0.2f, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(backend->name);
}
BENCHMARK(BM_ActivationBackend)->Arg(0)->Arg(1)->Arg(2);

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<int64_t>(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::Uniform({n, n}, -1, 1, &rng);
  Tensor b = Tensor::Uniform({n, n}, -1, 1, &rng);
  Tensor c({n, n});
  for (auto _ : state) {
    ops::Gemm(false, false, 1.0f, a, b, 0.0f, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_ConvForward(benchmark::State& state) {
  const auto batch = static_cast<int64_t>(state.range(0));
  Rng rng(2);
  nn::Conv2d conv(1, 32, 4, 2, 1);
  nn::DcganInitialize(&conv, &rng);
  Tensor x = Tensor::Uniform({batch, 1, 8, 8}, -1, 1, &rng);
  for (auto _ : state) {
    Tensor y = conv.Forward(x, true);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ConvForward)->Arg(16)->Arg(64);

void BM_ConvBackward(benchmark::State& state) {
  const auto batch = static_cast<int64_t>(state.range(0));
  Rng rng(3);
  nn::Conv2d conv(1, 32, 4, 2, 1);
  nn::DcganInitialize(&conv, &rng);
  Tensor x = Tensor::Uniform({batch, 1, 8, 8}, -1, 1, &rng);
  Tensor y = conv.Forward(x, true);
  Tensor grad = Tensor::Uniform(y.shape(), -1, 1, &rng);
  for (auto _ : state) {
    conv.ZeroGrad();
    Tensor gx = conv.Backward(grad);
    benchmark::DoNotOptimize(gx.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ConvBackward)->Arg(16)->Arg(64);

// Thread-scaling sweep: the same kernels at 1/2/4/8 worker threads. Every
// parallel kernel is bitwise deterministic, so the sweep measures pure
// speedup, not a numerics trade-off. (On a single-core host the sweep
// still runs the threaded code paths; the recorded speedup is ~1x.)

void BM_GemmThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const auto n = static_cast<int64_t>(state.range(1));
  SetNumThreads(threads);
  Rng rng(1);
  Tensor a = Tensor::Uniform({n, n}, -1, 1, &rng);
  Tensor b = Tensor::Uniform({n, n}, -1, 1, &rng);
  Tensor c({n, n});
  for (auto _ : state) {
    ops::Gemm(false, false, 1.0f, a, b, 0.0f, &c);
    benchmark::DoNotOptimize(c.data());
  }
  SetNumThreads(0);
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.counters["threads"] = threads;
}
BENCHMARK(BM_GemmThreads)
    ->ArgsProduct({{1, 2, 4, 8}, {128, 256}})
    ->UseRealTime();

void BM_ConvForwardThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  SetNumThreads(threads);
  Rng rng(2);
  // Mid-stack discriminator layer at DCGAN width: 32->64, k4 s2 p1.
  nn::Conv2d conv(32, 64, 4, 2, 1);
  nn::DcganInitialize(&conv, &rng);
  Tensor x = Tensor::Uniform({64, 32, 16, 16}, -1, 1, &rng);
  for (auto _ : state) {
    Tensor y = conv.Forward(x, true);
    benchmark::DoNotOptimize(y.data());
  }
  SetNumThreads(0);
  state.SetItemsProcessed(state.iterations() * 64);
  state.counters["threads"] = threads;
}
BENCHMARK(BM_ConvForwardThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

void BM_ConvBackwardThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  SetNumThreads(threads);
  Rng rng(3);
  nn::Conv2d conv(32, 64, 4, 2, 1);
  nn::DcganInitialize(&conv, &rng);
  Tensor x = Tensor::Uniform({64, 32, 16, 16}, -1, 1, &rng);
  Tensor y = conv.Forward(x, true);
  Tensor grad = Tensor::Uniform(y.shape(), -1, 1, &rng);
  for (auto _ : state) {
    conv.ZeroGrad();
    Tensor gx = conv.Backward(grad);
    benchmark::DoNotOptimize(gx.data());
  }
  SetNumThreads(0);
  state.SetItemsProcessed(state.iterations() * 64);
  state.counters["threads"] = threads;
}
BENCHMARK(BM_ConvBackwardThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

void BM_ConvTransposeForwardThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  SetNumThreads(threads);
  Rng rng(4);
  // Mid-stack generator layer: 64->32 upsampling, k4 s2 p1.
  nn::ConvTranspose2d deconv(64, 32, 4, 2, 1);
  nn::DcganInitialize(&deconv, &rng);
  Tensor x = Tensor::Uniform({64, 64, 8, 8}, -1, 1, &rng);
  for (auto _ : state) {
    Tensor y = deconv.Forward(x, true);
    benchmark::DoNotOptimize(y.data());
  }
  SetNumThreads(0);
  state.SetItemsProcessed(state.iterations() * 64);
  state.counters["threads"] = threads;
}
BENCHMARK(BM_ConvTransposeForwardThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

void BM_GeneratorSample(benchmark::State& state) {
  Rng rng(4);
  auto g = core::BuildGenerator(/*side=*/8, /*latent_dim=*/32,
                                /*base_channels=*/16, &rng);
  Tensor z = Tensor::Uniform({64, 32}, -1, 1, &rng);
  for (auto _ : state) {
    Tensor out = g->Forward(z, false);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_GeneratorSample);

void BM_TableEncode(benchmark::State& state) {
  Rng rng(5);
  data::Table table = data::MakeHealthLike(1000, &rng);
  data::MinMaxNormalizer norm;
  (void)norm.Fit(table);
  data::RecordMatrixCodec codec(
      table.num_columns(),
      data::RecordMatrixCodec::ChooseSide(table.num_columns()));
  for (auto _ : state) {
    Tensor records = *norm.Transform(table);
    Tensor mats = *codec.ToMatrices(records);
    benchmark::DoNotOptimize(mats.data());
  }
  state.SetItemsProcessed(state.iterations() * table.num_rows());
}
BENCHMARK(BM_TableEncode);

void BM_DcrSearch(benchmark::State& state) {
  const auto rows = static_cast<int64_t>(state.range(0));
  Rng rng(6);
  data::Table a = data::MakeAdultLike(rows, &rng);
  data::Table b = data::MakeAdultLike(rows, &rng);
  const auto cols = privacy::QidAndSensitiveColumns(a.schema());
  for (auto _ : state) {
    auto dcr = privacy::ComputeDcr(a, b, cols);
    benchmark::DoNotOptimize(dcr->mean);
  }
  state.SetItemsProcessed(state.iterations() * rows * rows);
}
BENCHMARK(BM_DcrSearch)->Arg(256)->Arg(1024);

// Evaluation-pipeline thread sweeps: DCR search, per-column fidelity and
// generator sampling at 1/2/4/8 workers. items_per_second reads as
// row-pairs/sec (DCR), rows/sec (fidelity over pooled rows), and
// synthetic rows/sec (sampling).

void BM_DcrSearchThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const auto rows = static_cast<int64_t>(state.range(1));
  SetNumThreads(threads);
  Rng rng(6);
  data::Table a = data::MakeAdultLike(rows, &rng);
  data::Table b = data::MakeAdultLike(rows, &rng);
  const auto cols = privacy::QidAndSensitiveColumns(a.schema());
  for (auto _ : state) {
    auto dcr = privacy::ComputeDcr(a, b, cols);
    benchmark::DoNotOptimize(dcr->mean);
  }
  SetNumThreads(0);
  state.SetItemsProcessed(state.iterations() * rows * rows);
  state.counters["threads"] = threads;
}
BENCHMARK(BM_DcrSearchThreads)
    ->ArgsProduct({{1, 2, 4, 8}, {1024}})
    ->UseRealTime();

void BM_FidelityThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  SetNumThreads(threads);
  Rng rng(7);
  data::Table a = data::MakeAdultLike(2000, &rng);
  data::Table b = data::MakeAdultLike(2000, &rng);
  for (auto _ : state) {
    auto report = eval::EvaluateFidelity(a, b);
    benchmark::DoNotOptimize(report->mean_ks);
  }
  SetNumThreads(0);
  state.SetItemsProcessed(state.iterations() * (a.num_rows() + b.num_rows()));
  state.counters["threads"] = threads;
}
BENCHMARK(BM_FidelityThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_SampleThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  Rng rng(8);
  data::Table table = data::MakeAdultLike(128, &rng);
  const auto labels =
      table.schema().ColumnsWithRole(data::ColumnRole::kLabel);
  core::TableGanOptions options;
  options.epochs = 1;
  options.batch_size = 32;
  options.base_channels = 8;
  options.latent_dim = 16;
  options.seed = 9;
  options.num_threads = threads;
  core::TableGan gan(options);
  if (!gan.Fit(table, labels[0]).ok()) {
    state.SkipWithError("Fit failed");
    return;
  }
  const int64_t rows = 512;
  for (auto _ : state) {
    auto samples = gan.Sample(rows);
    benchmark::DoNotOptimize(samples->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.counters["threads"] = threads;
}
BENCHMARK(BM_SampleThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace
}  // namespace tablegan

BENCHMARK_MAIN();
