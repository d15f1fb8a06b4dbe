// Functional CPU GEMM benchmark: measured wall-clock of the numerically
// verified kernels.  This is NOT a GPU performance claim — it is a second,
// executable witness of the paper's argument on a CPU: the LiquidGEMM main
// loop (4-bit codes straight into INT8 dot products, Eq. 12 applied as a
// per-group scale and offset) does less work per weight than the QServe- and
// W8A8-style loops, independent of the simulator.
//
// The unsuffixed BM_* benchmarks run whatever provider `GemmProvider::kAuto`
// resolves to (LIQUID_GEMM_PROVIDER env override, then CPUID); a suffixed
// variant per available provider (e.g. BM_GemmW4A8Liquid/reference vs
// BM_GemmW4A8Liquid/avx2) is registered at startup so one run produces the
// scalar-vs-SIMD comparison table.  The JSON context records the provenance
// needed to compare two runs: hardware threads, OpenMP threads, active
// provider and build type.
//
// `--check-speedup` switches to gate mode on the W4A8 LiquidGEMM hot kernel
// (16x512x2048) and exits non-zero, where AVX2 is available, unless the AVX2
// provider is >= 3x faster than the scalar reference AND no slower than the
// AVX2 W8A8 kernel on the same problem — the CI perf regression gates.  The
// gate lines carry the same provenance.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "bench_common.hpp"
#include "core/gemm/gemm.hpp"
#include "util/rng.hpp"
#include "util/wall_timer.hpp"

namespace {

using namespace liquid;

struct Problem {
  MatrixF x;
  MatrixF w;
  QuantizedActivations xq;
};

Problem Make(std::size_t m, std::size_t n, std::size_t k) {
  Rng rng(7);
  Problem p{MatrixF(m, k), MatrixF(n, k), {}};
  for (auto& v : p.x.Flat()) v = static_cast<float>(rng.Normal(0, 1));
  for (auto& v : p.w.Flat()) v = static_cast<float>(rng.Normal(0, 0.05));
  p.xq = QuantizeActivationsPerToken(p.x);
  return p;
}

constexpr std::size_t kM = 16;
constexpr std::size_t kN = 512;
constexpr std::size_t kK = 2048;

// --- kAuto benchmarks (stable names; the active provider) -------------------

void BM_GemmW4A8Liquid(benchmark::State& state) {
  const Problem p = Make(kM, kN, kK);
  const LqqWeights w = QuantizeWeightsLqq(p.w);
  for (auto _ : state) {
    MatrixF y = GemmW4A8Liquid(p.xq, w);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_GemmW4A8Liquid)->Unit(benchmark::kMillisecond);

void BM_GemmW4A8Qserve(benchmark::State& state) {
  const Problem p = Make(kM, kN, kK);
  const QserveWeights w = QuantizeWeightsQserve(p.w);
  for (auto _ : state) {
    MatrixF y = GemmW4A8Qserve(p.xq, w);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_GemmW4A8Qserve)->Unit(benchmark::kMillisecond);

void BM_GemmW8A8(benchmark::State& state) {
  const Problem p = Make(kM, kN, kK);
  const W8A8Weights w = QuantizeWeightsW8A8(p.w);
  for (auto _ : state) {
    MatrixF y = GemmW8A8(p.xq, w);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_GemmW8A8)->Unit(benchmark::kMillisecond);

void BM_GemmFp32Reference(benchmark::State& state) {
  const Problem p = Make(kM, kN, kK);
  for (auto _ : state) {
    MatrixF y = GemmReference(p.x, p.w);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_GemmFp32Reference)->Unit(benchmark::kMillisecond);

// The float-input call at the same decode shape, and its prologue: the gap
// between BM_LiquidGemm and BM_GemmW4A8Liquid is what a caller pays around
// the kernel, and BM_QuantizeActivationsPerToken is most of it.
void BM_LiquidGemm(benchmark::State& state) {
  const Problem p = Make(kM, kN, kK);
  const LqqWeights w = QuantizeWeightsLqq(p.w);
  for (auto _ : state) {
    MatrixF y = LiquidGemm(p.x, w);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_LiquidGemm)->Unit(benchmark::kMillisecond);

void BM_QuantizeActivationsPerToken(benchmark::State& state) {
  const Problem p = Make(kM, kN, kK);
  for (auto _ : state) {
    QuantizedActivations xq = QuantizeActivationsPerToken(p.x);
    benchmark::DoNotOptimize(xq.q.data());
  }
}
BENCHMARK(BM_QuantizeActivationsPerToken)->Unit(benchmark::kMicrosecond);

void BM_QuantizeWeightsLqq(benchmark::State& state) {
  // Offline cost: two-level quantization + packing of a 512x2048 tensor.
  const Problem p = Make(1, kN, kK);
  for (auto _ : state) {
    LqqWeights w = QuantizeWeightsLqq(p.w);
    benchmark::DoNotOptimize(w.packed().data());
  }
}
BENCHMARK(BM_QuantizeWeightsLqq)->Unit(benchmark::kMillisecond);

void BM_PackDualMma(benchmark::State& state) {
  const Problem p = Make(1, kN, kK);
  const LqqWeights w = QuantizeWeightsLqq(p.w);
  for (auto _ : state) {
    DualMmaPackedWeights packed = PackDualMma(w);
    benchmark::DoNotOptimize(packed.regs.data());
  }
}
BENCHMARK(BM_PackDualMma)->Unit(benchmark::kMillisecond);

// --- per-provider variants (registered for every available provider) --------

void RegisterPerProviderBenchmarks() {
  for (const GemmProvider provider : AvailableGemmProviders()) {
    const std::string suffix = std::string("/") + GemmProviderName(provider);
    benchmark::RegisterBenchmark(
        ("BM_GemmW4A8Liquid" + suffix).c_str(),
        [provider](benchmark::State& state) {
          const Problem p = Make(kM, kN, kK);
          const LqqWeights w = QuantizeWeightsLqq(p.w);
          for (auto _ : state) {
            MatrixF y = GemmW4A8Liquid(p.xq, w, provider);
            benchmark::DoNotOptimize(y.data());
          }
        })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("BM_GemmW4A8Qserve" + suffix).c_str(),
        [provider](benchmark::State& state) {
          const Problem p = Make(kM, kN, kK);
          const QserveWeights w = QuantizeWeightsQserve(p.w);
          for (auto _ : state) {
            MatrixF y = GemmW4A8Qserve(p.xq, w, provider);
            benchmark::DoNotOptimize(y.data());
          }
        })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("BM_GemmW8A8" + suffix).c_str(),
        [provider](benchmark::State& state) {
          const Problem p = Make(kM, kN, kK);
          const W8A8Weights w = QuantizeWeightsW8A8(p.w);
          for (auto _ : state) {
            MatrixF y = GemmW8A8(p.xq, w, provider);
            benchmark::DoNotOptimize(y.data());
          }
        })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("BM_GemmFp32" + suffix).c_str(),
        [provider](benchmark::State& state) {
          const Problem p = Make(kM, kN, kK);
          for (auto _ : state) {
            MatrixF y = GemmReference(p.x, p.w, provider);
            benchmark::DoNotOptimize(y.data());
          }
        })
        ->Unit(benchmark::kMillisecond);
  }
}

// --- provenance --------------------------------------------------------------

void AddToBenchmarkContext(const bench::Provenance& p) {
  benchmark::AddCustomContext("hardware_threads",
                              std::to_string(p.hardware_threads));
  benchmark::AddCustomContext("omp_max_threads",
                              std::to_string(p.omp_max_threads));
  benchmark::AddCustomContext("gemm_provider", p.provider);
  benchmark::AddCustomContext("build_type", p.build_type);
}

// --- gate mode ---------------------------------------------------------------

template <typename Fn>
double BestOfMs(int reps, Fn&& gemm) {
  // MinSecondsOver runs one untimed warm-up call (page faults, provider
  // resolution) before taking the min over `reps` timed calls.
  return 1e3 * MinSecondsOver(reps, [&] {
           MatrixF out = gemm();
           benchmark::DoNotOptimize(out.data());
         });
}

/// Gates on the W4A8 hot kernel: AVX2 must beat the scalar reference by
/// >= 3x, and AVX2 LiquidGEMM must be no slower than AVX2 W8A8 on the same
/// problem.  Returns the process exit code.
int CheckSpeedup() {
  const bench::Provenance provenance;
  std::printf("check-speedup: %s\n", provenance.Line().c_str());
  if (!GemmProviderAvailable(GemmProvider::kAvx2)) {
    std::printf(
        "check-speedup: AVX2 provider unavailable on this machine/build; "
        "skipping (ok)\n");
    return 0;
  }
  const Problem p = Make(kM, kN, kK);
  const LqqWeights w = QuantizeWeightsLqq(p.w);
  const W8A8Weights w8 = QuantizeWeightsW8A8(p.w);
  constexpr int kReps = 30;
  const double ref_ms = BestOfMs(kReps, [&] {
    return GemmW4A8Liquid(p.xq, w, GemmProvider::kReference);
  });
  const double avx2_ms = BestOfMs(
      kReps, [&] { return GemmW4A8Liquid(p.xq, w, GemmProvider::kAvx2); });
  const double w8a8_ms = BestOfMs(
      kReps, [&] { return GemmW8A8(p.xq, w8, GemmProvider::kAvx2); });
  const double speedup = ref_ms / avx2_ms;
  const double vs_w8a8 = w8a8_ms / avx2_ms;
  std::printf(
      "check-speedup: BM_GemmW4A8Liquid %zux%zux%zu  reference=%.3fms  "
      "avx2=%.3fms  speedup=%.2fx (gate: >= 3x)  [%s]\n",
      kM, kN, kK, ref_ms, avx2_ms, speedup, provenance.Line().c_str());
  std::printf(
      "check-speedup: BM_GemmW8A8 %zux%zux%zu  avx2=%.3fms  "
      "LiquidGEMM/W8A8 speedup=%.2fx (gate: >= 1x)  [%s]\n",
      kM, kN, kK, w8a8_ms, vs_w8a8, provenance.Line().c_str());
  int status = 0;
  if (speedup < 3.0) {
    std::printf("check-speedup: FAIL — AVX2 below the 3x gate\n");
    status = 1;
  }
  if (vs_w8a8 < 1.0) {
    std::printf(
        "check-speedup: FAIL — AVX2 W4A8 LiquidGEMM slower than AVX2 W8A8\n");
    status = 1;
  }
  if (status == 0) std::printf("check-speedup: OK\n");
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check-speedup") == 0) {
      return CheckSpeedup();
    }
  }
  RegisterPerProviderBenchmarks();
  benchmark::Initialize(&argc, argv);
  AddToBenchmarkContext(bench::Provenance());
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
