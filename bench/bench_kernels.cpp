// Microbenchmarks of the real host kernels (google-benchmark): the dense
// BLAS substrate, the sparse-update codelet, and the end-to-end
// sequential factorization.  These are the numbers a host calibration
// would feed into the simulator's CPU model.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <limits>

#include "common/rng.hpp"
#include "core/analysis.hpp"
#include "core/sequential.hpp"
#include "kernels/dense.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/scatter.hpp"
#include "mat/generators.hpp"

namespace spx {
namespace {
namespace k = kernels;

void BM_GemmNT(benchmark::State& state) {
  const index_t m = static_cast<index_t>(state.range(0));
  const index_t n = 128, kk = 128;
  Rng rng(1);
  std::vector<real_t> a(static_cast<std::size_t>(m) * kk),
      b(static_cast<std::size_t>(n) * kk), c(static_cast<std::size_t>(m) * n);
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (auto& v : b) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    k::gemm_nt<real_t>(m, n, kk, -1.0, a.data(), m, b.data(), n, 1.0,
                       c.data(), m);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      flops_gemm(m, n, kk) * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmNT)->Arg(64)->Arg(256)->Arg(1024)->Iterations(20);

// Square m=n=k GEMM: the acceptance shape of the dispatch layer
// (docs/KERNELS.md records the generic-vs-SIMD ratio at 256+).
void BM_GemmNTSquare(benchmark::State& state) {
  const index_t n = static_cast<index_t>(state.range(0));
  Rng rng(11);
  std::vector<real_t> a(static_cast<std::size_t>(n) * n),
      b(static_cast<std::size_t>(n) * n), c(static_cast<std::size_t>(n) * n);
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (auto& v : b) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    k::gemm_nt<real_t>(n, n, n, -1.0, a.data(), n, b.data(), n, 1.0,
                       c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      flops_gemm(n, n, n) * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmNTSquare)->Arg(256)->Arg(384)->Iterations(20);

void BM_GemmNTSquareFp32(benchmark::State& state) {
  const index_t n = static_cast<index_t>(state.range(0));
  Rng rng(12);
  std::vector<real32_t> a(static_cast<std::size_t>(n) * n),
      b(static_cast<std::size_t>(n) * n), c(static_cast<std::size_t>(n) * n);
  for (auto& v : a) v = static_cast<real32_t>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<real32_t>(rng.uniform(-1, 1));
  for (auto _ : state) {
    k::gemm_nt<real32_t>(n, n, n, -1.0f, a.data(), n, b.data(), n, 1.0f,
                         c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      flops_gemm(n, n, n) * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmNTSquareFp32)->Arg(256)->Arg(384)->Iterations(20);

void BM_GemmNTComplex(benchmark::State& state) {
  const index_t m = static_cast<index_t>(state.range(0));
  const index_t n = 64, kk = 64;
  Rng rng(2);
  std::vector<complex_t> a(static_cast<std::size_t>(m) * kk),
      b(static_cast<std::size_t>(n) * kk), c(static_cast<std::size_t>(m) * n);
  for (auto& v : a) v = rng.scalar<complex_t>();
  for (auto& v : b) v = rng.scalar<complex_t>();
  for (auto _ : state) {
    k::gemm_nt<complex_t>(m, n, kk, complex_t(-1.0), a.data(), m, b.data(),
                          n, complex_t(1.0), c.data(), m);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmNTComplex)->Arg(256)->Iterations(20);

void BM_Potrf(benchmark::State& state) {
  const index_t n = static_cast<index_t>(state.range(0));
  Rng rng(3);
  std::vector<real_t> base(static_cast<std::size_t>(n) * n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      base[i + static_cast<std::size_t>(j) * n] =
          (i == j) ? n + 1.0 : 0.5 * rng.uniform(-1, 1);
    }
  }
  for (auto _ : state) {
    auto a = base;
    k::potrf<real_t>(n, a.data(), n);
    benchmark::DoNotOptimize(a.data());
  }
}
BENCHMARK(BM_Potrf)->Arg(64)->Arg(128)->Arg(256)->Iterations(20);

void BM_TrsmRLT(benchmark::State& state) {
  const index_t m = static_cast<index_t>(state.range(0)), n = 128;
  Rng rng(4);
  std::vector<real_t> l(static_cast<std::size_t>(n) * n),
      x(static_cast<std::size_t>(m) * n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) {
      l[i + static_cast<std::size_t>(j) * n] =
          (i == j) ? n + 1.0 : rng.uniform(-1, 1);
    }
  }
  for (auto& v : x) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    k::trsm_right_lower_trans<real_t>(m, n, l.data(), n, x.data(), m, false);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_TrsmRLT)->Arg(256)->Arg(1024)->Iterations(20);

// The sparse-update codelet on the heaviest edge of a 14^3 grid: one
// mapped GEMM straight into the gapped panel (the paper's Fig. 3 kernel
// with no temporary buffer).
struct UpdateFixture {
  Analysis an = analyze(gen::grid3d_laplacian(14, 14, 14));
  FactorData<real_t> f{an.structure, Factorization::LLT};
  index_t src = -1;
  index_t edge = -1;

  UpdateFixture() {
    // Pick the heaviest update edge.
    double best = -1;
    for (index_t p = 0; p < an.structure.num_panels(); ++p) {
      for (index_t e = 0;
           e < static_cast<index_t>(an.structure.targets[p].size()); ++e) {
        const double fl = an.structure.update_task_flops(
            p, an.structure.targets[p][e], Factorization::LLT);
        if (fl > best) {
          best = fl;
          src = p;
          edge = e;
        }
      }
    }
    Rng rng(5);
    for (auto& v : std::span<real_t>(f.panel_l(0),
                                     (std::size_t)an.structure.factor_entries)) {
      v = rng.uniform(-0.1, 0.1);
    }
  }
};

void BM_Update(benchmark::State& state) {
  static UpdateFixture fx;
  Workspace<real_t> ws;
  for (auto _ : state) {
    apply_update(fx.f, fx.src, fx.an.structure.targets[fx.src][fx.edge], ws);
    benchmark::DoNotOptimize(fx.f.panel_l(0));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Update)->Iterations(50);

void BM_SequentialCholesky(benchmark::State& state) {
  const auto a = gen::grid3d_laplacian(10, 10, 10);
  const Analysis an = analyze(a);
  const auto ap = permute_symmetric(a, an.perm);
  for (auto _ : state) {
    FactorData<real_t> f(an.structure, Factorization::LLT);
    f.initialize(ap);
    factorize_sequential(f);
    benchmark::DoNotOptimize(f.panel_l(0));
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      an.total_flops(Factorization::LLT) *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SequentialCholesky)->Iterations(3);

}  // namespace

// --verify smoke mode (wired into ctest as bench_kernels_verify): runs a
// compact GEMM conformance check against the *_ref oracle for every ISA
// tier this host/build supports and prints the dispatch decision.  This is
// the CI guard that the selected variant is not silently wrong on the
// machine the benchmarks ran on.  The mapped update GEMM is checked too:
// rows in runs of 3 with gaps of 2, columns in two blocks with a
// trapezoid, against gemm_nt_ref into a buffer subtracted through the
// same maps, and no entry outside the written footprint may change.

/// Max |error| / k of gemm_nt_mapped against the oracle at (m, n, k), or
/// infinity when an entry outside the footprint changed.
template <typename T>
double verify_mapped(index_t m, index_t n, index_t kk, Rng& rng) {
  std::vector<index_t> rows(static_cast<std::size_t>(m));
  std::vector<index_t> cols(static_cast<std::size_t>(n));
  std::vector<index_t> first(static_cast<std::size_t>(n));
  for (index_t i = 0; i < m; ++i) rows[i] = i + 2 * (i / 3);
  const index_t block = n / 2;  // second column block starts here
  for (index_t j = 0; j < n; ++j) {
    cols[j] = j < block ? j : j + 3;
    first[j] = j < block ? 0 : block;
  }
  const index_t ldc = m == 0 ? 1 : rows[m - 1] + 4;
  const index_t ncols = n == 0 ? 1 : cols[n - 1] + 1;
  std::vector<T> a(static_cast<std::size_t>(m) * kk),
      b(static_cast<std::size_t>(n) * kk),
      p(static_cast<std::size_t>(m) * n),
      c0(static_cast<std::size_t>(ldc) * ncols);
  for (auto& v : a) v = rng.scalar<T>();
  for (auto& v : b) v = rng.scalar<T>();
  for (auto& v : c0) v = rng.scalar<T>();
  std::vector<T> ref = c0;
  k::gemm_nt_ref<T>(m, n, kk, T(1), a.data(), std::max<index_t>(1, m),
                    b.data(), std::max<index_t>(1, n), T(0), p.data(),
                    std::max<index_t>(1, m));
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = first[j]; i < m; ++i) {
      ref[rows[i] + static_cast<std::size_t>(cols[j]) * ldc] -=
          p[i + static_cast<std::size_t>(j) * m];
    }
  }
  std::vector<T> got = c0;
  k::gemm_nt_mapped<T>(m, n, kk, a.data(), std::max<index_t>(1, m),
                       b.data(), std::max<index_t>(1, n),
                       {got.data(), ldc, rows.data(), cols.data(),
                        first.data()});
  double worst = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (ref[i] == c0[i] &&
        std::memcmp(&got[i], &c0[i], sizeof(T)) != 0) {
      return std::numeric_limits<double>::infinity();
    }
    worst = std::max(worst,
                     static_cast<double>(magnitude<T>(got[i] - ref[i])) /
                         std::max<index_t>(1, kk));
  }
  return worst;
}

template <typename T>
bool verify_type(const char* type_name, double tol_unit) {
  const index_t sizes[] = {1, 7, 48, 96, 129};
  bool all_ok = true;
  for (const k::Isa isa : k::Dispatch::instance().supported()) {
    k::ScopedIsaOverride force(isa);
    if (!force.ok()) continue;
    double worst = 0.0;
    Rng rng(31);
    for (const index_t m : sizes) {
      for (const index_t n : sizes) {
        for (const index_t kk : sizes) {
          std::vector<T> a(static_cast<std::size_t>(m) * kk),
              b(static_cast<std::size_t>(n) * kk),
              bn(static_cast<std::size_t>(kk) * n),
              c0(static_cast<std::size_t>(m) * n);
          for (auto& v : a) v = rng.scalar<T>();
          for (auto& v : b) v = rng.scalar<T>();
          for (auto& v : bn) v = rng.scalar<T>();
          for (auto& v : c0) v = rng.scalar<T>();
          auto ref = c0;
          auto got = c0;
          k::gemm_nt_ref<T>(m, n, kk, T(-1), a.data(), m, b.data(), n, T(1),
                            ref.data(), m);
          k::gemm_nt<T>(m, n, kk, T(-1), a.data(), m, b.data(), n, T(1),
                        got.data(), m);
          for (std::size_t i = 0; i < got.size(); ++i) {
            worst = std::max(
                worst, static_cast<double>(magnitude<T>(got[i] - ref[i])) /
                           std::max<index_t>(1, kk));
          }
          ref = c0;
          got = c0;
          k::gemm_nn_ref<T>(m, n, kk, T(-1), a.data(), m, bn.data(), kk,
                            T(1), ref.data(), m);
          k::gemm_nn<T>(m, n, kk, T(-1), a.data(), m, bn.data(), kk, T(1),
                        got.data(), m);
          for (std::size_t i = 0; i < got.size(); ++i) {
            worst = std::max(
                worst, static_cast<double>(magnitude<T>(got[i] - ref[i])) /
                           std::max<index_t>(1, kk));
          }
          worst = std::max(worst, verify_mapped<T>(m, n, kk, rng));
        }
      }
    }
    const bool ok = worst < tol_unit;
    std::printf("  %-8s %-8s max|err|/k = %.3e  %s\n", type_name,
                k::to_string(isa), worst, ok ? "OK" : "FAIL");
    all_ok = all_ok && ok;
  }
  return all_ok;
}

int run_verify() {
  std::printf("dispatch: %s\n", k::Dispatch::instance().describe().c_str());
  bool ok = verify_type<real_t>("fp64", 1e-12);
  ok = verify_type<real32_t>("fp32", 2e-4) && ok;
  std::printf("verify: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace spx

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verify") == 0) return spx::run_verify();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
