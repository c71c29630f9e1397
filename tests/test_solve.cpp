// Solve-phase tests: single- vs multi-RHS consistency, leading-dimension
// handling, refinement, cross-kind coverage, and solves across cores.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <stop_token>
#include <thread>

#include "core/sequential.hpp"
#include "core/solver.hpp"
#include "mat/generators.hpp"
#include "mat/triplets.hpp"
#include "obs/metrics.hpp"
#include "test_support.hpp"

namespace spx {
namespace {

template <typename T>
FactorData<T> factored(const CscMatrix<T>& a, const Analysis& an,
                       Factorization kind) {
  FactorData<T> f(an.structure, kind);
  f.initialize(permute_symmetric(a, an.perm));
  factorize_sequential(f);
  return f;
}

/// nrhs on both sides of the vector/tile routing constant, at and around
/// the packed GEMM's NR = 8 and MR = 16 register-tile edges, past its
/// m*n*k < 2048 small-product cutoff, and one column past 64.
constexpr index_t kMultiRhsCounts[] = {1, 2, 3, 7, 8, 9, 17, 64, 65};

template <typename T>
void check_multi_matches_single(const FactorData<T>& f, index_t nrhs) {
  const index_t n = f.structure().num_cols();
  Rng rng(400 + static_cast<std::uint64_t>(nrhs));
  std::vector<T> b(static_cast<std::size_t>(n) * nrhs);
  for (auto& v : b) v = rng.scalar<T>();

  // Multi-RHS in one shot.
  std::vector<T> multi = b;
  solve_permuted_multi(f, multi.data(), nrhs, n);
  // Column by column through the single-RHS path.
  std::vector<T> single = b;
  for (index_t c = 0; c < nrhs; ++c) {
    solve_permuted(f,
                   std::span<T>(single.data() + std::size_t(c) * n, n));
  }
  for (std::size_t i = 0; i < multi.size(); ++i) {
    EXPECT_LT(magnitude<T>(multi[i] - single[i]), 1e-12)
        << "nrhs " << nrhs << ", entry " << i;
  }
}

template <typename T>
void check_multi_matches_single(const CscMatrix<T>& a, Factorization kind) {
  const Analysis an = analyze(a);
  const FactorData<T> f = factored(a, an, kind);
  for (const index_t nrhs : kMultiRhsCounts) {
    check_multi_matches_single(f, nrhs);
  }
}

TEST(MultiRhs, MatchesSingleCholesky) {
  check_multi_matches_single<real_t>(gen::grid3d_laplacian(6, 6, 6),
                                     Factorization::LLT);
}

TEST(MultiRhs, MatchesSingleLdlt) {
  Rng rng(401);
  check_multi_matches_single<real_t>(
      gen::random_sym_indefinite(90, 0.06, rng), Factorization::LDLT);
}

TEST(MultiRhs, MatchesSingleLu) {
  check_multi_matches_single<real_t>(
      gen::convection_diffusion3d(5, 5, 5, 8.0), Factorization::LU);
}

TEST(MultiRhs, MatchesSingleComplexLdlt) {
  check_multi_matches_single<complex_t>(gen::helmholtz3d(5, 5, 5),
                                        Factorization::LDLT);
}

TEST(MultiRhs, MatchesSingleComplexLu) {
  check_multi_matches_single<complex_t>(gen::filter3d(4, 4, 4),
                                        Factorization::LU);
}

/// True when some panel is wider than the 48-column TRSM block and some
/// supernode was split into several panels (wider than 128 columns).
bool has_wide_and_split_panels(const SymbolicStructure& st) {
  bool wide = false, split = false;
  for (index_t p = 0; p < st.num_panels(); ++p) {
    wide = wide || st.panels[p].width() > 48;
    split = split || (p > 0 && st.panels[p].supernode ==
                                   st.panels[p - 1].supernode);
  }
  return wide && split;
}

/// A 14^3 grid: its top separator (a 14 x 14 plane) is one supernode of
/// 196 columns, split into panels wider than the TRSM block.
template <typename T>
void check_wide_panels(const CscMatrix<T>& a, Factorization kind) {
  const Analysis an = analyze(a);
  ASSERT_TRUE(has_wide_and_split_panels(an.structure));
  const FactorData<T> f = factored(a, an, kind);
  for (const index_t nrhs : kMultiRhsCounts) {
    check_multi_matches_single(f, nrhs);
  }
}

/// The same pattern with every value scaled by `scale`: a complex
/// symmetric matrix whose plain-transpose factorizations are safe.
CscMatrix<complex_t> complex_scaled(const CscMatrix<real_t>& a,
                                    complex_t scale) {
  std::vector<complex_t> vals;
  vals.reserve(a.values().size());
  for (const real_t v : a.values()) vals.push_back(scale * v);
  return CscMatrix<complex_t>(
      a.nrows(), a.ncols(),
      std::vector<size_type>(a.colptr().begin(), a.colptr().end()),
      std::vector<index_t>(a.rowind().begin(), a.rowind().end()),
      std::move(vals));
}

TEST(MultiRhs, MatchesSingleAcrossPanelSplits) {
  const auto lap = gen::grid3d_laplacian(14, 14, 14);
  check_wide_panels<real_t>(lap, Factorization::LLT);
  check_wide_panels<real_t>(lap, Factorization::LDLT);
  check_wide_panels<real_t>(gen::convection_diffusion3d(14, 14, 14, 8.0),
                            Factorization::LU);
}

TEST(MultiRhs, MatchesSingleAcrossPanelSplitsComplex) {
  const auto a =
      complex_scaled(gen::grid3d_laplacian(14, 14, 14), complex_t(1, 0.1));
  for (const Factorization kind :
       {Factorization::LLT, Factorization::LDLT, Factorization::LU}) {
    check_wide_panels<complex_t>(a, kind);
  }
}

TEST(MultiRhs, RespectsLeadingDimension) {
  const auto a = gen::grid2d_laplacian(9, 9);
  const Analysis an = analyze(a);
  const FactorData<real_t> f = factored(a, an, Factorization::LLT);
  // nrhs 1 takes the vector sweep, 9 the RHS tile.
  for (const index_t nrhs : {index_t{1}, index_t{3}, index_t{9}}) {
    const index_t n = a.ncols(), ldx = n + 7;
    Rng rng(402);
    std::vector<real_t> x(static_cast<std::size_t>(ldx) * nrhs, -777.0);
    std::vector<real_t> compact(static_cast<std::size_t>(n) * nrhs);
    for (index_t c = 0; c < nrhs; ++c) {
      for (index_t i = 0; i < n; ++i) {
        const real_t v = rng.uniform(-1, 1);
        x[i + static_cast<std::size_t>(c) * ldx] = v;
        compact[i + static_cast<std::size_t>(c) * n] = v;
      }
    }
    solve_permuted_multi(f, x.data(), nrhs, ldx);
    solve_permuted_multi(f, compact.data(), nrhs, n);
    for (index_t c = 0; c < nrhs; ++c) {
      for (index_t i = 0; i < n; ++i) {
        EXPECT_NEAR(x[i + static_cast<std::size_t>(c) * ldx],
                    compact[i + static_cast<std::size_t>(c) * n], 1e-13)
            << "nrhs " << nrhs;
      }
      // Padding rows untouched.
      for (index_t i = n; i < ldx; ++i) {
        EXPECT_EQ(x[i + static_cast<std::size_t>(c) * ldx], -777.0)
            << "nrhs " << nrhs;
      }
    }
  }
}

TEST(MultiRhs, OneColumnMatchesSolveBitwise) {
  struct Input {
    CscMatrix<real_t> a;
    Factorization kind;
    bool degraded;
  };
  const auto grid = gen::grid3d_laplacian(6, 6, 6);
  const std::vector<Input> inputs = {
      {grid, Factorization::LLT, false},
      {grid, Factorization::LDLT, false},
      {grid, Factorization::LU, false},
      // A perturbed pivot: both solves refine against the retained matrix.
      {gen::tiny_pivot(64, 1e-25), Factorization::LDLT, true}};
  for (const Input& in : inputs) {
    SCOPED_TRACE(to_string(in.kind));
    Solver<real_t> solver;
    solver.analyze(in.a);
    solver.factorize(in.a, in.kind);
    ASSERT_EQ(solver.last_factorization_stats().quality.degraded(),
              in.degraded);
    Rng rng(405);
    std::vector<real_t> x(static_cast<std::size_t>(in.a.ncols()));
    for (auto& v : x) v = rng.uniform(-1, 1);
    std::vector<real_t> single(x.size());
    in.a.multiply(x, single);
    std::vector<real_t> multi = single;
    const SolveReport rs = solver.solve(single);
    const SolveReport rm = solver.solve_multi(multi, 1);
    EXPECT_EQ(single, multi);
    EXPECT_EQ(rs.degraded, in.degraded);
    EXPECT_EQ(rm.degraded, rs.degraded);
    EXPECT_EQ(rm.refine_iterations, rs.refine_iterations);
    EXPECT_EQ(rm.backward_error, rs.backward_error);
  }
}

TEST(MultiRhs, SolverFacadeEndToEnd) {
  SolverOptions opts;
  opts.runtime = RuntimeKind::Parsec;
  opts.num_threads = 2;
  Solver<real_t> solver(opts);
  const auto a = gen::grid3d_laplacian(5, 5, 5);
  solver.analyze(a);
  solver.factorize(a, Factorization::LLT);
  const index_t n = a.ncols(), nrhs = 4;
  Rng rng(403);
  std::vector<real_t> xstar(static_cast<std::size_t>(n) * nrhs);
  for (auto& v : xstar) v = rng.uniform(-1, 1);
  std::vector<real_t> b(xstar.size());
  for (index_t c = 0; c < nrhs; ++c) {
    a.multiply(std::span<const real_t>(xstar.data() + std::size_t(c) * n, n),
               std::span<real_t>(b.data() + std::size_t(c) * n, n));
  }
  solver.solve_multi(b, nrhs);
  double err = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    err = std::max(err, std::abs(b[i] - xstar[i]));
  }
  EXPECT_LT(err, 1e-9);
}

TEST(MultiRhs, SolverRejectsBadBlockSize) {
  Solver<real_t> solver;
  const auto a = gen::grid2d_laplacian(5, 5);
  solver.analyze(a);
  solver.factorize(a, Factorization::LLT);
  std::vector<real_t> b(a.ncols() * 2 + 1);
  EXPECT_THROW(solver.solve_multi(b, 2), InvalidArgument);
}

// ---------- solves across cores -----------------------------------------

/// nrhs around the vector/tile routing constant and the forward-DAG cut
/// (kForwardDagMaxRhs = 8), and one column past 64.
constexpr index_t kAcrossCoresRhs[] = {1, 2, 3, 8, 9, 64, 65};

/// `a` with a decoupled [[eps, 1], [1, eps]] block appended: LDL^T meets
/// the pivot eps there, perturbs it, and every solve refines.
CscMatrix<real_t> with_tiny_pivot(const CscMatrix<real_t>& a, double eps) {
  const index_t n = a.ncols();
  Triplets<real_t> t(n + 2, n + 2);
  for (index_t c = 0; c < n; ++c) {
    for (size_type k = a.colptr()[static_cast<std::size_t>(c)];
         k < a.colptr()[static_cast<std::size_t>(c) + 1]; ++k) {
      const auto ki = static_cast<std::size_t>(k);
      t.add(a.rowind()[ki], c, a.values()[ki]);
    }
  }
  t.add(n, n, eps);
  t.add(n + 1, n + 1, eps);
  t.add_sym(n + 1, n, 1.0);
  return t.to_csc();
}

/// Solves on the Sequential runtime, then on the same factors on every
/// task runtime at 2 and 4 threads: x and the report must not change by
/// a single bit.
template <typename T>
void check_across_cores(const CscMatrix<T>& a, Factorization kind,
                        bool degraded) {
  SolverOptions opts;
  opts.runtime = RuntimeKind::Sequential;
  Solver<T> solver(opts);
  solver.analyze(a);
  solver.factorize(a, kind);
  ASSERT_EQ(solver.last_factorization_stats().quality.degraded(), degraded);
  // Above the serial cutoff at every nrhs, so the task runtimes run the
  // sweeps as a DAG.
  ASSERT_GE(static_cast<double>(solver.analysis().structure.factor_entries),
            kParallelSolveMinWork);
  const index_t n = a.ncols();
  for (const index_t nrhs : kAcrossCoresRhs) {
    SCOPED_TRACE("nrhs " + std::to_string(nrhs));
    Rng rng(406 + static_cast<std::uint64_t>(nrhs));
    std::vector<T> b(static_cast<std::size_t>(n) * nrhs);
    for (auto& v : b) v = rng.scalar<T>();
    solver.options().runtime = RuntimeKind::Sequential;
    std::vector<T> expect = b;
    const SolveReport expect_report = solver.solve_multi(expect, nrhs);
    EXPECT_EQ(expect_report.degraded, degraded);
    for (const RuntimeKind runtime :
         {RuntimeKind::Native, RuntimeKind::Starpu, RuntimeKind::Parsec}) {
      for (const int threads : {2, 4}) {
        SCOPED_TRACE(std::string(to_string(runtime)) + ", " +
                     std::to_string(threads) + " threads");
        solver.options().runtime = runtime;
        solver.options().num_threads = threads;
        std::vector<T> x = b;
        const SolveReport report = solver.solve_multi(x, nrhs);
        EXPECT_EQ(std::memcmp(x.data(), expect.data(), x.size() * sizeof(T)),
                  0);
        EXPECT_EQ(report.degraded, expect_report.degraded);
        EXPECT_EQ(report.refine_iterations, expect_report.refine_iterations);
        EXPECT_EQ(report.backward_error, expect_report.backward_error);
      }
    }
  }
}

TEST(SolveAcrossCores, CholeskyMatchesSequentialBitwise) {
  check_across_cores<real_t>(gen::grid3d_laplacian(17, 17, 17),
                             Factorization::LLT, false);
}

TEST(SolveAcrossCores, LdltMatchesSequentialBitwise) {
  check_across_cores<real_t>(gen::grid3d_laplacian(17, 17, 17),
                             Factorization::LDLT, false);
}

TEST(SolveAcrossCores, LuMatchesSequentialBitwise) {
  check_across_cores<real_t>(gen::convection_diffusion3d(17, 17, 17, 8.0),
                             Factorization::LU, false);
}

TEST(SolveAcrossCores, ComplexLdltMatchesSequentialBitwise) {
  check_across_cores<complex_t>(gen::helmholtz3d(17, 17, 17),
                                Factorization::LDLT, false);
}

TEST(SolveAcrossCores, ComplexLuMatchesSequentialBitwise) {
  check_across_cores<complex_t>(gen::filter3d(17, 17, 17), Factorization::LU,
                                false);
}

TEST(SolveAcrossCores, DegradedRefinementMatchesSequentialBitwise) {
  check_across_cores<real_t>(
      with_tiny_pivot(gen::grid3d_laplacian(17, 17, 17), 1e-25),
      Factorization::LDLT, true);
}

/// The spans named `name` among `spans`.
std::vector<obs::SpanRecord> spans_named(
    const std::vector<obs::SpanRecord>& spans, const char* name) {
  std::vector<obs::SpanRecord> out;
  for (const obs::SpanRecord& s : spans) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s);
  }
  return out;
}

TEST(SolveAcrossCores, PhaseSpansSplitTheSolveSpan) {
  const auto a = gen::grid3d_laplacian(17, 17, 17);
  obs::Tracer tracer;
  SolverOptions opts;
  opts.runtime = RuntimeKind::Sequential;
  opts.num_threads = 2;
  opts.instr.tracer = &tracer;
  Solver<real_t> solver(opts);
  solver.analyze(a);
  solver.factorize(a, Factorization::LDLT);
  const index_t n = a.ncols();
  for (const RuntimeKind runtime :
       {RuntimeKind::Sequential, RuntimeKind::Native, RuntimeKind::Starpu,
        RuntimeKind::Parsec}) {
    solver.options().runtime = runtime;
    const int workers = runtime == RuntimeKind::Sequential ? 1 : 2;
    // nrhs 1 and 8 run both sweeps as a DAG, 64 only the backward one.
    for (const index_t nrhs : {index_t{1}, index_t{8}, index_t{64}}) {
      SCOPED_TRACE(std::string(to_string(runtime)) + ", nrhs " +
                   std::to_string(nrhs));
      tracer.clear();
      std::vector<real_t> b(static_cast<std::size_t>(n) * nrhs, 1.0);
      solver.solve_multi(b, nrhs);
      const std::vector<obs::SpanRecord> spans = tracer.snapshot();
      const auto solve = spans_named(spans, "solver.solve");
      const auto forward = spans_named(spans, "solver.solve.forward");
      const auto backward = spans_named(spans, "solver.solve.backward");
      ASSERT_EQ(solve.size(), 1u);
      ASSERT_EQ(forward.size(), 1u);
      ASSERT_EQ(backward.size(), 1u);
      for (const obs::SpanRecord& phase : {forward[0], backward[0]}) {
        EXPECT_EQ(phase.parent_id, solve[0].span_id);
        EXPECT_EQ(phase.trace_id, solve[0].trace_id);
        EXPECT_GE(phase.start, solve[0].start);
        EXPECT_LE(phase.end, solve[0].end);
        EXPECT_LE(phase.start, phase.end);
      }
      EXPECT_LE(forward[0].end, backward[0].start);
      EXPECT_EQ(forward[0].arg0, nrhs <= kForwardDagMaxRhs ? workers : 1);
      EXPECT_EQ(backward[0].arg0, workers);
    }
  }
}

// ---------- numeric-only re-factorization -------------------------------

/// Same pattern as `a`, values transformed by `f(row, col, v)`.
CscMatrix<real_t> with_values(
    const CscMatrix<real_t>& a,
    const std::function<real_t(index_t, index_t, real_t)>& f) {
  std::vector<real_t> vals(a.values().begin(), a.values().end());
  for (index_t c = 0; c < a.ncols(); ++c) {
    for (size_type k = a.colptr()[static_cast<std::size_t>(c)];
         k < a.colptr()[static_cast<std::size_t>(c) + 1]; ++k) {
      const auto ki = static_cast<std::size_t>(k);
      vals[ki] = f(a.rowind()[ki], c, vals[ki]);
    }
  }
  return CscMatrix<real_t>(
      a.nrows(), a.ncols(),
      std::vector<size_type>(a.colptr().begin(), a.colptr().end()),
      std::vector<index_t>(a.rowind().begin(), a.rowind().end()),
      std::move(vals));
}

TEST(Refactorize, ThrowsBeforeFirstFactorize) {
  Solver<real_t> solver;
  const auto a = gen::grid2d_laplacian(6, 6);
  // The fast path reuses the allocated factors: without them it must
  // refuse loudly, not fall back to a silent full factorize.
  EXPECT_THROW(solver.refactorize(a), InvalidArgument);
  solver.analyze(a);
  EXPECT_THROW(solver.refactorize(a), InvalidArgument);  // analyzed only
  solver.factorize(a, Factorization::LLT);
  ASSERT_NO_THROW(solver.refactorize(a));
}

TEST(Refactorize, RejectsADifferentPattern) {
  const auto a = gen::grid2d_laplacian(8, 8);   // n = 64
  const auto c = gen::grid3d_laplacian(4, 4, 4);  // n = 64, other pattern
  Solver<real_t> solver;
  solver.analyze(a);
  solver.factorize(a, Factorization::LLT);
  EXPECT_THROW(solver.refactorize(c), InvalidArgument);
  EXPECT_THROW(solver.refactorize(gen::grid2d_laplacian(8, 9)),
               InvalidArgument);
  EXPECT_TRUE(solver.factorized());  // the refusal changed nothing
}

TEST(Refactorize, MatchesAFreshFactorizeAcrossValueDrift) {
  const auto a = gen::grid2d_laplacian(12, 12);
  Solver<real_t> fast;
  fast.analyze(a);
  fast.factorize(a, Factorization::LLT);
  const auto n = static_cast<std::size_t>(a.ncols());
  Rng rng(500);
  std::vector<real_t> xstar(n);
  for (auto& v : xstar) v = rng.uniform(-1, 1);
  for (int step = 1; step <= 3; ++step) {
    // SPD-preserving drift: strengthen the diagonal step by step.
    const real_t bump = 1.0 + 0.25 * step;
    const CscMatrix<real_t> anew = with_values(
        a, [&](index_t r, index_t c, real_t v) {
          return r == c ? v * bump : v;
        });
    fast.refactorize(anew);

    Solver<real_t> fresh;
    fresh.analyze(anew);
    fresh.factorize(anew, Factorization::LLT);
    std::vector<real_t> b(n);
    anew.multiply(xstar, b);
    std::vector<real_t> x_fast = b, x_fresh = b;
    fast.solve(x_fast);
    fresh.solve(x_fresh);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x_fast[i], xstar[i], 1e-9);
      EXPECT_NEAR(x_fast[i], x_fresh[i], 1e-11);
    }
  }
}

TEST(Refactorize, FailureRollsBackToThePreviousServableFactor) {
  SolverOptions opts;
  opts.pivot_threshold = 0;  // no static perturbation: breakdown throws
  Solver<real_t> solver(opts);
  const auto a = gen::grid2d_laplacian(10, 10);
  solver.analyze(a);
  solver.factorize(a, Factorization::LLT);
  const auto n = static_cast<std::size_t>(a.ncols());
  std::vector<real_t> ones(n, 1.0);
  std::vector<real_t> b(n);
  a.multiply(ones, b);

  // A negated diagonal is indefinite: the LL^T sweep hits a negative
  // pivot and throws.  Unlike factorize(), the solver must remain
  // factorized with the PREVIOUS values afterwards.
  const CscMatrix<real_t> bad = with_values(
      a, [](index_t r, index_t c, real_t v) { return r == c ? -v : v; });
  EXPECT_THROW(solver.refactorize(bad), NumericalError);
  ASSERT_TRUE(solver.factorized());
  std::vector<real_t> x = b;
  solver.solve(x);
  for (const real_t v : x) EXPECT_NEAR(v, 1.0, 1e-9);

  // And the rolled-back solver still accepts a later good refactorize.
  const CscMatrix<real_t> good = with_values(
      a, [](index_t r, index_t c, real_t v) { return r == c ? 2 * v : v; });
  ASSERT_NO_THROW(solver.refactorize(good));
  std::vector<real_t> bg(n);
  good.multiply(ones, bg);
  std::vector<real_t> xg = bg;
  solver.solve(xg);
  for (const real_t v : xg) EXPECT_NEAR(v, 1.0, 1e-9);
}

// ---------- two value buffers: refactorize beside the live factor -------

/// x = A^{-1} b through one pinned version, bypassing the published one.
std::vector<real_t> solve_with(const Analysis& an,
                               const FactorVersion<real_t>& v,
                               const std::vector<real_t>& b) {
  std::vector<real_t> pb(b.size()), x(b.size());
  permute_vector<real_t>(an.perm, b, pb);
  solve_permuted(v.factors, std::span<real_t>(pb));
  unpermute_vector<real_t>(an.perm, pb, x);
  return x;
}

TEST(FactorVersions, PinnedVersionKeepsItsBytesAcrossRefactorizes) {
  obs::MetricsRegistry registry;
  SolverOptions opts;
  opts.runtime = RuntimeKind::Sequential;
  opts.instr.metrics = &registry;
  Solver<real_t> solver(opts);
  const auto a = gen::grid2d_laplacian(12, 12);
  solver.analyze(a);
  solver.factorize(a, Factorization::LDLT);
  const std::shared_ptr<const FactorVersion<real_t>> v0 = solver.pinned();
  ASSERT_NE(v0, nullptr);
  const std::vector<real_t> l0(v0->factors.lvalues().begin(),
                               v0->factors.lvalues().end());
  const std::vector<real_t> d0(v0->factors.dvalues().begin(),
                               v0->factors.dvalues().end());
  const auto n = static_cast<std::size_t>(a.ncols());
  std::vector<real_t> b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = 1.0 + 0.01 * double(i % 7);
  const std::vector<real_t> x0 = solve_with(solver.analysis(), *v0, b);

  for (const real_t scale : {2.0, 3.0}) {
    solver.refactorize(with_values(
        a, [&](index_t, index_t, real_t v) { return scale * v; }));
  }
  // The pinned version was retired by the first refactorize and still
  // pinned at the second, which therefore factorized into fresh storage.
  EXPECT_NE(solver.pinned().get(), v0.get());
  EXPECT_EQ(registry.counter("spx_solver_pinned_spares_total").value(), 1);
  EXPECT_TRUE(std::equal(l0.begin(), l0.end(),
                         v0->factors.lvalues().begin(),
                         v0->factors.lvalues().end()));
  EXPECT_TRUE(std::equal(d0.begin(), d0.end(),
                         v0->factors.dvalues().begin(),
                         v0->factors.dvalues().end()));
  EXPECT_EQ(solve_with(solver.analysis(), *v0, b), x0);
  // The published factors are the third matrix's: x0 / 3.
  std::vector<real_t> x = b;
  solver.solve(x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i], x0[i] / 3.0, 1e-12 * std::abs(x0[i]) + 1e-14);
  }
}

TEST(FactorVersions, SolvesBesideRefactorizesReturnTheOldOrTheNewSolution) {
  SolverOptions opts;
  opts.runtime = RuntimeKind::Sequential;
  const auto a = gen::grid2d_laplacian(16, 16);
  const CscMatrix<real_t> a2 =
      with_values(a, [](index_t r, index_t c, real_t v) {
        return r == c ? 1.5 * v : v;
      });
  const auto n = static_cast<std::size_t>(a.ncols());
  std::vector<real_t> b(n);
  Rng rng(501);
  for (auto& v : b) v = rng.uniform(-1, 1);
  // The reference answers, from solvers that only ever held one matrix:
  // on the sequential runtime a refactorize gives bit-identical factors.
  const auto reference = [&](const CscMatrix<real_t>& m) {
    Solver<real_t> s(opts);
    s.analyze(m);
    s.factorize(m, Factorization::LLT);
    std::vector<real_t> x = b;
    s.solve(x);
    return x;
  };
  const std::vector<real_t> x1 = reference(a);
  const std::vector<real_t> x2 = reference(a2);
  ASSERT_NE(x1, x2);

  Solver<real_t> solver(opts);
  solver.analyze(a);
  solver.factorize(a, Factorization::LLT);
  std::atomic<int> solves{0}, mixed{0};
  const auto reader = [&](const std::stop_token& stop, bool multi) {
    while (!stop.stop_requested()) {
      std::vector<real_t> x = b;
      if (multi) {
        solver.solve_multi(x, 1);
      } else {
        solver.solve(x);
      }
      if (x != x1 && x != x2) mixed.fetch_add(1);
      solves.fetch_add(1);
    }
  };
  {
    std::jthread r1(reader, false), r2(reader, true);
    // At least 60 refactorizes, and on until the readers have run a few
    // dozen solves beside them.
    for (int i = 0; i < 2000 && (i < 60 || solves.load() < 50); ++i) {
      solver.refactorize(i % 2 == 0 ? a2 : a);
    }
  }  // the readers stop and join here
  EXPECT_GE(solves.load(), 2);
  EXPECT_EQ(mixed.load(), 0);
}

TEST(FactorVersions, FailedRefactorizeKeepsThePublishedBytesAndTheSpare) {
  SolverOptions opts;
  opts.runtime = RuntimeKind::Sequential;
  opts.pivot_threshold = 0;  // a negative LL^T pivot throws
  Solver<real_t> solver(opts);
  const auto a = gen::grid2d_laplacian(10, 10);
  solver.analyze(a);
  solver.factorize(a, Factorization::LLT);
  const real_t* first = solver.factor_data().lvalues().data();
  solver.refactorize(with_values(
      a, [](index_t r, index_t c, real_t v) { return r == c ? 2 * v : v; }));
  const real_t* published = solver.factor_data().lvalues().data();
  ASSERT_NE(published, first);  // the spare, now published
  const std::vector<real_t> bytes(solver.factor_data().lvalues().begin(),
                                  solver.factor_data().lvalues().end());

  const CscMatrix<real_t> bad = with_values(
      a, [](index_t r, index_t c, real_t v) { return r == c ? -v : v; });
  EXPECT_THROW(solver.refactorize(bad), NumericalError);
  ASSERT_TRUE(solver.factorized());
  EXPECT_EQ(solver.factor_data().lvalues().data(), published);
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(),
                         solver.factor_data().lvalues().begin(),
                         solver.factor_data().lvalues().end()));

  // The next refactorize reuses the spare the failure wrote into.
  solver.refactorize(a);
  EXPECT_EQ(solver.factor_data().lvalues().data(), first);
  const auto n = static_cast<std::size_t>(a.ncols());
  std::vector<real_t> ones(n, 1.0), x(n);
  a.multiply(ones, x);
  solver.solve(x);
  for (const real_t v : x) EXPECT_NEAR(v, 1.0, 1e-9);
}

TEST(Refinement, RecoversFromPerturbedFactors) {
  // Perturb the factors slightly: a plain solve is inaccurate, refinement
  // against the true matrix recovers full precision.
  const auto a = gen::grid2d_laplacian(12, 12);
  SolverOptions opts;
  opts.runtime = RuntimeKind::Sequential;
  Solver<real_t> solver(opts);
  solver.analyze(a);
  solver.factorize(a, Factorization::LLT);
  Rng rng(404);
  std::vector<real_t> x(a.ncols()), b(a.ncols()), got(a.ncols());
  for (auto& v : x) v = rng.uniform(-1, 1);
  a.multiply(x, b);
  const int iters = solver.solve_refine(a, b, got, 1e-14, 20);
  EXPECT_LE(iters, 2);
  double err = 0;
  for (index_t i = 0; i < a.ncols(); ++i) {
    err = std::max(err, std::abs(got[i] - x[i]));
  }
  EXPECT_LT(err, 1e-12);
}

}  // namespace
}  // namespace spx
