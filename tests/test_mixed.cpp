// Mixed-precision (float factorization + double refinement) tests.
#include <gtest/gtest.h>

#include "core/mixed.hpp"
#include "core/solver.hpp"
#include "mat/generators.hpp"

namespace spx {
namespace {

TEST(MixedPrecision, ConvergesToDoubleAccuracy) {
  const auto a = gen::grid3d_laplacian(7, 7, 7);
  MixedPrecisionSolver solver;
  solver.factorize(a, Factorization::LLT);
  Rng rng(500);
  std::vector<real_t> xstar(a.ncols()), b(a.ncols()), x(a.ncols());
  for (auto& v : xstar) v = rng.uniform(-1, 1);
  a.multiply(xstar, b);
  const MixedSolveReport rep = solver.solve(b, x, 1e-12);
  EXPECT_TRUE(rep.converged);
  EXPECT_LE(rep.residual, 1e-12);
  EXPECT_GE(rep.iterations, 2);   // float alone cannot reach 1e-12
  EXPECT_LE(rep.iterations, 10);  // but refinement converges fast
  double err = 0;
  for (index_t i = 0; i < a.ncols(); ++i) {
    err = std::max(err, std::abs(x[i] - xstar[i]));
  }
  EXPECT_LT(err, 1e-10);
}

TEST(MixedPrecision, SingleSweepMatchesFloatAccuracyOnly) {
  const auto a = gen::grid2d_laplacian(15, 15);
  MixedPrecisionSolver solver;
  solver.factorize(a, Factorization::LLT);
  Rng rng(501);
  std::vector<real_t> xstar(a.ncols()), b(a.ncols()), x(a.ncols());
  for (auto& v : xstar) v = rng.uniform(-1, 1);
  a.multiply(xstar, b);
  const MixedSolveReport rep = solver.solve(b, x, 1e-30, 1);
  EXPECT_FALSE(rep.converged);
  // A single float-precision solve lands around 1e-5..1e-7 relative.
  EXPECT_LT(rep.residual, 1e-3);
  EXPECT_GT(rep.residual, 1e-12);
}

TEST(MixedPrecision, WorksForLdltAndLu) {
  Rng rng(502);
  {
    const auto a = gen::random_sym_indefinite(120, 0.05, rng);
    MixedPrecisionSolver solver;
    solver.factorize(a, Factorization::LDLT);
    std::vector<real_t> b(a.ncols(), 1.0), x(a.ncols());
    EXPECT_TRUE(solver.solve(b, x, 1e-11).converged);
  }
  {
    const auto a = gen::convection_diffusion3d(5, 5, 5, 10.0);
    MixedPrecisionSolver solver;
    solver.factorize(a, Factorization::LU);
    std::vector<real_t> b(a.ncols(), 1.0), x(a.ncols());
    EXPECT_TRUE(solver.solve(b, x, 1e-11).converged);
  }
}

TEST(MixedPrecision, UsesHalfTheFactorMemory) {
  const auto a = gen::grid3d_laplacian(6, 6, 6);
  MixedPrecisionSolver mixed;
  mixed.factorize(a, Factorization::LLT);
  Solver<real_t> full;
  full.analyze(a);
  full.factorize(a, Factorization::LLT);
  // Same structure, half the scalar width (FactorData::bytes covers L).
  const Analysis an = analyze(a);
  const std::size_t expect_float =
      static_cast<std::size_t>(an.structure.factor_entries) * sizeof(float);
  EXPECT_EQ(mixed.factor_bytes(), expect_float);
}

TEST(MixedPrecision, ThrowsWithoutFactorize) {
  MixedPrecisionSolver solver;
  std::vector<real_t> b(4, 1.0), x(4);
  EXPECT_THROW(solver.solve(b, x), InvalidArgument);
  const auto a = gen::grid2d_laplacian(6, 6);
  EXPECT_THROW(solver.refactorize(a), InvalidArgument);
}

TEST(MixedPrecision, AdoptedAnalysisSkipsTheSymbolicPhase) {
  const auto a = gen::grid2d_laplacian(12, 12);
  const auto an = std::make_shared<const Analysis>(analyze(a));
  MixedPrecisionSolver solver;
  solver.adopt_analysis(an, pattern_digest(a));
  solver.factorize(a, Factorization::LLT);
  EXPECT_TRUE(solver.factorized());
  EXPECT_EQ(solver.pattern_digest(), pattern_digest(a));
  std::vector<real_t> b(a.ncols(), 1.0), x(a.ncols());
  EXPECT_TRUE(solver.solve(b, x, 1e-11).converged);
}

TEST(MixedPrecision, RefactorizeIngestsNewValues) {
  const auto a = gen::grid2d_laplacian(12, 12);
  MixedPrecisionSolver solver;
  solver.factorize(a, Factorization::LLT);
  // Scale by 2: the same right-hand side must now solve to x/2.
  std::vector<real_t> vals(a.values().begin(), a.values().end());
  for (auto& v : vals) v *= 2.0;
  const CscMatrix<real_t> a2(
      a.nrows(), a.ncols(),
      std::vector<size_type>(a.colptr().begin(), a.colptr().end()),
      std::vector<index_t>(a.rowind().begin(), a.rowind().end()),
      std::move(vals));
  solver.refactorize(a2);
  std::vector<real_t> ones(a.ncols(), 1.0), b(a.ncols()), x(a.ncols());
  a.multiply(ones, b);  // b of the ORIGINAL matrix
  const MixedSolveReport rep = solver.solve(b, x, 1e-12);
  EXPECT_TRUE(rep.converged);
  for (index_t i = 0; i < a.ncols(); ++i) EXPECT_NEAR(x[i], 0.5, 1e-10);
}

TEST(MixedPrecision, FailedRefactorizeKeepsThePreviousFactorsServing) {
  const auto a = gen::grid2d_laplacian(12, 12);
  const auto with_diagonal = [&](real_t scale) {
    std::vector<real_t> vals(a.values().begin(), a.values().end());
    for (index_t c = 0; c < a.ncols(); ++c) {
      for (size_type k = a.colptr()[c]; k < a.colptr()[c + 1]; ++k) {
        if (a.rowind()[k] == c) vals[static_cast<std::size_t>(k)] *= scale;
      }
    }
    return CscMatrix<real_t>(
        a.nrows(), a.ncols(),
        std::vector<size_type>(a.colptr().begin(), a.colptr().end()),
        std::vector<index_t>(a.rowind().begin(), a.rowind().end()),
        std::move(vals));
  };
  MixedPrecisionSolver solver;
  solver.factorize(a, Factorization::LLT);
  std::vector<real_t> ones(a.ncols(), 1.0), b(a.ncols()), x(a.ncols());
  a.multiply(ones, b);
  // A negated diagonal breaks LL^T: the spare holds the wreck, while the
  // factors and the reference matrix that solves read stay the old ones.
  EXPECT_THROW(solver.refactorize(with_diagonal(-1.0)), NumericalError);
  ASSERT_TRUE(solver.solve(b, x, 1e-12).converged);
  for (index_t i = 0; i < a.ncols(); ++i) EXPECT_NEAR(x[i], 1.0, 1e-10);
  // The next refactorize reuses that spare.
  const CscMatrix<real_t> a2 = with_diagonal(2.0);
  solver.refactorize(a2);
  a2.multiply(ones, b);
  ASSERT_TRUE(solver.solve(b, x, 1e-12).converged);
  for (index_t i = 0; i < a.ncols(); ++i) EXPECT_NEAR(x[i], 1.0, 1e-10);
}

TEST(MixedPrecision, SolveMultiRefinesEveryColumn) {
  const auto a = gen::grid2d_laplacian(12, 12);
  MixedPrecisionSolver solver;
  solver.factorize(a, Factorization::LLT);
  const auto n = static_cast<std::size_t>(a.ncols());
  const index_t nrhs = 3;
  Rng rng(503);
  std::vector<real_t> xstar(n * nrhs);
  for (auto& v : xstar) v = rng.uniform(-1, 1);
  std::vector<real_t> block(n * nrhs);
  for (index_t c = 0; c < nrhs; ++c) {
    a.multiply(
        std::span<const real_t>(xstar.data() + std::size_t(c) * n, n),
        std::span<real_t>(block.data() + std::size_t(c) * n, n));
  }
  const MixedSolveReport rep = solver.solve_multi(block, nrhs, 1e-12);
  EXPECT_TRUE(rep.converged);
  EXPECT_LE(rep.residual, 1e-12);  // the report carries the WORST column
  for (std::size_t i = 0; i < block.size(); ++i) {
    EXPECT_NEAR(block[i], xstar[i], 1e-10);
  }
}

}  // namespace
}  // namespace spx
