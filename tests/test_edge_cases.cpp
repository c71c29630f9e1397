// Edge cases and API-contract tests across the stack: degenerate sizes,
// analysis reuse across values/kinds, dense inputs, I/O corner formats,
// and machine-shape validation.
#include <gtest/gtest.h>

#include <sstream>

#include "core/sequential.hpp"
#include "core/solver.hpp"
#include "mat/generators.hpp"
#include "mat/mm_io.hpp"
#include "mat/triplets.hpp"
#include "runtime/flop_costs.hpp"
#include "runtime/machine.hpp"
#include "runtime/parsec_scheduler.hpp"
#include "runtime/real_driver.hpp"
#include "test_support.hpp"

namespace spx {
namespace {

TEST(EdgeCases, OneByOneMatrix) {
  Triplets<real_t> t(1, 1);
  t.add(0, 0, 4.0);
  const auto a = t.to_csc();
  Solver<real_t> solver;
  solver.analyze(a);
  solver.factorize(a, Factorization::LLT);
  std::vector<real_t> b{8.0};
  solver.solve(b);
  EXPECT_DOUBLE_EQ(b[0], 2.0);
}

TEST(EdgeCases, DiagonalMatrix) {
  const index_t n = 17;
  Triplets<real_t> t(n, n);
  for (index_t i = 0; i < n; ++i) t.add(i, i, real_t(i + 1));
  const auto a = t.to_csc();
  for (const Factorization kind :
       {Factorization::LLT, Factorization::LDLT, Factorization::LU}) {
    Solver<real_t> solver;
    solver.analyze(a);
    solver.factorize(a, kind);
    std::vector<real_t> b(n, 1.0);
    solver.solve(b);
    for (index_t i = 0; i < n; ++i) {
      EXPECT_NEAR(b[i], 1.0 / (i + 1), 1e-14);
    }
  }
}

TEST(EdgeCases, FullyDenseSmallMatrix) {
  Rng rng(700);
  const auto a = gen::random_spd(25, 1.0, rng);  // completely dense
  const Analysis an = analyze(a);
  an.structure.validate();
  // One supernode covering everything (after amalgamation) is legal.
  EXPECT_GE(an.structure.num_panels(), 1);
  FactorData<real_t> f(an.structure, Factorization::LLT);
  f.initialize(permute_symmetric(a, an.perm));
  factorize_sequential(f);
}

TEST(EdgeCases, AnalysisReusedAcrossValuesAndKinds) {
  // The PASTIX workflow: one analyze, many numerical factorizations
  // (static pivoting makes the structure value-independent).
  const auto a1 = gen::grid2d_laplacian(10, 10);
  auto vals = std::vector<real_t>(a1.values().begin(), a1.values().end());
  for (auto& v : vals) v *= 3.0;  // same pattern, new values
  const CscMatrix<real_t> a2(
      a1.nrows(), a1.ncols(),
      std::vector<size_type>(a1.colptr().begin(), a1.colptr().end()),
      std::vector<index_t>(a1.rowind().begin(), a1.rowind().end()),
      std::move(vals));

  Solver<real_t> solver;
  solver.analyze(a1);
  const auto* structure_before = &solver.analysis().structure;
  solver.factorize(a1, Factorization::LLT);
  std::vector<real_t> b(a1.ncols(), 1.0), x1 = b;
  solver.solve(x1);
  solver.factorize(a2, Factorization::LDLT);  // reuse, different kind
  EXPECT_EQ(&solver.analysis().structure, structure_before);
  std::vector<real_t> x2 = b;
  solver.solve(x2);
  for (index_t i = 0; i < a1.ncols(); ++i) {
    EXPECT_NEAR(x2[i], x1[i] / 3.0, 1e-10);  // (3A)^{-1} b = x/3
  }
}

TEST(EdgeCases, FactorDataResetAllowsRefill) {
  const auto a = gen::grid2d_laplacian(8, 8);
  const Analysis an = analyze(a);
  const auto ap = permute_symmetric(a, an.perm);
  FactorData<real_t> f(an.structure, Factorization::LLT);
  f.initialize(ap);
  factorize_sequential(f);
  const real_t first_run = f.panel_l(0)[0];
  f.reset();
  f.initialize(ap);
  factorize_sequential(f);
  EXPECT_EQ(f.panel_l(0)[0], first_run);
}

TEST(EdgeCases, MoreThreadsThanWork) {
  SolverOptions opts;
  opts.runtime = RuntimeKind::Parsec;
  opts.num_threads = 16;  // far more workers than panels
  Solver<real_t> solver(opts);
  Triplets<real_t> t(3, 3);
  t.add(0, 0, 2.0);
  t.add(1, 1, 2.0);
  t.add(2, 2, 2.0);
  t.add_sym(1, 0, -1.0);
  const auto a = t.to_csc();
  solver.analyze(a);
  solver.factorize(a, Factorization::LLT);
  std::vector<real_t> b{1.0, 1.0, 1.0};
  EXPECT_NO_THROW(solver.solve(b));
}

TEST(EdgeCases, MmIoSkewSymmetric) {
  const char* text =
      "%%MatrixMarket matrix coordinate real skew-symmetric\n"
      "3 3 2\n"
      "2 1 5.0\n"
      "3 2 -1.0\n";
  std::stringstream ss(text);
  const auto a = read_matrix_market<real_t>(ss);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(a.at(0, 1), -5.0);
  EXPECT_DOUBLE_EQ(a.at(2, 1), -1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 2), 1.0);
}

TEST(EdgeCases, MmIoPatternField) {
  const char* text =
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 1\n"
      "2 1\n";
  std::stringstream ss(text);
  const auto a = read_matrix_market<real_t>(ss);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 1.0);
  EXPECT_EQ(a.nnz(), 2);
}

TEST(EdgeCases, EmptyTriplets) {
  Triplets<real_t> t(4, 4);
  const auto a = t.to_csc();
  EXPECT_EQ(a.nnz(), 0);
  EXPECT_EQ(a.ncols(), 4);
}

TEST(EdgeCases, MachineShapeValidation) {
  EXPECT_THROW(Machine(0, 0), InvalidArgument);
  EXPECT_THROW(Machine(-1, 1), InvalidArgument);
  EXPECT_THROW(Machine(2, 1, 0), InvalidArgument);
  const Machine m(2, 2, 3);
  EXPECT_EQ(m.num_resources(), 2 + 2 * 3);
  EXPECT_EQ(m.resource(2).kind, ResourceKind::GpuStream);
  EXPECT_EQ(m.resource(2).gpu, 0);
  EXPECT_EQ(m.resource(7).gpu, 1);
  EXPECT_EQ(m.resource(7).stream, 2);

  // The real driver runs a GPU stream only behind a device engine: the
  // machine's GPU count must match hetero.devices.
  const auto a = gen::grid2d_laplacian(6, 6);
  const Analysis an = analyze(a);
  FactorData<real_t> f(an.structure, Factorization::LLT);
  f.initialize(permute_symmetric(a, an.perm));
  TaskTable table(an.structure, Factorization::LLT);
  FlopCosts costs(table);
  const Machine gpu_machine(2, 1, 2);
  ParsecScheduler sched(table, gpu_machine, costs);
  EXPECT_THROW(execute_real(sched, gpu_machine, f), InvalidArgument);
  RealDriverOptions two_engines;
  two_engines.hetero.devices = {EngineSpec{.streams = 2},
                                EngineSpec{.streams = 2}};
  EXPECT_THROW(execute_real(sched, gpu_machine, f, two_engines),
               InvalidArgument);
}

TEST(EdgeCases, SolverGpuStreamWorkersOnDiagonalHeavyMatrix) {
  // Device-engine stream workers must not deadlock when there is nothing
  // eligible for them (all updates tiny).
  SolverOptions opts;
  opts.runtime = RuntimeKind::Parsec;
  opts.num_threads = 2;
  opts.hetero.devices = {EngineSpec{.streams = 2}};
  opts.parsec.gpu_min_flops = 1e18;  // nothing ever qualifies
  Solver<real_t> solver(opts);
  const auto a = gen::grid2d_laplacian(9, 9);
  solver.analyze(a);
  solver.factorize(a, Factorization::LLT);
  std::vector<real_t> b(a.ncols(), 1.0);
  EXPECT_NO_THROW(solver.solve(b));
}

TEST(EdgeCases, PathGraphChainStructure) {
  // A tridiagonal matrix: no fill under natural order; every panel has at
  // most one off-diagonal block.
  const index_t n = 50;
  Triplets<real_t> t(n, n);
  for (index_t i = 0; i < n; ++i) t.add(i, i, 2.0);
  for (index_t i = 0; i + 1 < n; ++i) t.add_sym(i + 1, i, -1.0);
  AnalysisOptions opts;
  opts.ordering = OrderingMethod::Natural;
  opts.symbolic.amalgamation.fill_ratio = 0.0;
  opts.symbolic.amalgamation.min_width = 0;
  const Analysis an = analyze(t.to_csc(), opts);
  an.structure.validate();
  EXPECT_EQ(an.structure.nnz_factor, 2 * n - 1);
}

// ---------- strict lifecycle ------------------------------------------

TEST(SolverLifecycle, FactorizeBeforeAnalyzeThrows) {
  Solver<real_t> solver;
  const auto a = gen::grid2d_laplacian(6, 6);
  EXPECT_THROW(solver.factorize(a, Factorization::LLT), InvalidArgument);
  try {
    solver.factorize(a, Factorization::LLT);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("analyze"), std::string::npos)
        << "error message should tell the caller to run analyze()";
  }
}

TEST(SolverLifecycle, SolveBeforeFactorizeThrows) {
  Solver<real_t> solver;
  const auto a = gen::grid2d_laplacian(6, 6);
  solver.analyze(a);  // analyzed but never factorized
  std::vector<real_t> b(static_cast<std::size_t>(a.ncols()), 1.0);
  EXPECT_THROW(solver.solve(b), InvalidArgument);
  EXPECT_THROW(solver.solve_multi(b, 1), InvalidArgument);
  std::vector<real_t> x(b.size());
  EXPECT_THROW(solver.solve_refine(a, b, x), InvalidArgument);
}

TEST(SolverLifecycle, FactorizeRejectsPatternMismatch) {
  Solver<real_t> solver;
  const auto analyzed = gen::grid2d_laplacian(6, 6);
  solver.analyze(analyzed);
  // Same dimensions, different sparsity pattern: must throw, not compute
  // garbage against the wrong symbolic structure.
  Triplets<real_t> t(analyzed.nrows(), analyzed.ncols());
  for (index_t i = 0; i < analyzed.nrows(); ++i) t.add(i, i, 4.0);
  const auto diagonal = t.to_csc();
  EXPECT_THROW(solver.factorize(diagonal, Factorization::LLT),
               InvalidArgument);
  // A different size fails too.
  const auto smaller = gen::grid2d_laplacian(5, 5);
  EXPECT_THROW(solver.factorize(smaller, Factorization::LLT),
               InvalidArgument);
  // The analysis itself is still intact and usable.
  solver.factorize(analyzed, Factorization::LLT);
  std::vector<real_t> b(static_cast<std::size_t>(analyzed.ncols()), 1.0);
  EXPECT_NO_THROW(solver.solve(b));
}

TEST(SolverLifecycle, ReanalyzeInvalidatesStaleFactors) {
  Solver<real_t> solver;
  const auto a = gen::grid2d_laplacian(6, 6);
  solver.analyze(a);
  solver.factorize(a, Factorization::LLT);
  EXPECT_TRUE(solver.factorized());
  const auto b2 = gen::grid2d_laplacian(7, 7);
  solver.analyze(b2);  // new pattern: factors of `a` are stale
  EXPECT_FALSE(solver.factorized());
  std::vector<real_t> b(static_cast<std::size_t>(b2.ncols()), 1.0);
  EXPECT_THROW(solver.solve(b), InvalidArgument);
  solver.factorize(b2, Factorization::LLT);
  EXPECT_NO_THROW(solver.solve(b));
}

/// Counts the factor allocations a solver asks for; never fails one.
class AllocationCounter : public FaultInjector {
 public:
  bool fail_alloc(std::size_t bytes) override {
    ++allocations;
    return FaultInjector::fail_alloc(bytes);
  }
  int allocations = 0;
};

TEST(SolverLifecycle, RepeatFactorizeAllocatesOnlyForANewAnalysisOrKind) {
  AllocationCounter counter;
  SolverOptions opts;
  opts.runtime = RuntimeKind::Sequential;
  opts.instr.fault = &counter;
  Solver<real_t> solver(opts);
  const auto a = gen::grid2d_laplacian(8, 8);
  solver.analyze(a);
  solver.factorize(a, Factorization::LLT);
  EXPECT_EQ(counter.allocations, 1);
  solver.factorize(a, Factorization::LU);  // new kind: new storage
  EXPECT_EQ(counter.allocations, 2);
  const real_t* storage = solver.factor_data().lvalues().data();
  solver.factorize(a, Factorization::LU);  // same kind: kept
  EXPECT_EQ(counter.allocations, 2);
  EXPECT_EQ(solver.factor_data().lvalues().data(), storage);
  solver.refactorize(a);
  EXPECT_EQ(counter.allocations, 2);
  // A new analysis drops the factors: the next factorize allocates.
  solver.analyze(a);
  solver.factorize(a, Factorization::LU);
  EXPECT_EQ(counter.allocations, 3);
  solver.adopt_analysis(solver.analysis_shared(), solver.pattern_digest());
  solver.factorize(a, Factorization::LU);
  EXPECT_EQ(counter.allocations, 4);
  // Restored factors were never assembled: refactorize builds the map on
  // first use and keeps the restored storage.
  const FactorData<real_t>& f = solver.factor_data();
  const std::vector<real_t> l(f.lvalues().begin(), f.lvalues().end());
  const std::vector<real_t> u(f.uvalues().begin(), f.uvalues().end());
  const FactorQuality quality = f.quality();
  solver.adopt_analysis(solver.analysis_shared(), solver.pattern_digest());
  solver.restore_factors(Factorization::LU, l, u, {}, quality);
  EXPECT_EQ(counter.allocations, 5);
  solver.refactorize(a);
  EXPECT_EQ(counter.allocations, 5);
  std::vector<real_t> b(static_cast<std::size_t>(a.ncols()), 1.0);
  std::vector<real_t> x = b;
  solver.solve(x);
  EXPECT_LT(test::relative_residual<real_t>(a, x, b), 1e-12);
}

TEST(SolverLifecycle, FailedFactorizeDropsFactorsAndAllocatesAgain) {
  FaultInjector fault;  // disarmed until the third factorize
  SolverOptions opts;
  opts.runtime = RuntimeKind::Sequential;
  opts.pivot_threshold = 0;  // a negative LL^T pivot throws
  opts.instr.fault = &fault;
  Solver<real_t> solver(opts);
  const auto a = gen::grid2d_laplacian(8, 8);
  std::vector<real_t> negated(a.values().begin(), a.values().end());
  for (real_t& v : negated) v = -v;
  const CscMatrix<real_t> bad(
      a.nrows(), a.ncols(),
      std::vector<size_type>(a.colptr().begin(), a.colptr().end()),
      std::vector<index_t>(a.rowind().begin(), a.rowind().end()),
      std::move(negated));
  solver.analyze(a);
  solver.factorize(a, Factorization::LLT);
  // The failure happens in storage reused from the first factorize.
  EXPECT_THROW(solver.factorize(bad, Factorization::LLT), NumericalError);
  EXPECT_FALSE(solver.factorized());
  // So the next factorize allocates, which the armed fault kills.
  fault.rearm(FaultPlan{FaultAction::AllocFail});
  EXPECT_THROW(solver.factorize(a, Factorization::LLT), std::bad_alloc);
  EXPECT_EQ(fault.fired_count(), 1);
  EXPECT_FALSE(solver.factorized());
  solver.factorize(a, Factorization::LLT);  // AllocFail fires only once
  std::vector<real_t> b(static_cast<std::size_t>(a.ncols()), 1.0);
  std::vector<real_t> x = b;
  solver.solve(x);
  EXPECT_LT(test::relative_residual<real_t>(a, x, b), 1e-12);
}

}  // namespace
}  // namespace spx
