// Numerical robustness and failure handling: static-pivot perturbation
// accounting, auto-refinement of degraded solves, failed-factorize
// rollback, the fault-injection harness, and the service's retry /
// error-classification layer (ISSUE: robustness archetype).
#include <gtest/gtest.h>

#include <cmath>
#include <new>
#include <stdexcept>

#include "common/json.hpp"
#include "kernels/dense.hpp"
#include "mat/generators.hpp"
#include "runtime/fault_injection.hpp"
#include "service/solve_service.hpp"
#include "test_support.hpp"

namespace spx {
namespace {

namespace k = kernels;

using service::ErrorCode;
using service::FactorizeResult;
using service::RequestOptions;
using service::RequestStatus;
using service::ServiceOptions;
using service::SolveResult;
using service::SolveService;

std::shared_ptr<const CscMatrix<real_t>> shared(CscMatrix<real_t> a) {
  return std::make_shared<const CscMatrix<real_t>>(std::move(a));
}

// ---------- kernel-level perturbation ----------------------------------

TEST(PivotControl, PotrfPerturbsTinyPivotAndRecordsIt) {
  // 2x2 SPD-ish with an exactly singular trailing pivot: [[1,1],[1,1]].
  std::vector<real_t> a = {1.0, 1.0, 1.0, 1.0};
  FactorQuality q;
  k::PivotControl pc{1e-10, 5, &q};
  k::potrf<real_t>(2, a.data(), 2, pc);
  EXPECT_EQ(q.perturbed_pivots, 1);
  ASSERT_EQ(q.perturbed_columns.size(), 1u);
  EXPECT_EQ(q.perturbed_columns[0], 6);  // col_offset + local column 1
  EXPECT_TRUE(q.degraded());
  EXPECT_DOUBLE_EQ(a[3], std::sqrt(1e-10));
}

TEST(PivotControl, PotrfThrowsOnIndefiniteEvenWhenPerturbing) {
  // Genuinely indefinite: trailing pivot is -1 after elimination.
  std::vector<real_t> a = {1.0, 0.0, 0.0, -1.0};
  FactorQuality q;
  k::PivotControl pc{1e-10, 0, &q};
  EXPECT_THROW(k::potrf<real_t>(2, a.data(), 2, pc), NumericalError);
  EXPECT_TRUE(q.indefinite);
}

TEST(PivotControl, LdltPerturbsPreservingSign) {
  std::vector<real_t> a = {-1e-30, 0.0, 0.0, 2.0};
  FactorQuality q;
  k::PivotControl pc{1e-8, 0, &q};
  k::ldlt<real_t>(2, a.data(), 2, pc);
  EXPECT_EQ(q.perturbed_pivots, 1);
  EXPECT_DOUBLE_EQ(a[0], -1e-8);  // sign preserved
}

TEST(PivotControl, GetrfZeroPivotBecomesPlusThreshold) {
  std::vector<real_t> a = {0.0, 0.0, 0.0, 3.0};
  FactorQuality q;
  k::PivotControl pc{1e-8, 0, &q};
  k::getrf_nopiv<real_t>(2, a.data(), 2, pc);
  EXPECT_EQ(q.perturbed_pivots, 1);
  EXPECT_DOUBLE_EQ(a[0], 1e-8);
}

TEST(PivotControl, LegacyThrowNamesGlobalColumn) {
  std::vector<real_t> a = {1.0, 0.0, 0.0, 0.0};
  k::PivotControl pc{0.0, 40, nullptr};
  try {
    k::getrf_nopiv<real_t>(2, a.data(), 2, pc);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_NE(std::string(e.what()).find("global column 41"),
              std::string::npos)
        << e.what();
  }
}

// ---------- generators --------------------------------------------------

TEST(Generators, RankDeficientHasConsistentNullSpace) {
  const auto a = gen::rank_deficient(12, 3);
  // Each segment annihilates its constant vector: A * 1 = 0.
  std::vector<real_t> ones(12, 1.0), y(12);
  a.multiply(ones, y);
  for (const real_t v : y) EXPECT_NEAR(v, 0.0, 1e-14);
}

TEST(Generators, TinyPivotPlantsExactlyEps) {
  const auto a = gen::tiny_pivot(8, 1e-9);
  bool found = false;
  for (index_t j = 0; j < 8; ++j) {
    for (size_type p = a.colptr()[j]; p < a.colptr()[j + 1]; ++p) {
      if (a.rowind()[p] == j && a.values()[p] == 1e-9) found = true;
    }
  }
  EXPECT_TRUE(found);
}

// ---------- end-to-end degraded solves ----------------------------------

struct DegradedCase {
  const char* name;
  CscMatrix<real_t> matrix;
  Factorization kind;
  std::vector<real_t> rhs;  ///< consistent right-hand side
};

std::vector<DegradedCase> degraded_cases() {
  std::vector<DegradedCase> cases;
  {
    // Rank-deficient SPSD: rhs = A * x0 is consistent by construction.
    auto a = gen::rank_deficient(60, 4);
    std::vector<real_t> x0(60), b(60);
    Rng rng(7);
    for (auto& v : x0) v = rng.scalar<real_t>();
    a.multiply(x0, b);
    cases.push_back({"rank-deficient-llt", std::move(a),
                     Factorization::LLT, std::move(b)});
  }
  {
    auto a = gen::tiny_pivot(64, 1e-25);
    std::vector<real_t> x0(64), b(64);
    Rng rng(8);
    for (auto& v : x0) v = rng.scalar<real_t>();
    a.multiply(x0, b);
    cases.push_back({"tiny-pivot-ldlt", std::move(a), Factorization::LDLT,
                     std::move(b)});
  }
  {
    auto a = gen::tiny_pivot(64, 0.0);  // exact zero pivot
    std::vector<real_t> x0(64), b(64);
    Rng rng(9);
    for (auto& v : x0) v = rng.scalar<real_t>();
    a.multiply(x0, b);
    cases.push_back({"zero-pivot-lu", std::move(a), Factorization::LU,
                     std::move(b)});
  }
  return cases;
}

class NumericalRobustness : public ::testing::TestWithParam<RuntimeKind> {};

TEST_P(NumericalRobustness, DegradedSolveRefinesToTolerance) {
  for (DegradedCase& c : degraded_cases()) {
    SolverOptions opts;
    opts.runtime = GetParam();
    opts.num_threads = 4;
    opts.refine_tolerance = 1e-12;
    Solver<real_t> solver(opts);
    solver.analyze(c.matrix);
    ASSERT_NO_THROW(solver.factorize(c.matrix, c.kind)) << c.name;
    const FactorQuality& q = solver.last_factorization_stats().quality;
    EXPECT_TRUE(q.degraded()) << c.name;
    EXPECT_GE(q.perturbed_pivots, 1) << c.name;
    EXPECT_FALSE(q.perturbed_columns.empty()) << c.name;

    std::vector<real_t> x = c.rhs;
    const SolveReport rep = solver.solve(x);
    EXPECT_TRUE(rep.degraded) << c.name;
    EXPECT_LE(rep.backward_error, 1e-10) << c.name;
    EXPECT_LE(test::relative_residual<real_t>(c.matrix, x, c.rhs), 1e-10)
        << c.name;
  }
}

TEST_P(NumericalRobustness, CleanMatrixSolvesUndegraded) {
  const auto a = gen::grid2d_laplacian(12, 12);
  SolverOptions opts;
  opts.runtime = GetParam();
  opts.num_threads = 4;
  Solver<real_t> solver(opts);
  solver.analyze(a);
  solver.factorize(a, Factorization::LLT);
  EXPECT_FALSE(solver.last_factorization_stats().quality.degraded());
  std::vector<real_t> b(static_cast<std::size_t>(a.ncols()), 1.0);
  const SolveReport rep = solver.solve(b);
  EXPECT_FALSE(rep.degraded);
  EXPECT_EQ(rep.refine_iterations, 0);
}

INSTANTIATE_TEST_SUITE_P(Runtimes, NumericalRobustness,
                         ::testing::Values(RuntimeKind::Sequential,
                                           RuntimeKind::Native,
                                           RuntimeKind::Starpu,
                                           RuntimeKind::Parsec),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// ---------- failed factorize rolls back ---------------------------------

TEST(SolverRollback, FailedFactorizeLeavesSolverAnalyzedNotFactorized) {
  // Indefinite matrix under LL^T: factorize throws even with perturbation
  // enabled (indefiniteness is not absorbable).
  Rng rng(3);
  const auto bad = gen::random_sym_indefinite(40, 0.2, rng);
  const auto good = gen::grid2d_laplacian(8, 5);  // same n = 40
  ASSERT_EQ(bad.ncols(), good.ncols());

  SolverOptions opts;
  Solver<real_t> solver(opts);
  solver.analyze(bad);
  EXPECT_THROW(solver.factorize(bad, Factorization::LLT), NumericalError);
  EXPECT_TRUE(solver.analyzed());
  EXPECT_FALSE(solver.factorized());
  // The post-mortem quality record survives for reporting.
  EXPECT_TRUE(solver.last_factorization_stats().quality.indefinite);
  std::vector<real_t> b(40, 1.0);
  EXPECT_THROW(solver.solve(b), InvalidArgument);

  // Same pattern? No -- so re-analyze and factorize something solvable:
  // the solver is fully reusable after the failure.
  solver.analyze(good);
  ASSERT_NO_THROW(solver.factorize(good, Factorization::LLT));
  std::vector<real_t> x(40, 1.0);
  ASSERT_NO_THROW(solver.solve(x));

  // And the failed matrix still factors via LDL^T (absorbable there).
  solver.analyze(bad);
  ASSERT_NO_THROW(solver.factorize(bad, Factorization::LDLT));
}

// ---------- fault injector ----------------------------------------------

TEST(FaultInjection, SeededPlanIsDeterministic) {
  const FaultPlan p1 = FaultPlan::seeded(FaultAction::Throw, 42, 1000);
  const FaultPlan p2 = FaultPlan::seeded(FaultAction::Throw, 42, 1000);
  EXPECT_EQ(p1.victim, p2.victim);
  EXPECT_LT(p1.victim, 1000u);
  const FaultPlan p3 = FaultPlan::seeded(FaultAction::Throw, 43, 1000);
  EXPECT_NE(p1.victim, p3.victim);  // mix64 spreads adjacent seeds
}

TEST(FaultInjection, ThrowFaultSurfacesAndSolverStaysReusable) {
  const auto a = gen::grid3d_laplacian(6, 6, 6);
  FaultInjector fault(FaultPlan::nth_task(FaultAction::Throw, 3));
  SolverOptions opts;
  opts.runtime = RuntimeKind::Native;
  opts.num_threads = 4;
  opts.instr.fault = &fault;
  Solver<real_t> solver(opts);
  solver.analyze(a);
  EXPECT_THROW(solver.factorize(a, Factorization::LLT), InjectedFault);
  EXPECT_EQ(fault.fired_count(), 1);
  EXPECT_TRUE(solver.analyzed());
  EXPECT_FALSE(solver.factorized());
  // The fault already fired (ordinals are monotonic): retry succeeds
  // without re-analyzing.
  ASSERT_NO_THROW(solver.factorize(a, Factorization::LLT));
  std::vector<real_t> b(static_cast<std::size_t>(a.ncols()), 1.0);
  ASSERT_NO_THROW(solver.solve(b));
}

TEST(FaultInjection, StallFaultDelaysButCompletes) {
  const auto a = gen::grid2d_laplacian(16, 16);
  FaultInjector fault(FaultPlan::nth_task(FaultAction::Stall, 1, 0.02));
  SolverOptions opts;
  opts.runtime = RuntimeKind::Parsec;
  opts.num_threads = 3;
  opts.instr.fault = &fault;
  Solver<real_t> solver(opts);
  solver.analyze(a);
  ASSERT_NO_THROW(solver.factorize(a, Factorization::LLT));
  EXPECT_EQ(fault.fired_count(), 1);
  std::vector<real_t> b(static_cast<std::size_t>(a.ncols()), 1.0);
  ASSERT_NO_THROW(solver.solve(b));
}

TEST(FaultInjection, AllocFailSurfacesAsBadAlloc) {
  const auto a = gen::grid2d_laplacian(10, 10);
  FaultInjector fault(FaultPlan::nth_task(FaultAction::AllocFail, 0));
  SolverOptions opts;
  opts.instr.fault = &fault;
  Solver<real_t> solver(opts);
  solver.analyze(a);
  EXPECT_THROW(solver.factorize(a, Factorization::LLT), std::bad_alloc);
  EXPECT_EQ(fault.fired_count(), 1);
  EXPECT_FALSE(solver.factorized());
  ASSERT_NO_THROW(solver.factorize(a, Factorization::LLT));  // one-shot
}

TEST(FaultInjection, CorruptPivotEitherPerturbsOrCompletes) {
  // Zeroing a panel's leading pivot mid-run must never hang or crash;
  // the run either completes (possibly degraded) or reports breakdown.
  const auto a = gen::grid2d_laplacian(20, 20);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    FaultInjector fault(
        FaultPlan::seeded(FaultAction::CorruptPivot, seed, 50));
    SolverOptions opts;
    opts.runtime = RuntimeKind::Starpu;
    opts.num_threads = 4;
    opts.instr.fault = &fault;
    Solver<real_t> solver(opts);
    solver.analyze(a);
    try {
      solver.factorize(a, Factorization::LLT);
      EXPECT_TRUE(solver.factorized());
    } catch (const NumericalError&) {
      EXPECT_FALSE(solver.factorized());
    }
  }
}

// ---------- JSON schema -------------------------------------------------

TEST(QualityJson, RunStatsCarryQualityKeys) {
  const auto a = gen::tiny_pivot(32, 1e-25);
  Solver<real_t> solver;
  solver.analyze(a);
  solver.factorize(a, Factorization::LDLT);
  const json::Value v = json::Value::parse(
      obs::to_json(solver.last_factorization_stats()).dump());
  EXPECT_TRUE(v.at("degraded").as_bool());
  const json::Value& q = v.at("quality");
  for (const char* key :
       {"degraded", "perturbed_pivots", "perturbed_columns", "pivot_growth",
        "anorm", "threshold", "indefinite"}) {
    EXPECT_NE(q.find(key), nullptr) << key;
  }
  EXPECT_GE(q.at("perturbed_pivots").as_number(), 1.0);
}

// ---------- service retry / classification ------------------------------

TEST(ServiceResilience, InjectedFaultRetriesToSuccess) {
  FaultInjector fault(FaultPlan::nth_task(FaultAction::Throw, 2));
  ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.retry_backoff_s = 0.001;
  // Task faults fire in the threaded driver; the sequential path only
  // sees the allocation hook.
  sopts.solver.runtime = RuntimeKind::Native;
  sopts.solver.num_threads = 2;
  sopts.solver.instr.fault = &fault;
  SolveService svc(sopts);
  const auto a = gen::grid2d_laplacian(12, 12);
  const FactorizeResult fr =
      svc.factorize("t", shared(a), Factorization::LLT);
  ASSERT_TRUE(fr.ok()) << fr.error;
  EXPECT_EQ(fr.code, ErrorCode::None);
  EXPECT_GE(fr.stats.attempts, 2);  // first attempt died, retry succeeded
  EXPECT_EQ(fault.fired_count(), 1);
  const service::ServiceStats st = svc.stats();
  EXPECT_GE(st.retries, 1u);
  EXPECT_EQ(st.error_count(ErrorCode::None), 1u);
  EXPECT_STREQ(st.health(), "degraded");  // retries happened
}

TEST(ServiceResilience, DegradedFactorizeReportsCodeAndRefines) {
  ServiceOptions sopts;
  sopts.num_workers = 1;
  SolveService svc(sopts);
  auto a = gen::tiny_pivot(48, 1e-25);
  std::vector<real_t> x0(48, 1.0), b(48);
  a.multiply(x0, b);
  const FactorizeResult fr =
      svc.factorize("t", shared(a), Factorization::LDLT);
  ASSERT_TRUE(fr.ok()) << fr.error;
  EXPECT_TRUE(fr.degraded());
  EXPECT_EQ(fr.code, ErrorCode::NumericalDegraded);
  EXPECT_TRUE(fr.stats.degraded);
  const SolveResult sr = svc.solve("t", fr.factor, b);
  ASSERT_TRUE(sr.ok()) << sr.error;
  EXPECT_EQ(sr.code, ErrorCode::NumericalDegraded);
  EXPECT_LE(sr.stats.backward_error, 1e-10);
  const service::ServiceStats st = svc.stats();
  EXPECT_EQ(st.error_count(ErrorCode::NumericalDegraded), 2u);
  EXPECT_STREQ(st.health(), "degraded");
}

TEST(ServiceResilience, UnretryableFailureClassifiesNumericalFailed) {
  ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.max_attempts = 2;
  sopts.retry_backoff_s = 0.001;
  SolveService svc(sopts);
  Rng rng(5);
  const auto bad = gen::random_sym_indefinite(30, 0.2, rng);
  const FactorizeResult fr =
      svc.factorize("t", shared(bad), Factorization::LLT);
  EXPECT_FALSE(fr.ok());
  EXPECT_EQ(fr.status, RequestStatus::Failed);
  EXPECT_EQ(fr.code, ErrorCode::NumericalFailed);
  EXPECT_EQ(fr.stats.attempts, 2);  // retried once, still indefinite
  EXPECT_EQ(svc.stats().error_count(ErrorCode::NumericalFailed), 1u);
}

TEST(ServiceResilience, TenantRetryBudgetFailsFastWhenExhausted) {
  ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.max_attempts = 3;
  sopts.retry_backoff_s = 0.0;
  sopts.tenant_retry_budget = 1;
  SolveService svc(sopts);
  Rng rng(5);
  const auto bad = gen::random_sym_indefinite(30, 0.2, rng);
  const FactorizeResult f1 =
      svc.factorize("hog", shared(bad), Factorization::LLT);
  EXPECT_FALSE(f1.ok());
  EXPECT_EQ(f1.stats.attempts, 2);  // budget allowed exactly one retry
  const FactorizeResult f2 =
      svc.factorize("hog", shared(bad), Factorization::LLT);
  EXPECT_FALSE(f2.ok());
  EXPECT_EQ(f2.stats.attempts, 1);  // budget exhausted: no retry at all
  EXPECT_EQ(svc.stats().retries, 1u);
}

TEST(ServiceResilience, UnrunTerminalsMapToStructuredCodes) {
  ServiceOptions sopts;
  sopts.num_workers = 0;  // nothing executes
  sopts.queue_capacity = 1;
  auto svc = std::make_unique<SolveService>(sopts);
  const auto a = shared(gen::grid2d_laplacian(6, 6));
  auto t1 = svc->submit_factorize(RequestOptions{.tenant = "t"}, a,
                                  Factorization::LLT);
  auto t2 = svc->submit_factorize(RequestOptions{.tenant = "t"}, a,
                                  Factorization::LLT);  // rejected
  auto t3 = svc->submit_factorize(RequestOptions{.tenant = "u"}, a,
                                  Factorization::LLT);
  EXPECT_TRUE(t3.cancel());
  const FactorizeResult r2 = t2.get();
  EXPECT_EQ(r2.status, RequestStatus::Rejected);
  EXPECT_EQ(r2.code, ErrorCode::Overloaded);
  const FactorizeResult r3 = t3.get();
  EXPECT_EQ(r3.code, ErrorCode::Cancelled);
  svc.reset();  // shutdown drains t1 -> Internal
  const FactorizeResult r1 = t1.get();
  EXPECT_EQ(r1.status, RequestStatus::Failed);
  EXPECT_EQ(r1.code, ErrorCode::Internal);
}

TEST(ServiceResilience, ThrownExceptionsMapToStructuredCodes) {
  using service::code_for_exception;
  EXPECT_EQ(code_for_exception(std::bad_alloc()), ErrorCode::OutOfMemory);
  EXPECT_EQ(code_for_exception(InjectedFault("fault")),
            ErrorCode::InjectedFault);
  EXPECT_EQ(code_for_exception(NumericalError("pivot")),
            ErrorCode::NumericalFailed);
  EXPECT_EQ(code_for_exception(std::runtime_error("other")),
            ErrorCode::Internal);
  EXPECT_EQ(code_for_exception(InvalidArgument("bad")), ErrorCode::Internal);
}

// ---------- JSON golden keys --------------------------------------------

TEST(ServiceResilience, StatsJsonCarriesErrorAndHealthKeys) {
  SolveService svc;
  const auto a = gen::grid2d_laplacian(8, 8);
  ASSERT_TRUE(svc.factorize("t", shared(a), Factorization::LLT).ok());
  const json::Value v = json::Value::parse(obs::to_json(svc.stats()).dump());
  EXPECT_NE(v.find("retries"), nullptr);
  EXPECT_EQ(v.at("health").as_string(), "ok");
  const json::Value& e = v.at("errors");
  for (const char* key :
       {"none", "numerical-degraded", "numerical-failed", "injected-fault",
        "out-of-memory", "overloaded", "cancelled", "timeout", "internal"}) {
    EXPECT_NE(e.find(key), nullptr) << key;
  }
  EXPECT_EQ(e.at("none").as_number(), 1.0);
}

}  // namespace
}  // namespace spx
