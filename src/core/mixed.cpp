#include "core/mixed.hpp"

#include <cmath>

#include "core/sequential.hpp"
#include "core/solve.hpp"

namespace spx {

void MixedPrecisionSolver::adopt_analysis(
    std::shared_ptr<const Analysis> analysis, std::uint64_t digest) {
  SPX_CHECK_ARG(analysis != nullptr, "adopt_analysis(): null analysis");
  adopted_ = std::move(analysis);
  adopted_digest_ = digest;
  assembly_map_.clear();
  factors_.reset();
  spare_.reset();
}

void MixedPrecisionSolver::factorize(const CscMatrix<real_t>& a,
                                     Factorization kind) {
  SPX_CHECK_ARG(a.nrows() == a.ncols(), "square matrix required");
  const std::uint64_t digest = spx::pattern_digest(a);
  std::shared_ptr<const Analysis> analysis =
      adopted_ != nullptr && adopted_digest_ == digest
          ? adopted_
          : std::make_shared<const Analysis>(analyze(a, options_));
  if (analysis != analysis_) {
    // Factors and map of another analysis cannot be reused.
    analysis_ = std::move(analysis);
    assembly_map_.clear();
    factors_.reset();
    spare_.reset();
  }
  pattern_digest_ = digest;
  if (factors_ != nullptr && factors_->kind() != kind) factors_.reset();
  if (spare_ != nullptr && spare_->kind() != kind) spare_.reset();
  const bool reuse = factors_ != nullptr;
  a_ = std::make_unique<CscMatrix<real_t>>(a);
  if (!reuse) {
    factors_ =
        std::make_unique<FactorData<real32_t>>(analysis_->structure, kind);
  }
  try {
    assemble(*factors_, a, reuse);
    factorize_sequential(*factors_);
  } catch (...) {
    factors_.reset();  // like Solver: failure leaves "not factorized"
    throw;
  }
}

void MixedPrecisionSolver::refactorize(const CscMatrix<real_t>& a) {
  SPX_CHECK_ARG(factorized(),
                "refactorize() before factorize(): the fast path reuses "
                "the allocated float factors; run factorize() first");
  SPX_CHECK_ARG(a.nrows() == a.ncols(), "square matrix required");
  SPX_CHECK_ARG(spx::pattern_digest(a) == pattern_digest_,
                "refactorize(): matrix pattern differs from the "
                "factorized pattern");
  // A throw below leaves factors_ and a_ untouched: the spare only
  // replaces them once it holds a complete factorization.
  auto a_new = std::make_unique<CscMatrix<real_t>>(a);
  const bool reuse = spare_ != nullptr;
  if (!reuse) {
    spare_ = std::make_unique<FactorData<real32_t>>(analysis_->structure,
                                                    factors_->kind());
  }
  assemble(*spare_, a, reuse);
  factorize_sequential(*spare_);
  std::swap(factors_, spare_);
  a_ = std::move(a_new);
}

void MixedPrecisionSolver::assemble(FactorData<real32_t>& f,
                                    const CscMatrix<real_t>& a,
                                    bool zero_fill) {
  if (assembly_map_.empty()) {
    assembly_map_ = build_assembly_map(analysis_->structure, analysis_->perm,
                                       a.colptr(), a.rowind());
  }
  if (zero_fill) f.reset();
  // The fp32 cast happens in the scatter: no float copy of A is made.
  f.assemble(assembly_map_, a.values());
}

MixedSolveReport MixedPrecisionSolver::solve(std::span<const real_t> b,
                                             std::span<real_t> x,
                                             double tol,
                                             int max_iter) const {
  SPX_CHECK_ARG(factorized(), "factorize() has not run");
  const index_t n = analysis_->perm.size();
  SPX_CHECK_ARG(static_cast<index_t>(b.size()) == n &&
                    static_cast<index_t>(x.size()) == n,
                "size mismatch");

  // One preconditioner application: y = P^{-1} r through the float
  // factors (cast down, permute, solve, cast back).
  std::vector<real32_t> rf(static_cast<std::size_t>(n));
  std::vector<real32_t> pf(static_cast<std::size_t>(n));
  const auto precondition = [&](const std::vector<real_t>& r,
                                std::vector<real_t>& y) {
    for (index_t i = 0; i < n; ++i) {
      rf[i] = static_cast<real32_t>(r[i]);
    }
    permute_vector<real32_t>(analysis_->perm, rf, pf);
    solve_permuted(*factors_, std::span<real32_t>(pf));
    unpermute_vector<real32_t>(analysis_->perm, pf, rf);
    for (index_t i = 0; i < n; ++i) {
      y[i] = static_cast<real_t>(rf[i]);
    }
  };

  double bnorm = 0.0;
  for (const real_t v : b) bnorm = std::max(bnorm, std::abs(v));
  if (bnorm == 0.0) bnorm = 1.0;

  std::fill(x.begin(), x.end(), real_t(0));
  std::vector<real_t> r(b.begin(), b.end());
  std::vector<real_t> dx(static_cast<std::size_t>(n));
  MixedSolveReport report;
  for (int iter = 1; iter <= max_iter; ++iter) {
    precondition(r, dx);
    for (index_t i = 0; i < n; ++i) x[i] += dx[i];
    a_->multiply(std::span<const real_t>(x.data(), x.size()), r);
    double rnorm = 0.0;
    for (index_t i = 0; i < n; ++i) {
      r[i] = b[i] - r[i];
      rnorm = std::max(rnorm, std::abs(r[i]));
    }
    report.iterations = iter;
    report.residual = rnorm / bnorm;
    if (report.residual <= tol) {
      report.converged = true;
      break;
    }
  }
  return report;
}

MixedSolveReport MixedPrecisionSolver::solve_multi(std::span<real_t> b,
                                                   index_t nrhs, double tol,
                                                   int max_iter) const {
  SPX_CHECK_ARG(factorized(), "factorize() has not run");
  const index_t n = analysis_->perm.size();
  SPX_CHECK_ARG(static_cast<index_t>(b.size()) == n * nrhs,
                "rhs block size mismatch");
  MixedSolveReport worst;
  worst.converged = true;
  std::vector<real_t> x(static_cast<std::size_t>(n));
  for (index_t c = 0; c < nrhs; ++c) {
    const std::span<real_t> col(b.data() + std::size_t(c) * n,
                                static_cast<std::size_t>(n));
    const MixedSolveReport r =
        solve(std::span<const real_t>(col.data(), col.size()),
              std::span<real_t>(x), tol, max_iter);
    std::copy(x.begin(), x.end(), col.begin());
    worst.iterations = std::max(worst.iterations, r.iterations);
    worst.residual = std::max(worst.residual, r.residual);
    worst.converged = worst.converged && r.converged;
  }
  return worst;
}

}  // namespace spx
