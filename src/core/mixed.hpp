// Mixed-precision solver: single-precision factorization with
// double-precision iterative refinement.
//
// The factorization is done entirely in float -- half the memory, half the
// memory traffic, and on real accelerators a large rate advantage -- and
// its triangular solves serve as the preconditioner of a double-precision
// refinement loop.  For reasonably conditioned systems this recovers full
// double accuracy in a handful of sweeps, the classic
// Langou/Buttari-style mixed-precision scheme production solvers
// (including PaStiX) offer.
//
// The solve service's PrecisionPolicy::Fp32Refine path drives this class
// with a shared analysis (adopt_analysis) and the refactorize() fast path,
// mirroring Solver's lifecycle; solve() reports whether refinement reached
// the target so callers can gate an automatic fp64 fallback.
#pragma once

#include <memory>

#include "core/analysis.hpp"
#include "core/codelets.hpp"
#include "core/factor_data.hpp"

namespace spx {

struct MixedSolveReport {
  int iterations = 0;        ///< refinement sweeps used
  double residual = 0.0;     ///< final relative residual (inf norm)
  bool converged = false;
};

class MixedPrecisionSolver {
 public:
  MixedPrecisionSolver() = default;
  explicit MixedPrecisionSolver(AnalysisOptions options)
      : options_(std::move(options)) {}

  /// Adopts an analysis shared with other solvers (the service's
  /// pattern-keyed cache); factorize() then skips its private analyze.
  /// `digest` must be the pattern_digest() of the analyzed matrix.
  void adopt_analysis(std::shared_ptr<const Analysis> analysis,
                      std::uint64_t digest);

  /// Factorizes the float cast of `a` (analyzing its pattern first unless
  /// a matching analysis was adopted).  Keeps a reference copy of `a`
  /// internally for refinement residuals.  Like Solver::factorize(), a
  /// repeat factorize of one (adopted) analysis and kind keeps the float
  /// storage and scatters `a` through the assembly map, casting each
  /// value; a failure drops the factors.
  void factorize(const CscMatrix<real_t>& a, Factorization kind);

  /// Numeric-only re-factorization mirroring Solver::refactorize(): the
  /// new values are factorized into a spare float buffer, which then
  /// replaces the factors (and the reference matrix) in one swap; the
  /// replaced buffer is the next refactorize's spare.  On failure nothing
  /// is swapped, so the previous factors keep serving.  Unlike Solver,
  /// no solve may run beside it.  Throws InvalidArgument before the first
  /// factorize() or on a pattern mismatch.
  void refactorize(const CscMatrix<real_t>& a);

  /// Solves A x = b to (near) double accuracy via refinement; `x` is
  /// output-only.  Throws when factorize() has not run.
  MixedSolveReport solve(std::span<const real_t> b, std::span<real_t> x,
                         double tol = 1e-12, int max_iter = 30) const;

  /// In-place multi-RHS refinement solve: `b` holds nrhs column-major
  /// right-hand sides and is overwritten with the solutions.  The report
  /// carries the worst column's figures (converged only if every column
  /// converged).
  MixedSolveReport solve_multi(std::span<real_t> b, index_t nrhs,
                               double tol = 1e-12, int max_iter = 30) const;

  bool factorized() const { return factors_ != nullptr; }
  /// Digest of the factorized pattern (0 before factorize()).
  std::uint64_t pattern_digest() const { return pattern_digest_; }
  /// Bytes of the single-precision factors (half of a double run).
  std::size_t factor_bytes() const {
    return factors_ ? factors_->bytes() : 0;
  }

 private:
  /// Scatters `a` into `f` (zero-filling reused storage first) through
  /// assembly_map_, building the map on first use.
  void assemble(FactorData<real32_t>& f, const CscMatrix<real_t>& a,
                bool zero_fill);

  AnalysisOptions options_;
  std::shared_ptr<const Analysis> analysis_;
  std::shared_ptr<const Analysis> adopted_;  ///< from adopt_analysis()
  std::uint64_t adopted_digest_ = 0;
  std::uint64_t pattern_digest_ = 0;
  /// Input-entry -> factor-slot map of analysis_; empty until built.
  AssemblyMap assembly_map_;
  std::unique_ptr<FactorData<real32_t>> factors_;
  /// What refactorize() fills next: the factors it last replaced, or
  /// those a failed refactorize left behind; null until the first one.
  std::unique_ptr<FactorData<real32_t>> spare_;
  std::unique_ptr<CscMatrix<real_t>> a_;
};

}  // namespace spx
