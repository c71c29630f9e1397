// Public solver facade: the PASTIX-style analyze / factorize / solve /
// refine workflow with a selectable task runtime.
//
//   spx::Solver<double> solver;
//   solver.options().runtime = spx::RuntimeKind::Parsec;
//   solver.analyze(A);
//   solver.factorize(A, spx::Factorization::LLT);
//   std::vector<double> x = b;
//   solver.solve(x);              // x <- A^{-1} b
//
// The analyze step (ordering + symbolic factorization) is reusable across
// factorizations of matrices with the same pattern -- static pivoting
// makes the structure value-independent (paper §III).  A repeat
// factorize() of one analysis and kind reuses the factor storage and
// scatters the input through an assembly map built once per analysis:
// no allocation and no permuted copy of the matrix precede the numeric
// sweep.  refactorize() does the same and adds a rollback: a failure
// keeps the previous factors servable.  The lifecycle is strict and
// misuse fails loudly:
// factorize() throws before analyze() or when the matrix pattern differs
// from the analyzed one, refactorize() throws before the first
// factorize(), solve() throws before factorize(), and re-analyzing
// invalidates the current factors.
// The analysis itself is held as shared immutable state
// (std::shared_ptr<const Analysis>) so many solvers -- e.g. concurrent
// requests in the solve service (src/service/) -- can factorize different
// matrices against one symbolic factorization without copying it.
#pragma once

#include <memory>

#include "core/analysis.hpp"
#include "core/codelets.hpp"
#include "core/factor_data.hpp"
#include "core/solve.hpp"
#include "obs/obs.hpp"
#include "obs/options.hpp"
#include "runtime/engine_model.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/parsec_scheduler.hpp"
#include "runtime/run_stats.hpp"
#include "runtime/starpu_scheduler.hpp"

namespace spx::perfmodel {
class PerfModel;
}  // namespace spx::perfmodel

namespace spx {

enum class RuntimeKind {
  Sequential,  ///< plain right-looking loop, no scheduler
  Native,      ///< PASTIX static schedule + work stealing (1D tasks)
  Starpu,      ///< StarPU-like: implicit deps + central model scheduler
  Parsec       ///< PaRSEC-like: compact DAG + locality work stealing
};

const char* to_string(RuntimeKind k);

struct SolverOptions {
  AnalysisOptions analysis;
  RuntimeKind runtime = RuntimeKind::Native;
  /// Worker threads for the task runtimes (0 = hardware concurrency).
  int num_threads = 0;
  /// Heterogeneous execution through the device-engine layer: one
  /// emulated accelerator per entry in `hetero.devices`, with throttled
  /// staging transfers and dmda placement against the live coherence
  /// directory (docs/DEVICE_ENGINES.md).  Its streams take the place of
  /// as many of the `num_threads` CPU workers.  Starpu and Parsec
  /// runtimes only; empty = CPU-only.
  HeteroOptions hetero;
  StarpuOptions starpu;
  ParsecOptions parsec;
  UpdateVariant cpu_variant = UpdateVariant::TempBuffer;
  /// Calibrated performance-model file (models/*.json, produced by
  /// bench_calibration; see docs/PERF_MODELS.md).  Empty = flop oracle.
  /// A missing or corrupt file logs a warning and degrades to FlopCosts;
  /// it never fails the factorization.
  std::string perf_model_file;
  /// Feed measured task durations back into the loaded model's history
  /// layer (online refinement; affects the *next* factorize()).
  bool refine_perf_model = true;
  /// Static-pivot perturbation (paper §III): a pivot with |d| below
  /// pivot_threshold * ||A|| (||A|| = max |a_ij|) is replaced by the
  /// sign-preserving threshold instead of aborting the factorization;
  /// solve() then repairs the O(eps) backward error by iterative
  /// refinement automatically.  0 restores throw-on-bad-pivot.  LL^T
  /// still throws on genuinely indefinite pivots (below -threshold).
  double pivot_threshold = 1e-12;
  /// Residual target of the automatic post-solve refinement that runs
  /// when the factorization was perturbed.
  double refine_tolerance = 1e-12;
  /// Iteration cap of the automatic refinement.
  int refine_max_iter = 20;
  /// Instrumentation layer (metrics registry, span tracer + parent
  /// context, fault harness), inherited by the real driver on every
  /// factorize().  The fault harness is also passed to FactorData as
  /// AllocationHook.  Set once -- e.g. via OptionsBuilder
  /// (service/options_builder.hpp) -- instead of per layer.
  obs::InstrumentationOptions instr;
};

/// What a solve did beyond plain substitution.  `degraded` mirrors the
/// factorization's perturbation flag; when set, iterative refinement ran
/// and `backward_error` is the final max-norm relative residual
/// ||b - Ax|| / ||b|| (the accuracy actually delivered).
struct SolveReport {
  bool degraded = false;
  int refine_iterations = 0;
  double backward_error = 0.0;
};

template <typename T>
class Solver {
 public:
  Solver() = default;
  explicit Solver(SolverOptions options) : options_(std::move(options)) {}

  SolverOptions& options() { return options_; }
  const SolverOptions& options() const { return options_; }

  /// Ordering + symbolic factorization of the pattern of `a`.  Resets any
  /// existing factors (they belong to the previous analysis).
  void analyze(const CscMatrix<T>& a);

  /// Adopts an already-computed analysis shared with other solvers (the
  /// solve service's pattern-keyed cache uses this).  `digest` must be the
  /// pattern_digest() of the matrix the analysis was computed from; it is
  /// what factorize() checks its input against.  Resets current factors.
  void adopt_analysis(std::shared_ptr<const Analysis> analysis,
                      std::uint64_t digest);

  /// Numerical factorization of `a`, whose pattern must be the analyzed
  /// one.  The factor storage is kept while the solver holds factors of
  /// the same analysis and kind: it is zero-filled in place and `a` is
  /// scattered into it through the assembly map.  Only the first
  /// factorize after analyze()/adopt_analysis(), the one after a failed
  /// factorize, and a change of kind allocate (and consult the
  /// AllocationHook).  Throws InvalidArgument before analyze() or on a
  /// pattern mismatch, and NumericalError on breakdown (an indefinite
  /// LL^T pivot, or any bad pivot when pivot_threshold == 0).  On ANY
  /// failure the solver drops its factors and rolls back to "analyzed,
  /// not factorized": factorize() can be retried (e.g. with different
  /// options) without re-analyzing.
  void factorize(const CscMatrix<T>& a, Factorization kind);

  /// Numeric-only re-factorization: ingests the new values of `a` (whose
  /// pattern must be the factorized one) with the current kind, reusing
  /// the analysis, the assembly map and the FactorData allocation as a
  /// repeat factorize() does.  The difference is the rollback: the values
  /// are backed up first, and on numeric failure the PREVIOUS factors are
  /// restored intact -- a failed refactorize leaves the solver still
  /// factorized and servable with the old values.  Throws
  /// InvalidArgument before the first factorize() and on a pattern-digest
  /// mismatch.
  void refactorize(const CscMatrix<T>& a);

  /// In-place solve of A x = b using the current factors.  When the
  /// factorization was perturbed, iterative refinement runs automatically
  /// against the retained input matrix; the report says what happened.
  SolveReport solve(std::span<T> b) const;

  /// In-place multi-RHS solve: `b` holds nrhs column-major right-hand
  /// sides of length n (leading dimension n).  Degraded factors refine
  /// every column; the report carries the worst column's figures.  The
  /// `solver.solve` span parents under `parent` when it is valid, else
  /// under options().instr.parent: concurrent solves on one factor each
  /// pass their own request's context without writing shared options.
  SolveReport solve_multi(std::span<T> b, index_t nrhs,
                          obs::SpanContext parent = {}) const;

  /// Iterative refinement: improves x (starting from a direct solve) until
  /// the relative residual drops below `tol`; returns iterations used.
  int solve_refine(const CscMatrix<T>& a, std::span<const T> b,
                   std::span<T> x, double tol = 1e-12,
                   int max_iter = 10) const;

  bool analyzed() const { return analysis_ != nullptr; }
  bool factorized() const { return factors_ != nullptr; }
  const Analysis& analysis() const {
    SPX_CHECK_ARG(analyzed(), "analyze() has not run");
    return *analysis_;
  }
  /// The analysis as shared immutable state (null before analyze()); the
  /// service's cache hands this to other solvers via adopt_analysis().
  std::shared_ptr<const Analysis> analysis_shared() const {
    return analysis_;
  }
  /// Cheap structure hash of the analyzed pattern (pattern_digest() of the
  /// matrix passed to analyze(), or the digest given to adopt_analysis()).
  std::uint64_t pattern_digest() const {
    SPX_CHECK_ARG(analyzed(), "analyze() has not run");
    return pattern_digest_;
  }
  const RunStats& last_factorization_stats() const { return stats_; }
  Factorization factorization_kind() const { return kind_; }

  /// The numerical factors, read-only (snapshot serialization); throws
  /// before factorize().
  const FactorData<T>& factor_data() const {
    SPX_CHECK_ARG(factorized(), "factorize() has not run");
    return *factors_;
  }

  /// Reinstates factors persisted from an identical (pattern, values,
  /// kind) triple without running a driver: allocates FactorData against
  /// the adopted analysis, copies the value arrays, and marks the solver
  /// factorized.  Only non-degraded factors are restorable (a degraded
  /// solve needs the retained input matrix for refinement, which
  /// snapshots deliberately do not carry).  Throws InvalidArgument
  /// before analyze()/adopt_analysis() or on a size mismatch.
  void restore_factors(Factorization kind, std::span<const T> l,
                       std::span<const T> u, std::span<const T> d,
                       const FactorQuality& quality);

  /// The loaded (and online-refined) performance model, or nullptr when
  /// none is configured / the file failed to load.  Loaded lazily by the
  /// first factorize() after perf_model_file is set.
  perfmodel::PerfModel* perf_model() { return perf_model_.get(); }
  const perfmodel::PerfModel* perf_model() const { return perf_model_.get(); }

 private:
  void load_perf_model();
  /// Fills factors_ with the values of `a` (zero-filling reused storage
  /// first) through assembly_map_, building the map on first use, and
  /// arms the static-pivot floor; spans parent under `parent`.
  void assemble(const CscMatrix<T>& a, bool zero_fill,
                obs::SpanContext parent);
  /// Runs the scheduler/driver (or the sequential loop) on factors_,
  /// parenting driver spans under `parent` (the factorize span).
  void factorize_numeric(obs::SpanContext parent);
  /// Registry bumps shared by solve()/solve_multi().
  void note_solve_metrics(index_t nrhs, const SolveReport& report) const;
  /// Plain substitution (no refinement) on a permuted-consistent rhs.
  void direct_solve(std::span<T> b) const;
  /// Refinement loop of the degraded path: improves x against
  /// refine_matrix_, starting from b0 (the original rhs).
  SolveReport refine_degraded(std::span<T> x,
                              std::span<const T> b0) const;

  SolverOptions options_;
  std::shared_ptr<const Analysis> analysis_;
  std::uint64_t pattern_digest_ = 0;
  /// Input-entry -> factor-slot map of the analyzed pattern; empty until
  /// the first factorize() of the analysis builds it.
  AssemblyMap assembly_map_;
  std::unique_ptr<FactorData<T>> factors_;
  Factorization kind_ = Factorization::LLT;
  RunStats stats_;
  std::shared_ptr<perfmodel::PerfModel> perf_model_;
  std::string perf_model_loaded_from_;  ///< file behind perf_model_
  /// Input matrix retained by a *degraded* factorize() so solve() can
  /// refine without asking the caller to keep A around (null otherwise).
  std::unique_ptr<CscMatrix<T>> refine_matrix_;
  /// Value snapshot (L then U then D) taken at the top of refactorize();
  /// sized on first use, reused after -- the rollback that keeps a failed
  /// refactorize servable costs no steady-state allocation.
  std::vector<T> refactor_backup_;
};

extern template class Solver<real_t>;
extern template class Solver<complex_t>;

}  // namespace spx
