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
// sweep.  refactorize() keeps two value buffers: it factorizes into the
// spare beside the published version and then publishes the spare with
// one pointer swap, so a failure leaves the previous factors servable and
// a solve never waits for it.  The lifecycle is strict and misuse fails
// loudly:
// factorize() throws before analyze() or when the matrix pattern differs
// from the analyzed one, refactorize() throws before the first
// factorize(), solve() throws before factorize(), and re-analyzing
// invalidates the current factors.
//
// Thread safety: solve(), solve_multi() and solve_refine() may run
// concurrently with each other and with one refactorize(); each solve
// pins the version published when it starts and reads only that.  The
// caller serializes refactorize() calls.  analyze(), adopt_analysis(),
// factorize() and restore_factors() need exclusive access.
// The analysis itself is held as shared immutable state
// (std::shared_ptr<const Analysis>) so many solvers -- e.g. concurrent
// requests in the solve service (src/service/) -- can factorize different
// matrices against one symbolic factorization without copying it.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>

#include "core/analysis.hpp"
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
  /// Under a task runtime, solves use them too: a solve with enough
  /// factor entries x nrhs runs its triangular sweeps as a panel DAG on
  /// the calling thread plus num_threads - 1 helper threads started for
  /// the call (at most one thread per core; DESIGN.md §16), and returns
  /// the bytes the one-thread sweeps would.  The Sequential runtime
  /// solves on the calling thread alone.
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
  /// AllocationHook.  Set once here; ServiceOptions::solver carries it
  /// into every request's solver.
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

/// One numeric state of a Solver: the factors and what a solve needs
/// beside them.  Solver publishes versions whole: a version is written
/// only while it is unpublished and unpinned, so a holder of a
/// Solver::pinned() handle reads bytes that no refactorize rewrites.
template <typename T>
struct FactorVersion {
  FactorVersion(const SymbolicStructure& st, Factorization kind,
                AllocationHook* hook)
      : factors(st, kind, hook) {}

  FactorData<T> factors;
  /// Input matrix retained by a degraded factorization, so that a solve
  /// can refine against it (null otherwise).
  std::unique_ptr<CscMatrix<T>> refine_matrix;
  /// Perturbed pivots: solves refine against refine_matrix.
  bool degraded() const { return refine_matrix != nullptr; }
  /// Live pinned() handles; refactorize rewrites a retired version only
  /// at zero.
  mutable std::atomic<int> pins{0};
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
  /// the same analysis and kind and no pinned() handle holds them: it is
  /// zero-filled in place and `a` is scattered into it through the
  /// assembly map.  Only the first factorize after
  /// analyze()/adopt_analysis(), the one after a failed factorize, a
  /// change of kind and a pinned version allocate (and consult the
  /// AllocationHook).  Throws InvalidArgument before analyze() or on a
  /// pattern mismatch, and NumericalError on breakdown (an indefinite
  /// LL^T pivot, or any bad pivot when pivot_threshold == 0).  On ANY
  /// failure the solver drops its factors and rolls back to "analyzed,
  /// not factorized": factorize() can be retried (e.g. with different
  /// options) without re-analyzing.  Spans parent under `parent` when it
  /// is valid, else under options().instr.parent.
  void factorize(const CscMatrix<T>& a, Factorization kind,
                 obs::SpanContext parent = {});

  /// Numeric-only re-factorization: ingests the new values of `a` (whose
  /// pattern must be the factorized one) with the current kind, reusing
  /// the analysis and the assembly map.  It assembles and factorizes into
  /// a spare version beside the published one, then publishes the spare
  /// with one pointer swap; the version it replaced becomes the next
  /// spare.  Solves running meanwhile keep the version they pinned.  On
  /// failure the spare is simply not published: the solver stays
  /// factorized and servable with the old values, and the next
  /// refactorize reuses the spare.  The first refactorize of an analysis
  /// allocates the spare (through the AllocationHook); later ones reuse
  /// the retired version, unless a pinned() handle still holds it.
  /// Throws InvalidArgument before the first factorize() and on a
  /// pattern-digest mismatch.  `parent` as for factorize().
  void refactorize(const CscMatrix<T>& a, obs::SpanContext parent = {});

  /// In-place solve of A x = b using the current factors:
  /// solve_multi(b, 1).  When the factorization was perturbed, iterative
  /// refinement runs automatically against the retained input matrix;
  /// the report says what happened.
  SolveReport solve(std::span<T> b) const { return solve_multi(b, 1); }

  /// In-place multi-RHS solve: `b` holds nrhs column-major right-hand
  /// sides of length n (leading dimension n).  Degraded factors refine
  /// every column; the report carries the worst column's figures.  The
  /// `solver.solve` span parents under `parent` when it is valid, else
  /// under options().instr.parent: concurrent solves on one factor each
  /// pass their own request's context without writing shared options.
  SolveReport solve_multi(std::span<T> b, index_t nrhs,
                          obs::SpanContext parent = {}) const;

  /// Iterative refinement against `a`: x starts from a direct solve of b
  /// and improves until the relative residual drops below `tol` or
  /// `max_iter` corrections ran; returns the corrections applied.  It
  /// runs the loop that refines a degraded solve.
  int solve_refine(const CscMatrix<T>& a, std::span<const T> b,
                   std::span<T> x, double tol = 1e-12,
                   int max_iter = 10) const;

  bool analyzed() const { return analysis_ != nullptr; }
  bool factorized() const {
    std::lock_guard<std::mutex> lock(*publish_mutex_);
    return current_ != nullptr;
  }
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

  /// The published numerical factors, read-only; throws before
  /// factorize().  The reference is valid until the next refactorize() or
  /// factorize(): a reader beside a refactorize takes pinned() instead.
  const FactorData<T>& factor_data() const {
    SPX_CHECK_ARG(current_ != nullptr, "factorize() has not run");
    return current_->factors;
  }

  /// The published version, pinned: no refactorize rewrites it while the
  /// handle (or a copy) lives.  Null before factorize().  Solves pin this
  /// way; the snapshot writer persists a pinned version.
  std::shared_ptr<const FactorVersion<T>> pinned() const;

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
  /// Fills `f` with the values of `a` (zero-filling reused storage
  /// first) through assembly_map_, building the map on first use, and
  /// arms the static-pivot floor; spans parent under `parent`.
  void assemble(FactorData<T>& f, const CscMatrix<T>& a, bool zero_fill,
                obs::SpanContext parent);
  /// Runs the scheduler/driver (or the sequential loop) on `f`, parenting
  /// driver spans under `parent` (the factorize span).
  void factorize_numeric(FactorData<T>& f, obs::SpanContext parent);
  /// Fills stats_ from `f` after a successful numeric sweep and retains
  /// `a` in `v` when the factors came out degraded.
  void finish_numeric(FactorVersion<T>& v, const CscMatrix<T>& a);
  /// Registry bumps of solve_multi().
  void note_solve_metrics(index_t nrhs, const SolveReport& report) const;
  /// Threads a solve runs on: 1 on the Sequential runtime, else
  /// num_threads (0 = hardware concurrency), at most one per core.
  int solve_threads() const;
  /// Plain substitution (no refinement) on a permuted-consistent rhs.
  void direct_solve(const FactorVersion<T>& v, std::span<T> b) const;
  /// Iterative refinement of x, a direct solve of b0, against `a`:
  /// corrects x until the max-norm relative residual is at most `tol` or
  /// `max_iter` corrections ran.  The report counts the corrections and
  /// carries the last residual.
  SolveReport refine(const FactorVersion<T>& v, const CscMatrix<T>& a,
                     std::span<T> x, std::span<const T> b0, double tol,
                     int max_iter) const;
  /// Makes `v` the version solves pin (null: not factorized) and returns
  /// the one it replaces.
  std::shared_ptr<FactorVersion<T>> publish(
      std::shared_ptr<FactorVersion<T>> v);

  SolverOptions options_;
  std::shared_ptr<const Analysis> analysis_;
  std::uint64_t pattern_digest_ = 0;
  /// Input-entry -> factor-slot map of the analyzed pattern; empty until
  /// the first factorize() of the analysis builds it.
  AssemblyMap assembly_map_;
  /// The published version: what solves pin.  Written only under
  /// publish_mutex_ (the solver's own reads need no lock, since the
  /// writers are the solver's own serialized calls).
  std::shared_ptr<FactorVersion<T>> current_;
  /// The version refactorize() fills next: the one it last replaced, or
  /// the one a failed refactorize left unpublished; null until the first
  /// refactorize of an analysis.
  std::shared_ptr<FactorVersion<T>> spare_;
  /// Held only to pin or swap current_ (heap-held so Solver stays
  /// movable; moves happen while no solve runs).
  std::unique_ptr<std::mutex> publish_mutex_ = std::make_unique<std::mutex>();
  Factorization kind_ = Factorization::LLT;
  RunStats stats_;
  std::shared_ptr<perfmodel::PerfModel> perf_model_;
  std::string perf_model_loaded_from_;  ///< file behind perf_model_
};

extern template class Solver<real_t>;
extern template class Solver<complex_t>;

}  // namespace spx
