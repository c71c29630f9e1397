#include "core/solver.hpp"

#include <optional>
#include <thread>

#include "common/log.hpp"
#include "common/timer.hpp"
#include "core/sequential.hpp"
#include "kernels/dispatch.hpp"
#include "perfmodel/calibrated_costs.hpp"
#include "runtime/flop_costs.hpp"
#include "runtime/native_scheduler.hpp"
#include "runtime/real_driver.hpp"

namespace spx {

const char* to_string(RuntimeKind k) {
  switch (k) {
    case RuntimeKind::Sequential:
      return "sequential";
    case RuntimeKind::Native:
      return "native";
    case RuntimeKind::Starpu:
      return "starpu";
    case RuntimeKind::Parsec:
      return "parsec";
  }
  return "?";
}

// Loads options_.perf_model_file once per distinct path; a failed load
// warns and leaves perf_model_ null so factorize() degrades to FlopCosts.
// The loaded model is kept across factorizations: online refinement
// accumulates history that sharpens the *next* run's predictions.
template <typename T>
void Solver<T>::load_perf_model() {
  if (options_.perf_model_file == perf_model_loaded_from_) return;
  perf_model_.reset();
  perf_model_loaded_from_ = options_.perf_model_file;
  if (options_.perf_model_file.empty()) return;
  std::string error;
  std::optional<perfmodel::PerfModel> loaded =
      perfmodel::PerfModel::load(options_.perf_model_file, &error);
  if (!loaded) {
    logf(LogLevel::Warn,
         "perf model '%s' unusable (%s); falling back to flop costs",
         options_.perf_model_file.c_str(), error.c_str());
    return;
  }
  perf_model_ = std::make_shared<perfmodel::PerfModel>(std::move(*loaded));
  logf(LogLevel::Info, "loaded perf model '%s' (host '%s')",
       options_.perf_model_file.c_str(), perf_model_->host().c_str());
}

template <typename T>
void Solver<T>::analyze(const CscMatrix<T>& a) {
  obs::ScopedSpan span;
  SPX_OBS(span = obs::ScopedSpan(options_.instr.tracer, "solver.analyze",
                                 "service-", options_.instr.parent));
  Timer wall;
  analysis_ =
      std::make_shared<const Analysis>(spx::analyze(a, options_.analysis));
  pattern_digest_ = spx::pattern_digest(a);
  // Stale factors and their map belong to the previous analysis.
  assembly_map_.clear();
  publish(nullptr);
  spare_.reset();
  SPX_OBS({
    obs::MetricsRegistry& reg =
        obs::registry_or_global(options_.instr.metrics);
    reg.counter("spx_solver_analyzes_total",
                "Symbolic analyses (ordering + symbolic factorization)")
        .inc();
    reg.histogram("spx_solver_analyze_seconds",
                  obs::Histogram::duration_bounds(),
                  "Symbolic analysis wall time")
        .observe(wall.elapsed());
  });
}

template <typename T>
void Solver<T>::adopt_analysis(std::shared_ptr<const Analysis> analysis,
                               std::uint64_t digest) {
  SPX_CHECK_ARG(analysis != nullptr, "adopt_analysis(): null analysis");
  analysis_ = std::move(analysis);
  pattern_digest_ = digest;
  assembly_map_.clear();
  publish(nullptr);
  spare_.reset();
}

template <typename T>
std::shared_ptr<FactorVersion<T>> Solver<T>::publish(
    std::shared_ptr<FactorVersion<T>> v) {
  std::lock_guard<std::mutex> lock(*publish_mutex_);
  current_.swap(v);
  return v;
}

template <typename T>
std::shared_ptr<const FactorVersion<T>> Solver<T>::pinned() const {
  std::shared_ptr<const FactorVersion<T>> owner;
  {
    // Counted under the lock that publishes: once refactorize() has
    // swapped a version out, no new pin can reach it.
    std::lock_guard<std::mutex> lock(*publish_mutex_);
    if (current_ == nullptr) return nullptr;
    current_->pins.fetch_add(1, std::memory_order_relaxed);
    owner = current_;
  }
  const FactorVersion<T>* v = owner.get();
  // The release pairs with refactorize()'s acquire load of `pins`: every
  // read through this handle happens before the version is rewritten.
  return std::shared_ptr<const FactorVersion<T>>(
      v, [owner = std::move(owner)](const FactorVersion<T>* p) {
        p->pins.fetch_sub(1, std::memory_order_release);
      });
}

template <typename T>
void Solver<T>::restore_factors(Factorization kind, std::span<const T> l,
                                std::span<const T> u, std::span<const T> d,
                                const FactorQuality& quality) {
  SPX_CHECK_ARG(analyzed(),
                "restore_factors() needs the matching analysis adopted "
                "first");
  SPX_CHECK_ARG(!quality.degraded(),
                "degraded factors are not restorable (refinement needs "
                "the input matrix, which snapshots do not carry)");
  kind_ = kind;
  publish(nullptr);
  spare_.reset();
  auto v = std::make_shared<FactorVersion<T>>(analysis_->structure, kind,
                                              options_.instr.fault);
  v->factors.restore_values(l, u, d);
  v->factors.set_pivot_policy(quality.threshold, quality.anorm);
  v->factors.set_quality(quality);
  publish(std::move(v));
  stats_ = RunStats{};
  stats_.quality = quality;
  SPX_OBS(obs::registry_or_global(options_.instr.metrics)
              .counter("spx_solver_factors_restored_total",
                       "Factorizations reinstated from persisted snapshots")
              .inc());
}

template <typename T>
void Solver<T>::factorize(const CscMatrix<T>& a, Factorization kind,
                          obs::SpanContext parent) {
  SPX_CHECK_ARG(a.nrows() == a.ncols(), "square matrix required");
  SPX_CHECK_ARG(analyzed(),
                "factorize() before analyze(): run analyze(a) first (one "
                "analysis serves every same-pattern factorization)");
  SPX_CHECK_ARG(analysis_->perm.size() == a.ncols() &&
                    spx::pattern_digest(a) == pattern_digest_,
                "factorize(): matrix pattern differs from the analyzed "
                "pattern; call analyze(a) again");
  if constexpr (!is_complex_v<T>) {
    SPX_CHECK_ARG(kind == Factorization::LLT || kind == Factorization::LDLT ||
                      kind == Factorization::LU,
                  "unknown factorization");
  } else {
    SPX_CHECK_ARG(kind != Factorization::LLT,
                  "complex matrices use LDLT (symmetric) or LU");
  }
  kind_ = kind;
  obs::ScopedSpan span;
  SPX_OBS(span = obs::ScopedSpan(
              options_.instr.tracer, "solver.factorize", "service-",
              parent.valid() ? parent : options_.instr.parent));
  Timer wall;
  // Any failure below must leave the solver "analyzed, not factorized": the
  // published version is withdrawn first, so factorize() can simply be
  // retried.  Factors held here belong to this analysis
  // (analyze/adopt_analysis drop them), so storage of the same kind is
  // reused in place unless a pinned() handle still reads it; a new kind
  // allocates afresh.
  std::shared_ptr<FactorVersion<T>> v = publish(nullptr);
  if (spare_ != nullptr && spare_->factors.kind() != kind) spare_.reset();
  if (v != nullptr && (v->factors.kind() != kind ||
                       v->pins.load(std::memory_order_acquire) != 0)) {
    v.reset();
  }
  const bool reuse = v != nullptr;
  if (!reuse) {
    v = std::make_shared<FactorVersion<T>>(analysis_->structure, kind,
                                           options_.instr.fault);
  }
  try {
    v->refine_matrix.reset();
    assemble(v->factors, a, reuse, span.context());
    factorize_numeric(v->factors, span.context());
    finish_numeric(*v, a);
  } catch (...) {
    stats_.quality = v->factors.quality();  // keep the post-mortem record
    SPX_OBS(obs::registry_or_global(options_.instr.metrics)
                .counter("spx_solver_factorize_failures_total",
                         "Factorizations that threw",
                         {{"runtime", to_string(options_.runtime)}})
                .inc());
    throw;
  }
  publish(std::move(v));
  SPX_OBS({
    obs::MetricsRegistry& reg =
        obs::registry_or_global(options_.instr.metrics);
    reg.counter("spx_solver_factorizes_total",
                "Completed numeric factorizations",
                {{"runtime", to_string(options_.runtime)}})
        .inc();
    reg.histogram("spx_solver_factorize_seconds",
                  obs::Histogram::duration_bounds(),
                  "Numeric factorization wall time",
                  {{"runtime", to_string(options_.runtime)}})
        .observe(wall.elapsed());
    reg.gauge("spx_kernel_isa_info",
              "Dense-kernel dispatch decision of the last factorization",
              {{"isa", stats_.kernel_isa},
               {"blas", stats_.kernel_blas ? "on" : "off"}})
        .set(1);
    if (stats_.quality.degraded()) {
      reg.counter("spx_solver_degraded_factorizes_total",
                  "Factorizations completed with perturbed pivots")
          .inc();
    }
  });
}

template <typename T>
void Solver<T>::refactorize(const CscMatrix<T>& a, obs::SpanContext parent) {
  SPX_CHECK_ARG(current_ != nullptr,
                "refactorize() before factorize(): the fast path reuses "
                "the allocated factors; run factorize(a, kind) first");
  SPX_CHECK_ARG(a.nrows() == a.ncols(), "square matrix required");
  SPX_CHECK_ARG(analysis_->perm.size() == a.ncols() &&
                    spx::pattern_digest(a) == pattern_digest_,
                "refactorize(): matrix pattern differs from the factorized "
                "pattern; refactorize ingests new values only -- call "
                "analyze(a) + factorize(a, kind) for a new pattern");
  obs::ScopedSpan span;
  SPX_OBS(span = obs::ScopedSpan(
              options_.instr.tracer, "solver.refactorize", "service-",
              parent.valid() ? parent : options_.instr.parent));
  Timer wall;
  // The new values go into the spare while solves keep reading current_;
  // only a complete factorization is published.  A failure publishes
  // nothing, so the previous factors keep serving and the spare waits
  // for the next refactorize.
  try {
    // The acquire pairs with the release in pinned()'s deleter: once the
    // count reads zero, every solve that read the retired version is done.
    if (spare_ != nullptr &&
        spare_->pins.load(std::memory_order_acquire) != 0) {
      spare_.reset();  // its last holder frees it
      SPX_OBS(obs::registry_or_global(options_.instr.metrics)
                  .counter("spx_solver_pinned_spares_total",
                           "Refactorizes that allocated a fresh spare "
                           "because a reader still pinned the retired "
                           "version")
                  .inc());
    }
    const bool reuse = spare_ != nullptr;
    if (!reuse) {
      spare_ = std::make_shared<FactorVersion<T>>(analysis_->structure, kind_,
                                                  options_.instr.fault);
    }
    spare_->refine_matrix.reset();
    assemble(spare_->factors, a, reuse, span.context());
    factorize_numeric(spare_->factors, span.context());
    finish_numeric(*spare_, a);
  } catch (...) {
    stats_.quality = current_->factors.quality();
    SPX_OBS(obs::registry_or_global(options_.instr.metrics)
                .counter("spx_solver_refactorize_failures_total",
                         "Re-factorizations that threw; the previous "
                         "factors kept serving",
                         {{"runtime", to_string(options_.runtime)}})
                .inc());
    throw;
  }
  spare_ = publish(std::move(spare_));  // the retired version
  SPX_OBS({
    obs::MetricsRegistry& reg =
        obs::registry_or_global(options_.instr.metrics);
    reg.counter("spx_solver_refactorizes_total",
                "Numeric-only re-factorizations (analysis and assembly "
                "map reused)",
                {{"runtime", to_string(options_.runtime)}})
        .inc();
    reg.histogram("spx_solver_refactorize_seconds",
                  obs::Histogram::duration_bounds(),
                  "Numeric re-factorization wall time",
                  {{"runtime", to_string(options_.runtime)}})
        .observe(wall.elapsed());
    if (stats_.quality.degraded()) {
      reg.counter("spx_solver_degraded_factorizes_total",
                  "Factorizations completed with perturbed pivots")
          .inc();
    }
  });
}

template <typename T>
void Solver<T>::finish_numeric(FactorVersion<T>& v, const CscMatrix<T>& a) {
  stats_.quality = v.factors.quality();
  if (stats_.quality.degraded()) {
    // Perturbed factors are exact factors of A + E; retain A so a solve
    // can repair the O(threshold) error by refinement on its own.
    v.refine_matrix = std::make_unique<CscMatrix<T>>(a);
  }
  stats_.gflops = analysis_->structure.total_flops(kind_) /
                  std::max(1e-12, stats_.makespan) / 1e9;
  stats_.kernel_isa =
      kernels::to_string(kernels::Dispatch::instance().active());
  stats_.kernel_blas = kernels::Dispatch::instance().blas_active();
}

template <typename T>
void Solver<T>::assemble(FactorData<T>& f, const CscMatrix<T>& a,
                         bool zero_fill, obs::SpanContext parent) {
  {
    obs::ScopedSpan span;
    SPX_OBS(span = obs::ScopedSpan(options_.instr.tracer, "solver.assemble",
                                   "service-", parent));
    if (assembly_map_.empty()) {
      assembly_map_ = build_assembly_map(analysis_->structure, analysis_->perm,
                                         a.colptr(), a.rowind());
    }
    if (zero_fill) f.reset();
    f.assemble(assembly_map_, a.values());
  }
  // Static-pivot floor, scaled by ||A|| = max |a_ij| of the input.
  double anorm = 0.0;
  for (const T& v : a.values()) {
    anorm = std::max(anorm, static_cast<double>(magnitude<T>(v)));
  }
  f.set_pivot_policy(
      options_.pivot_threshold > 0 ? options_.pivot_threshold * anorm : 0.0,
      anorm);
}

template <typename T>
void Solver<T>::factorize_numeric(FactorData<T>& f, obs::SpanContext parent) {
  const Factorization kind = kind_;
  Timer wall;
  if (options_.runtime == RuntimeKind::Sequential) {
    factorize_sequential(f);
    stats_ = RunStats{};
    stats_.makespan = wall.elapsed();
    stats_.tasks_cpu = analysis_->structure.num_panels();
  } else {
    int threads = options_.num_threads;
    if (threads <= 0) {
      threads = static_cast<int>(std::thread::hardware_concurrency());
      if (threads <= 0) threads = 1;
    }
    TaskTable table(analysis_->structure, kind);
    RealDriverOptions dopts;
    // Inherit the instrumentation layer; driver spans (driver.run and the
    // per-task spans) parent under this factorize's span.
    dopts.instr = options_.instr;
    dopts.instr.parent = parent.valid() ? parent : options_.instr.parent;
    // Cost oracle: calibrated model when configured and loadable, flop
    // proportionality otherwise.  The calibrated path also attaches the
    // model-error probe and (optionally) the online-refinement observer.
    load_perf_model();
    std::unique_ptr<TaskCosts> costs;
    std::unique_ptr<perfmodel::ModelRefiner> refiner;
    if (perf_model_ != nullptr) {
      auto calibrated =
          std::make_unique<perfmodel::CalibratedCosts>(table, *perf_model_);
      logf(LogLevel::Debug, "perf model coverage: %.0f%% of task queries",
           100.0 * calibrated->coverage());
      dopts.error_model = calibrated.get();
      if (options_.refine_perf_model) {
        refiner =
            std::make_unique<perfmodel::ModelRefiner>(*perf_model_, table);
        dopts.observer = refiner.get();
      }
      costs = std::move(calibrated);
    } else {
      costs = std::make_unique<FlopCosts>(table);
    }
    // One machine for every task runtime: the CPU workers, then one GPU
    // per hetero device, each stream behind its device engine.  StarPU's
    // dedicated-core convention (paper §V-C) removes one CPU worker per
    // stream; a CPU-only run gets `threads` workers.
    const HeteroOptions& hetero = options_.hetero;
    SPX_CHECK_ARG(!hetero.enabled() ||
                      options_.runtime == RuntimeKind::Starpu ||
                      options_.runtime == RuntimeKind::Parsec,
                  "hetero devices require the starpu or parsec runtime");
    const int ndev = static_cast<int>(hetero.devices.size());
    const int spe = hetero.uniform_streams();
    const Machine machine(std::max(1, threads - ndev * spe), ndev, spe);
    dopts.hetero = hetero;
    switch (options_.runtime) {
      case RuntimeKind::Native: {
        NativeScheduler sched(table, machine, *costs);
        stats_ = execute_real(sched, machine, f, dopts);
        break;
      }
      case RuntimeKind::Starpu: {
        // With devices, a live coherence directory is shared between dmda
        // placement and the engines' staging, so transfer penalties track
        // real residency.
        std::optional<DataDirectory> directory;
        if (hetero.enabled()) {
          directory.emplace(analysis_->structure, kind, sizeof(T), ndev);
          dopts.hetero.directory = &*directory;
        }
        StarpuScheduler sched(table, machine, *costs, options_.starpu,
                              directory ? &*directory : nullptr);
        stats_ = execute_real(sched, machine, f, dopts);
        break;
      }
      case RuntimeKind::Parsec: {
        // With devices, the driver owns the coherence directory.
        ParsecScheduler sched(table, machine, *costs, options_.parsec);
        stats_ = execute_real(sched, machine, f, dopts);
        break;
      }
      case RuntimeKind::Sequential:
        break;  // handled above
    }
  }
}

template <typename T>
void Solver<T>::direct_solve(const FactorVersion<T>& v,
                             std::span<T> b) const {
  std::vector<T> pb(b.size());
  permute_vector<T>(analysis_->perm, b, pb);
  solve_permuted(v.factors, std::span<T>(pb));
  unpermute_vector<T>(analysis_->perm, pb, b);
}

template <typename T>
SolveReport Solver<T>::refine(const FactorVersion<T>& v,
                              const CscMatrix<T>& a, std::span<T> x,
                              std::span<const T> b0, double tol,
                              int max_iter) const {
  SolveReport report;
  const std::size_t n = b0.size();
  double bnorm = 0.0;
  for (const T& v : b0) bnorm = std::max(bnorm, (double)magnitude<T>(v));
  if (bnorm == 0.0) bnorm = 1.0;
  std::vector<T> residual(n);
  for (int iter = 0; iter <= max_iter; ++iter) {
    a.multiply(std::span<const T>(x.data(), n), residual);
    double rnorm = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      residual[i] = b0[i] - residual[i];
      rnorm = std::max(rnorm, (double)magnitude<T>(residual[i]));
    }
    report.backward_error = rnorm / bnorm;
    report.refine_iterations = iter;
    if (report.backward_error <= tol || iter == max_iter) break;
    direct_solve(v, residual);
    for (std::size_t i = 0; i < n; ++i) x[i] += residual[i];
  }
  return report;
}

template <typename T>
void Solver<T>::note_solve_metrics(index_t nrhs,
                                   const SolveReport& report) const {
  obs::MetricsRegistry& reg = obs::registry_or_global(options_.instr.metrics);
  reg.counter("spx_solver_solves_total", "Triangular solves (RHS columns)")
      .inc(static_cast<double>(nrhs));
  if (report.refine_iterations > 0) {
    reg.counter("spx_solver_refine_iterations_total",
                "Post-solve iterative-refinement sweeps")
        .inc(report.refine_iterations);
  }
}

template <typename T>
SolveReport Solver<T>::solve_multi(std::span<T> b, index_t nrhs,
                                   obs::SpanContext parent) const {
  const std::shared_ptr<const FactorVersion<T>> v = pinned();
  SPX_CHECK_ARG(v != nullptr,
                "solve_multi() without factors: factorize() has not run "
                "since the last analyze()");
  const index_t n = analysis_->perm.size();
  SPX_CHECK_ARG(static_cast<index_t>(b.size()) == n * nrhs,
                "rhs block size mismatch");
  obs::ScopedSpan span;
  SPX_OBS(span = obs::ScopedSpan(
              options_.instr.tracer, "solver.solve", "service-",
              parent.valid() ? parent : options_.instr.parent, 0, nrhs));
  const bool degraded = v->degraded();
  std::vector<T> b0;
  if (degraded) b0.assign(b.begin(), b.end());
  std::vector<T> pb(b.size());
  for (index_t c = 0; c < nrhs; ++c) {
    permute_vector<T>(analysis_->perm,
                      std::span<const T>(b.data() + std::size_t(c) * n, n),
                      std::span<T>(pb.data() + std::size_t(c) * n, n));
  }
  solve_permuted_multi(v->factors, pb.data(), nrhs, n);
  for (index_t c = 0; c < nrhs; ++c) {
    unpermute_vector<T>(analysis_->perm,
                        std::span<const T>(pb.data() + std::size_t(c) * n, n),
                        std::span<T>(b.data() + std::size_t(c) * n, n));
  }
  if (!degraded) {
    SPX_OBS(note_solve_metrics(nrhs, {}));
    return {};
  }
  // Refine column by column; report the worst column's figures.
  SolveReport worst;
  worst.degraded = true;
  for (index_t c = 0; c < nrhs; ++c) {
    const SolveReport r = refine(
        *v, *v->refine_matrix, std::span<T>(b.data() + std::size_t(c) * n, n),
        std::span<const T>(b0.data() + std::size_t(c) * n, n),
        options_.refine_tolerance, options_.refine_max_iter);
    worst.refine_iterations =
        std::max(worst.refine_iterations, r.refine_iterations);
    worst.backward_error = std::max(worst.backward_error, r.backward_error);
  }
  SPX_OBS(note_solve_metrics(nrhs, worst));
  return worst;
}

template <typename T>
int Solver<T>::solve_refine(const CscMatrix<T>& a, std::span<const T> b,
                            std::span<T> x, double tol,
                            int max_iter) const {
  const std::shared_ptr<const FactorVersion<T>> v = pinned();
  SPX_CHECK_ARG(v != nullptr,
                "solve_refine() without factors: factorize() has not run "
                "since the last analyze()");
  std::copy(b.begin(), b.end(), x.begin());
  direct_solve(*v, x);  // refined below, against `a`
  return refine(*v, a, x, b, tol, max_iter).refine_iterations;
}

template class Solver<real_t>;
template class Solver<complex_t>;

}  // namespace spx
