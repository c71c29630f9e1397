// Multi-tenant in-process solve service: the serving layer over the
// Solver facade (ROADMAP north star -- heavy concurrent factorize/solve
// traffic against a library built for one caller at a time).
//
// Request path:
//   submit_factorize(req, A, kind)     ->  Ticket<FactorizeResult>
//     admission queue (bounded per tenant, weighted shares + EDF within
//     the tenant, reject-on-full)
//     -> worker: pattern-keyed analysis cache (hit shares the symbolic
//        factorization; miss computes once, coalescing concurrent misses)
//     -> Solver::adopt_analysis + factorize on the worker's runtime
//        (or MixedPrecisionSolver when the precision policy picks fp32)
//     -> FactorHandle, shareable across solve requests and threads
//   submit_refactorize(req, factor, v) ->  Ticket<FactorizeResult>
//     numeric-only fast path: the factor's symbolic analysis is reused;
//     the new values (digest-checked against the retained pattern) are
//     factorized into the solver's spare buffer and published with one
//     pointer swap, so solves of the factor keep running meanwhile.  A
//     failed refactorize publishes nothing: the previous factor keeps
//     serving.
//   submit_solve(req, factor, b)       ->  Ticket<SolveResult>
//     solve requests against one factor that arrive within the batching
//     window are coalesced into a single solve_multi call (GEMM-shaped
//     panel updates instead of per-RHS GEMVs).
//
// All submits take one RequestOptions struct (tenant, deadline,
// precision, nrhs, trace, on_complete).
// Every ticket supports cancel(); deadlines expire requests that waited
// too long; every result carries RequestStats (queue wait, cache outcome,
// factorize/solve wall time, precision served, scheduler RunStats)
// exportable as JSON.  Per-tenant QoS (weights, queue bounds, precision
// defaults) comes from ServiceOptions::tenants; per-tenant counters show
// up in ServiceStats::tenants and the spx_service_tenant_* series.
#pragma once

#include <condition_variable>
#include <future>
#include <map>
#include <optional>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/mixed.hpp"
#include "core/solver.hpp"
#include "service/admission_queue.hpp"
#include "service/analysis_cache.hpp"

namespace spx::service {

struct ServiceOptions {
  /// Executor threads; each runs one request at a time.  0 is allowed
  /// (nothing executes until destruction -- used by cancellation tests).
  int num_workers = 2;
  /// Per-tenant admission bound; submits beyond it are Rejected.  A
  /// TenantConfig::queue_capacity overrides it for that tenant.
  std::size_t queue_capacity = 64;
  /// Byte budget of the pattern-keyed analysis cache (0 disables it).
  std::size_t cache_bytes = 256ull << 20;
  /// Seconds a solve lingers after being picked up, letting more
  /// same-factor solves arrive for coalescing.  0 batches only what has
  /// already accumulated.
  double batch_window = 0;
  /// Ceiling on RHS columns coalesced into one solve_multi call.
  index_t max_batch = 32;
  /// Inner solver configuration (runtime, threads, perf model...).  The
  /// default is the sequential runtime: the service scales by running
  /// many requests concurrently, one worker each, rather than nesting
  /// thread pools.  Configure Native/Starpu/Parsec + num_threads for
  /// few-large-requests workloads; the service then runs up to
  /// num_workers x num_threads threads, during factorizations and
  /// during large solves alike (a task runtime's solve runs on the
  /// worker plus num_threads - 1 helpers).
  SolverOptions solver;
  /// Total factorize attempts per request (1 disables retries).  Only
  /// transient-or-absorbable failures retry: numerical breakdown (with an
  /// escalated pivot threshold), injected faults, allocation failure.
  int max_attempts = 3;
  /// Backoff before attempt k is retry_backoff_s * 2^(k-2) seconds.
  double retry_backoff_s = 0.01;
  /// Each retry multiplies the solver's pivot_threshold by this, widening
  /// the static-perturbation net until the factorization survives.
  double eps_escalation = 16.0;
  /// Per-tenant budget of retry attempts (summed over all its requests);
  /// an exhausted budget fails fast, so one tenant's pathological inputs
  /// cannot monopolize workers with retry storms.
  std::uint64_t tenant_retry_budget = 64;
  /// A degraded factorization whose pivot growth exceeds this is treated
  /// as numerical failure (refinement cannot repair it) and retried.
  double max_pivot_growth = 1e10;
  /// Service-wide default precision policy; a TenantConfig or a
  /// RequestOptions::precision override wins, in that order of
  /// increasing priority.
  PrecisionPolicy precision = PrecisionPolicy::Fp64;
  /// Refinement target of the fp32 path -- also its fallback gate: a
  /// factorization whose probe solve cannot refine to this backward
  /// error is re-factorized in fp64 automatically.
  double mixed_tolerance = 1e-10;
  /// Refinement sweep cap of the fp32 path.
  int mixed_max_iter = 30;
  /// Per-tenant QoS + serving config (weight, queue bound, precision);
  /// tenants not listed get the defaults (weight 1, queue_capacity,
  /// `precision` above).
  std::map<std::string, TenantConfig> tenants;

  ServiceOptions() { solver.runtime = RuntimeKind::Sequential; }
};

/// Options of one submitted request -- the single submission surface of
/// every submit_* call (docs/SERVICE.md "Request options").
struct RequestOptions {
  std::string tenant;
  /// > 0: the request expires if still queued this many seconds from
  /// submission.
  double deadline_s = 0;
  /// Per-request precision override (factorize requests only); unset =
  /// the tenant's TenantConfig, then ServiceOptions::precision.
  std::optional<PrecisionPolicy> precision;
  /// Column count of a multi-RHS solve: the rhs vector carries nrhs
  /// column-major right-hand sides of length n.  Ignored by factorize
  /// and refactorize requests.
  index_t nrhs = 1;
  /// A valid context parents the request's spans under a caller-provided
  /// (e.g. wire-carried) trace instead of a fresh one.
  obs::SpanContext trace;
  /// Fired exactly once, right after the result promise is fulfilled
  /// (any terminal status, any thread; must not throw).
  std::function<void()> on_complete;
};

struct SolveJob;

/// A completed numeric factorization held by the service.  Solves share
/// it read-only from any number of threads.  Refactorize requests of one
/// factor run one at a time (writer_); on the fp64 path they run beside
/// the solves, each of which reads the solver version it pinned.
class Factor {
 public:
  const Solver<real_t>& solver() const { return solver_; }
  index_t n() const { return solver_.analysis().perm.size(); }
  /// True when the float-factor + fp64-refine path serves this factor.
  bool fp32() const {
    std::shared_lock<std::shared_mutex> lock(rw_);
    return mixed_ != nullptr;
  }
  /// The precision policy the factorize request resolved to.
  PrecisionPolicy precision() const { return policy_; }
  Factorization kind() const { return fkind_; }
  /// True when refactorize can ingest new values (the input matrix was
  /// retained; snapshot-restored factors were not).  Fixed at creation.
  bool refactorizable() const { return refactorizable_; }

 private:
  friend class SolveService;
  Solver<real_t> solver_;
  /// Float factors + fp64 refinement (policy Fp32Refine/Auto when the
  /// quality gate held); null = classic fp64 path.
  std::unique_ptr<MixedPrecisionSolver> mixed_;
  PrecisionPolicy policy_ = PrecisionPolicy::Fp64;
  Factorization fkind_ = Factorization::LLT;
  /// The factorized matrix, retained so refactorize can rebuild it from
  /// ingested values (and the fp32 path can compute residuals).  Read and
  /// replaced only under writer_.
  std::shared_ptr<const CscMatrix<real_t>> matrix_;
  /// Stored entries of the factorized pattern, and refactorizable(): both
  /// fixed at creation, so a submit reads them without any lock.
  std::size_t nnz_ = 0;
  bool refactorizable_ = false;
  /// Serializes the refactorizes of this factor, as Solver::refactorize
  /// requires.  mixed_ changes only under it.
  std::mutex writer_;
  /// Guards mixed_: solves hold it shared.  The fp32 refactorize holds it
  /// exclusive, because its probe solve and fp64 fallback switch which
  /// solver serves; the fp64 refactorize does not take it.
  mutable std::shared_mutex rw_;
  /// Solve requests awaiting batching (weak: the admission queue and
  /// tickets own the jobs; stale entries are pruned lazily, and weak
  /// pointers break the Factor -> job -> Factor ownership cycle).
  std::mutex pending_mutex_;
  std::vector<std::weak_ptr<SolveJob>> pending_;
};

using FactorHandle = std::shared_ptr<Factor>;

struct FactorizeResult {
  RequestStatus status = RequestStatus::Failed;
  ErrorCode code = ErrorCode::Internal;  ///< structured outcome
  std::string error;
  FactorHandle factor;  ///< non-null iff status == Done
  /// The fp64 factor version this request published, pinned: its values
  /// stay as they were while later refactorizes of the factor run (the
  /// snapshot writer persists it).  Null on failure and when the fp32
  /// path serves the factor.  Holding it keeps that version allocated: a
  /// refactorize that finds it still pinned allocates a fresh spare.
  std::shared_ptr<const FactorVersion<real_t>> version;
  RequestStats stats;

  bool ok() const { return status == RequestStatus::Done; }
  /// Done, but via perturbed pivots (solves auto-refine and report).
  bool degraded() const { return code == ErrorCode::NumericalDegraded; }
};

struct SolveResult {
  RequestStatus status = RequestStatus::Failed;
  ErrorCode code = ErrorCode::Internal;  ///< structured outcome
  std::string error;
  std::vector<real_t> x;  ///< solution; empty unless status == Done
  RequestStats stats;

  bool ok() const { return status == RequestStatus::Done; }
  bool degraded() const { return code == ErrorCode::NumericalDegraded; }
};

/// A request whose completion fulfills a promise of `Result`.
template <typename Result>
struct ResultJob : JobBase {
  using JobBase::JobBase;
  RequestStats stats;
  std::promise<Result> promise;
  void complete_unrun(RequestStatus status, std::string error) override;
};

extern template struct ResultJob<FactorizeResult>;
extern template struct ResultJob<SolveResult>;

struct FactorizeJob : ResultJob<FactorizeResult> {
  FactorizeJob() : ResultJob(JobKind::Factorize) {}
  std::shared_ptr<const CscMatrix<real_t>> matrix;
  Factorization fkind = Factorization::LLT;
  PrecisionPolicy policy = PrecisionPolicy::Fp64;  ///< resolved at submit
};

struct RefactorizeJob : ResultJob<FactorizeResult> {
  RefactorizeJob() : ResultJob(JobKind::Refactorize) {}
  FactorHandle factor;
  std::vector<real_t> values;  ///< new numeric values, length nnz(A)
};

struct SolveJob : ResultJob<SolveResult> {
  SolveJob() : ResultJob(JobKind::Solve) {}
  FactorHandle factor;
  std::vector<real_t> rhs;  ///< nrhs column-major RHS of length n
  index_t nrhs = 1;
};

/// Handle to an in-flight request: a future for the result plus a
/// best-effort cancel.
template <typename Result>
class Ticket {
 public:
  Ticket() = default;
  bool valid() const { return future_.valid(); }
  /// Blocks until the request reaches a terminal status.
  Result get() const { return future_.get(); }
  void wait() const { future_.wait(); }
  std::uint64_t id() const { return state_ != nullptr ? state_->id : 0; }

  /// Requests cancellation.  True when the request had not started: it
  /// then completes immediately with status Cancelled.  False means
  /// execution already began (or finished); the result stands.
  bool cancel() {
    if (state_ == nullptr) return false;
    state_->cancel_requested.store(true, std::memory_order_release);
    if (!state_->try_claim()) return false;
    state_->complete_unrun(RequestStatus::Cancelled, "cancelled by caller");
    return true;
  }

 private:
  friend class SolveService;
  Ticket(std::shared_future<Result> f, std::shared_ptr<JobBase> s)
      : future_(std::move(f)), state_(std::move(s)) {}

  std::shared_future<Result> future_;
  std::shared_ptr<JobBase> state_;
};

class SolveService {
 public:
  explicit SolveService(ServiceOptions options = {});
  /// Drains: queued-but-unstarted requests complete as Failed("service
  /// shutdown"); running requests finish normally.
  ~SolveService();
  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Admits an analyze+factorize of `a` under `req` (tenant, deadline,
  /// precision override, trace, completion hook).  The matrix is shared,
  /// not copied; callers must not mutate it until the ticket resolves.
  Ticket<FactorizeResult> submit_factorize(
      RequestOptions req, std::shared_ptr<const CscMatrix<real_t>> a,
      Factorization kind);

  /// Admits a numeric-only re-factorization of `factor` with `values`
  /// (nnz doubles in the retained matrix's storage order).  Reuses the
  /// factor's analysis and allocation; a failure rolls back and the
  /// previous factor keeps serving.  Throws InvalidArgument on a null or
  /// non-refactorizable factor or a value-count mismatch (caller bug,
  /// not load).
  Ticket<FactorizeResult> submit_refactorize(RequestOptions req,
                                             FactorHandle factor,
                                             std::vector<real_t> values);

  /// Admits a solve of `factor` x = rhs (req.nrhs column-major RHS of
  /// length n).  Throws InvalidArgument on a null factor or an rhs whose
  /// size is not n * nrhs (caller bug, not load); overload and deadline
  /// produce Rejected/Expired results.
  Ticket<SolveResult> submit_solve(RequestOptions req, FactorHandle factor,
                                   std::vector<real_t> rhs);

  /// Blocking conveniences (submit + get).
  FactorizeResult factorize(const std::string& tenant,
                            std::shared_ptr<const CscMatrix<real_t>> a,
                            Factorization kind) {
    RequestOptions req;
    req.tenant = tenant;
    return submit_factorize(std::move(req), std::move(a), kind).get();
  }
  FactorizeResult factorize(RequestOptions req,
                            std::shared_ptr<const CscMatrix<real_t>> a,
                            Factorization kind) {
    return submit_factorize(std::move(req), std::move(a), kind).get();
  }
  FactorizeResult refactorize(const std::string& tenant, FactorHandle factor,
                              std::vector<real_t> values) {
    RequestOptions req;
    req.tenant = tenant;
    return submit_refactorize(std::move(req), std::move(factor),
                              std::move(values))
        .get();
  }
  SolveResult solve(const std::string& tenant, FactorHandle factor,
                    std::vector<real_t> rhs) {
    RequestOptions req;
    req.tenant = tenant;
    return submit_solve(std::move(req), std::move(factor), std::move(rhs))
        .get();
  }
  SolveResult solve(RequestOptions req, FactorHandle factor,
                    std::vector<real_t> rhs) {
    return submit_solve(std::move(req), std::move(factor), std::move(rhs))
        .get();
  }

  ServiceStats stats() const;
  const ServiceOptions& options() const { return options_; }

  /// The precision policy a factorize under (`tenant`, `override_`)
  /// resolves to: request override, then TenantConfig, then the
  /// service-wide default.
  PrecisionPolicy effective_policy(
      const std::string& tenant,
      const std::optional<PrecisionPolicy>& override_ = {}) const;

  /// Wraps an externally restored solver (snapshot replay) in a
  /// FactorHandle servable by submit_solve, bypassing the request path.
  /// The solver must be factorized; its analysis is also seeded into the
  /// pattern cache so later factorizes of the same pattern skip the
  /// symbolic phase.  Throws InvalidArgument on an unfactorized solver.
  /// Restored factors are fp64 and not refactorizable (no retained
  /// matrix).
  FactorHandle adopt_factor(Solver<real_t> solver);

  /// The pattern-keyed analysis cache (snapshot replay seeds it).
  AnalysisCache& cache() { return cache_; }

  /// Graceful drain (SIGTERM path): new submits are Rejected("service
  /// draining"), while every already-admitted request -- queued or
  /// running -- completes normally.  Blocks until the service is empty or
  /// `timeout_s` elapses (0 = wait indefinitely); returns true when fully
  /// drained.  Requires num_workers > 0 to make progress on queued work.
  /// Idempotent; the destructor afterwards finds nothing to drop.
  bool drain(double timeout_s = 0);
  bool draining() const { return draining_.load(std::memory_order_acquire); }
  /// Admitted requests not yet terminal (queued + executing).
  std::uint64_t inflight() const {
    return inflight_.load(std::memory_order_acquire);
  }

 private:
  template <typename Result, typename Job>
  Ticket<Result> admit(std::shared_ptr<Job> job, double deadline_s);
  void worker_loop();
  void run_factorize(const std::shared_ptr<FactorizeJob>& job);
  void run_refactorize(const std::shared_ptr<RefactorizeJob>& job);
  void run_solve_batch(const std::shared_ptr<SolveJob>& first);
  /// One factorize attempt; throws on failure.  Fills stats/result.
  void factorize_attempt(FactorizeJob& job, const SolverOptions& sopts,
                         FactorizeResult& res);
  /// fp32 factorization + probe gate; true when the mixed path took the
  /// factor (false = caller factorizes fp64 and records a fallback).
  bool try_fp32_factorize(Factor& factor, const CscMatrix<real_t>& a,
                          Factorization kind, RequestStats& st);
  /// Consumes one unit of `tenant`'s retry budget; false when exhausted.
  bool spend_retry(const std::string& tenant);
  /// Whether the policy wants an fp32 attempt for this pattern (Auto
  /// consults the fallback memory; Fp32Refine always tries).
  bool want_fp32(PrecisionPolicy policy, std::uint64_t digest);
  void note_fp32_fallback(std::uint64_t digest);

  ServiceOptions options_;
  AnalysisCache cache_;
  AdmissionQueue queue_;
  std::shared_ptr<SharedCounters> counters_;
  obs::Tracer* tracer_ = nullptr;  ///< from options_.solver.instr.tracer
  std::atomic<std::uint64_t> next_id_{1};
  std::mutex retry_mutex_;
  std::unordered_map<std::string, std::uint64_t> retry_spent_;
  /// Pattern digests whose fp32 attempt tripped the gate; Auto skips
  /// them on later factorizes instead of paying the doomed attempt.
  std::mutex fp32_mutex_;
  std::unordered_set<std::uint64_t> fp32_fallback_digests_;
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> inflight_{0};
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;
  std::vector<std::thread> workers_;
};

}  // namespace spx::service
