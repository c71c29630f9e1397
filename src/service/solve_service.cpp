#include "service/solve_service.hpp"

#include "common/timer.hpp"

namespace spx::service {

namespace {

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

void SharedCounters::resolve_metrics(obs::MetricsRegistry& reg) {
  const auto c = [&](const char* name, const char* help) {
    return &reg.counter(name, help);
  };
  m_submitted = c("spx_service_submitted_total", "Requests submitted");
  m_completed =
      c("spx_service_completed_total", "Requests finished with status Done");
  m_failed = c("spx_service_failed_total", "Requests finished Failed");
  m_rejected = c("spx_service_rejected_total", "Requests Rejected");
  m_cancelled = c("spx_service_cancelled_total", "Requests Cancelled");
  m_expired = c("spx_service_expired_total", "Requests Expired");
  m_factorizes =
      c("spx_service_factorizes_total", "Factorize requests completed Done");
  m_refactorizes = c("spx_service_refactorizes_total",
                     "Refactorize requests completed Done");
  m_solves = c("spx_service_solves_total", "Solve requests completed Done");
  m_batches =
      c("spx_service_batches_total", "Coalesced solve_multi calls issued");
  m_batched_rhs = c("spx_service_batched_rhs_total",
                    "Total RHS columns across solve batches");
  m_retries =
      c("spx_service_retries_total", "Factorize re-attempts issued");
  for (std::size_t i = 0; i < kErrorCodeCount; ++i) {
    m_by_code[i] = &reg.counter(
        "spx_service_errors_total", "Terminal outcomes per error code",
        {{"code", to_string(static_cast<ErrorCode>(i))}});
  }
  tenant_registry_ = &reg;
}

SharedCounters::TenantCell& SharedCounters::tenant_cell_locked(
    const std::string& tenant) {
  auto it = tenants_.find(tenant);
  if (it != tenants_.end()) return it->second;
  TenantCell& cell = tenants_[tenant];
  SPX_OBS(if (tenant_registry_ != nullptr) {
    const obs::Labels labels(1, {"tenant", tenant});
    cell.m_submitted = &tenant_registry_->counter(
        "spx_service_tenant_submitted_total",
        "Requests this tenant submitted", labels);
    cell.m_completed = &tenant_registry_->counter(
        "spx_service_tenant_completed_total",
        "Requests this tenant completed Done", labels);
    cell.m_fp32_served = &tenant_registry_->counter(
        "spx_service_tenant_fp32_served_total",
        "Requests the fp32+refine path served for this tenant", labels);
    cell.m_fp64_fallbacks = &tenant_registry_->counter(
        "spx_service_tenant_fp64_fallbacks_total",
        "fp32 gate trips re-factorized in fp64 for this tenant", labels);
  });
  return cell;
}

void SharedCounters::note_tenant_submitted(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  TenantCell& cell = tenant_cell_locked(tenant);
  ++cell.stats.submitted;
  SPX_OBS(if (cell.m_submitted != nullptr) cell.m_submitted->inc());
}

void SharedCounters::note_tenant_rejected(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  // The registry side of rejections is the admission queue's
  // spx_service_tenant_rejected_total; here only the stats slice counts.
  ++tenant_cell_locked(tenant).stats.rejected;
}

void SharedCounters::note_tenant_done(const std::string& tenant, JobKind kind,
                                      bool fp32, bool fp64_fallback) {
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  TenantCell& cell = tenant_cell_locked(tenant);
  ++cell.stats.completed;
  SPX_OBS(if (cell.m_completed != nullptr) cell.m_completed->inc());
  switch (kind) {
    case JobKind::Factorize:
      ++cell.stats.factorizes;
      break;
    case JobKind::Refactorize:
      ++cell.stats.refactorizes;
      break;
    case JobKind::Solve:
      ++cell.stats.solves;
      break;
  }
  if (fp32) {
    ++cell.stats.fp32_served;
    SPX_OBS(if (cell.m_fp32_served != nullptr) cell.m_fp32_served->inc());
  }
  if (fp64_fallback) {
    ++cell.stats.fp64_fallbacks;
    SPX_OBS(
        if (cell.m_fp64_fallbacks != nullptr) cell.m_fp64_fallbacks->inc());
  }
}

void SharedCounters::set_tenant_weight(const std::string& tenant,
                                       double weight) {
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  tenant_cell_locked(tenant).stats.weight = weight;
}

std::map<std::string, TenantStats> SharedCounters::tenant_snapshot() const {
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  std::map<std::string, TenantStats> out;
  for (const auto& [name, cell] : tenants_) out.emplace(name, cell.stats);
  return out;
}

template <typename Result>
void ResultJob<Result>::complete_unrun(RequestStatus status,
                                       std::string error) {
  counters->count_unrun(status);
  if (status == RequestStatus::Rejected) counters->note_tenant_rejected(tenant);
  stats.code = code_for_unrun(status);
  stats.completion_seq = 1 + counters->completion_seq.fetch_add(1);
  Result r;
  r.status = status;
  r.code = stats.code;
  r.error = std::move(error);
  r.stats = stats;
  promise.set_value(std::move(r));
  notify_complete();
}

template struct ResultJob<FactorizeResult>;
template struct ResultJob<SolveResult>;

SolveService::SolveService(ServiceOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_bytes, options_.solver.instr.metrics),
      queue_(options_.queue_capacity, options_.solver.instr.metrics,
             options_.tenants),
      counters_(std::make_shared<SharedCounters>()),
      tracer_(options_.solver.instr.tracer) {
  SPX_CHECK_ARG(options_.num_workers >= 0, "num_workers must be >= 0");
  SPX_CHECK_ARG(options_.max_batch >= 1, "max_batch must be >= 1");
  counters_->resolve_metrics(
      obs::registry_or_global(options_.solver.instr.metrics));
  // Seed the stats slices of configured tenants so their weights show up
  // before any traffic arrives.
  for (const auto& [name, cfg] : options_.tenants) {
    counters_->set_tenant_weight(name, cfg.weight > 0 ? cfg.weight : 1.0);
  }
  workers_.reserve(static_cast<std::size_t>(options_.num_workers));
  for (int w = 0; w < options_.num_workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SolveService::~SolveService() {
  queue_.shutdown();
  for (std::thread& w : workers_) w.join();
  // Complete whatever never got picked up, so no ticket blocks forever.
  while (std::shared_ptr<JobBase> job = queue_.try_pop()) {
    if (job->try_claim()) {
      job->complete_unrun(RequestStatus::Failed, "service shutdown");
    }
  }
}

PrecisionPolicy SolveService::effective_policy(
    const std::string& tenant,
    const std::optional<PrecisionPolicy>& override_) const {
  if (override_.has_value()) return *override_;
  if (const auto it = options_.tenants.find(tenant);
      it != options_.tenants.end() && it->second.precision_set) {
    return it->second.precision;
  }
  return options_.precision;
}

bool SolveService::want_fp32(PrecisionPolicy policy, std::uint64_t digest) {
  if (policy == PrecisionPolicy::Fp64) return false;
  if (policy == PrecisionPolicy::Fp32Refine) return true;
  std::lock_guard<std::mutex> lock(fp32_mutex_);
  return fp32_fallback_digests_.count(digest) == 0;
}

void SolveService::note_fp32_fallback(std::uint64_t digest) {
  std::lock_guard<std::mutex> lock(fp32_mutex_);
  fp32_fallback_digests_.insert(digest);
}

template <typename Result, typename Job>
Ticket<Result> SolveService::admit(std::shared_ptr<Job> job,
                                   double deadline_s) {
  job->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  job->enqueued = Clock::now();
  if (deadline_s > 0) {
    job->deadline =
        job->enqueued + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(deadline_s));
  }
  job->counters = counters_;
  job->stats.id = job->id;
  job->stats.tenant = job->tenant;
  // One trace per request: everything downstream (queue wait, factorize,
  // driver tasks, retries) parents under this root context.  A submitter
  // that carried a trace across the wire pre-set trace_ctx; keep it so
  // the remote spans join the client's trace.
  SPX_OBS(if (tracer_ != nullptr) {
    if (!job->trace_ctx.valid()) job->trace_ctx = tracer_->new_trace();
    job->trace_enqueued = tracer_->now();
  });
  counters_->note_submitted();
  counters_->note_tenant_submitted(job->tenant);
  // Chain the drain accounting through on_complete: every terminal path
  // fulfills the promise then notify_complete(), so inflight_ reaches 0
  // exactly when every admitted request has a result.
  inflight_.fetch_add(1, std::memory_order_acq_rel);
  job->on_complete = [this, user_cb = std::move(job->on_complete)] {
    if (user_cb) user_cb();
    if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(drain_mutex_);
      drain_cv_.notify_all();
    }
  };
  Ticket<Result> ticket(job->promise.get_future().share(), job);
  if (draining_.load(std::memory_order_acquire)) {
    if (job->try_claim()) {  // fresh job: always wins
      job->complete_unrun(RequestStatus::Rejected, "service draining");
    }
    return ticket;
  }
  if (!queue_.try_push(job)) {
    if (job->try_claim()) {
      job->complete_unrun(RequestStatus::Rejected,
                          "admission queue full for tenant '" + job->tenant +
                              "'");
    }
  }
  return ticket;
}

Ticket<FactorizeResult> SolveService::submit_factorize(
    RequestOptions req, std::shared_ptr<const CscMatrix<real_t>> a,
    Factorization kind) {
  SPX_CHECK_ARG(a != nullptr, "submit_factorize(): null matrix");
  SPX_CHECK_ARG(a->nrows() == a->ncols(), "square matrix required");
  auto job = std::make_shared<FactorizeJob>();
  job->tenant = std::move(req.tenant);
  job->matrix = std::move(a);
  job->fkind = kind;
  job->policy = effective_policy(job->tenant, req.precision);
  job->trace_ctx = req.trace;
  job->on_complete = std::move(req.on_complete);
  return admit<FactorizeResult>(std::move(job), req.deadline_s);
}

Ticket<FactorizeResult> SolveService::submit_refactorize(
    RequestOptions req, FactorHandle factor, std::vector<real_t> values) {
  SPX_CHECK_ARG(factor != nullptr, "submit_refactorize(): null factor handle");
  SPX_CHECK_ARG(factor->refactorizable(),
                "submit_refactorize(): factor has no retained matrix "
                "(restored from a snapshot); submit a full factorize "
                "instead");
  SPX_CHECK_ARG(values.size() == factor->nnz_,
                "submit_refactorize(): values size differs from the "
                "factor's nnz");
  auto job = std::make_shared<RefactorizeJob>();
  job->tenant = std::move(req.tenant);
  job->factor = std::move(factor);
  job->values = std::move(values);
  job->trace_ctx = req.trace;
  job->on_complete = std::move(req.on_complete);
  return admit<FactorizeResult>(std::move(job), req.deadline_s);
}

Ticket<SolveResult> SolveService::submit_solve(RequestOptions req,
                                               FactorHandle factor,
                                               std::vector<real_t> rhs) {
  SPX_CHECK_ARG(factor != nullptr, "submit_solve(): null factor handle");
  SPX_CHECK_ARG(req.nrhs >= 1, "submit_solve(): nrhs must be >= 1");
  SPX_CHECK_ARG(static_cast<index_t>(rhs.size()) ==
                    factor->n() * req.nrhs,
                "submit_solve(): rhs size differs from n * nrhs");
  auto job = std::make_shared<SolveJob>();
  job->tenant = std::move(req.tenant);
  job->factor = std::move(factor);
  job->rhs = std::move(rhs);
  job->nrhs = req.nrhs;
  job->trace_ctx = req.trace;
  job->on_complete = std::move(req.on_complete);
  Ticket<SolveResult> ticket = admit<SolveResult>(job, req.deadline_s);
  // Register for batching only after surviving admission.  A worker may
  // pop and even finish the job before this append runs; the entry is
  // weak and claimed, so the next drain simply prunes it.
  if (!job->claimed.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(job->factor->pending_mutex_);
    job->factor->pending_.push_back(job);
  }
  return ticket;
}

void SolveService::worker_loop() {
  while (std::shared_ptr<JobBase> job = queue_.pop()) {
    if (!job->try_claim()) continue;  // already batched or cancelled
    const Clock::time_point now = Clock::now();
    if (job->cancel_requested.load(std::memory_order_acquire)) {
      job->complete_unrun(RequestStatus::Cancelled, "cancelled by caller");
      continue;
    }
    if (job->past_deadline(now)) {
      job->complete_unrun(RequestStatus::Expired,
                          "deadline passed while queued");
      continue;
    }
    SPX_OBS(if (tracer_ != nullptr && job->trace_ctx.valid()) {
      tracer_->record_span("service.queue.wait", "service-", job->trace_ctx,
                           job->trace_enqueued, tracer_->now(), 0,
                           static_cast<std::int64_t>(job->id));
    });
    switch (job->kind) {
      case JobKind::Factorize: {
        auto fj = std::static_pointer_cast<FactorizeJob>(job);
        fj->stats.queue_wait_s = seconds_between(fj->enqueued, now);
        run_factorize(fj);
        break;
      }
      case JobKind::Refactorize: {
        auto rj = std::static_pointer_cast<RefactorizeJob>(job);
        rj->stats.queue_wait_s = seconds_between(rj->enqueued, now);
        run_refactorize(rj);
        break;
      }
      case JobKind::Solve: {
        auto sj = std::static_pointer_cast<SolveJob>(job);
        sj->stats.queue_wait_s = seconds_between(sj->enqueued, now);
        run_solve_batch(sj);
        break;
      }
    }
  }
}

bool SolveService::spend_retry(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(retry_mutex_);
  std::uint64_t& spent = retry_spent_[tenant];
  if (spent >= options_.tenant_retry_budget) return false;
  ++spent;
  counters_->note_retry();
  return true;
}

bool SolveService::try_fp32_factorize(Factor& factor,
                                      const CscMatrix<real_t>& a,
                                      Factorization kind, RequestStats& st) {
  try {
    auto mixed =
        std::make_unique<MixedPrecisionSolver>(options_.solver.analysis);
    mixed->adopt_analysis(factor.solver_.analysis_shared(),
                          factor.solver_.pattern_digest());
    mixed->factorize(a, kind);
    // Quality gate: solve A x = A*1 and require refinement to reach the
    // target backward error.  A float factor that cannot reproduce the
    // ones vector will not serve real solves either, so the caller
    // re-factorizes in fp64 instead of shipping a doomed factor.
    const auto n = static_cast<std::size_t>(a.ncols());
    std::vector<real_t> ones(n, 1.0);
    std::vector<real_t> b(n);
    std::vector<real_t> x(n);
    a.multiply(ones, b);
    const MixedSolveReport probe =
        mixed->solve(b, x, options_.mixed_tolerance, options_.mixed_max_iter);
    st.refine_iterations = probe.iterations;
    st.backward_error = probe.residual;
    if (!probe.converged) return false;
    factor.mixed_ = std::move(mixed);
    return true;
  } catch (const NumericalError&) {
    // Breakdown in float (e.g. a pivot that underflows to zero): the
    // same matrix can still factor fine in double.
    return false;
  }
}

void SolveService::factorize_attempt(FactorizeJob& job,
                                     const SolverOptions& sopts,
                                     FactorizeResult& res) {
  RequestStats& st = job.stats;
  const PatternKey key = PatternKey::of(*job.matrix);
  std::shared_ptr<const Analysis> analysis = cache_.get_or_compute(
      key,
      [&] {
        Timer ta;
        Analysis an = spx::analyze(*job.matrix, sopts.analysis);
        st.analyze_s = ta.elapsed();
        return an;
      },
      &st.cache);
  auto factor = std::make_shared<Factor>();
  factor->policy_ = job.policy;
  factor->fkind_ = job.fkind;
  factor->matrix_ = job.matrix;
  factor->nnz_ = job.matrix->values().size();
  factor->refactorizable_ = true;
  factor->solver_ = Solver<real_t>(sopts);
  factor->solver_.adopt_analysis(std::move(analysis), key.digest);
  st.precision = job.policy;
  Timer tf;
  bool fp32 = false;
  if (want_fp32(job.policy, key.digest)) {
    fp32 = try_fp32_factorize(*factor, *job.matrix, job.fkind, st);
    if (!fp32) {
      st.precision_fallback = true;
      note_fp32_fallback(key.digest);
    }
  }
  if (!fp32) {
    factor->solver_.factorize(*job.matrix, job.fkind);
    st.run = factor->solver_.last_factorization_stats();
    const FactorQuality& q = st.run.quality;
    if (q.degraded() && q.pivot_growth() > options_.max_pivot_growth) {
      // Perturbation technically succeeded but the factors are too wild
      // for refinement to repair; classify as numerical failure
      // (retryable: a larger epsilon shrinks the 1/eps growth).
      throw NumericalError("pivot growth " +
                           std::to_string(q.pivot_growth()) +
                           " exceeds the serviceable limit");
    }
    st.degraded = q.degraded();
    res.code = q.degraded() ? ErrorCode::NumericalDegraded : ErrorCode::None;
    res.version = factor->solver_.pinned();
  } else {
    res.code = ErrorCode::None;
  }
  st.factorize_s = tf.elapsed();
  st.fp32 = fp32;
  res.factor = std::move(factor);
}

void SolveService::run_factorize(const std::shared_ptr<FactorizeJob>& job) {
  FactorizeResult res;
  RequestStats& st = job->stats;
  SolverOptions sopts = options_.solver;
  // Parent this request's solver/driver spans under one request span of
  // its own trace.
  obs::ScopedSpan req_span;
  SPX_OBS({
    req_span = obs::ScopedSpan(tracer_, "service.factorize", "service-",
                               job->trace_ctx, 0,
                               static_cast<std::int64_t>(job->id));
    sopts.instr.parent = req_span.context();
  });
  const int max_attempts = std::max(1, options_.max_attempts);
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    st.attempts = attempt;
    ErrorCode code;
    std::string error;
    try {
      factorize_attempt(*job, sopts, res);
      res.status = RequestStatus::Done;
      st.code = res.code;
      counters_->note_factorize();
      counters_->note_completed();
      counters_->count_code(res.code);
      counters_->note_tenant_done(job->tenant, JobKind::Factorize, st.fp32,
                                  st.precision_fallback);
      break;
    } catch (const std::exception& e) {
      code = code_for_exception(e);
      error = e.what();
    }
    // Retry transient-or-absorbable failures with escalating epsilon and
    // exponential backoff, within the tenant's retry budget.
    const bool retryable = code == ErrorCode::NumericalFailed ||
                           code == ErrorCode::InjectedFault ||
                           code == ErrorCode::OutOfMemory;
    if (retryable && attempt < max_attempts && spend_retry(job->tenant)) {
      if (code == ErrorCode::NumericalFailed) {
        sopts.pivot_threshold =
            (sopts.pivot_threshold > 0 ? sopts.pivot_threshold : 1e-12) *
            options_.eps_escalation;
      }
      if (options_.retry_backoff_s > 0) {
        obs::ScopedSpan backoff;
        SPX_OBS(backoff = obs::ScopedSpan(
                    tracer_, "service.retry.backoff", "service-",
                    req_span.context(), 0,
                    static_cast<std::int64_t>(job->id), attempt));
        std::this_thread::sleep_for(std::chrono::duration<double>(
            options_.retry_backoff_s * static_cast<double>(1 << (attempt - 1))));
      }
      continue;
    }
    res.status = RequestStatus::Failed;
    res.code = code;
    res.error = std::move(error);
    st.code = code;
    counters_->note_failed();
    counters_->count_code(code);
    break;
  }
  st.completion_seq = 1 + counters_->completion_seq.fetch_add(1);
  res.stats = st;
  job->promise.set_value(std::move(res));
  job->notify_complete();
}

void SolveService::run_refactorize(
    const std::shared_ptr<RefactorizeJob>& job) {
  FactorizeResult res;
  RequestStats& st = job->stats;
  obs::ScopedSpan req_span;
  SPX_OBS(req_span = obs::ScopedSpan(tracer_, "service.refactorize",
                                     "service-", job->trace_ctx, 0,
                                     static_cast<std::int64_t>(job->id)));
  st.attempts = 1;
  Factor& f = *job->factor;
  st.precision = f.policy_;
  ErrorCode code = ErrorCode::Internal;
  std::string error;
  try {
    // One refactorize of this factor at a time; solves do not take this
    // lock.
    std::lock_guard<std::mutex> writer(f.writer_);
    const std::shared_ptr<const CscMatrix<real_t>> prev = f.matrix_;
    auto m = std::make_shared<const CscMatrix<real_t>>(
        prev->nrows(), prev->ncols(),
        std::vector<size_type>(prev->colptr().begin(), prev->colptr().end()),
        std::vector<index_t>(prev->rowind().begin(), prev->rowind().end()),
        std::move(job->values));
    Timer tf;
    bool fallback = false;
    if (f.mixed_ != nullptr) {
      // The fp32 path stays exclusive against solves: its probe solve and
      // fp64 fallback switch which solver serves.
      std::unique_lock<std::shared_mutex> wlock(f.rw_);
      f.mixed_->refactorize(*m);
      // Re-run the probe gate against the new values; drifting matrices
      // can leave the fp32 regime mid-stream.
      const auto n = static_cast<std::size_t>(m->ncols());
      std::vector<real_t> ones(n, 1.0);
      std::vector<real_t> b(n);
      std::vector<real_t> x(n);
      m->multiply(ones, b);
      const MixedSolveReport probe = f.mixed_->solve(
          b, x, options_.mixed_tolerance, options_.mixed_max_iter);
      st.refine_iterations = probe.iterations;
      st.backward_error = probe.residual;
      if (probe.converged) {
        st.fp32 = true;
      } else {
        // Gate trip: promote the factor to fp64 before dropping the float
        // path.  If the fp64 factorization fails, restore the float
        // factors from the retained previous matrix so the factor keeps
        // serving the old values.
        try {
          f.solver_.factorize(*m, f.fkind_, req_span.context());
        } catch (...) {
          f.mixed_->refactorize(*prev);
          throw;
        }
        f.mixed_.reset();
        fallback = true;
        st.precision_fallback = true;
        note_fp32_fallback(f.solver_.pattern_digest());
        st.run = f.solver_.last_factorization_stats();
        st.degraded = st.run.quality.degraded();
        res.version = f.solver_.pinned();
      }
    } else {
      // Solver::refactorize factorizes into its spare and publishes it
      // with a pointer swap: solves keep running on the version they
      // pinned, and a throw publishes nothing, so the previous factor
      // keeps serving.  Refactorizes are serialized by writer_, so the
      // version pinned here is the one this request published.
      f.solver_.refactorize(*m, req_span.context());
      res.version = f.solver_.pinned();
      st.run = f.solver_.last_factorization_stats();
      st.degraded = st.run.quality.degraded();
    }
    st.factorize_s = tf.elapsed();
    f.matrix_ = std::move(m);
    res.status = RequestStatus::Done;
    res.code =
        st.degraded ? ErrorCode::NumericalDegraded : ErrorCode::None;
    res.factor = job->factor;
    st.code = res.code;
    counters_->note_refactorize();
    counters_->note_completed();
    counters_->count_code(res.code);
    counters_->note_tenant_done(job->tenant, JobKind::Refactorize, st.fp32,
                                fallback);
  } catch (const std::exception& e) {
    code = code_for_exception(e);
    error = e.what();
  }
  if (res.status != RequestStatus::Done) {
    res.status = RequestStatus::Failed;
    res.code = code;
    res.error = std::move(error);
    st.code = code;
    counters_->note_failed();
    counters_->count_code(code);
  }
  st.completion_seq = 1 + counters_->completion_seq.fetch_add(1);
  res.stats = st;
  job->promise.set_value(std::move(res));
  job->notify_complete();
}

void SolveService::run_solve_batch(const std::shared_ptr<SolveJob>& first) {
  // Linger so that same-factor solves submitted moments later coalesce
  // into this batch instead of paying their own traversal.
  if (options_.batch_window > 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options_.batch_window));
  }
  Factor& factor = *first->factor;
  std::vector<std::shared_ptr<SolveJob>> batch;
  batch.push_back(first);
  index_t cols = first->nrhs;
  {
    std::lock_guard<std::mutex> lock(factor.pending_mutex_);
    auto& pending = factor.pending_;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      std::shared_ptr<SolveJob> job = pending[i].lock();
      if (job == nullptr || job->claimed.load(std::memory_order_acquire)) {
        continue;  // prune: done elsewhere, cancelled, or expired weak ref
      }
      if (cols + job->nrhs > options_.max_batch || !job->try_claim()) {
        pending[kept++] = pending[i];  // keep for a later batch
        continue;
      }
      job->stats.queue_wait_s = seconds_between(job->enqueued, Clock::now());
      cols += job->nrhs;
      batch.push_back(std::move(job));
    }
    pending.resize(kept);
  }

  // Honor per-member cancellation/deadline now that they are claimed.
  const Clock::time_point now = Clock::now();
  std::vector<std::shared_ptr<SolveJob>> runnable;
  runnable.reserve(batch.size());
  for (std::shared_ptr<SolveJob>& job : batch) {
    if (job->cancel_requested.load(std::memory_order_acquire)) {
      job->complete_unrun(RequestStatus::Cancelled, "cancelled by caller");
    } else if (job->past_deadline(now)) {
      job->complete_unrun(RequestStatus::Expired,
                          "deadline passed while queued");
    } else {
      runnable.push_back(std::move(job));
    }
  }
  if (runnable.empty()) return;

  const index_t n = factor.n();
  index_t k = 0;  // total RHS columns across the runnable batch
  for (const std::shared_ptr<SolveJob>& job : runnable) k += job->nrhs;
  obs::ScopedSpan batch_span;
  SPX_OBS(batch_span = obs::ScopedSpan(
              tracer_, "service.solve.batch", "service-", first->trace_ctx,
              0, static_cast<std::int64_t>(first->id), k));
  try {
    std::vector<real_t> block(static_cast<std::size_t>(n) *
                              static_cast<std::size_t>(k));
    std::size_t off = 0;
    for (const std::shared_ptr<SolveJob>& job : runnable) {
      std::copy(job->rhs.begin(), job->rhs.end(), block.begin() + off);
      off += job->rhs.size();
    }
    bool fp32 = false;
    bool degraded = false;
    double backward_error = 0;
    int refine_iterations = 0;
    double solve_s = 0;
    {
      // Shared against the fp32 refactorize, which switches mixed_
      // exclusively; the fp64 path pins its solver version instead.
      std::shared_lock<std::shared_mutex> rlock(factor.rw_);
      Timer ts;  // execution only, not the wait for the lock
      if (factor.mixed_ != nullptr) {
        fp32 = true;
        const MixedSolveReport rep = factor.mixed_->solve_multi(
            block, k, options_.mixed_tolerance, options_.mixed_max_iter);
        degraded = !rep.converged;
        backward_error = rep.residual;
        refine_iterations = rep.iterations;
      } else {
        const SolveReport rep =
            factor.solver_.solve_multi(block, k, batch_span.context());
        degraded = rep.degraded;
        backward_error = rep.backward_error;
      }
      solve_s = ts.elapsed();
    }
    const ErrorCode code =
        degraded ? ErrorCode::NumericalDegraded : ErrorCode::None;
    counters_->note_batch(static_cast<std::uint64_t>(k));
    off = 0;
    for (const std::shared_ptr<SolveJob>& jp : runnable) {
      SolveJob& job = *jp;
      SolveResult r;
      r.status = RequestStatus::Done;
      r.code = code;
      const auto* col = block.data() + off;
      r.x.assign(col, col + job.rhs.size());
      off += job.rhs.size();
      job.stats.solve_s = solve_s;
      job.stats.batched_rhs = k;
      job.stats.code = code;
      job.stats.degraded = degraded;
      job.stats.backward_error = backward_error;
      job.stats.fp32 = fp32;
      job.stats.refine_iterations = refine_iterations;
      job.stats.precision = factor.policy_;
      counters_->note_solve();
      counters_->note_completed();
      counters_->count_code(code);
      counters_->note_tenant_done(job.tenant, JobKind::Solve, fp32, false);
      job.stats.completion_seq = 1 + counters_->completion_seq.fetch_add(1);
      r.stats = job.stats;
      job.promise.set_value(std::move(r));
      job.notify_complete();
    }
  } catch (const std::exception& e) {
    const ErrorCode code = code_for_exception(e);
    for (const std::shared_ptr<SolveJob>& job : runnable) {
      SolveResult r;
      r.status = RequestStatus::Failed;
      r.code = code;
      r.error = e.what();
      counters_->note_failed();
      counters_->count_code(code);
      job->stats.code = code;
      job->stats.completion_seq = 1 + counters_->completion_seq.fetch_add(1);
      r.stats = job->stats;
      job->promise.set_value(std::move(r));
      job->notify_complete();
    }
  }
}

FactorHandle SolveService::adopt_factor(Solver<real_t> solver) {
  SPX_CHECK_ARG(solver.factorized(),
                "adopt_factor needs a factorized solver");
  // Seed the pattern cache so a later factorize of this pattern skips
  // the symbolic phase even though this factor bypassed the request path.
  std::shared_ptr<const Analysis> analysis = solver.analysis_shared();
  const PatternKey key{analysis->perm.size(),
                       static_cast<size_type>(analysis->nnz_a),
                       solver.pattern_digest()};
  cache_.insert(key, std::move(analysis));
  auto factor = std::make_shared<Factor>();
  factor->solver_ = std::move(solver);
  return factor;
}

bool SolveService::drain(double timeout_s) {
  draining_.store(true, std::memory_order_release);
  std::unique_lock<std::mutex> lock(drain_mutex_);
  const auto empty = [this] {
    return inflight_.load(std::memory_order_acquire) == 0;
  };
  if (timeout_s <= 0) {
    drain_cv_.wait(lock, empty);
    return true;
  }
  return drain_cv_.wait_for(
      lock, std::chrono::duration<double>(timeout_s), empty);
}

ServiceStats SolveService::stats() const {
  ServiceStats s;
  s.submitted = counters_->submitted.load();
  s.completed = counters_->completed.load();
  s.failed = counters_->failed.load();
  s.rejected = counters_->rejected.load();
  s.cancelled = counters_->cancelled.load();
  s.expired = counters_->expired.load();
  s.factorizes = counters_->factorizes.load();
  s.refactorizes = counters_->refactorizes.load();
  s.solves = counters_->solves.load();
  s.batches = counters_->batches.load();
  s.batched_rhs = counters_->batched_rhs.load();
  s.retries = counters_->retries.load();
  for (std::size_t i = 0; i < kErrorCodeCount; ++i) {
    s.errors[i] = counters_->by_code[i].load();
  }
  s.queue_depth = queue_.depth();
  s.cache = cache_.stats();
  s.tenants = counters_->tenant_snapshot();
  return s;
}

}  // namespace spx::service
