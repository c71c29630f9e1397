// Tests for the multi-tenant solve service (src/service/): pattern keys,
// the analysis cache, admission control, batching, cancellation,
// deadlines, per-tenant fairness, and the stats JSON surface.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>

#include "common/json.hpp"
#include "mat/generators.hpp"
#include "service/solve_service.hpp"
#include "test_support.hpp"

namespace spx {
namespace {

using service::AnalysisCache;
using service::CacheOutcome;
using service::FactorHandle;
using service::FactorizeResult;
using service::PatternKey;
using service::PrecisionPolicy;
using service::RequestOptions;
using service::RequestStatus;
using service::ServiceOptions;
using service::ServiceStats;
using service::SolveResult;
using service::SolveService;
using service::TenantConfig;
using service::Ticket;

std::shared_ptr<const CscMatrix<real_t>> shared(CscMatrix<real_t> a) {
  return std::make_shared<const CscMatrix<real_t>>(std::move(a));
}

RequestOptions req(std::string tenant, double deadline_s = 0) {
  RequestOptions r;
  r.tenant = std::move(tenant);
  r.deadline_s = deadline_s;
  return r;
}

std::vector<real_t> rhs_for(const CscMatrix<real_t>& a,
                            const std::vector<real_t>& x) {
  std::vector<real_t> b(static_cast<std::size_t>(a.nrows()));
  a.multiply(x, b);
  return b;
}

// ---------- pattern keys -----------------------------------------------

TEST(PatternKey, SamePatternDifferentValuesMatch) {
  const auto a1 = gen::grid2d_laplacian(9, 9);
  auto vals = std::vector<real_t>(a1.values().begin(), a1.values().end());
  for (auto& v : vals) v *= 2.5;
  const CscMatrix<real_t> a2(
      a1.nrows(), a1.ncols(),
      std::vector<size_type>(a1.colptr().begin(), a1.colptr().end()),
      std::vector<index_t>(a1.rowind().begin(), a1.rowind().end()),
      std::move(vals));
  EXPECT_EQ(PatternKey::of(a1), PatternKey::of(a2));
  EXPECT_EQ(pattern_digest(a1), pattern_digest(a2));
}

TEST(PatternKey, DifferentPatternsDiffer) {
  const auto a = gen::grid2d_laplacian(9, 9);
  const auto b = gen::grid2d_laplacian(9, 10);
  const auto c = gen::grid3d_laplacian(4, 4, 4);
  EXPECT_FALSE(PatternKey::of(a) == PatternKey::of(b));
  EXPECT_NE(pattern_digest(a), pattern_digest(c));
}

// ---------- analysis cache ---------------------------------------------

TEST(AnalysisCache, MissThenHitSharesTheAnalysis) {
  const auto a = gen::grid2d_laplacian(10, 10);
  AnalysisCache cache(64 << 20);
  const PatternKey key = PatternKey::of(a);
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return analyze(a);
  };
  CacheOutcome out = CacheOutcome::Bypass;
  const auto first = cache.get_or_compute(key, compute, &out);
  EXPECT_EQ(out, CacheOutcome::Miss);
  const auto second = cache.get_or_compute(key, compute, &out);
  EXPECT_EQ(out, CacheOutcome::Hit);
  EXPECT_EQ(first.get(), second.get());  // same shared object, no copy
  EXPECT_EQ(computes, 1);
  const auto st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_GT(st.bytes, 0u);
}

TEST(AnalysisCache, ZeroBudgetBypasses) {
  const auto a = gen::grid2d_laplacian(6, 6);
  AnalysisCache cache(0);
  EXPECT_FALSE(cache.enabled());
  CacheOutcome out = CacheOutcome::Hit;
  const auto an = cache.get_or_compute(
      PatternKey::of(a), [&] { return analyze(a); }, &out);
  EXPECT_EQ(out, CacheOutcome::Bypass);
  EXPECT_NE(an, nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(AnalysisCache, LruEvictionUnderByteBudget) {
  const auto p1 = gen::grid2d_laplacian(10, 10);
  const auto p2 = gen::grid2d_laplacian(11, 10);
  const auto p3 = gen::grid2d_laplacian(12, 10);
  const std::size_t b1 = AnalysisCache::analysis_bytes(analyze(p1));
  AnalysisCache cache(b1 * 5 / 2);  // roughly two entries
  for (const auto* m : {&p1, &p2, &p3}) {
    cache.get_or_compute(PatternKey::of(*m), [&] { return analyze(*m); });
  }
  const auto st = cache.stats();
  EXPECT_GE(st.evictions, 1u);
  EXPECT_LE(st.bytes, cache.max_bytes());
  // p3 is the most recently used entry and must still be resident; p1 was
  // the cold end and must have been evicted.
  CacheOutcome out = CacheOutcome::Bypass;
  cache.get_or_compute(PatternKey::of(p3), [&] { return analyze(p3); }, &out);
  EXPECT_EQ(out, CacheOutcome::Hit);
  cache.get_or_compute(PatternKey::of(p1), [&] { return analyze(p1); }, &out);
  EXPECT_EQ(out, CacheOutcome::Miss);
}

TEST(AnalysisCache, OversizedAnalysisPassesThroughWithoutResidency) {
  const auto a = gen::grid2d_laplacian(8, 8);
  AnalysisCache cache(1);  // nothing fits
  const auto an =
      cache.get_or_compute(PatternKey::of(a), [&] { return analyze(a); });
  EXPECT_NE(an, nullptr);
  const auto st = cache.stats();
  EXPECT_EQ(st.entries, 0u);
  EXPECT_EQ(st.bytes, 0u);
  EXPECT_EQ(st.evictions, 1u);
}

TEST(AnalysisCache, ConcurrentMissesCoalesceToOneCompute) {
  const auto a = gen::grid2d_laplacian(10, 10);
  AnalysisCache cache(64 << 20);
  const PatternKey key = PatternKey::of(a);
  std::atomic<int> computes{0};
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  const auto slow_compute = [&] {
    computes.fetch_add(1);
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
    return analyze(a);
  };
  CacheOutcome out1 = CacheOutcome::Bypass;
  std::thread t1([&] { cache.get_or_compute(key, slow_compute, &out1); });
  while (!entered.load()) std::this_thread::yield();
  // t1 is inside compute; this call must coalesce onto its future.
  CacheOutcome out2 = CacheOutcome::Bypass;
  std::thread t2([&] { cache.get_or_compute(key, slow_compute, &out2); });
  release.store(true);
  t1.join();
  t2.join();
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(out1, CacheOutcome::Miss);
  EXPECT_EQ(out2, CacheOutcome::Hit);
}

TEST(AnalysisCache, ComputeFailurePropagatesAndLeavesNoEntry) {
  const auto a = gen::grid2d_laplacian(6, 6);
  AnalysisCache cache(64 << 20);
  const PatternKey key = PatternKey::of(a);
  EXPECT_THROW(cache.get_or_compute(
                   key, [&]() -> Analysis { throw NumericalError("boom"); }),
               NumericalError);
  // The key is not poisoned: a later compute succeeds and caches.
  CacheOutcome out = CacheOutcome::Bypass;
  cache.get_or_compute(key, [&] { return analyze(a); }, &out);
  EXPECT_EQ(out, CacheOutcome::Miss);
  EXPECT_EQ(cache.stats().entries, 1u);
}

// ---------- service correctness ----------------------------------------

TEST(SolveService, FactorizeAndSolveMatchDirectSolver) {
  const auto a = gen::grid3d_laplacian(5, 5, 5);
  std::vector<real_t> xstar(static_cast<std::size_t>(a.ncols()));
  Rng rng(11);
  for (auto& v : xstar) v = rng.uniform(-1, 1);
  const std::vector<real_t> b = rhs_for(a, xstar);

  SolveService svc;
  // The service scales by concurrent requests, one worker each: its
  // solvers default to the sequential runtime, not nested thread pools.
  EXPECT_EQ(svc.options().solver.runtime, RuntimeKind::Sequential);
  const FactorizeResult fr =
      svc.factorize("tenant-a", shared(a), Factorization::LLT);
  ASSERT_TRUE(fr.ok()) << fr.error;
  ASSERT_NE(fr.factor, nullptr);
  EXPECT_GT(fr.stats.factorize_s, 0.0);
  EXPECT_EQ(fr.stats.cache, CacheOutcome::Miss);
  EXPECT_GT(fr.stats.run.makespan, 0.0);

  const SolveResult sr = svc.solve("tenant-a", fr.factor, b);
  ASSERT_TRUE(sr.ok()) << sr.error;

  Solver<real_t> direct;
  direct.analyze(a);
  direct.factorize(a, Factorization::LLT);
  std::vector<real_t> xd = b;
  direct.solve(xd);
  ASSERT_EQ(sr.x.size(), xd.size());
  for (std::size_t i = 0; i < xd.size(); ++i) {
    EXPECT_NEAR(sr.x[i], xd[i], 1e-12);
  }
}

TEST(SolveService, RepeatedPatternsHitTheCache) {
  const auto a = gen::grid2d_laplacian(12, 12);
  SolveService svc;
  for (int i = 0; i < 4; ++i) {
    const FactorizeResult fr =
        svc.factorize("t", shared(a), Factorization::LLT);
    ASSERT_TRUE(fr.ok()) << fr.error;
    EXPECT_EQ(fr.stats.cache,
              i == 0 ? CacheOutcome::Miss : CacheOutcome::Hit);
    EXPECT_EQ(fr.stats.analyze_s > 0.0, i == 0);  // hits skip analysis
  }
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.cache.misses, 1u);
  EXPECT_EQ(st.cache.hits, 3u);
  EXPECT_EQ(st.factorizes, 4u);
}

TEST(SolveService, ConcurrentFactorizationsOfDifferentMatrices) {
  ServiceOptions opts;
  opts.num_workers = 4;
  SolveService svc(opts);
  std::vector<CscMatrix<real_t>> mats;
  mats.push_back(gen::grid2d_laplacian(10, 10));
  mats.push_back(gen::grid2d_laplacian(11, 11));
  mats.push_back(gen::grid2d_laplacian(12, 12));
  mats.push_back(gen::grid3d_laplacian(4, 4, 4));
  std::vector<Ticket<FactorizeResult>> tickets;
  tickets.reserve(mats.size());
  for (const auto& m : mats) {
    tickets.push_back(
        svc.submit_factorize(req("t"), shared(m), Factorization::LLT));
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const FactorizeResult fr = tickets[i].get();
    ASSERT_TRUE(fr.ok()) << fr.error;
    // Each factor solves its own system correctly.
    std::vector<real_t> ones(static_cast<std::size_t>(mats[i].ncols()), 1.0);
    const std::vector<real_t> b = rhs_for(mats[i], ones);
    const SolveResult sr = svc.solve("t", fr.factor, b);
    ASSERT_TRUE(sr.ok()) << sr.error;
    for (const real_t v : sr.x) EXPECT_NEAR(v, 1.0, 1e-9);
  }
  EXPECT_EQ(svc.stats().cache.misses, 4u);  // four distinct patterns
}

// ---------- admission control ------------------------------------------

TEST(SolveService, BoundedQueueRejectsBeyondCapacity) {
  ServiceOptions opts;
  opts.num_workers = 0;  // nothing drains: the queue fills synchronously
  opts.queue_capacity = 3;
  const auto a = shared(gen::grid2d_laplacian(6, 6));
  std::vector<Ticket<FactorizeResult>> tickets;
  {
    SolveService svc(opts);
    for (int i = 0; i < 8; ++i) {
      tickets.push_back(
          svc.submit_factorize(req("t"), a, Factorization::LLT));
    }
    // Rejections complete immediately, before the service shuts down.
    int rejected = 0;
    for (int i = 3; i < 8; ++i) {
      const FactorizeResult fr = tickets[static_cast<std::size_t>(i)].get();
      EXPECT_EQ(fr.status, RequestStatus::Rejected);
      EXPECT_NE(fr.error.find("admission queue full"), std::string::npos);
      EXPECT_EQ(fr.factor, nullptr);
      ++rejected;
    }
    EXPECT_EQ(rejected, 5);
    EXPECT_EQ(svc.stats().rejected, 5u);
    EXPECT_EQ(svc.stats().queue_depth, 3u);
  }
  // Destruction drains the three queued-but-unstarted requests as Failed.
  for (int i = 0; i < 3; ++i) {
    const FactorizeResult fr = tickets[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(fr.status, RequestStatus::Failed);
    EXPECT_NE(fr.error.find("shutdown"), std::string::npos);
  }
}

TEST(SolveService, QueueBoundIsPerTenant) {
  ServiceOptions opts;
  opts.num_workers = 0;
  opts.queue_capacity = 2;
  SolveService svc(opts);
  const auto a = shared(gen::grid2d_laplacian(6, 6));
  // Tenant "a" fills its bound; tenant "b" is still admitted.
  EXPECT_TRUE(svc.submit_factorize(req("a"), a, Factorization::LLT).valid());
  EXPECT_TRUE(svc.submit_factorize(req("a"), a, Factorization::LLT).valid());
  auto rej = svc.submit_factorize(req("a"), a, Factorization::LLT);
  auto ok = svc.submit_factorize(req("b"), a, Factorization::LLT);
  EXPECT_EQ(rej.get().status, RequestStatus::Rejected);
  EXPECT_EQ(svc.stats().rejected, 1u);
  EXPECT_EQ(svc.stats().queue_depth, 3u);
  (void)ok;
}

TEST(SolveService, CancelBeforeExecution) {
  ServiceOptions opts;
  opts.num_workers = 0;  // the job can never start
  SolveService svc(opts);
  auto ticket = svc.submit_factorize(
      req("t"), shared(gen::grid2d_laplacian(6, 6)), Factorization::LLT);
  EXPECT_TRUE(ticket.cancel());
  const FactorizeResult fr = ticket.get();
  EXPECT_EQ(fr.status, RequestStatus::Cancelled);
  EXPECT_EQ(svc.stats().cancelled, 1u);
  EXPECT_FALSE(ticket.cancel());  // idempotent: already terminal
}

TEST(SolveService, DeadlineExpiresWhileQueued) {
  ServiceOptions opts;
  opts.num_workers = 1;
  SolveService svc(opts);
  const auto big = shared(gen::grid3d_laplacian(8, 8, 8));
  const auto small = shared(gen::grid2d_laplacian(6, 6));
  // The worker is busy with the big factorize; the second request's
  // microscopic deadline passes while it waits in the queue.
  auto slow = svc.submit_factorize(req("t"), big, Factorization::LLT);
  auto doomed = svc.submit_factorize(req("t", /*deadline_s=*/1e-9), small,
                                     Factorization::LLT);
  EXPECT_TRUE(slow.get().ok());
  const FactorizeResult fr = doomed.get();
  EXPECT_EQ(fr.status, RequestStatus::Expired);
  EXPECT_EQ(svc.stats().expired, 1u);
}

// ---------- multi-RHS batching -----------------------------------------

TEST(SolveService, BatchingWindowCoalescesSameFactorSolves) {
  ServiceOptions opts;
  opts.num_workers = 1;
  opts.batch_window = 0.05;
  SolveService svc(opts);
  const auto a = gen::grid2d_laplacian(10, 10);
  const FactorizeResult fr =
      svc.factorize("t", shared(a), Factorization::LLT);
  ASSERT_TRUE(fr.ok()) << fr.error;

  Rng rng(23);
  const int kRhs = 4;
  std::vector<std::vector<real_t>> xs, bs;
  for (int c = 0; c < kRhs; ++c) {
    std::vector<real_t> x(static_cast<std::size_t>(a.ncols()));
    for (auto& v : x) v = rng.uniform(-1, 1);
    bs.push_back(rhs_for(a, x));
    xs.push_back(std::move(x));
  }
  std::vector<Ticket<SolveResult>> tickets;
  for (int c = 0; c < kRhs; ++c) {
    tickets.push_back(
        svc.submit_solve(req("t"), fr.factor, bs[std::size_t(c)]));
  }
  index_t max_batched = 0;
  for (int c = 0; c < kRhs; ++c) {
    const SolveResult sr = tickets[std::size_t(c)].get();
    ASSERT_TRUE(sr.ok()) << sr.error;
    max_batched = std::max(max_batched, sr.stats.batched_rhs);
    for (std::size_t i = 0; i < sr.x.size(); ++i) {
      EXPECT_NEAR(sr.x[i], xs[std::size_t(c)][i], 1e-9);
    }
  }
  // The worker picked up the first solve, lingered for the window, and
  // drained the rest into one solve_multi call.
  EXPECT_GE(max_batched, 2);
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.solves, static_cast<std::uint64_t>(kRhs));
  EXPECT_LT(st.batches, static_cast<std::uint64_t>(kRhs));
  EXPECT_EQ(st.batched_rhs, static_cast<std::uint64_t>(kRhs));
}

TEST(SolveService, SolveValidatesArguments) {
  SolveService svc;
  const auto a = gen::grid2d_laplacian(6, 6);
  const FactorizeResult fr =
      svc.factorize("t", shared(a), Factorization::LLT);
  ASSERT_TRUE(fr.ok());
  EXPECT_THROW(svc.submit_solve(req("t"), nullptr, {}), InvalidArgument);
  EXPECT_THROW(svc.submit_solve(req("t"), fr.factor, std::vector<real_t>(3)),
               InvalidArgument);
  RequestOptions zero_rhs = req("t");
  zero_rhs.nrhs = 0;
  EXPECT_THROW(svc.submit_solve(std::move(zero_rhs), fr.factor,
                                std::vector<real_t>{}),
               InvalidArgument);
}

// ---------- stats JSON surface -----------------------------------------

TEST(SolveService, RequestAndServiceStatsRoundTripThroughJson) {
  SolveService svc;
  const auto a = gen::grid2d_laplacian(10, 10);
  const FactorizeResult fr =
      svc.factorize("tenant-α", shared(a), Factorization::LLT);
  ASSERT_TRUE(fr.ok()) << fr.error;
  const SolveResult sr = svc.solve(
      "tenant-α", fr.factor,
      std::vector<real_t>(static_cast<std::size_t>(a.ncols()), 1.0));
  ASSERT_TRUE(sr.ok()) << sr.error;

  // Request stats: parseable JSON carrying the non-ASCII tenant intact.
  const json::Value rq = json::Value::parse(obs::to_json(fr.stats).dump());
  EXPECT_EQ(rq.at("tenant").as_string(), "tenant-α");
  EXPECT_EQ(rq.at("cache").as_string(), "miss");
  EXPECT_GT(rq.at("factorize_s").as_number(), 0.0);
  EXPECT_GT(rq.at("run").at("makespan_s").as_number(), 0.0);
  const json::Value sq = json::Value::parse(obs::to_json(sr.stats).dump());
  EXPECT_GE(sq.at("queue_wait_s").as_number(), 0.0);
  EXPECT_EQ(sq.at("batched_rhs").as_number(), 1.0);

  const json::Value sv = json::Value::parse(obs::to_json(svc.stats()).dump());
  EXPECT_EQ(sv.at("submitted").as_number(), 2.0);
  EXPECT_EQ(sv.at("completed").as_number(), 2.0);
  EXPECT_EQ(sv.at("cache").at("misses").as_number(), 1.0);
}

// ---------- refactorize fast path --------------------------------------

TEST(SolveService, RefactorizeServesNewValuesThroughTheSameHandle) {
  const auto a = gen::grid2d_laplacian(12, 12);
  SolveService svc;
  const FactorizeResult fr = svc.factorize("t", shared(a), Factorization::LLT);
  ASSERT_TRUE(fr.ok()) << fr.error;
  ASSERT_TRUE(fr.factor->refactorizable());
  std::vector<real_t> ones(static_cast<std::size_t>(a.ncols()), 1.0);
  const std::vector<real_t> b = rhs_for(a, ones);

  // Scale the values by 2: the same b must now solve to x = 1/2.
  std::vector<real_t> scaled(a.values().begin(), a.values().end());
  for (auto& v : scaled) v *= 2.0;
  const FactorizeResult rr = svc.refactorize("t", fr.factor, scaled);
  ASSERT_TRUE(rr.ok()) << rr.error;
  EXPECT_EQ(rr.factor, fr.factor);  // the handle keeps serving
  EXPECT_GT(rr.stats.factorize_s, 0.0);
  EXPECT_EQ(rr.stats.analyze_s, 0.0);  // no symbolic work on the fast path

  const SolveResult sr = svc.solve("t", fr.factor, b);
  ASSERT_TRUE(sr.ok()) << sr.error;
  for (const real_t v : sr.x) EXPECT_NEAR(v, 0.5, 1e-9);

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.factorizes, 1u);
  EXPECT_EQ(st.refactorizes, 1u);
  EXPECT_EQ(st.cache.misses, 1u);  // refactorize never re-analyzes
}

TEST(SolveService, RefactorizeValidatesArguments) {
  const auto a = gen::grid2d_laplacian(8, 8);
  SolveService svc;
  const FactorizeResult fr = svc.factorize("t", shared(a), Factorization::LLT);
  ASSERT_TRUE(fr.ok());
  EXPECT_THROW(svc.submit_refactorize(req("t"), nullptr, {}),
               InvalidArgument);
  EXPECT_THROW(
      svc.submit_refactorize(req("t"), fr.factor, std::vector<real_t>(3)),
      InvalidArgument);
}

TEST(SolveService, SnapshotRestoredFactorIsNotRefactorizable) {
  // adopt_factor has no input matrix to retain, so the numeric fast path
  // must refuse instead of ingesting values against a missing pattern.
  const auto a = gen::grid2d_laplacian(8, 8);
  SolveService svc;
  Solver<real_t> solo;
  solo.analyze(a);
  solo.factorize(a, Factorization::LLT);
  const FactorHandle restored = svc.adopt_factor(std::move(solo));
  EXPECT_FALSE(restored->refactorizable());
  std::vector<real_t> vals(a.values().begin(), a.values().end());
  EXPECT_THROW(svc.submit_refactorize(req("t"), restored, std::move(vals)),
               InvalidArgument);
}

/// Holds the first factor allocation after arm() until release(): a
/// refactorize allocates its spare through this hook, so the request
/// stays mid-flight, deterministically, for as long as a test needs.
class BlockingAllocation : public FaultInjector {
 public:
  bool fail_alloc(std::size_t /*bytes*/) override {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!armed_) return false;
    armed_ = false;
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
    return false;
  }
  void arm() {
    std::lock_guard<std::mutex> lock(mutex_);
    armed_ = true;
  }
  bool wait_entered(std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, timeout, [this] { return entered_; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool entered_ = false;
  bool released_ = false;
};

TEST(SolveService, SolveDuringARefactorizeAnswersFirstWithTheOldValues) {
  BlockingAllocation hook;
  ServiceOptions opts;
  opts.num_workers = 2;
  opts.solver.instr.fault = &hook;
  SolveService svc(opts);
  const auto a = gen::grid2d_laplacian(12, 12);
  const FactorizeResult fr = svc.factorize("t", shared(a), Factorization::LLT);
  ASSERT_TRUE(fr.ok()) << fr.error;
  const std::vector<real_t> b = rhs_for(
      a, std::vector<real_t>(static_cast<std::size_t>(a.ncols()), 1.0));
  const SolveResult before = svc.solve("t", fr.factor, b);
  ASSERT_TRUE(before.ok()) << before.error;

  std::vector<real_t> scaled(a.values().begin(), a.values().end());
  for (auto& v : scaled) v *= 2.0;
  hook.arm();
  Ticket<FactorizeResult> refac =
      svc.submit_refactorize(req("t"), fr.factor, std::move(scaled));
  const bool held = hook.wait_entered(std::chrono::seconds(10));
  // Submitted while the refactorize is held mid-flight.  The flag is set
  // by the completion hook, so the test does not block on a solve that
  // queues behind the refactorize.
  std::mutex done_mutex;
  std::condition_variable done_cv;
  bool solve_done = false;
  RequestOptions sreq = req("t");
  sreq.on_complete = [&] {
    std::lock_guard<std::mutex> lock(done_mutex);
    solve_done = true;
    done_cv.notify_all();
  };
  Ticket<SolveResult> during = svc.submit_solve(sreq, fr.factor, b);
  {
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait_for(lock, std::chrono::seconds(10),
                     [&] { return solve_done; });
  }
  hook.release();
  {
    // Either way the callback has finished with these locals after this.
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock, [&] { return solve_done; });
  }
  const FactorizeResult rr = refac.get();
  const SolveResult sr = during.get();
  ASSERT_TRUE(held) << "the refactorize never allocated its spare";
  ASSERT_TRUE(rr.ok()) << rr.error;
  ASSERT_TRUE(sr.ok()) << sr.error;
  EXPECT_LT(sr.stats.completion_seq, rr.stats.completion_seq);
  EXPECT_EQ(sr.x, before.x);  // the old values, bit for bit
  ASSERT_NE(rr.version, nullptr);

  const SolveResult after = svc.solve("t", fr.factor, b);
  ASSERT_TRUE(after.ok()) << after.error;
  for (const real_t v : after.x) EXPECT_NEAR(v, 0.5, 1e-9);
}

// ---------- precision policy -------------------------------------------

TEST(SolveService, Fp32RefinePolicyServesFloatFactorsAtFp64Accuracy) {
  ServiceOptions opts;
  opts.precision = PrecisionPolicy::Fp32Refine;
  SolveService svc(opts);
  const auto a = gen::grid2d_laplacian(12, 12);
  std::vector<real_t> xstar(static_cast<std::size_t>(a.ncols()));
  Rng rng(7);
  for (auto& v : xstar) v = rng.uniform(-1, 1);
  const std::vector<real_t> b = rhs_for(a, xstar);

  const FactorizeResult fr = svc.factorize("t", shared(a), Factorization::LLT);
  ASSERT_TRUE(fr.ok()) << fr.error;
  EXPECT_TRUE(fr.stats.fp32);
  EXPECT_TRUE(fr.factor->fp32());
  EXPECT_EQ(fr.factor->precision(), PrecisionPolicy::Fp32Refine);
  EXPECT_FALSE(fr.stats.precision_fallback);
  EXPECT_LE(fr.stats.backward_error, opts.mixed_tolerance);

  const SolveResult sr = svc.solve("t", fr.factor, b);
  ASSERT_TRUE(sr.ok()) << sr.error;
  EXPECT_TRUE(sr.stats.fp32);
  EXPECT_GE(sr.stats.refine_iterations, 1);
  for (std::size_t i = 0; i < sr.x.size(); ++i) {
    EXPECT_NEAR(sr.x[i], xstar[i], 1e-8);
  }
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.tenants.at("t").fp32_served, 2u);  // factorize + solve
  EXPECT_EQ(st.tenants.at("t").fp64_fallbacks, 0u);
}

TEST(SolveService, Fp32GateTripFallsBackToFp64) {
  // Values far beyond float range overflow the fp32 factorization; the
  // probe gate trips and the service silently re-factorizes in double.
  auto a = gen::grid2d_laplacian(10, 10);
  for (auto& v : a.values_mut()) v *= 1e200;
  ServiceOptions opts;
  opts.precision = PrecisionPolicy::Fp32Refine;
  SolveService svc(opts);
  const FactorizeResult fr = svc.factorize("t", shared(a), Factorization::LLT);
  ASSERT_TRUE(fr.ok()) << fr.error;
  EXPECT_FALSE(fr.stats.fp32);
  EXPECT_TRUE(fr.stats.precision_fallback);
  EXPECT_FALSE(fr.factor->fp32());

  std::vector<real_t> ones(static_cast<std::size_t>(a.ncols()), 1.0);
  const SolveResult sr = svc.solve("t", fr.factor, rhs_for(a, ones));
  ASSERT_TRUE(sr.ok()) << sr.error;
  for (const real_t v : sr.x) EXPECT_NEAR(v, 1.0, 1e-9);
  EXPECT_EQ(svc.stats().tenants.at("t").fp64_fallbacks, 1u);
}

TEST(SolveService, AutoPolicySkipsFp32AfterAFallback) {
  auto a = gen::grid2d_laplacian(10, 10);
  for (auto& v : a.values_mut()) v *= 1e200;
  ServiceOptions opts;
  opts.precision = PrecisionPolicy::Auto;
  SolveService svc(opts);
  const FactorizeResult first =
      svc.factorize("t", shared(a), Factorization::LLT);
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_TRUE(first.stats.precision_fallback);  // paid the doomed attempt
  const FactorizeResult second =
      svc.factorize("t", shared(a), Factorization::LLT);
  ASSERT_TRUE(second.ok()) << second.error;
  // The digest is remembered: no second fp32 attempt, no fallback event.
  EXPECT_FALSE(second.stats.fp32);
  EXPECT_FALSE(second.stats.precision_fallback);
}

TEST(SolveService, PrecisionResolvesRequestOverTenantOverService) {
  ServiceOptions opts;
  opts.precision = PrecisionPolicy::Fp64;
  TenantConfig mixed;
  mixed.precision = PrecisionPolicy::Fp32Refine;
  mixed.precision_set = true;
  opts.tenants["mixed"] = mixed;
  SolveService svc(opts);
  EXPECT_EQ(svc.effective_policy("mixed"), PrecisionPolicy::Fp32Refine);
  EXPECT_EQ(svc.effective_policy("other"), PrecisionPolicy::Fp64);
  EXPECT_EQ(svc.effective_policy("mixed", PrecisionPolicy::Fp64),
            PrecisionPolicy::Fp64);

  // A per-request override beats both lower layers end to end.
  const auto a = gen::grid2d_laplacian(10, 10);
  RequestOptions r = req("other");
  r.precision = PrecisionPolicy::Fp32Refine;
  const FactorizeResult fr =
      svc.factorize(std::move(r), shared(a), Factorization::LLT);
  ASSERT_TRUE(fr.ok()) << fr.error;
  EXPECT_TRUE(fr.stats.fp32);
  EXPECT_EQ(fr.stats.precision, PrecisionPolicy::Fp32Refine);
}

// ---------- request options surface ------------------------------------

TEST(SolveService, MultiRhsSolveThroughRequestOptions) {
  const auto a = gen::grid2d_laplacian(10, 10);
  SolveService svc;
  const FactorizeResult fr = svc.factorize("t", shared(a), Factorization::LLT);
  ASSERT_TRUE(fr.ok());
  const auto n = static_cast<std::size_t>(a.ncols());
  std::vector<real_t> ones(n, 1.0);
  std::vector<real_t> ramp(n);
  for (std::size_t i = 0; i < n; ++i) ramp[i] = 0.01 * double(i);
  std::vector<real_t> stacked = rhs_for(a, ones);
  const std::vector<real_t> b2 = rhs_for(a, ramp);
  stacked.insert(stacked.end(), b2.begin(), b2.end());

  RequestOptions r = req("t");
  r.nrhs = 2;
  const SolveResult sr = svc.solve(std::move(r), fr.factor, std::move(stacked));
  ASSERT_TRUE(sr.ok()) << sr.error;
  ASSERT_EQ(sr.x.size(), 2 * n);
  EXPECT_EQ(sr.stats.batched_rhs, 2);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(sr.x[i], 1.0, 1e-9);
    EXPECT_NEAR(sr.x[n + i], ramp[i], 1e-9);
  }
}

// ---------- per-tenant QoS ---------------------------------------------

struct QueueProbeJob : service::JobBase {
  QueueProbeJob() : JobBase(service::JobKind::Solve) {}
  void complete_unrun(RequestStatus, std::string) override {}
};

std::shared_ptr<QueueProbeJob> probe(std::string tenant,
                                     double deadline_s = 0) {
  auto j = std::make_shared<QueueProbeJob>();
  j->tenant = std::move(tenant);
  if (deadline_s > 0) {
    j->deadline = service::Clock::now() +
                  std::chrono::duration_cast<service::Clock::duration>(
                      std::chrono::duration<double>(deadline_s));
  }
  return j;
}

TEST(AdmissionQueue, EdfOrdersDeadlinesAheadOfFifoWithinOneTenant) {
  service::AdmissionQueue q(16);
  const auto fifo1 = probe("t");
  const auto late = probe("t", 30.0);
  const auto early = probe("t", 10.0);
  const auto mid = probe("t", 20.0);
  const auto fifo2 = probe("t");
  for (const auto& j : {fifo1, late, early, mid, fifo2}) {
    ASSERT_TRUE(q.try_push(j));
  }
  // Deadline-carrying jobs pop earliest-deadline-first, ahead of the
  // deadline-free jobs, which keep their FIFO order.
  EXPECT_EQ(q.try_pop(), early);
  EXPECT_EQ(q.try_pop(), mid);
  EXPECT_EQ(q.try_pop(), late);
  EXPECT_EQ(q.try_pop(), fifo1);
  EXPECT_EQ(q.try_pop(), fifo2);
  EXPECT_EQ(q.try_pop(), nullptr);
}

TEST(AdmissionQueue, WeightedSharesInterleaveFourToOne) {
  std::map<std::string, TenantConfig> tenants;
  tenants["heavy"].weight = 4.0;
  service::AdmissionQueue q(16, nullptr, std::move(tenants));
  EXPECT_EQ(q.tenant_weight("heavy"), 4.0);
  EXPECT_EQ(q.tenant_weight("light"), 1.0);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(q.try_push(probe("heavy")));
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(q.try_push(probe("light")));
  std::vector<int> light_pos;
  for (int i = 0; i < 10; ++i) {
    const auto j = q.try_pop();
    ASSERT_NE(j, nullptr);
    if (j->tenant == "light") light_pos.push_back(i);
  }
  // Smooth WRR at 4:1 yields H H L H H H H L H H -- the light tenant gets
  // every fifth slot instead of waiting behind the heavy backlog.
  ASSERT_EQ(light_pos.size(), 2u);
  EXPECT_EQ(light_pos[0], 2);
  EXPECT_EQ(light_pos[1], 7);
}

TEST(SolveService, PerTenantStatsSlices) {
  ServiceOptions opts;
  opts.tenants["gold"].weight = 4.0;
  SolveService svc(opts);
  const auto a = gen::grid2d_laplacian(8, 8);
  const FactorizeResult fr =
      svc.factorize("gold", shared(a), Factorization::LLT);
  ASSERT_TRUE(fr.ok());
  const std::vector<real_t> b(static_cast<std::size_t>(a.ncols()), 1.0);
  ASSERT_TRUE(svc.solve("gold", fr.factor, b).ok());
  ASSERT_TRUE(svc.solve("silver", fr.factor, b).ok());

  const ServiceStats st = svc.stats();
  const service::TenantStats& gold = st.tenants.at("gold");
  EXPECT_EQ(gold.submitted, 2u);
  EXPECT_EQ(gold.completed, 2u);
  EXPECT_EQ(gold.factorizes, 1u);
  EXPECT_EQ(gold.solves, 1u);
  EXPECT_EQ(gold.weight, 4.0);
  const service::TenantStats& silver = st.tenants.at("silver");
  EXPECT_EQ(silver.submitted, 1u);
  EXPECT_EQ(silver.solves, 1u);
  EXPECT_EQ(silver.weight, 1.0);
  // The slices surface in the stats JSON too.
  const json::Value sv = json::Value::parse(obs::to_json(st).dump());
  EXPECT_EQ(sv.at("tenants").at("gold").at("weight").as_number(), 4.0);
}

// ---------- fairness + stress (runs under SPX_SANITIZE=thread) ----------

TEST(ServiceStress, NoTenantStarvedAcrossMixedRequests) {
  // One flooding tenant and three light tenants share the service.  With
  // round-robin admission the light tenants' requests must complete long
  // before the flood drains -- no tenant waits behind another tenant's
  // backlog.
  ServiceOptions opts;
  opts.num_workers = 4;
  opts.queue_capacity = 2000;
  opts.max_batch = 1;  // keep completion order == scheduling order
  SolveService svc(opts);
  const auto a = gen::grid2d_laplacian(40, 40);
  const FactorizeResult fr =
      svc.factorize("warm", shared(a), Factorization::LLT);
  ASSERT_TRUE(fr.ok()) << fr.error;
  const std::vector<real_t> b(static_cast<std::size_t>(a.ncols()), 1.0);

  constexpr int kFlood = 880;
  constexpr int kLight = 50;
  std::vector<Ticket<SolveResult>> flood, light;
  // Enqueueing takes tens of milliseconds, long enough for free workers
  // to drain most of the flood before the light tenants arrive.  So the
  // flood's first num_workers requests hold their workers, in
  // on_complete, until every request is queued: the light tenants then
  // always arrive behind the flood's whole backlog.
  std::promise<void> queued;
  const std::shared_future<void> all_queued = queued.get_future().share();
  // Fill the flood tenant's queue first, then interleave the light
  // tenants; round-robin must still serve them promptly.
  for (int i = 0; i < kFlood; ++i) {
    RequestOptions r = req("flood");
    if (i < opts.num_workers) {
      r.on_complete = [all_queued] { all_queued.wait(); };
    }
    flood.push_back(svc.submit_solve(std::move(r), fr.factor, b));
  }
  for (int i = 0; i < kLight; ++i) {
    for (const char* tenant : {"light-1", "light-2", "light-3"}) {
      light.push_back(svc.submit_solve(req(tenant), fr.factor, b));
    }
  }
  queued.set_value();
  std::uint64_t light_max_seq = 0;
  for (auto& t : light) {
    const SolveResult sr = t.get();
    ASSERT_TRUE(sr.ok()) << sr.error;
    light_max_seq = std::max(light_max_seq, sr.stats.completion_seq);
  }
  std::uint64_t flood_max_seq = 0;
  for (auto& t : flood) {
    const SolveResult sr = t.get();
    ASSERT_TRUE(sr.ok()) << sr.error;
    flood_max_seq = std::max(flood_max_seq, sr.stats.completion_seq);
  }
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.completed, 1u + kFlood + 3u * kLight);
  EXPECT_EQ(st.rejected, 0u);
  // Each round-robin rotation serves every tenant once, so the 150 light
  // requests all complete within the first ~4*150 completions (plus the
  // flood's head start: the requests that held the workers); the flood's
  // tail necessarily lands at the very end.
  EXPECT_LT(light_max_seq, 800u);
  EXPECT_GT(flood_max_seq, light_max_seq);
  EXPECT_EQ(flood_max_seq, st.completed);
}

TEST(ServiceStress, ConcurrentTenantsSubmitAndSolve) {
  // Many threads hammer one service with mixed factorize + solve traffic
  // against distinct patterns; everything must complete and be correct.
  ServiceOptions opts;
  opts.num_workers = 4;
  opts.queue_capacity = 256;
  opts.batch_window = 0.001;
  SolveService svc(opts);
  constexpr int kThreads = 6;
  constexpr int kPerThread = 12;
  std::atomic<int> solved{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto a = gen::grid2d_laplacian(8 + t % 3, 8);
      const std::string tenant = "tenant-" + std::to_string(t);
      const FactorizeResult fr =
          svc.factorize(tenant, shared(a), Factorization::LLT);
      ASSERT_TRUE(fr.ok()) << fr.error;
      std::vector<real_t> ones(static_cast<std::size_t>(a.ncols()), 1.0);
      const std::vector<real_t> b = rhs_for(a, ones);
      for (int i = 0; i < kPerThread; ++i) {
        const SolveResult sr = svc.solve(tenant, fr.factor, b);
        ASSERT_TRUE(sr.ok()) << sr.error;
        for (const real_t v : sr.x) ASSERT_NEAR(v, 1.0, 1e-9);
        solved.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(solved.load(), kThreads * kPerThread);
  EXPECT_EQ(svc.stats().cache.misses, 3u);  // three distinct patterns
}

}  // namespace
}  // namespace spx
