// Workload `serve`: the full request path over loopback SPXW -- decode,
// admission, analysis cache, factorize/refactorize/solve, encode.  An
// in-process net::ShardServer with two service workers on the default
// sequential runtime serves three closed-loop connections:
//   - one writer refactorizes the Flan surrogate at scale 0.1 (19^3 grid,
//     LL^T) with seeded value drift and then sends four solves; every
//     fifth step it instead factorizes a 2D-grid pattern not seen before
//     in the run (a seeded relabelling of a 50x50 grid) and solves on it;
//   - two readers only solve against the writer's Flan factor.
// Writes hold the factor's exclusive lock beside shared-lock reads.  The
// loop is closed because time-stepping callers wait for each answer.
// At scale 0.04 (1 ms solves) the readers' share of unblocked time hung
// on wake-up latencies between threads, and paired runs spread about
// 30%; at 0.1 the same pairs spread about 11%.
#include <algorithm>
#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "common/json.hpp"
#include "common/timer.hpp"
#include "core/analysis.hpp"
#include "graph/graph.hpp"
#include "graph/orderings.hpp"
#include "mat/generators.hpp"
#include "mat/surrogates.hpp"
#include "net/client.hpp"
#include "net/shard_server.hpp"

namespace perfbench {
namespace {

using spx::CscMatrix;
using spx::Timer;
namespace net = spx::net;

constexpr double kFlanScale = 0.1;
constexpr int kServiceWorkers = 2;
constexpr int kReaders = 2;
constexpr int kConnections = 1 + kReaders;
constexpr int kSolvesPerWrite = 4;
constexpr int kColdEvery = 5;
constexpr spx::index_t kColdGrid = 50;
constexpr int kSetups = 9;
constexpr std::size_t kMaxFactors = 16;

enum Kind { kSolve = 0, kRefactorize = 1, kCold = 2 };
constexpr const char* kKindNames[] = {"solve", "refactorize", "factorize_cold"};

using MatrixPtr = std::shared_ptr<const CscMatrix<double>>;

/// Value versions of the writer's Flan factor.  A version is published
/// before its refactorize is sent and acknowledged when the answer comes
/// back, so a reader's solve was served by some version in
/// [acknowledged at send, published at answer].  Only versions a reader
/// may still need are kept.
class Versions {
 public:
  void publish(std::uint64_t v, MatrixPtr m) {
    std::lock_guard<std::mutex> lock(mutex_);
    ring_.emplace_back(v, std::move(m));
    published_ = v;
  }
  void acknowledge(std::uint64_t v) {
    std::lock_guard<std::mutex> lock(mutex_);
    acked_ = v;
    trim();
  }
  /// A reader sends a solve: the versions from the acknowledged one on
  /// are kept until its answer is checked.
  void begin(int reader) {
    std::lock_guard<std::mutex> lock(mutex_);
    reading_[static_cast<std::size_t>(reader)] = acked_;
  }
  /// The versions the reader's answer may come from; ends its hold.
  std::vector<MatrixPtr> end(int reader) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t& lo = reading_[static_cast<std::size_t>(reader)];
    std::vector<MatrixPtr> out;
    for (const auto& [v, m] : ring_) {
      if (v >= lo && v <= published_) out.push_back(m);
    }
    lo = kIdle;
    trim();
    return out;
  }

 private:
  static constexpr std::uint64_t kIdle = ~std::uint64_t{0};

  void trim() {
    std::uint64_t lo = acked_;
    for (const std::uint64_t r : reading_) lo = std::min(lo, r);
    while (!ring_.empty() && ring_.front().first < lo) ring_.pop_front();
  }

  std::mutex mutex_;
  std::deque<std::pair<std::uint64_t, MatrixPtr>> ring_;
  std::array<std::uint64_t, kReaders> reading_ = [] {
    std::array<std::uint64_t, kReaders> a;
    a.fill(kIdle);
    return a;
  }();
  std::uint64_t published_ = 0;
  std::uint64_t acked_ = 0;
};

struct State {
  std::unique_ptr<net::ShardServer> server;
  std::array<net::BlockingClient, kConnections> clients;  ///< [0] = writer
  CscMatrix<double> flan;
  std::uint64_t flan_digest = 0;
  std::uint64_t flan_factor = 0;
  Versions versions;
  std::uint64_t next_version = 1;
  std::uint64_t next_cold = 0;
};

/// The Flan values of version v: the seeded drift lifts the diagonal.
MatrixPtr flan_version(const CscMatrix<double>& base, std::uint64_t seed,
                       std::uint64_t v) {
  auto m = std::make_shared<CscMatrix<double>>(base);
  spx::Rng rng(seed * 0x9e3779b97f4a7c15ULL + v);
  lift_diagonal(*m, rng, 0.05);
  return m;
}

/// The k-th new pattern of the run: a seeded relabelling of a 2D grid,
/// so every cold factorize misses the analysis cache at equal size.
CscMatrix<double> cold_pattern(std::uint64_t seed, std::uint64_t k) {
  spx::Rng rng(seed ^ (0xc01dULL + k * 0x100000001b3ULL));
  const CscMatrix<double> g = spx::gen::grid2d_laplacian(kColdGrid, kColdGrid);
  const std::vector<int> p = shuffled(static_cast<int>(g.ncols()), rng);
  std::vector<spx::index_t> new_to_old(p.begin(), p.end());
  return spx::permute_symmetric(
      g, spx::Ordering::from_new_to_old(std::move(new_to_old)));
}

bool done(std::uint8_t status) {
  return status == static_cast<std::uint8_t>(spx::service::RequestStatus::Done);
}

std::unique_ptr<State> setup(std::uint64_t seed, TraceSink* sink) {
  auto st = std::make_unique<State>();
  st->flan = spx::build_surrogate_d(spx::surrogate_by_name("Flan"), kFlanScale);
  st->flan_digest = spx::pattern_digest(st->flan);
  net::ShardServerOptions opts;
  opts.name = "bench";
  opts.max_factors = kMaxFactors;
  opts.service.num_workers = kServiceWorkers;
  if (sink != nullptr) {
    opts.service.solver.instr.tracer = &sink->tracer;
    opts.service.solver.instr.metrics = &sink->registry;
  }
  st->server = std::make_unique<net::ShardServer>(std::move(opts));
  for (net::BlockingClient& c : st->clients) {
    c.connect("127.0.0.1", st->server->port());
  }
  // The writer's factor, then warm-up: two refactorizes with solves, a
  // few reader solves and one cold pattern.
  const MatrixPtr v0 = flan_version(st->flan, seed, 0);
  st->versions.publish(0, v0);
  const net::FactorizeResponseFrame f =
      st->clients[0].factorize("writer", *v0, spx::Factorization::LLT);
  if (!done(f.status)) throw BenchError("serve setup: factorize failed: " + f.error);
  st->flan_factor = f.factor_id;
  st->versions.acknowledge(0);
  spx::Rng rng(seed ^ 0x3a3aULL);
  const auto n = static_cast<std::size_t>(st->flan.nrows());
  for (int w = 0; w < 2; ++w) {
    const std::uint64_t v = st->next_version++;
    const MatrixPtr m = flan_version(st->flan, seed, v);
    st->versions.publish(v, m);
    const auto values = std::vector<double>(m->values().begin(), m->values().end());
    const net::FactorizeResponseFrame r = st->clients[0].refactorize(
        "writer", st->flan_digest, st->flan_factor, values);
    if (!done(r.status)) throw BenchError("serve setup: refactorize failed");
    st->versions.acknowledge(v);
    for (net::BlockingClient& c : st->clients) {
      for (int s = 0; s < kSolvesPerWrite; ++s) {
        c.solve("warmup", st->flan_digest, st->flan_factor,
                random_vector(n, rng));
      }
    }
  }
  const CscMatrix<double> warm_cold = cold_pattern(seed, ~0ULL);
  st->clients[0].factorize("writer", warm_cold, spx::Factorization::LLT);
  return st;
}

/// The kind of request an answer reports having served, from the
/// RequestStats in its stats_json: a solve reports its batch, a
/// factorization its analysis-cache outcome -- "miss" for a pattern the
/// shard had not seen, "bypass" for a refactorize, which reuses the
/// factor's analysis.  Keeps every latency series to one kind.
Kind answered_kind(const std::string& stats_json) {
  const spx::json::Value v = spx::json::Value::parse(stats_json);
  if (v.find("batched_rhs") != nullptr) return kSolve;
  const std::string cache = v.string_or("cache", "");
  if (cache == "miss") return kCold;
  if (cache == "bypass" && v.find("analyze_s") == nullptr) return kRefactorize;
  throw BenchError("answer of no benchmarked kind: " + stats_json);
}

/// One answered request, kept for the per-layer pass of a traced run.
struct Sample {
  Kind kind = kSolve;
  double latency = 0;
  std::string stats_json;
};

struct ThreadLog {
  std::array<KindCount, 3> outcomes{};
  std::array<std::vector<double>, 3> latencies;
  std::vector<Sample> samples;
  std::vector<std::string> write_stats;  ///< stats_json of write answers
  std::vector<CscMatrix<double>> cold;   ///< cold patterns (traced run)
  std::exception_ptr error;

  /// Counts one request of kind k.  The latency of an answered one joins
  /// the series of k only if the answer reports serving that kind.
  void note(Kind k, bool ok, double latency, const std::string& stats_json) {
    ++outcomes[k].attempted;
    if (!ok) {
      ++outcomes[k].failed;
      return;
    }
    const Kind served = answered_kind(stats_json);
    if (served != k) {
      throw BenchError(std::string("a ") + kKindNames[k] +
                       " request was answered as " + kKindNames[served] +
                       ": " + stats_json);
    }
    latencies[k].push_back(latency);
  }
};

/// Client-side request span of a traced run, carried over the wire.
struct RequestSpan {
  spx::obs::ScopedSpan span;
  net::WireTrace wire;
  RequestSpan(TraceSink* sink, const char* name) {
    if (sink == nullptr) return;
    span = spx::obs::ScopedSpan(&sink->tracer, name, "bench-", {});
    wire = {span.context().trace_id, span.context().span_id};
  }
};

/// Runs one client call; a throw (broken connection, protocol error)
/// counts as a failed op instead of ending the run.
template <typename F>
bool attempt(F&& call) {
  try {
    return call();
  } catch (const std::exception&) {
    return false;
  }
}

bool check_any(const std::vector<MatrixPtr>& candidates,
               const std::vector<double>& x, const std::vector<double>& b) {
  if (x.size() != b.size()) return false;
  for (const MatrixPtr& m : candidates) {
    if (backward_error(*m, x, b) <= kMaxBackwardError) return true;
  }
  return false;
}

void writer_loop(State& st, std::uint64_t seed, double deadline_s,
                 const Timer& clock, TraceSink* sink, ThreadLog& log) {
  net::BlockingClient& c = st.clients[0];
  spx::Rng rng(seed ^ 0x77717e5ULL);
  const auto keep = [&](Kind k, double latency, const std::string& json) {
    if (sink != nullptr) log.samples.push_back({k, latency, json});
  };
  for (std::uint64_t step = 0; clock.elapsed() < deadline_s; ++step) {
    // The write: a cold factorize every fifth step, else a refactorize.
    MatrixPtr target;
    std::uint64_t digest = 0, factor = 0;
    if (step % kColdEvery == kColdEvery - 1) {
      auto m = std::make_shared<const CscMatrix<double>>(
          cold_pattern(seed, st.next_cold++));
      digest = spx::pattern_digest(*m);
      RequestSpan span(sink, "bench.serve.factorize");
      net::FactorizeResponseFrame r;
      Timer t;
      const bool ok = attempt([&] {
        r = c.factorize("writer", *m, spx::Factorization::LLT, span.wire);
        return done(r.status);
      });
      const double dt = t.elapsed();
      span.span.finish();
      log.note(kCold, ok, dt, r.stats_json);
      if (!ok) continue;
      log.write_stats.push_back(r.stats_json);
      keep(kCold, dt, r.stats_json);
      if (sink != nullptr) log.cold.push_back(*m);
      target = m;
      factor = r.factor_id;
    } else {
      const std::uint64_t v = st.next_version++;
      const MatrixPtr m = flan_version(st.flan, seed, v);
      const std::vector<double> values(m->values().begin(), m->values().end());
      st.versions.publish(v, m);
      RequestSpan span(sink, "bench.serve.refactorize");
      net::FactorizeResponseFrame r;
      Timer t;
      const bool ok = attempt([&] {
        r = c.refactorize("writer", st.flan_digest, st.flan_factor, values,
                          span.wire);
        return done(r.status);
      });
      const double dt = t.elapsed();
      span.span.finish();
      log.note(kRefactorize, ok, dt, r.stats_json);
      if (!ok) continue;
      st.versions.acknowledge(v);
      log.write_stats.push_back(r.stats_json);
      keep(kRefactorize, dt, r.stats_json);
      target = m;
      digest = st.flan_digest;
      factor = st.flan_factor;
    }
    for (int s = 0; s < kSolvesPerWrite && clock.elapsed() < deadline_s; ++s) {
      const std::vector<double> b =
          random_vector(static_cast<std::size_t>(target->nrows()), rng);
      RequestSpan span(sink, "bench.serve.solve");
      net::SolveResponseFrame r;
      Timer t;
      const bool answered = attempt([&] {
        r = c.solve("writer", digest, factor, b, span.wire);
        return done(r.status);
      });
      const double dt = t.elapsed();
      span.span.finish();
      const bool ok = answered && check_any({target}, r.x, b);
      log.note(kSolve, ok, dt, r.stats_json);
      if (ok) keep(kSolve, dt, r.stats_json);
    }
  }
}

void reader_loop(State& st, int reader, std::uint64_t seed, double deadline_s,
                 const Timer& clock, TraceSink* sink, ThreadLog& log) {
  net::BlockingClient& c = st.clients[static_cast<std::size_t>(1 + reader)];
  spx::Rng rng(seed ^ (0xeade7ULL + static_cast<std::uint64_t>(reader)));
  const std::string tenant = "reader" + std::to_string(reader);
  const auto n = static_cast<std::size_t>(st.flan.nrows());
  while (clock.elapsed() < deadline_s) {
    const std::vector<double> b = random_vector(n, rng);
    st.versions.begin(reader);
    RequestSpan span(sink, "bench.serve.solve");
    net::SolveResponseFrame r;
    Timer t;
    const bool answered = attempt([&] {
      r = c.solve(tenant, st.flan_digest, st.flan_factor, b, span.wire);
      return done(r.status);
    });
    const double dt = t.elapsed();
    span.span.finish();
    const std::vector<MatrixPtr> candidates = st.versions.end(reader);
    const bool ok = answered && check_any(candidates, r.x, b);
    log.note(kSolve, ok, dt, r.stats_json);
    if (ok && sink != nullptr) log.samples.push_back({kSolve, dt, r.stats_json});
  }
}

struct RunResult {
  std::array<ThreadLog, kConnections> logs;
  double wall = 0;
  spx::service::ServiceStats before, after;

  std::size_t completed() const {
    std::size_t n = 0;
    for (const ThreadLog& l : logs) {
      for (const auto& v : l.latencies) n += v.size();
    }
    return n;
  }
};

RunResult run_loop(State& st, std::uint64_t seed, double seconds,
                   TraceSink* sink, Report& rep) {
  RunResult res;
  res.before = st.server->service_stats();
  Timer clock;
  {
    std::vector<std::jthread> threads;
    threads.emplace_back([&] {
      try {
        writer_loop(st, seed, seconds, clock, sink, res.logs[0]);
      } catch (...) {
        res.logs[0].error = std::current_exception();
      }
    });
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        ThreadLog& log = res.logs[static_cast<std::size_t>(1 + r)];
        try {
          reader_loop(st, r, seed, seconds, clock, sink, log);
        } catch (...) {
          log.error = std::current_exception();
        }
      });
    }
  }
  res.wall = clock.elapsed();
  res.after = st.server->service_stats();
  for (const ThreadLog& l : res.logs) {
    if (l.error) std::rethrow_exception(l.error);
    for (int k = 0; k < 3; ++k) {
      KindCount& kc = rep.kinds[kKindNames[k]];
      kc.attempted += l.outcomes[static_cast<std::size_t>(k)].attempted;
      kc.failed += l.outcomes[static_cast<std::size_t>(k)].failed;
    }
  }
  return res;
}

/// Factorization flops of the write answers (RunStats gflops x makespan).
double write_flops(const RunResult& res) {
  double flops = 0;
  for (const ThreadLog& l : res.logs) {
    for (const std::string& s : l.write_stats) {
      const spx::json::Value v = spx::json::Value::parse(s);
      const spx::json::Value& run = v.at("run");
      flops += run.number_or("gflops", 0) * 1e9 * run.number_or("makespan_s", 0);
    }
  }
  return flops;
}

/// Dense-kernel ISA the shard's factorizations dispatched to (RunStats).
std::string kernel_isa(const RunResult& res) {
  const std::vector<std::string>& w = res.logs[0].write_stats;
  if (w.empty()) return "";
  return spx::json::Value::parse(w.front()).at("run").string_or("kernel_isa", "");
}

Series latencies(const RunResult& res, Kind k) {
  Series s;
  for (const ThreadLog& l : res.logs) {
    for (const double v : l.latencies[k]) s.add(v);
  }
  return s;
}

/// The shard's own wire counters (frames and bytes), read from the
/// traced run's registry.
struct WireCounters {
  double frames = 0, read = 0, written = 0;

  static WireCounters of(spx::obs::MetricsRegistry& reg) {
    return {reg.counter("spx_net_frames_read_total").value(),
            reg.counter("spx_net_bytes_read_total").value(),
            reg.counter("spx_net_bytes_written_total").value()};
  }
};

template <typename F>
double mean_us(int reps, F&& body) {
  Timer t;
  for (int i = 0; i < reps; ++i) body();
  return 1e6 * t.elapsed() / reps;
}

/// Per-layer figures of a traced serve run.
void layer_figures(const State& st, const RunResult& res,
                   const WireCounters& wire, Report& rep, std::uint64_t seed) {
  Series solve_queue;
  std::array<Series, 3> exec, overhead;
  double seq_flops = 0, seq_seconds = 0, core_overhead = 0;
  std::size_t refactorizes = 0;
  double latency_total = 0, accounted_queue_exec = 0;
  std::array<std::size_t, 3> counts{};
  for (const ThreadLog& l : res.logs) {
    for (const Sample& s : l.samples) {
      const spx::json::Value v = spx::json::Value::parse(s.stats_json);
      const double q = v.number_or("queue_wait_s", 0);
      double e = 0;
      if (s.kind == kSolve) {
        e = v.number_or("solve_s", 0);
        solve_queue.add(q);
      } else {
        e = v.number_or("analyze_s", 0) + v.number_or("factorize_s", 0);
        const spx::json::Value& run = v.at("run");
        const double mk = run.number_or("makespan_s", 0);
        if (s.kind == kRefactorize) {
          seq_flops += run.number_or("gflops", 0) * 1e9 * mk;
          seq_seconds += mk;
          core_overhead += v.number_or("factorize_s", 0) - mk;
          ++refactorizes;
        }
      }
      exec[s.kind].add(e);
      overhead[s.kind].add(s.latency - q - e);
      latency_total += s.latency;
      accounted_queue_exec += q + e;
      ++counts[s.kind];
    }
  }
  rep.layer("service.queue_wait_p50_ms", 1e3 * solve_queue.quantile(0.5), "ms",
            solve_queue.count());
  rep.layer("service.queue_wait_p99_ms", 1e3 * solve_queue.quantile(0.99),
            "ms", solve_queue.count());
  rep.layer("service.solve_exec_ms", 1e3 * exec[kSolve].mean(), "ms",
            exec[kSolve].count());
  rep.layer("service.refactorize_exec_ms", 1e3 * exec[kRefactorize].mean(),
            "ms", exec[kRefactorize].count());
  rep.layer("service.factorize_exec_ms", 1e3 * exec[kCold].mean(), "ms",
            exec[kCold].count());
  const double batches =
      static_cast<double>(res.after.batches - res.before.batches);
  rep.layer("service.batched_rhs_mean",
            batches > 0 ? static_cast<double>(res.after.batched_rhs -
                                              res.before.batched_rhs) /
                              batches
                        : 0.0,
            "count", static_cast<std::size_t>(batches));
  const double hits =
      static_cast<double>(res.after.cache.hits - res.before.cache.hits);
  const double misses =
      static_cast<double>(res.after.cache.misses - res.before.cache.misses);
  rep.layer("service.cache_hit_ratio",
            hits + misses > 0 ? hits / (hits + misses) : 0.0, "share",
            static_cast<std::size_t>(hits + misses));
  rep.layer("service.rejected",
            static_cast<double>(res.after.rejected - res.before.rejected),
            "count", 1);
  rep.layer("runtime.sequential.gflops",
            seq_seconds > 0 ? seq_flops / seq_seconds / 1e9 : 0.0, "GFlop/s",
            refactorizes);
  rep.layer("core.factorize_overhead_ms",
            refactorizes > 0 ? 1e3 * core_overhead / refactorizes : 0.0, "ms",
            refactorizes);
  const char* overhead_names[] = {"net.solve.overhead_p50_ms",
                                  "net.refactorize.overhead_p50_ms",
                                  "net.factorize.overhead_p50_ms"};
  for (int k = 0; k < 3; ++k) {
    const Series& o = overhead[static_cast<std::size_t>(k)];
    rep.layer(overhead_names[k], 1e3 * o.quantile(0.5), "ms", o.count());
  }

  // Wire bytes per request and per answer, from the shard's own counters.
  rep.layer("net.request_bytes", wire.read / wire.frames, "bytes",
            static_cast<std::size_t>(wire.frames));
  rep.layer("net.response_bytes", wire.written / wire.frames, "bytes",
            static_cast<std::size_t>(wire.frames));

  // Encode/decode by timed public calls on this workload's own frames.
  spx::Rng rng(seed ^ 0xc0decULL);
  const auto n = static_cast<std::size_t>(st.flan.nrows());
  net::SolveRequestFrame sreq;
  sreq.pattern_digest = st.flan_digest;
  sreq.factor_id = st.flan_factor;
  sreq.tenant = "reader0";
  sreq.rhs = random_vector(n, rng);
  net::SolveResponseFrame sresp;
  sresp.shard = "bench";
  sresp.x = random_vector(n, rng);
  sresp.stats_json = res.logs[1].samples.empty() ? std::string("{}")
                                                 : res.logs[1].samples[0].stats_json;
  net::RefactorizeRequestFrame rreq;
  rreq.pattern_digest = st.flan_digest;
  rreq.factor_id = st.flan_factor;
  rreq.tenant = "writer";
  rreq.values.assign(st.flan.values().begin(), st.flan.values().end());
  const CscMatrix<double> cold = cold_pattern(seed, 0);
  net::FactorizeRequestFrame freq;
  freq.pattern_digest = spx::pattern_digest(cold);
  freq.tenant = "writer";
  net::FactorizeResponseFrame fresp;
  fresp.shard = "bench";
  fresp.factor_id = 1;
  for (const Sample& s : res.logs[0].samples) {
    if (s.kind == kRefactorize) {
      fresp.stats_json = s.stats_json;
      break;
    }
  }
  constexpr int kReps = 200;
  constexpr std::size_t kH = net::kHeaderBytes;
  auto payload = [](const std::vector<std::uint8_t>& f) {
    return std::span<const std::uint8_t>(f).subspan(kH);
  };
  const auto sreq_b = net::encode_solve_request(1, sreq);
  const auto sresp_b = net::encode_solve_response(1, sresp);
  const auto rreq_b = net::encode_refactorize_request(1, rreq);
  const auto freq_b = net::encode_factorize_request(1, freq, cold);
  const auto fresp_b = net::encode_factorize_response(1, fresp);
  struct Codec {
    const char* frame;
    std::function<void()> encode, decode;
  };
  const Codec codecs[] = {
      {"net.solve_request", [&] { net::encode_solve_request(1, sreq); },
       [&] { net::decode_solve_request(payload(sreq_b)); }},
      {"net.solve_response", [&] { net::encode_solve_response(1, sresp); },
       [&] { net::decode_solve_response(payload(sresp_b)); }},
      {"net.refactorize_request",
       [&] { net::encode_refactorize_request(1, rreq); },
       [&] { net::decode_refactorize_request(payload(rreq_b)); }},
      {"net.factorize_request",
       [&] { net::encode_factorize_request(1, freq, cold); },
       [&] { net::decode_factorize_request(payload(freq_b)); }},
      {"net.factorize_response",
       [&] { net::encode_factorize_response(1, fresp); },
       [&] { net::decode_factorize_response(payload(fresp_b)); }},
  };
  for (const Codec& c : codecs) {
    const std::string frame = c.frame;
    rep.layer(frame + ".encode_us", mean_us(kReps, c.encode), "us", kReps);
    rep.layer(frame + ".decode_us", mean_us(kReps, c.decode), "us", kReps);
  }

  // Ordering vs symbolic analysis on the run's own new patterns.
  Series order, symbolic;
  for (const CscMatrix<double>& a : res.logs[0].cold) {
    const spx::Graph g = spx::Graph::from_pattern(a);
    Timer t;
    spx::Ordering ord = spx::nested_dissection(g);
    order.add(t.elapsed());
    t.reset();
    const spx::Analysis an = spx::analyze_ordered(g, std::move(ord), {}, 0);
    symbolic.add(t.elapsed());
  }
  rep.layer("graph.order_ms", 1e3 * order.mean(), "ms", order.count());
  rep.layer("symbolic.analyze_ms", 1e3 * symbolic.mean(), "ms", symbolic.count());

  // Accounting: client latency = queue wait + execution + the net layer's
  // measured work (request encoded by the client and decoded by the shard,
  // answer encoded by the shard and decoded by the client); the rest --
  // socket transfer and event-loop hops -- is unaccounted.
  auto codec_us = [&](const char* request, const char* response) {
    const std::string req(request), resp(response);
    return rep.layers[req + ".encode_us"].value +
           rep.layers[req + ".decode_us"].value +
           rep.layers[resp + ".encode_us"].value +
           rep.layers[resp + ".decode_us"].value;
  };
  const double codec_s =
      1e-6 *
      (codec_us("net.solve_request", "net.solve_response") *
           static_cast<double>(counts[kSolve]) +
       codec_us("net.refactorize_request", "net.factorize_response") *
           static_cast<double>(counts[kRefactorize]) +
       codec_us("net.factorize_request", "net.factorize_response") *
           static_cast<double>(counts[kCold]));
  rep.layer("layers.unaccounted_share",
            1.0 - (accounted_queue_exec + codec_s) / latency_total, "share",
            counts[0] + counts[1] + counts[2]);
}

}  // namespace

Report run_serve(const Args& args) {
  Report rep;
  rep.concurrency("load_threads", kConnections);
  rep.concurrency("connections", kConnections);
  rep.concurrency("service_workers", kServiceWorkers);
  rep.concurrency("runtime_workers", 1);
  std::unique_ptr<TraceSink> sink;
  if (args.trace) sink = std::make_unique<TraceSink>();
  Series setups;
  std::unique_ptr<State> st;
  for (int i = 0; i < kSetups; ++i) {
    st.reset();
    Timer t;
    st = setup(args.seed, sink.get());
    setups.add(t.elapsed());
  }

  if (!args.trace) {
    const RunResult res = run_loop(*st, args.seed, args.seconds, nullptr, rep);
    rep.record["kernel_isa"] = kernel_isa(res);
    const double completed = static_cast<double>(res.completed());
    rep.metric("setup_s", setups.median(), "s", setups.count());
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    rep.metric("gflops", write_flops(res) / res.wall / 1e9, "GFlop/s",
               res.logs[0].write_stats.size());
    rep.metric("ops_per_s", completed / res.wall, "1/s", res.completed());
    const Series solve = latencies(res, kSolve);
    const Series refac = latencies(res, kRefactorize);
    const Series cold = latencies(res, kCold);
    rep.latency_figure("serve.solve_p50_ms", solve, 0.5);
    rep.latency_figure("serve.solve_p99_ms", solve, 0.99);
    rep.latency_figure("serve.refactorize_p50_ms", refac, 0.5);
    rep.latency_figure("serve.refactorize_p95_ms", refac, 0.95);
    rep.latency_figure("serve.cold_factorize_p50_ms", cold, 0.5);
    return rep;
  }

  sink->drain();  // setup's spans are not part of the measured run
  const WireCounters wire0 = WireCounters::of(sink->registry);
  const RunResult res = run_loop(*st, args.seed, args.seconds, sink.get(), rep);
  rep.record["kernel_isa"] = kernel_isa(res);
  sink->drain();
  const WireCounters wire1 = WireCounters::of(sink->registry);
  layer_figures(*st, res,
                {wire1.frames - wire0.frames, wire1.read - wire0.read,
                 wire1.written - wire0.written},
                rep, args.seed);
  const double traced_ops = static_cast<double>(res.completed()) / res.wall;
  st.reset();

  // Untraced pass of half the length on a fresh, untraced server.
  std::unique_ptr<State> plain = setup(args.seed, nullptr);
  const RunResult u = run_loop(*plain, args.seed, args.seconds / 2, nullptr, rep);
  rep.layer("obs.trace_overhead",
            (static_cast<double>(u.completed()) / u.wall) / traced_ops, "ratio",
            res.completed() + u.completed());
  sink->write(args.trace_dir, "serve-" + std::to_string(args.seed));
  return rep;
}

}  // namespace perfbench
