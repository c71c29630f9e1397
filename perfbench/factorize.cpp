// Workload `factorize`: the paper's own measurement.  Fresh
// Solver::factorize of three Table I surrogates at scale 0.2 -- Geo1438
// (LL^T), HOOK (LU), Serena (LDL^T), 37.5 GFlop per matrix cycle -- with
// the runtime rotating Native -> StarPU -> PaRSEC on four worker threads.
// One caller, closed loop.  Analysis is setup; every op allocates a new
// FactorData.  Throughput is total flops over total timed seconds: a
// whole-run aggregate averages over the host's speed modes, where a
// per-op median of this mixed stream would jump between them.
#include <algorithm>
#include <cstring>
#include <memory>

#include "bench.hpp"
#include "common/timer.hpp"
#include "core/solver.hpp"
#include "mat/surrogates.hpp"

namespace perfbench {
namespace {

using spx::Factorization;
using spx::RuntimeKind;
using spx::Timer;

constexpr double kScale = 0.2;
constexpr const char* kMatrices[] = {"Geo1438", "HOOK", "Serena"};
constexpr RuntimeKind kRuntimes[] = {RuntimeKind::Native, RuntimeKind::Starpu,
                                     RuntimeKind::Parsec};
constexpr int kSetups = 3;
constexpr int kWorkers = 4;

struct Case {
  const char* name = "";
  Factorization kind = Factorization::LLT;
  spx::CscMatrix<double> a;
  std::unique_ptr<spx::Solver<double>> solver;
  double flops = 0;
};

struct State {
  std::vector<Case> cases;
  std::vector<int> matrix_order;   ///< seeded cycle order of the matrices
  std::vector<int> runtime_order;  ///< seeded rotation of the runtimes
};

int worker_threads() { return std::min(kWorkers, nproc()); }

/// Summed duration (seconds) and count of the spans named `name`.
struct SpanSum {
  double seconds = 0;
  std::size_t count = 0;
};

SpanSum sum_spans(const std::vector<spx::obs::SpanRecord>& spans,
                  const char* name) {
  SpanSum s;
  for (const spx::obs::SpanRecord& r : spans) {
    if (std::strcmp(r.name, name) == 0) {
      s.seconds += r.end - r.start;
      ++s.count;
    }
  }
  return s;
}

State setup(std::uint64_t seed) {
  spx::Rng rng(seed);
  State st;
  st.matrix_order = shuffled(3, rng);
  st.runtime_order = shuffled(3, rng);
  for (const char* name : kMatrices) {
    const spx::SurrogateSpec& spec = spx::surrogate_by_name(name);
    Case c;
    c.name = name;
    c.kind = spec.method;
    c.a = spx::build_surrogate_d(spec, kScale);
    lift_diagonal(c.a, rng, 1e-3);
    spx::SolverOptions opts;
    opts.num_threads = worker_threads();
    c.solver = std::make_unique<spx::Solver<double>>(opts);
    c.solver->analyze(c.a);
    c.flops = c.solver->analysis().total_flops(c.kind);
    st.cases.push_back(std::move(c));
  }
  // Warm-up: one factorization per matrix under each runtime in turn.
  for (std::size_t i = 0; i < st.cases.size(); ++i) {
    Case& c = st.cases[i];
    c.solver->options().runtime = kRuntimes[i];
    c.solver->factorize(c.a, c.kind);
  }
  return st;
}

/// One timed op and its check.  Results of a whole loop are summed here.
struct Totals {
  double flops = 0;
  double seconds = 0;
  std::size_t ops = 0;
  // Traced-run accumulators.
  double makespan_workers = 0;  ///< sum of makespan x workers
  double idle = 0, lock = 0;
  double steals = 0;
  double overhead = 0;  ///< factorize wall - makespan
  double runtime_flops[3] = {0, 0, 0};
  double runtime_seconds[3] = {0, 0, 0};
  double geo_flops = 0, geo_seconds = 0;
  double panel_s = 0, update_s = 0, subtree_s = 0;
  double update_tasks = 0;
};

/// Runs whole matrix cycles until `seconds` have passed.  Cycle c gives
/// the matrix at position p the runtime (p + c) mod 3, so every cycle
/// holds each matrix and each runtime exactly once.
Totals run_loop(State& st, double seconds, std::uint64_t seed, Report& rep,
                TraceSink* sink) {
  spx::Rng rhs_rng(seed ^ 0x5eedf00dULL);
  Totals t;
  Timer run;
  for (int cycle = 0; run.elapsed() < seconds; ++cycle) {
    for (int p = 0; p < 3; ++p) {
      const int m = st.matrix_order[static_cast<std::size_t>(p)];
      const int r = st.runtime_order[static_cast<std::size_t>((p + cycle) % 3)];
      Case& c = st.cases[static_cast<std::size_t>(m)];
      c.solver->options().runtime = kRuntimes[r];
      spx::obs::ScopedSpan req;
      if (sink != nullptr) {
        req = spx::obs::ScopedSpan(&sink->tracer, "bench.factorize", "bench-",
                                   {}, 0, static_cast<std::int64_t>(t.ops));
        c.solver->options().instr.parent = req.context();
      }
      bool ok = true;
      double dt = 0;
      Timer timer;
      try {
        c.solver->factorize(c.a, c.kind);
        dt = timer.elapsed();
      } catch (const std::exception&) {
        ok = false;
      }
      req.finish();
      // Check, outside the timed region: one seeded solve.
      if (ok) {
        const std::vector<double> b =
            random_vector(static_cast<std::size_t>(c.a.nrows()), rhs_rng);
        std::vector<double> x = b;
        try {
          c.solver->solve(x);
          ok = backward_error(c.a, x, b) <= kMaxBackwardError;
        } catch (const std::exception&) {
          ok = false;
        }
      }
      rep.outcome("factorize", ok);
      if (!ok) continue;
      t.flops += c.flops;
      t.seconds += dt;
      ++t.ops;
      t.runtime_flops[r] += c.flops;
      t.runtime_seconds[r] += dt;
      if (m == 0) {
        t.geo_flops += c.flops;
        t.geo_seconds += dt;
      }
      if (sink != nullptr) {
        const spx::RunStats& rs = c.solver->last_factorization_stats();
        const auto workers = static_cast<double>(rs.busy.size());
        t.makespan_workers += rs.makespan * workers;
        t.idle += rs.contention.total_idle_wait();
        t.lock += rs.contention.total_lock_wait();
        t.steals += static_cast<double>(rs.contention.total_steals());
        t.overhead += dt - rs.makespan;
        const std::vector<spx::obs::SpanRecord> spans = sink->drain();
        const SpanSum panel = sum_spans(spans, "panel");
        const SpanSum update = sum_spans(spans, "update");
        const SpanSum subtree = sum_spans(spans, "subtree");
        t.panel_s += panel.seconds;
        t.update_s += update.seconds;
        t.subtree_s += subtree.seconds;
        t.update_tasks += static_cast<double>(update.count);
      }
    }
  }
  return t;
}

}  // namespace

Report run_factorize(const Args& args) {
  Report rep;
  rep.concurrency("caller_threads", 1);
  rep.concurrency("runtime_workers", worker_threads());
  Series setups;
  std::unique_ptr<State> st;
  for (int i = 0; i < kSetups; ++i) {
    st.reset();  // the previous setup's factors go before the next is built
    Timer t;
    st = std::make_unique<State>(setup(args.seed));
    setups.add(t.elapsed());
  }
  rep.record["kernel_isa"] =
      st->cases[0].solver->last_factorization_stats().kernel_isa;

  if (!args.trace) {
    const Totals t = run_loop(*st, args.seconds, args.seed, rep, nullptr);
    rep.metric("setup_s", setups.median(), "s", setups.count());
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    rep.metric("gflops", t.flops / t.seconds / 1e9, "GFlop/s", t.ops);
    rep.metric("ops_per_s", static_cast<double>(t.ops) / t.seconds, "1/s",
               t.ops);
    return rep;
  }

  // Traced run: spans of the program's solver/driver/worker layers under
  // one benchmark request span per op, RunStats for the runtime's waits.
  TraceSink sink;
  for (Case& c : st->cases) {
    c.solver->options().instr.tracer = &sink.tracer;
    c.solver->options().instr.metrics = &sink.registry;
  }
  const Totals t = run_loop(*st, args.seconds, args.seed, rep, &sink);
  for (Case& c : st->cases) c.solver->options().instr = {};
  const auto ops = static_cast<double>(t.ops);
  const double traced_gflops = t.flops / t.seconds / 1e9;
  rep.layer("kernels.panel_ms_per_op", 1e3 * t.panel_s / ops, "ms", t.ops);
  rep.layer("kernels.update_ms_per_op", 1e3 * t.update_s / ops, "ms", t.ops);
  rep.layer("kernels.subtree_ms_per_op", 1e3 * t.subtree_s / ops, "ms", t.ops);
  rep.layer("kernels.update_tasks_per_op", t.update_tasks / ops, "count",
            t.ops);
  rep.layer("runtime.idle_share", t.idle / t.makespan_workers, "share", t.ops);
  rep.layer("runtime.lock_wait_share", t.lock / t.makespan_workers, "share",
            t.ops);
  rep.layer("runtime.steals_per_op", t.steals / ops, "count", t.ops);
  const char* runtime_names[] = {"runtime.native.gflops",
                                 "runtime.starpu.gflops",
                                 "runtime.parsec.gflops"};
  for (int r = 0; r < 3; ++r) {
    rep.layer(runtime_names[r],
              t.runtime_seconds[r] > 0
                  ? t.runtime_flops[r] / t.runtime_seconds[r] / 1e9
                  : 0.0,
              "GFlop/s", t.ops / 3);
  }
  rep.layer("core.factorize_overhead_ms", 1e3 * t.overhead / ops, "ms", t.ops);

  // Single-thread baseline on Geo1438: the plain sequential loop.
  Case& geo = st->cases[0];
  geo.solver->options().runtime = RuntimeKind::Sequential;
  Timer seq_timer;
  geo.solver->factorize(geo.a, geo.kind);
  const double seq_gflops = geo.flops / seq_timer.elapsed() / 1e9;
  rep.layer("runtime.sequential.gflops", seq_gflops, "GFlop/s", 1);
  rep.layer("runtime.parallel_efficiency",
            t.geo_seconds > 0 ? (t.geo_flops / t.geo_seconds / 1e9) /
                                    (worker_threads() * seq_gflops)
                              : 0.0,
            "share", t.ops / 3);

  // Accounting: per op, core overhead (wall - makespan) plus the
  // makespan's worker-seconds split into kernel spans and idle waits,
  // divided by the worker count.  Lock waits are not added: RunStats sums
  // the per-panel lock waits, which happen inside the kernel spans, with
  // the scheduler-queue waits, which stay in the remainder.
  const double accounted =
      t.overhead + (t.panel_s + t.update_s + t.subtree_s + t.idle) *
                       (t.seconds - t.overhead) / t.makespan_workers;
  rep.layer("layers.unaccounted_share", 1.0 - accounted / t.seconds, "share",
            t.ops);

  // Untraced pass of half the length for the tracing overhead.
  const Totals u = run_loop(*st, args.seconds / 2, args.seed, rep, nullptr);
  const double untraced_gflops = u.flops / u.seconds / 1e9;
  rep.layer("obs.trace_overhead", untraced_gflops / traced_gflops, "ratio",
            t.ops + u.ops);
  sink.write(args.trace_dir, "factorize-" + std::to_string(args.seed));
  return rep;
}

}  // namespace perfbench
