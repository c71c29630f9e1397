// Workload `solve`: repeated solves on resident factors -- the
// steady-state serving traffic.  The same three surrogates as `factorize`
// at scale 0.05 (L+U of 7-16 MB); each round calls, per matrix, solve
// (nrhs 1) 24 times, solve_multi at nrhs 8 four times and at nrhs 64
// once, in a seeded order with seeded right-hand sides.  The call counts
// give each nrhs a similar share of the run.  One caller, closed loop;
// the runtime and the factorization kernels are absent.
#include <algorithm>
#include <array>
#include <memory>

#include "bench.hpp"
#include "common/timer.hpp"
#include "core/solver.hpp"
#include "mat/surrogates.hpp"

namespace perfbench {
namespace {

using spx::Factorization;
using spx::Timer;

constexpr double kScale = 0.05;
constexpr const char* kMatrices[] = {"Geo1438", "HOOK", "Serena"};
constexpr std::array<spx::index_t, 3> kNrhs = {1, 8, 64};
constexpr std::array<int, 3> kCallsPerRound = {24, 4, 1};
constexpr int kSetups = 5;
constexpr int kFactorThreads = 4;

struct Case {
  const char* name = "";
  Factorization kind = Factorization::LLT;
  spx::CscMatrix<double> a;
  std::unique_ptr<spx::Solver<double>> solver;
  double flops_per_rhs = 0;   ///< computed: 4 x factor entries (+n for D)
  double bytes_per_call = 0;  ///< computed: factor read forward + backward
};

struct Call {
  int matrix = 0;
  int nrhs_index = 0;
};

struct State {
  std::vector<Case> cases;
  std::vector<Call> round;  ///< seeded call order of one round
};

State setup(std::uint64_t seed) {
  spx::Rng rng(seed);
  State st;
  for (const char* name : kMatrices) {
    const spx::SurrogateSpec& spec = spx::surrogate_by_name(name);
    Case c;
    c.name = name;
    c.kind = spec.method;
    c.a = spx::build_surrogate_d(spec, kScale);
    lift_diagonal(c.a, rng, 1e-3);
    spx::SolverOptions opts;
    opts.num_threads = std::min(kFactorThreads, nproc());
    c.solver = std::make_unique<spx::Solver<double>>(opts);
    c.solver->analyze(c.a);
    c.solver->factorize(c.a, c.kind);
    const double entries =
        static_cast<double>(c.solver->analysis().structure.factor_entries);
    const double n = static_cast<double>(c.a.nrows());
    c.flops_per_rhs = 4.0 * entries + (c.kind == Factorization::LDLT ? n : 0);
    c.bytes_per_call = 2.0 * entries * sizeof(double);
    st.cases.push_back(std::move(c));
  }
  std::vector<Call> calls;
  for (int m = 0; m < 3; ++m) {
    for (int k = 0; k < 3; ++k) {
      for (int i = 0; i < kCallsPerRound[static_cast<std::size_t>(k)]; ++i) {
        calls.push_back({m, k});
      }
    }
  }
  for (const int i : shuffled(static_cast<int>(calls.size()), rng)) {
    st.round.push_back(calls[static_cast<std::size_t>(i)]);
  }
  // Warm-up: one call per (matrix, nrhs).
  for (Case& c : st.cases) {
    for (const spx::index_t nrhs : kNrhs) {
      std::vector<double> b(static_cast<std::size_t>(c.a.nrows() * nrhs), 1.0);
      c.solver->solve_multi(b, nrhs);
    }
  }
  return st;
}

struct Totals {
  std::array<double, 3> seconds{};  ///< per nrhs class, summed over calls
  std::array<std::size_t, 3> calls{};
  double flops = 0;
  double bytes = 0;
  /// Per (matrix, nrhs) call counts, for the traced accounting.
  std::array<std::array<std::size_t, 3>, 3> mix{};

  double total_seconds() const { return seconds[0] + seconds[1] + seconds[2]; }
  std::size_t total_calls() const { return calls[0] + calls[1] + calls[2]; }
};

/// Whole rounds until `seconds` have passed.
Totals run_loop(State& st, double seconds, std::uint64_t seed, Report& rep,
                TraceSink* sink) {
  spx::Rng rhs_rng(seed ^ 0x501fe5ULL);
  Totals t;
  Timer run;
  while (run.elapsed() < seconds) {
    for (const Call& call : st.round) {
      Case& c = st.cases[static_cast<std::size_t>(call.matrix)];
      const auto k = static_cast<std::size_t>(call.nrhs_index);
      const spx::index_t nrhs = kNrhs[k];
      const auto n = static_cast<std::size_t>(c.a.nrows());
      const std::vector<double> b =
          random_vector(n * static_cast<std::size_t>(nrhs), rhs_rng);
      std::vector<double> x = b;
      spx::obs::ScopedSpan req;
      if (sink != nullptr) {
        req = spx::obs::ScopedSpan(&sink->tracer, "bench.solve", "bench-", {},
                                   0, call.matrix, nrhs);
        c.solver->options().instr.parent = req.context();
      }
      bool ok = true;
      double dt = 0;
      Timer timer;
      try {
        if (nrhs == 1) {
          c.solver->solve(x);
        } else {
          c.solver->solve_multi(x, nrhs);
        }
        dt = timer.elapsed();
      } catch (const std::exception&) {
        ok = false;
      }
      req.finish();
      // Check every column, outside the timed region.
      for (std::size_t col = 0; ok && col < static_cast<std::size_t>(nrhs);
           ++col) {
        ok = backward_error(c.a, std::span<const double>(x).subspan(col * n, n),
                            std::span<const double>(b).subspan(col * n, n)) <=
             kMaxBackwardError;
      }
      rep.outcome("solve" + std::to_string(nrhs), ok);
      if (!ok) continue;
      t.seconds[k] += dt;
      ++t.calls[k];
      t.flops += c.flops_per_rhs * static_cast<double>(nrhs);
      t.bytes += c.bytes_per_call;
      ++t.mix[static_cast<std::size_t>(call.matrix)][k];
    }
  }
  if (sink != nullptr) sink->drain();
  return t;
}

/// Phase times (seconds per call) of one (matrix, nrhs): the public
/// solve_* kernels on Solver::factor_data(), plus the permutations.
struct Phases {
  double forward = 0, diagonal = 0, backward = 0, permute = 0;
  double total() const { return forward + diagonal + backward + permute; }
};

Phases time_phases(const Case& c, spx::index_t nrhs, int reps,
                   spx::Rng& rng) {
  const spx::FactorData<double>& f = c.solver->factor_data();
  const spx::Ordering& perm = c.solver->analysis().perm;
  const auto n = static_cast<std::size_t>(c.a.nrows());
  Phases p;
  for (int r = 0; r < reps; ++r) {
    std::vector<double> b = random_vector(n * static_cast<std::size_t>(nrhs), rng);
    std::vector<double> pb(b.size());
    Timer t;
    for (std::size_t col = 0; col < static_cast<std::size_t>(nrhs); ++col) {
      spx::permute_vector<double>(
          perm, std::span<const double>(b).subspan(col * n, n),
          std::span<double>(pb).subspan(col * n, n));
    }
    p.permute += t.elapsed();
    t.reset();
    if (nrhs == 1) {
      spx::solve_forward(f, std::span<double>(pb));
    } else {
      spx::solve_forward_multi(f, pb.data(), nrhs, static_cast<spx::index_t>(n));
    }
    p.forward += t.elapsed();
    if (c.kind == Factorization::LDLT) {
      t.reset();
      if (nrhs == 1) {
        spx::solve_diagonal(f, std::span<double>(pb));
      } else {
        spx::solve_diagonal_multi(f, pb.data(), nrhs,
                                  static_cast<spx::index_t>(n));
      }
      p.diagonal += t.elapsed();
    }
    t.reset();
    if (nrhs == 1) {
      spx::solve_backward(f, std::span<double>(pb));
    } else {
      spx::solve_backward_multi(f, pb.data(), nrhs,
                                static_cast<spx::index_t>(n));
    }
    p.backward += t.elapsed();
    t.reset();
    for (std::size_t col = 0; col < static_cast<std::size_t>(nrhs); ++col) {
      spx::unpermute_vector<double>(
          perm, std::span<const double>(pb).subspan(col * n, n),
          std::span<double>(b).subspan(col * n, n));
    }
    p.permute += t.elapsed();
  }
  p.forward /= reps;
  p.diagonal /= reps;
  p.backward /= reps;
  p.permute /= reps;
  return p;
}

}  // namespace

Report run_solve(const Args& args) {
  Report rep;
  rep.concurrency("caller_threads", 1);
  rep.concurrency("setup_factor_workers", std::min(kFactorThreads, nproc()));
  Series setups;
  std::unique_ptr<State> st;
  for (int i = 0; i < kSetups; ++i) {
    st.reset();
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
    rep.metric("gflops", t.flops / t.total_seconds() / 1e9, "GFlop/s",
               t.total_calls());
    rep.metric("ops_per_s",
               static_cast<double>(t.total_calls()) / t.total_seconds(), "1/s",
               t.total_calls());
    const char* names[] = {"solve.solve1_per_s", "solve.solve8_per_s",
                           "solve.solve64_per_s"};
    for (std::size_t k = 0; k < 3; ++k) {
      rep.figure(names[k], static_cast<double>(t.calls[k]) / t.seconds[k],
                 "1/s", t.calls[k]);
    }
    return rep;
  }

  TraceSink sink;
  for (Case& c : st->cases) {
    c.solver->options().instr.tracer = &sink.tracer;
    c.solver->options().instr.metrics = &sink.registry;
  }
  const Totals t = run_loop(*st, args.seconds, args.seed, rep, &sink);
  for (Case& c : st->cases) c.solver->options().instr = {};

  // Phase split by timed public calls, per (matrix, nrhs).
  spx::Rng rng(args.seed ^ 0xfa5e5ULL);
  std::array<std::array<Phases, 3>, 3> phases{};
  for (std::size_t m = 0; m < 3; ++m) {
    for (std::size_t k = 0; k < 3; ++k) {
      phases[m][k] = time_phases(st->cases[m], kNrhs[k], k == 2 ? 3 : 10, rng);
    }
  }
  double estimated = 0;
  for (std::size_t k = 0; k < 3; ++k) {
    Phases mean;
    for (std::size_t m = 0; m < 3; ++m) {
      mean.forward += phases[m][k].forward / 3;
      mean.diagonal += phases[m][k].diagonal / 3;
      mean.backward += phases[m][k].backward / 3;
      mean.permute += phases[m][k].permute / 3;
      estimated += phases[m][k].total() * static_cast<double>(t.mix[m][k]);
    }
    const std::string prefix = "core.solve" + std::to_string(kNrhs[k]);
    rep.layer(prefix + ".forward_ms", 1e3 * mean.forward, "ms", 3);
    rep.layer(prefix + ".diagonal_ms", 1e3 * mean.diagonal, "ms", 3);
    rep.layer(prefix + ".backward_ms", 1e3 * mean.backward, "ms", 3);
    rep.layer(prefix + ".permute_ms", 1e3 * mean.permute, "ms", 3);
  }
  rep.layer("core.solve_gbytes_per_s", t.bytes / t.total_seconds() / 1e9,
            "GB/s", t.total_calls());
  rep.layer("layers.unaccounted_share", 1.0 - estimated / t.total_seconds(),
            "share", t.total_calls());

  // Untraced pass of half the length for the tracing overhead.
  const Totals u = run_loop(*st, args.seconds / 2, args.seed, rep, nullptr);
  rep.layer("obs.trace_overhead",
            (u.flops / u.total_seconds()) / (t.flops / t.total_seconds()),
            "ratio", t.total_calls() + u.total_calls());
  sink.write(args.trace_dir, "solve-" + std::to_string(args.seed));
  return rep;
}

}  // namespace perfbench
