// Reproduction of Figure 2: CPU scaling study.
//
// GFlop/s of the factorization step on the nine-matrix set with the three
// schedulers (native PASTIX, StarPU-like, PaRSEC-like), from 1 to 12
// cores of the simulated Mirage node.  Expected shape (paper §V-A):
//   * the three runtimes are comparable on a shared-memory machine;
//   * PaRSEC >= StarPU as cores increase (cache-reuse policy);
//   * native PASTIX wins on the LDLT matrices (pmlDF, Serena) thanks to
//     its prescaled D*L^T update kernel;
//   * Z-precision matrices show lower GFlop/s at equal hardware.
//
// A second section measures *real* (threaded) execution on a wide,
// small-task surrogate and reports the contention counters from
// RunStats::contention -- each sharded scheduler against the same
// scheduler behind a single global lock (SerializedScheduler), which is
// the pre-sharding baseline.  Skip with --no-real; --threads overrides
// the worker count and --reps the averaging (single runs are noisy when
// workers oversubscribe the hardware cores).
#include <algorithm>
#include <memory>
#include <optional>
#include <thread>

#include "bench_common.hpp"
#include "perfmodel/perf_model.hpp"
#include "core/factor_data.hpp"
#include "graph/ordering.hpp"
#include "mat/generators.hpp"
#include "runtime/dag_stats.hpp"
#include "runtime/flop_costs.hpp"
#include "runtime/native_scheduler.hpp"
#include "runtime/parsec_scheduler.hpp"
#include "runtime/real_driver.hpp"
#include "runtime/serialized_scheduler.hpp"
#include "runtime/starpu_scheduler.hpp"

using namespace spx;
using namespace spx::bench;

namespace {

/// Rep-averaged metrics for one scheduler configuration; single runs are
/// preemption-noise-dominated when workers outnumber hardware cores.
struct ContentionRow {
  double makespan = 0.0;
  double gflops = 0.0;
  double lock_share = 0.0;
  double idle_share = 0.0;
  double steals = 0.0;
  double depth = 0.0;
  int reps = 0;

  void add(const RunStats& st, double gflop) {
    const auto& c = st.contention;
    makespan += st.makespan;
    gflops += gflop / st.makespan;
    lock_share += 100.0 * c.lock_wait_share(st.makespan);
    idle_share += 100.0 * c.idle_share(st.makespan);
    steals += static_cast<double>(c.total_steals());
    depth += c.avg_queue_depth();
    ++reps;
  }
};

void print_contention_row(const char* name, const ContentionRow& r) {
  const double n = std::max(1, r.reps);
  std::printf("%-18s %9.3f %8.2f %9.2f%% %8.2f%% %8.0f %10.1f\n", name,
              r.makespan / n, r.gflops / n, r.lock_share / n,
              r.idle_share / n, r.steals / n, r.depth / n);
}

/// One threaded factorization; rebuilds the factor values each run so
/// every configuration does identical numerical work.
RunStats real_run(Scheduler& sched, const Machine& machine,
                  const CscMatrix<real_t>& a, const Analysis& an) {
  FactorData<real_t> f(an.structure, Factorization::LLT);
  f.initialize(permute_symmetric(a, an.perm));
  return execute_real(sched, machine, f, RealDriverOptions{});
}

void real_contention_section(int threads, int reps) {
  // Same surrogate as the RuntimeStress tests: narrow panels make the DAG
  // wide and the tasks small, the regime where scheduler-lock contention
  // dominates (ISSUE: the 200us polling loop used to hide this).
  const auto a = gen::grid3d_laplacian(12, 12, 12);
  AnalysisOptions aopts;
  aopts.symbolic.max_panel_width = 4;
  const Analysis an = analyze(a, aopts);
  TaskTable table(an.structure, Factorization::LLT);
  FlopCosts costs(table);
  const double gflop = an.total_flops(Factorization::LLT) / 1e9;
  const DagStats dag =
      dag_stats(an.structure, costs, Decomposition::TwoLevel);
  const Machine machine(threads);

  std::printf(
      "\nReal-execution contention: 12^3 Laplacian, 4-wide panels "
      "(%d panels, %d tasks, peak DAG width %d), %d threads, "
      "%d-rep averages\n",
      static_cast<int>(an.structure.num_panels()),
      static_cast<int>(dag.num_tasks), static_cast<int>(dag.peak_width),
      threads, reps);
  std::printf(
      "each scheduler sharded (as shipped) vs the same scheduler behind "
      "one global lock\n");
  print_rule(78);
  std::printf("%-18s %9s %8s %10s %9s %8s %10s\n", "sched", "mksp(s)",
              "GFlop/s", "lock-wait", "idle", "steals", "avg-depth");
  print_rule(78);

  const char* names[] = {"native", "starpu-dmda", "starpu-eager",
                         "parsec"};
  for (const char* name : names) {
    auto make = [&]() -> std::unique_ptr<Scheduler> {
      const std::string n = name;
      if (n == "native") {
        return std::make_unique<NativeScheduler>(table, machine, costs);
      }
      if (n == "starpu-eager") {
        StarpuOptions opts;
        opts.policy = StarpuOptions::Policy::Eager;
        return std::make_unique<StarpuScheduler>(table, machine, costs,
                                                 opts);
      }
      if (n == "starpu-dmda") {
        return std::make_unique<StarpuScheduler>(table, machine, costs);
      }
      return std::make_unique<ParsecScheduler>(table, machine, costs);
    };
    ContentionRow sharded, locked;
    for (int rep = 0; rep < reps; ++rep) {
      {
        auto sched = make();
        sharded.add(real_run(*sched, machine, a, an), gflop);
      }
      {
        auto inner = make();
        SerializedScheduler sched(*inner, machine.num_resources());
        locked.add(real_run(sched, machine, a, an), gflop);
      }
    }
    print_contention_row(name, sharded);
    const std::string label = std::string(name) + "+lock";
    print_contention_row(label.c_str(), locked);
  }
  print_rule(78);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 1.0);
  const std::string only = cli.get("matrix", "");
  const bool no_real = cli.get_flag("no-real");
  const int threads = static_cast<int>(cli.get_int(
      "threads",
      std::max(4, static_cast<int>(std::thread::hardware_concurrency()))));
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  // Calibrated model: grounds the simulated CPU task times in measured
  // rates (the scaling *shape* is scheduler-driven either way).
  const std::string perf_model_file = cli.get("perf-model", "");
  cli.check_unknown();

  std::optional<perfmodel::PerfModel> measured;
  if (!perf_model_file.empty()) {
    std::string err;
    measured = perfmodel::PerfModel::load(perf_model_file, &err);
    if (!measured) {
      std::fprintf(stderr, "perf model skipped: %s\n", err.c_str());
    }
  }

  const auto matrices = load_matrices(scale, only);
  const int core_counts[] = {1, 3, 6, 9, 12};
  const char* scheds[] = {"native", "starpu", "parsec"};

  std::printf(
      "Figure 2: GFlop/s of the factorization step vs cores "
      "(simulated Mirage node)\n");
  print_rule(96);
  std::printf("%-22s %-8s", "matrix", "sched");
  for (const int c : core_counts) std::printf(" %8dc", c);
  std::printf("  %8s\n", "par.eff");
  print_rule(96);

  for (const BenchMatrix& m : matrices) {
    for (const char* sched : scheds) {
      std::printf("%-22s %-8s", label(m.spec).c_str(), sched);
      double first = 0.0, last = 0.0;
      for (const int c : core_counts) {
        SimRunConfig cfg;
        cfg.scheduler = sched;
        cfg.cores = c;
        cfg.complex_arith = m.complex_arith();
        if (measured && !m.complex_arith()) cfg.perf_model = &*measured;
        const RunStats st = simulate_run(m.analysis, m.spec.method, cfg);
        std::printf(" %9.2f", st.gflops);
        if (c == core_counts[0]) first = st.gflops;
        last = st.gflops;
      }
      // Parallel efficiency at 12 cores relative to 1 core.
      std::printf("  %7.1f%%\n", 100.0 * last / (12.0 * first));
    }
    print_rule(96);
  }

  if (!no_real) real_contention_section(threads, reps);
  return 0;
}
