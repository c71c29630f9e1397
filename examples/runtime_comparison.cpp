// Runtime comparison: the paper's experiment in miniature.
//
// Factorizes one matrix under all four execution modes with real threads
// (numerically identical results), then replays the same schedule on the
// simulated 12-core / 3-GPU Mirage node -- the configuration the paper's
// Figures 2 and 4 evaluate.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>

#include "common/cli.hpp"
#include "common/timer.hpp"
#include "core/sim_runner.hpp"
#include "core/solver.hpp"
#include "mat/surrogates.hpp"
#include "obs/export.hpp"
#include "perfmodel/perf_model.hpp"
#include "runtime/flop_costs.hpp"
#include "runtime/parsec_scheduler.hpp"
#include "runtime/real_driver.hpp"

using namespace spx;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::string name = cli.get("matrix", "Flan");
  const double scale = cli.get_double("scale", 0.25);
  const int threads = static_cast<int>(cli.get_int("threads", 4));
  const std::string trace_path = cli.get("trace", "");
  // Calibrated model (bench_calibration output): drives dmda/HEFT ranking
  // in the real runs and grounds the simulated CPU side in measured rates.
  const std::string perf_model = cli.get("perf-model", "");
  // Right-hand sides solved per runtime after factorization; >1 exercises
  // the blocked solve_multi path (GEMM-shaped updates instead of GEMVs).
  const auto nrhs = static_cast<index_t>(cli.get_int("nrhs", 1));
  cli.check_unknown();
  SPX_CHECK_ARG(nrhs >= 1, "--nrhs must be >= 1");

  const SurrogateSpec& spec = surrogate_by_name(name);
  SPX_CHECK_ARG(spec.prec == Precision::D,
                "this example uses the real-precision surrogates");
  const CscMatrix<double> a = build_surrogate_d(spec, scale);
  std::printf("%s surrogate at scale %.2f: %d unknowns\n\n", name.c_str(),
              scale, a.ncols());

  std::printf("--- real execution on this host (%d threads) ---\n",
              threads);
  for (const RuntimeKind rt :
       {RuntimeKind::Sequential, RuntimeKind::Native, RuntimeKind::Starpu,
        RuntimeKind::Parsec}) {
    SolverOptions options;
    options.runtime = rt;
    options.num_threads = threads;
    options.perf_model_file = perf_model;
    Solver<double> solver(options);
    solver.analyze(a);
    solver.factorize(a, spec.method);
    const RunStats& st = solver.last_factorization_stats();
    std::vector<double> block(
        static_cast<std::size_t>(a.ncols()) * static_cast<std::size_t>(nrhs),
        1.0);
    Timer tsolve;
    solver.solve_multi(block, nrhs);
    std::printf("  %-10s %7.3fs  %6.2f GFlop/s   solve x%d: %.4fs\n",
                to_string(rt), st.makespan, st.gflops,
                static_cast<int>(nrhs), tsolve.elapsed());
  }

  if (!trace_path.empty()) {
    // Gantt trace of one real parsec run: open the file in
    // chrome://tracing or Perfetto.
    const Analysis tan = analyze(a);
    FactorData<double> f(tan.structure, spec.method);
    f.initialize(permute_symmetric(a, tan.perm));
    TaskTable table(tan.structure, spec.method);
    Machine machine(threads);
    FlopCosts costs(table);
    ParsecScheduler sched(table, machine, costs);
    obs::Tracer tracer;
    RealDriverOptions dopts;
    dopts.instr.tracer = &tracer;
    execute_real(sched, machine, f, dopts);
    const std::vector<obs::SpanRecord> spans = tracer.snapshot();
    std::ofstream out(trace_path);
    SPX_CHECK_ARG(out.good(), "cannot open trace file " + trace_path);
    obs::write_chrome_trace(spans, out);
    const auto tasks =
        std::count_if(spans.begin(), spans.end(), [](const auto& s) {
          return std::strcmp(s.track, "worker-") == 0;
        });
    std::printf("\nwrote %zu task spans to %s (open in chrome://tracing)\n",
                static_cast<std::size_t>(tasks), trace_path.c_str());
  }

  std::printf("\n--- simulated Mirage node (12 cores, + GPUs) ---\n");
  std::optional<perfmodel::PerfModel> measured;
  if (!perf_model.empty()) {
    std::string err;
    measured = perfmodel::PerfModel::load(perf_model, &err);
    if (!measured) std::fprintf(stderr, "perf model skipped: %s\n", err.c_str());
  }
  AnalysisOptions aopts;
  aopts.symbolic.amalgamation.fill_ratio = 0.12;
  const Analysis an = analyze(a, aopts);
  for (const char* sched : {"native", "starpu", "parsec"}) {
    SimRunConfig cfg;
    cfg.scheduler = sched;
    if (measured) cfg.perf_model = &*measured;
    const RunStats cpu = simulate_run(an, spec.method, cfg);
    std::printf("  %-10s cpu12: %6.2f GFlop/s", sched, cpu.gflops);
    if (std::string(sched) != "native") {
      cfg.gpus = 3;
      cfg.streams_per_gpu = std::string(sched) == "parsec" ? 3 : 1;
      const RunStats gpu = simulate_run(an, spec.method, cfg);
      std::printf("   +3 GPUs: %6.2f GFlop/s (%.2f GB over PCIe)",
                  gpu.gflops, (gpu.bytes_h2d + gpu.bytes_d2h) / 1e9);
    }
    std::printf("\n");
  }
  return 0;
}
