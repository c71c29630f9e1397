// Performance-model calibration driver (docs/PERF_MODELS.md).
//
// Runs the microbenchmark grid against this host's kernels, persists the
// fitted model as versioned JSON, reloads it (exercising the round-trip
// the solver performs), then validates it twice:
//   1. holdout: off-grid kernel shapes measured with the calibration
//      harness and compared against the fitted predictions -- the
//      acceptance bar is a median |predicted - actual| / actual within
//      25% for the panel (factor + TRSM) and GEMM kernel classes;
//   2. end-to-end: real factorizations of the paper's surrogate matrices
//      report per-task-class medians, first from the fitted tables alone,
//      then again after online refinement has populated the history
//      layer.  These fold in scheduler/interference noise and are
//      reported as supplementary data (no gate).
//
//   bench/bench_calibration --out models/myhost.json --scale 0.15
//   bench/bench_calibration --quick        # CI smoke (coarse grid)
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/solver.hpp"
#include "perfmodel/calibrate.hpp"
#include "perfmodel/calibrated_costs.hpp"

using namespace spx;
using namespace spx::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::string out = cli.get("out", "perf_model.json");
  const bool quick = cli.get_flag("quick");
  const double scale = cli.get_double("scale", quick ? 0.08 : 0.15);
  const int threads = static_cast<int>(cli.get_int("threads", 0));
  const std::string host = cli.get("host", "host");
  const std::string only = cli.get("matrix", "");
  cli.check_unknown();

  // 1. Calibrate and persist.
  perfmodel::CalibrationOptions copts;
  copts.quick = quick;
  copts.host = host;
  Timer cal_timer;
  perfmodel::PerfModel model = perfmodel::calibrate_kernels(copts);
  std::size_t points = 0;
  for (int c = 0; c < perfmodel::kNumKernelClasses; ++c) {
    for (const ResourceKind kind :
         {ResourceKind::Cpu, ResourceKind::GpuStream}) {
      const perfmodel::KernelTable* t =
          model.table(static_cast<perfmodel::KernelClass>(c), kind);
      if (t != nullptr) points += t->points().size();
    }
  }
  std::printf("calibrated %zu grid points in %.1fs; saving to %s\n", points,
              cal_timer.elapsed(), out.c_str());
  model.save(out);

  // 2. Reload, as the solver would.
  std::string error;
  const auto reloaded = perfmodel::PerfModel::load(out, &error);
  if (!reloaded) {
    std::fprintf(stderr, "reload failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("reload OK (host '%s')\n\n", reloaded->host().c_str());

  // 3. Holdout validation at kernel granularity: measure shapes the grid
  // never saw with the same harness and compare against the fitted
  // predictions.  This isolates the tables' interpolation quality -- the
  // acceptance bar -- from scheduler/driver noise, which the task-level
  // section below reports separately.
  struct Holdout {
    perfmodel::KernelClass cls;
    perfmodel::KernelShape shape;
  };
  const std::vector<Holdout> holdouts = {
      {perfmodel::KernelClass::Potrf, {24, 24, 24}},
      {perfmodel::KernelClass::Potrf, {40, 40, 40}},
      {perfmodel::KernelClass::Potrf, {80, 80, 80}},
      {perfmodel::KernelClass::Ldlt, {48, 48, 48}},
      {perfmodel::KernelClass::Ldlt, {112, 112, 112}},
      {perfmodel::KernelClass::Getrf, {24, 24, 24}},
      {perfmodel::KernelClass::Getrf, {112, 112, 112}},
      {perfmodel::KernelClass::TrsmPanel, {96, 24, 24}},
      {perfmodel::KernelClass::TrsmPanel, {160, 40, 40}},
      {perfmodel::KernelClass::TrsmPanel, {320, 48, 48}},
      {perfmodel::KernelClass::TrsmPanel, {512, 80, 80}},
      {perfmodel::KernelClass::TrsmPanel, {900, 96, 96}},
      {perfmodel::KernelClass::GemmNt, {48, 24, 24}},
      {perfmodel::KernelClass::GemmNt, {96, 48, 32}},
      {perfmodel::KernelClass::GemmNt, {160, 80, 48}},
      {perfmodel::KernelClass::GemmNt, {256, 128, 64}},
      {perfmodel::KernelClass::GemmNt, {512, 24, 48}},
      {perfmodel::KernelClass::GemmNt, {700, 12, 96}},
      {perfmodel::KernelClass::GemmNt, {320, 160, 80}},
      {perfmodel::KernelClass::GemmNtGapped, {160, 80, 48}},
      {perfmodel::KernelClass::GemmNtGapped, {256, 128, 64}},
      {perfmodel::KernelClass::GemmNtGapped, {700, 12, 96}},
      {perfmodel::KernelClass::Scatter, {128, 48, 0}},
      {perfmodel::KernelClass::Scatter, {640, 96, 0}},
  };
  std::printf("holdout (off-grid shapes, kernel granularity):\n");
  std::printf("%-14s %5s %5s %5s | %11s %11s %7s\n", "kernel", "m", "n",
              "k", "measured", "predicted", "err");
  print_rule(70);
  std::vector<double> panel_err, gemm_err;
  for (const Holdout& h : holdouts) {
    const perfmodel::CalPoint mp = perfmodel::measure_point(h.cls, h.shape,
                                                            copts);
    const double actual = mp.work / mp.rate;
    double predicted = 0.0;
    if (!model.kernel_seconds(h.cls, ResourceKind::Cpu, h.shape,
                              &predicted)) {
      continue;
    }
    const double err = std::abs(predicted - actual) / actual;
    switch (h.cls) {
      case perfmodel::KernelClass::GemmNt:
      case perfmodel::KernelClass::GemmNtGapped:
        gemm_err.push_back(err);
        break;
      case perfmodel::KernelClass::Scatter:
        break;  // reported but not gating: tiny share of task time
      default:
        panel_err.push_back(err);
    }
    std::printf("%-14s %5.0f %5.0f %5.0f | %9.2fus %9.2fus %6.1f%%\n",
                perfmodel::to_string(h.cls), h.shape.m, h.shape.n,
                h.shape.k, 1e6 * actual, 1e6 * predicted, 100.0 * err);
  }
  print_rule(70);
  // The acceptance metric: per-class holdout medians for the panel
  // (factor + TRSM) and GEMM kernels, free of scheduler interference.
  const double hold_panel = ModelErrorStats::median(panel_err);
  const double hold_gemm = ModelErrorStats::median(gemm_err);
  const bool hold_ok = hold_panel <= 0.25 && hold_gemm <= 0.25;
  std::printf("holdout median |err|: panel-kernels %.1f%%, gemm %.1f%% "
              "%s\n\n",
              100.0 * hold_panel, 100.0 * hold_gemm,
              hold_ok ? "(within the 25% target)"
                      : "(ABOVE the 25% target)");

  // 4. Validate against real factorizations.  Pass 1 predicts from the
  // fitted kernel tables alone; pass 2 re-runs after online refinement has
  // filled the history layer, which should only tighten the error.
  std::printf("%-22s %-5s pass | %9s %7s %16s %16s\n", "matrix", "kind",
              "tasks", "cover", "panel(|e|/bias)", "update(|e|/bias)");
  print_rule(88);
  std::vector<double> pass1_panel, pass1_update;
  for (const SurrogateSpec& spec : paper_surrogates()) {
    if (spec.prec != Precision::D) continue;
    if (!only.empty() && spec.name != only) continue;
    const auto a = build_surrogate_d(spec, scale);
    SolverOptions sopts;
    sopts.runtime = RuntimeKind::Starpu;  // dmda consumes the model
    sopts.num_threads = threads;
    sopts.perf_model_file = out;
    sopts.analysis.symbolic.amalgamation.fill_ratio = 0.12;
    sopts.analysis.symbolic.max_panel_width = 128;
    Solver<double> solver(sopts);
    solver.analyze(a);
    for (int pass = 1; pass <= 2; ++pass) {
      solver.factorize(a, spec.method);
      const RunStats& st = solver.last_factorization_stats();
      const ModelErrorStats& err = st.model_error;
      TaskTable table(solver.analysis().structure, spec.method);
      perfmodel::CalibratedCosts costs(table, *solver.perf_model());
      std::printf(
          "%-22s %-5s  %d   | %9d %6.0f%% %7.1f%%/%+5.0f%% %7.1f%%/%+5.0f%%\n",
          label(spec).c_str(), to_string(spec.method), pass,
          st.tasks_cpu + st.tasks_gpu, 100.0 * costs.coverage(),
          100.0 * err.median_panel(), 100.0 * err.bias_panel(),
          100.0 * err.median_update(), 100.0 * err.bias_update());
      if (pass == 1) {
        pass1_panel.insert(pass1_panel.end(), err.panel_rel.begin(),
                           err.panel_rel.end());
        pass1_update.insert(pass1_update.end(), err.update_rel.begin(),
                            err.update_rel.end());
      }
    }
  }
  print_rule(88);
  // Supplementary end-to-end numbers: these fold in scheduler noise and
  // worker interference on top of model quality, so they do not gate.
  const double task_panel = ModelErrorStats::median_abs(pass1_panel);
  const double task_update = ModelErrorStats::median_abs(pass1_update);
  std::printf("pass-1 (tables only) task-level median |err|: panel %.1f%%, "
              "update %.1f%%\n",
              100.0 * task_panel, 100.0 * task_update);
  return hold_ok ? 0 : 2;
}
