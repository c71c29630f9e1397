// Performance-model tests: JSON persistence round-trip, corrupt/missing
// file degradation, prediction monotonicity, history refinement, and the
// acceptance-critical property that dmda placement actually follows the
// calibrated CPU/GPU rates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "common/error.hpp"
#include "core/analysis.hpp"
#include "core/solver.hpp"
#include "mat/generators.hpp"
#include "perfmodel/calibrate.hpp"
#include "perfmodel/calibrated_costs.hpp"
#include "runtime/flop_costs.hpp"
#include "runtime/starpu_scheduler.hpp"

namespace spx {
namespace {

using perfmodel::CalPoint;
using perfmodel::CalibratedCosts;
using perfmodel::KernelClass;
using perfmodel::KernelShape;
using perfmodel::KernelTable;
using perfmodel::PerfModel;
using perfmodel::TaskClass;

/// Constant-rate table over [w_lo, w_hi]: predicted time = work / rate.
KernelTable flat_table(KernelClass c, const KernelShape& lo,
                       const KernelShape& hi, double rate) {
  KernelTable t;
  t.add({lo, perfmodel::kernel_work(c, lo), rate, 1});
  t.add({hi, perfmodel::kernel_work(c, hi), rate, 1});
  t.fit();
  return t;
}

/// A model covering every slot CalibratedCosts consults, with one GEMM
/// rate per resource kind (panels stay CPU-only).
PerfModel two_speed_model(double cpu_rate, double gpu_rate) {
  PerfModel m;
  m.set_host("test");
  const KernelShape flo{2, 2, 2}, fhi{256, 256, 256};
  for (const KernelClass c :
       {KernelClass::Potrf, KernelClass::Ldlt, KernelClass::Getrf}) {
    m.set_table(c, ResourceKind::Cpu, flat_table(c, flo, fhi, cpu_rate));
  }
  m.set_table(KernelClass::TrsmPanel, ResourceKind::Cpu,
              flat_table(KernelClass::TrsmPanel, {2, 2, 2}, {4096, 256, 256},
                         cpu_rate));
  m.set_table(KernelClass::GemmNt, ResourceKind::Cpu,
              flat_table(KernelClass::GemmNt, {2, 2, 2}, {4096, 512, 512},
                         cpu_rate));
  m.set_table(KernelClass::Scatter, ResourceKind::Cpu,
              flat_table(KernelClass::Scatter, {2, 2, 0}, {8192, 512, 0},
                         cpu_rate));
  m.set_table(KernelClass::GemmNtGapped, ResourceKind::Cpu,
              flat_table(KernelClass::GemmNtGapped, {2, 2, 2},
                         {4096, 512, 512}, cpu_rate));
  m.set_table(KernelClass::GemmNtGapped, ResourceKind::GpuStream,
              flat_table(KernelClass::GemmNtGapped, {2, 2, 2},
                         {4096, 512, 512}, gpu_rate));
  return m;
}

// ---------- persistence ------------------------------------------------

TEST(PerfModel, JsonRoundTripPreservesPredictions) {
  PerfModel m = two_speed_model(1e9, 5e9);
  // Three observations in the same log2 flop bucket (min_samples = 3).
  m.observe(TaskClass::Update, ResourceKind::Cpu, 1.5e6, 1.5e-3);
  m.observe(TaskClass::Update, ResourceKind::Cpu, 1.7e6, 1.7e-3);
  m.observe(TaskClass::Update, ResourceKind::Cpu, 1.6e6, 1.4e-3);
  const PerfModel back = PerfModel::from_json(m.to_json());
  EXPECT_EQ(back.host(), "test");
  const KernelShape probes[] = {{16, 16, 16}, {128, 32, 64}, {700, 12, 96}};
  for (const KernelShape& s : probes) {
    for (const KernelClass c : {KernelClass::Potrf, KernelClass::TrsmPanel,
                                KernelClass::GemmNt}) {
      double a = 0.0, b = 0.0;
      ASSERT_TRUE(m.kernel_seconds(c, ResourceKind::Cpu, s, &a));
      ASSERT_TRUE(back.kernel_seconds(c, ResourceKind::Cpu, s, &b));
      EXPECT_DOUBLE_EQ(a, b);
    }
  }
  // History buckets survive the round-trip with their running means.
  double a = 0.0, b = 0.0;
  ASSERT_TRUE(m.history_seconds(TaskClass::Update, ResourceKind::Cpu, 1.6e6,
                                &a));
  ASSERT_TRUE(back.history_seconds(TaskClass::Update, ResourceKind::Cpu,
                                   1.6e6, &b));
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(PerfModel, SaveLoadFileRoundTrip) {
  const std::string path = testing::TempDir() + "spx_model_rt.json";
  PerfModel m = two_speed_model(2e9, 8e9);
  m.save(path);
  std::string error;
  const auto back = PerfModel::load(path, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->host(), "test");
  std::remove(path.c_str());
}

TEST(PerfModel, LoadMissingFileReturnsError) {
  std::string error;
  const auto m = PerfModel::load("/nonexistent/dir/model.json", &error);
  EXPECT_FALSE(m.has_value());
  EXPECT_FALSE(error.empty());
}

TEST(PerfModel, LoadCorruptFileReturnsError) {
  const std::string path = testing::TempDir() + "spx_model_bad.json";
  std::ofstream(path) << "{ not json at all ]";
  std::string error;
  const auto m = PerfModel::load(path, &error);
  EXPECT_FALSE(m.has_value());
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

TEST(PerfModel, WrongSchemaVersionRejected) {
  EXPECT_THROW(
      PerfModel::from_json(
          R"({"spx_perf_model_version": 999, "host": "x", "kernels": []})"),
      InvalidArgument);
}

TEST(Solver, DegradesToFlopCostsOnBadModelFile) {
  SolverOptions opts;
  opts.runtime = RuntimeKind::Starpu;
  opts.num_threads = 2;
  opts.perf_model_file = "/nonexistent/dir/model.json";
  Solver<double> solver(opts);
  const auto a = gen::grid2d_laplacian(12, 12);
  solver.analyze(a);
  solver.factorize(a, Factorization::LLT);  // must not throw
  EXPECT_EQ(solver.perf_model(), nullptr);
}

// ---------- prediction shape -------------------------------------------

TEST(KernelTable, FitClampsNonMonotoneTimes) {
  // Middle point measured absurdly fast (rate spike): fit() must still
  // produce times non-decreasing in work.
  KernelTable t;
  t.add({{32, 32, 32}, 1e5, 1e9, 1});
  t.add({{64, 64, 64}, 8e5, 64e9, 1});  // spike
  t.add({{128, 128, 128}, 6.4e6, 2e9, 1});
  t.fit();
  double prev = 0.0;
  for (double w = 5e4; w < 1e7; w *= 1.07) {
    const double s = t.seconds(w);
    // Pooled (flat-time) segments may wobble by one ulp under the
    // log-log interpolation; anything beyond rounding is a real bug.
    EXPECT_GE(s, prev * (1.0 - 1e-12)) << "time decreased at work " << w;
    prev = std::max(prev, s);
  }
}

TEST(PerfModel, PredictionsMonotoneInEachDimension) {
  // Within the fitted segment, growing any one of m, n, k must not make
  // the predicted time smaller (kernel_work is strictly increasing per
  // dimension and the fitted table is non-decreasing in work).
  perfmodel::CalibrationOptions copts;
  copts.quick = true;
  const PerfModel m = perfmodel::calibrate_kernels(copts);
  const KernelClass c = KernelClass::GemmNt;
  double prev = 0.0;
  for (double mm = 16; mm <= 512; mm *= 2) {
    double s = 0.0;
    ASSERT_TRUE(m.kernel_seconds(c, ResourceKind::Cpu, {mm, 32, 32}, &s));
    EXPECT_GE(s, prev * (1.0 - 1e-12));
    prev = std::max(prev, s);
  }
  prev = 0.0;
  for (double n = 4; n <= 256; n *= 2) {
    double s = 0.0;
    ASSERT_TRUE(m.kernel_seconds(c, ResourceKind::Cpu, {256, n, 32}, &s));
    EXPECT_GE(s, prev * (1.0 - 1e-12));
    prev = std::max(prev, s);
  }
  prev = 0.0;
  for (double k = 8; k <= 256; k *= 2) {
    double s = 0.0;
    ASSERT_TRUE(m.kernel_seconds(c, ResourceKind::Cpu, {256, 32, k}, &s));
    EXPECT_GE(s, prev * (1.0 - 1e-12));
    prev = std::max(prev, s);
  }
}

// ---------- history layer ----------------------------------------------

TEST(PerfModel, HistoryNeedsMinSamplesThenPredicts) {
  PerfModel m;
  double s = 0.0;
  m.observe(TaskClass::PanelLlt, ResourceKind::Cpu, 1e6, 1e-3);
  EXPECT_FALSE(m.history_seconds(TaskClass::PanelLlt, ResourceKind::Cpu,
                                 1e6, &s));
  m.observe(TaskClass::PanelLlt, ResourceKind::Cpu, 1e6, 1e-3);
  m.observe(TaskClass::PanelLlt, ResourceKind::Cpu, 1e6, 1e-3);
  ASSERT_TRUE(m.history_seconds(TaskClass::PanelLlt, ResourceKind::Cpu, 1e6,
                                &s));
  EXPECT_NEAR(s, 1e-3, 1e-9);
  // A different flop bucket is a different entry.
  EXPECT_FALSE(m.history_seconds(TaskClass::PanelLlt, ResourceKind::Cpu,
                                 64e6, &s));
}

// ---------- CalibratedCosts --------------------------------------------

TEST(CalibratedCosts, PanelGpuQueryThrows) {
  const Analysis an = analyze(gen::grid2d_laplacian(9, 9));
  TaskTable table(an.structure, Factorization::LLT);
  const PerfModel m = two_speed_model(1e9, 4e9);
  CalibratedCosts costs(table, m);
  EXPECT_GT(costs.panel_seconds(0, ResourceKind::Cpu), 0.0);
  EXPECT_THROW(costs.panel_seconds(0, ResourceKind::GpuStream),
               InvalidArgument);
}

TEST(FlopCosts, PanelGpuQueryThrows) {
  const Analysis an = analyze(gen::grid2d_laplacian(9, 9));
  TaskTable table(an.structure, Factorization::LLT);
  FlopCosts costs(table);
  EXPECT_GT(costs.panel_seconds(0, ResourceKind::Cpu), 0.0);
  EXPECT_THROW(costs.panel_seconds(0, ResourceKind::GpuStream),
               InvalidArgument);
}

TEST(CalibratedCosts, EmptyModelFallsBackToFlopCosts) {
  const Analysis an = analyze(gen::grid2d_laplacian(11, 11));
  TaskTable table(an.structure, Factorization::LLT);
  const PerfModel empty;  // no tables, no history
  CalibratedCosts costs(table, empty);
  FlopCosts flop(table);
  EXPECT_EQ(costs.coverage(), 0.0);
  for (index_t p = 0; p < an.structure.num_panels(); ++p) {
    EXPECT_DOUBLE_EQ(costs.panel_seconds(p, ResourceKind::Cpu),
                     flop.panel_seconds(p, ResourceKind::Cpu));
  }
}

TEST(CalibratedCosts, FullModelCoversEverything) {
  const Analysis an = analyze(gen::grid2d_laplacian(11, 11));
  TaskTable table(an.structure, Factorization::LLT);
  const PerfModel m = two_speed_model(1e9, 4e9);
  CalibratedCosts costs(table, m);
  EXPECT_DOUBLE_EQ(costs.coverage(), 1.0);
}

// ---------- dmda consumes the calibrated rates -------------------------

/// Drains the scheduler sequentially, recording which resource kind ran
/// each update task; returns the number of updates placed on the GPU.
int gpu_update_count(const TaskTable& table, const Machine& machine,
                     const TaskCosts& costs) {
  StarpuOptions sopts;
  sopts.policy = StarpuOptions::Policy::Dmda;
  sopts.gpu_min_flops = 0.0;  // every update is GPU-eligible
  StarpuScheduler sched(table, machine, costs, sopts);
  int gpu_updates = 0;
  bool progressed = true;
  while (!sched.finished() && progressed) {
    progressed = false;
    for (int r = 0; r < machine.num_resources(); ++r) {
      Task t;
      while (sched.try_pop(r, &t)) {
        progressed = true;
        if (t.kind == TaskKind::Update &&
            machine.resource(r).kind == ResourceKind::GpuStream) {
          ++gpu_updates;
        }
        sched.on_complete(t, r);
      }
    }
  }
  EXPECT_TRUE(sched.finished());
  return gpu_updates;
}

TEST(StarpuDmda, PlacementFollowsCalibratedRatio) {
  const Analysis an = analyze(gen::grid3d_laplacian(6, 6, 6));
  TaskTable table(an.structure, Factorization::LLT);
  Machine machine(2, 1);  // 2 CPU workers + 1 GPU stream
  // Same tasks, same machine; only the calibrated CPU:GPU rate ratio
  // flips.  dmda must move update work toward the faster resource.
  const PerfModel gpu_fast = two_speed_model(1e9, 16e9);
  const PerfModel gpu_slow = two_speed_model(16e9, 1e9);
  CalibratedCosts fast(table, gpu_fast), slow(table, gpu_slow);
  const int with_fast_gpu = gpu_update_count(table, machine, fast);
  const int with_slow_gpu = gpu_update_count(table, machine, slow);
  EXPECT_GT(with_fast_gpu, with_slow_gpu);
  EXPECT_GT(with_fast_gpu, 0);
}

}  // namespace
}  // namespace spx
