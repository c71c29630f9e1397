// Calibration harness: microbenchmarks the real factorization kernels
// across a grid of (m, n, k) shapes and fits the piecewise rate tables of
// a PerfModel (the "calibrate" step of calibrate -> persist -> load ->
// refine; see perf_model.hpp and docs/PERF_MODELS.md).
//
// What is measured, per resource kind:
//   Cpu:       potrf / ldlt / getrf diagonal factors, the panel TRSM, the
//              update kernel (GemmNtGapped: the mapped GEMM every update
//              task runs), and the contiguous gemm_nt and scatter_sub;
//   GpuStream: the same update kernel -- what an emulated GPU-stream
//              worker runs in the real driver.  On a host with no device
//              this measures the same silicon as the CPU table;
//              retargeting at a real accelerator replaces exactly this
//              slot.
//
// Calibration is single-threaded by design, like StarPU's: per-worker
// rates are what dmda compares, and the history layer later absorbs any
// parallel-execution interference.
#pragma once

#include <string>

#include "perfmodel/perf_model.hpp"

namespace spx::perfmodel {

struct CalibrationOptions {
  /// Median-of repetitions per grid point (higher = steadier rates).
  int repeat = 5;
  /// Each measurement accumulates kernel invocations until at least this
  /// much kernel time, so tiny shapes are not at the timer's mercy.
  double min_seconds = 4e-3;
  /// Reduced grid and shorter repetitions (still `repeat` of them per
  /// point) for tests/CI smoke runs.
  bool quick = false;
  /// Host tag stored in the model file.
  std::string host = "host";
};

/// Runs the microbenchmark grid and returns a fitted model.  Takes a few
/// seconds at default settings (see bench_calibration).
PerfModel calibrate_kernels(const CalibrationOptions& options = {});

/// Measures a single kernel invocation at `shape` with the same harness
/// the grid uses (cold-rotation, median-of-repeats).  Used for holdout
/// validation: measure off-grid shapes, compare against model
/// predictions.  Shape semantics per class as in KernelShape.
CalPoint measure_point(KernelClass c, const KernelShape& shape,
                       const CalibrationOptions& options = {});

}  // namespace spx::perfmodel
