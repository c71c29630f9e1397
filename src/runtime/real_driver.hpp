// Real (threaded) execution driver.
//
// Runs a Scheduler with actual worker threads executing the numerical
// codelets on the factor data: one thread per Machine resource.
//
// A Machine with GPU streams needs one RealDriverOptions::hetero entry
// per device: every stream runs behind the emulated accelerator engine
// of its device (runtime/device_engine.hpp).  Workers acquire their
// task's handles from the engine owning their resource (blocking on
// throttled staging transfers), release them afterwards (MSI write
// propagation), and pump prefetches for queued device tasks so transfers
// overlap compute.  CPU workers and streams run the same update kernel,
// the mapped GEMM with no temporary buffer (core/codelets.hpp).  A
// CPU-only Machine with `hetero` empty builds none of this machinery and
// pays no per-task overhead.
//
// Thread-safety contract: the generic schedulers serialize updates into
// the same panel via their commute gating; the native scheduler's fused
// 1D tasks update many panels, so this driver takes a per-panel lock
// around each scatter exactly like PASTIX's shared-memory code does.
// Device engines reuse the same per-panel locks for staging memcpys.
#pragma once

#include "core/factor_data.hpp"
#include "obs/obs.hpp"
#include "obs/options.hpp"
#include "runtime/engine_model.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/run_stats.hpp"
#include "runtime/scheduler.hpp"

namespace spx {

struct RealDriverOptions {
  /// Instrumentation layer: metrics registry, span tracer + parent
  /// context, and the fault harness.  All sinks must outlive the run.
  /// Usually inherited from SolverOptions::instr rather than set here.
  obs::InstrumentationOptions instr;
  /// Optional cost oracle compared against measured durations to fill
  /// RunStats::model_error (Panel/Update tasks only; Subtree tasks have no
  /// single-oracle prediction).  Must outlive the run.
  const TaskCosts* error_model = nullptr;
  /// Optional per-task duration sink -- the online-refinement hook (e.g.
  /// perfmodel::ModelRefiner).  Called from worker threads; must be
  /// thread-safe and outlive the run.
  TaskDurationObserver* observer = nullptr;
  /// Heterogeneous execution: one emulated accelerator engine per entry
  /// in `hetero.devices`, which must match the Machine's GPU count (a
  /// GPU stream always runs behind an engine).  Empty = CPU-only Machine,
  /// no staging machinery at all.
  HeteroOptions hetero;
};

/// Factorizes `f` in place under `scheduler`; spawns one thread per
/// machine resource.  Throws InvalidArgument when the machine's GPU count
/// differs from `options.hetero.devices.size()`; rethrows the first
/// codelet exception.
template <typename T>
RunStats execute_real(Scheduler& scheduler, const Machine& machine,
                      FactorData<T>& f,
                      const RealDriverOptions& options = {});

extern template RunStats execute_real<real_t>(Scheduler&, const Machine&,
                                              FactorData<real_t>&,
                                              const RealDriverOptions&);
extern template RunStats execute_real<complex_t>(Scheduler&, const Machine&,
                                                 FactorData<complex_t>&,
                                                 const RealDriverOptions&);

}  // namespace spx
