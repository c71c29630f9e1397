// Discrete-event execution driver.
//
// Drives a Scheduler (native / StarPU-like / PaRSEC-like -- the *same*
// objects the real threaded driver uses) against a simulated platform:
// CPU workers with a per-worker cache-reuse model, GPUs as shared-capacity
// engines with multiple streams, one DMA engine per GPU serializing PCIe
// transfers, and an MSI coherence directory deciding what must move.
// Task durations come from the calibrated CostModel; no numerical work is
// performed.  This is how the repository reproduces the paper's 12-core /
// 3-GPU Mirage results on a host with neither (DESIGN.md §2).
#pragma once

#include <memory>

#include "obs/span.hpp"
#include "runtime/data_directory.hpp"
#include "runtime/run_stats.hpp"
#include "runtime/scheduler.hpp"
#include "sim/cost_model.hpp"

namespace spx::sim {

struct SimOptions {
  /// Enables the driver-side transfer prefetch for schedulers that expose
  /// queued tasks (StarPU dmda).
  bool prefetch = true;
  /// Safety cap on simulated events (0 = unlimited).
  std::int64_t max_events = 0;
  /// Coherence directory to use (shared with a model-based scheduler so
  /// its transfer estimates see the true data placement); the driver owns
  /// one internally when null.
  DataDirectory* directory = nullptr;
  /// Optional span sink, stamped in virtual seconds: one span per task
  /// on track "worker-" (named by to_string(TaskKind), args panel and
  /// edge) and one per DMA hop on track "dma-" ("transfer.h2d" or
  /// "transfer.d2h", args panel and bytes), as the real driver and its
  /// device engines record them.  obs::write_chrome_trace exports it.
  obs::Tracer* trace = nullptr;
};

/// Runs the scheduler to completion in virtual time; returns statistics.
/// `total_flops` is only used for the GFlop/s figure.
RunStats simulate(Scheduler& scheduler, const Machine& machine,
                  const TaskTable& table, const CostModel& model,
                  double total_flops, const SimOptions& options = {});

}  // namespace spx::sim
