// CalibratedCosts: a TaskCosts oracle backed by a calibrated PerfModel.
//
// Every consumer of TaskCosts -- the StarPU scheduler's dmda/HEFT
// expected-completion-time ranking, the native scheduler's static
// cost-model mapping, PaRSEC's steal ordering, subtree merging, and
// bottom-level priorities -- sees measured rates of THIS host instead of
// the hardcoded 5 GFlop/s / 8x oracle of FlopCosts.
//
// Prediction order per task (snapshotted at construction, so scheduler
// queries are plain array reads with zero locking):
//   1. history layer (measured durations of same-class, same-size tasks);
//   2. fitted kernel tables, via the kernel decomposition below;
//   3. the flop-proportional fallback (uncovered shapes / stale models).
#pragma once

#include "perfmodel/perf_model.hpp"
#include "runtime/flop_costs.hpp"

namespace spx::perfmodel {

/// Kernel-table prediction for one panel task (factor + TRSM kernels).
/// False when the model lacks a table for any constituent kernel.
bool panel_task_seconds(const PerfModel& model, const SymbolicStructure& st,
                        Factorization kind, index_t p, ResourceKind res,
                        double* out);

/// Kernel-table prediction for one update task, decomposed like the
/// executing codelet: on CPUs (the TempBuffer path), per side one GemmNt
/// over the edge's whole facing range plus one Scatter of the entries it
/// writes; on GPU streams (the Direct path), one GemmNtGapped per (block,
/// side).  False when the model lacks a required table.
bool update_task_seconds(const PerfModel& model, const SymbolicStructure& st,
                         Factorization kind, index_t p, index_t e,
                         ResourceKind res, double* out);

class CalibratedCosts : public TaskCosts {
 public:
  struct Options {
    /// Fallback oracle parameters for uncovered shapes (FlopCosts).
    double fallback_cpu_gflops = 5.0;
    double fallback_gpu_speedup = 8.0;
    double pcie_gbps = 6.0;
    /// History predictions need at least this many observations.
    double history_min_samples = 3.0;
  };

  /// Snapshots predictions for every task of `table` from `model`.  Both
  /// must outlive this object (the model is re-consulted only by copy
  /// construction of another CalibratedCosts).
  CalibratedCosts(const TaskTable& table, const PerfModel& model,
                  Options options);
  CalibratedCosts(const TaskTable& table, const PerfModel& model)
      : CalibratedCosts(table, model, Options{}) {}

  /// Panel tasks are CPU-only (paper §V-B); GpuStream queries throw
  /// InvalidArgument, matching the FlopCosts contract.
  double panel_seconds(index_t p, ResourceKind kind) const override;
  double update_seconds(index_t p, index_t edge,
                        ResourceKind kind) const override;
  double transfer_seconds(double bytes) const override;

  /// Fraction of task predictions answered by the calibrated layers
  /// (history or kernel tables) rather than the flop fallback, in [0, 1].
  /// Low coverage means the model is stale for this problem's shapes.
  double coverage() const { return coverage_; }
  const PerfModel& model() const { return *model_; }

 private:
  const TaskTable* table_;
  const PerfModel* model_;
  Options options_;
  std::vector<double> panel_cpu_;
  std::vector<double> update_cpu_;
  std::vector<double> update_gpu_;
  std::vector<index_t> update_base_;
  double pcie_rate_;
  double coverage_ = 0.0;
};

/// Online-refinement adapter: feeds every measured task duration from the
/// real driver back into a PerfModel's history layer.  Thread-safe
/// (PerfModel::observe locks internally).  Plug into
/// RealDriverOptions::observer; refinement affects the *next*
/// factorization, because CalibratedCosts snapshots at construction.
class ModelRefiner : public TaskDurationObserver {
 public:
  /// Both arguments must outlive this object.
  ModelRefiner(PerfModel& model, const TaskTable& table)
      : model_(&model), table_(&table) {}

  void observe_task(const Task& t, ResourceKind kind,
                    double seconds) override {
    if (t.kind == TaskKind::Subtree || seconds <= 0.0) return;
    model_->observe(task_class_of(table_->factorization(), t.kind), kind,
                    table_->flops(t), seconds);
  }

 private:
  PerfModel* model_;
  const TaskTable* table_;
};

}  // namespace spx::perfmodel
