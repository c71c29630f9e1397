// Task identities and the flattened task table shared by all runtimes.
//
// Two task kinds (paper §V): the panel task (factor + TRSM) and the update
// task, one per (source panel, target panel) edge.  The table flattens
// them into dense ids, precomputes flop counts, and computes bottom-level
// priorities (longest path to the DAG's end), which every scheduler uses
// as its priority signal.
#pragma once

#include <vector>

#include "symbolic/structure.hpp"

namespace spx {

enum class TaskKind : std::uint8_t {
  Panel,    ///< factor + TRSM of one panel
  Update,   ///< one (source, target) GEMM update
  Subtree   ///< merged bottom-of-tree group: factor + updates of every
            ///< member panel, sequentially (future-work granularity knob)
};

/// "panel", "update" or "subtree": the name of a task's span and the
/// `kind` label of its metrics.
const char* to_string(TaskKind k);

/// One schedulable unit, identified by kind + panel (+ edge for updates).
struct Task {
  TaskKind kind = TaskKind::Panel;
  index_t panel = -1;  ///< source panel
  index_t edge = -1;   ///< index into structure.targets[panel] for updates

  /// False for a default-constructed (empty) task.
  bool valid() const { return panel >= 0; }
};

/// Resource classes a task can run on.
enum class ResourceKind : std::uint8_t { Cpu, GpuStream };

/// Per-task execution-cost oracle consumed by every scheduler: dmda/HEFT
/// completion-time ranking (StarPU), the static cost-model mapping
/// (native), steal ordering (PaRSEC), bottom-level priorities, subtree
/// merging, and the distributed mapping.  Three implementations: the
/// simulator's analytic platform model (sim::CostModel), the
/// flop-proportional oracle (FlopCosts), and the calibrated, history-
/// refined model of this host (perfmodel::CalibratedCosts).
class TaskCosts {
 public:
  virtual ~TaskCosts() = default;
  /// Seconds to factor panel `p` (diagonal factor + TRSM) on `kind`.
  /// Panel tasks are CPU-only (paper §V-B: panel factorization is never
  /// offloaded); implementations either answer GpuStream queries with the
  /// CPU time or throw InvalidArgument -- callers must not rank panels on
  /// GPU resources.
  virtual double panel_seconds(index_t p, ResourceKind kind) const = 0;
  /// Seconds of the update task along `edge` of panel `p` on `kind`.
  virtual double update_seconds(index_t p, index_t edge,
                                ResourceKind kind) const = 0;
  /// Seconds to move `bytes` across PCIe (0 for a pure-CPU platform).
  virtual double transfer_seconds(double bytes) const = 0;
};

/// Sink for measured per-task durations -- the "refine online" hook of
/// the perfmodel pipeline (docs/PERF_MODELS.md).  The real driver invokes
/// it from worker threads after every Panel/Update completion, so
/// implementations must be thread-safe.
class TaskDurationObserver {
 public:
  virtual ~TaskDurationObserver() = default;
  /// One measured execution: `t` ran for `seconds` on a `kind` resource.
  virtual void observe_task(const Task& t, ResourceKind kind,
                            double seconds) = 0;
};

/// Dense numbering: panel task p -> p; update (p, e) -> np + base[p] + e.
class TaskTable {
 public:
  /// Flattens the task DAG of `st` under factorization `kind`; `st` must
  /// outlive the table.
  TaskTable(const SymbolicStructure& st, Factorization kind);

  /// The symbolic structure the ids index into.
  const SymbolicStructure& structure() const { return *st_; }
  /// Factorization kind the flop counts were computed for.
  Factorization factorization() const { return kind_; }

  index_t num_panels() const { return np_; }
  index_t num_tasks() const { return ntasks_; }
  index_t num_updates() const { return ntasks_ - np_; }

  /// Dense id of a panel or update task (inverse of task_of).
  index_t id_of(const Task& t) const {
    return t.kind == TaskKind::Panel ? t.panel
                                     : np_ + update_base_[t.panel] + t.edge;
  }
  /// Task identity of a dense id (inverse of id_of).
  Task task_of(index_t id) const {
    if (id < np_) return {TaskKind::Panel, id, -1};
    const index_t u = id - np_;
    // Binary search the owning panel.
    index_t lo = 0, hi = np_;
    while (lo + 1 < hi) {
      const index_t mid = (lo + hi) / 2;
      if (update_base_[mid] <= u) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return {TaskKind::Update, lo, u - update_base_[lo]};
  }

  /// Precomputed flop count of a task (structure.{panel,update}_task_flops).
  double flops(const Task& t) const { return flops_[id_of(t)]; }

  /// Bottom level: task duration + longest downstream chain, computed with
  /// the given cost oracle on CPU timings.  Higher = more critical.
  std::vector<double> bottom_levels(const TaskCosts& costs) const;

 private:
  const SymbolicStructure* st_;
  Factorization kind_;
  index_t np_ = 0;
  index_t ntasks_ = 0;
  std::vector<index_t> update_base_;
  std::vector<double> flops_;
};

}  // namespace spx
