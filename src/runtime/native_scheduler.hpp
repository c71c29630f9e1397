// The native PASTIX-style scheduler.
//
// PASTIX's historical unit is the 1D task -- one panel's factorization
// plus all the updates it generates -- mapped by a *static* cost-model
// schedule computed during the analyze phase, refined at execution time by
// work stealing (the dynamic scheduler of Faverge & Ramet, the paper's
// ref [1]).  The multicore refinement the paper describes in §V
// ("dynamically splits update tasks, so that the critical path of the
// algorithm can be reduced") releases each update as its own unit: a
// panel's factor and updates still run back-to-back on their assigned
// worker (the source panel stays in that worker's cache), but successors
// are released as soon as *their* update lands, not when the whole 1D
// task ends, and idle workers can steal individual units.  Each unit's
// LDL^T update scales only its edge's facing rows, like every update
// (core/codelets.hpp).
//
// CPU-only by design: the paper uses native PASTIX as the CPU reference
// and never drives GPUs with it.
//
// Concurrency: each worker's static queue is a shard with its own lock
// (stealing locks only the victim's shard); dependency counters, factor
// state, and commute claims are atomics, so on_complete is entirely
// lock-free.  Victim selection reads per-shard atomic backlog hints and
// orders candidates with sort_steal_victims (signed, deterministic).
#pragma once

#include <atomic>
#include <memory>
#include <mutex>

#include "runtime/scheduler.hpp"
#include "runtime/worker_queues.hpp"

namespace spx {

struct NativeOptions {
  /// Static mapping strategy of the analyze phase: cost-model list
  /// scheduling (earliest completion, the default) or PASTIX's classic
  /// proportional subtree mapping (better locality, see dist/mapping.hpp).
  enum class Mapping { ListSchedule, Proportional };
  Mapping mapping = Mapping::ListSchedule;
};

class NativeScheduler : public Scheduler {
 public:
  NativeScheduler(const TaskTable& table, const Machine& machine,
                  const TaskCosts& costs, NativeOptions options = {});

  void reset() override;
  bool try_pop(int resource, Task* out) override;
  void on_complete(const Task& task, int resource) override;
  bool finished() const override;
  std::string name() const override { return "native"; }

  /// Estimated makespan of the static schedule (analyze-phase estimate,
  /// at 1D-task granularity).
  double static_makespan() const { return static_makespan_; }
  /// Units executed by a worker other than the statically assigned one.
  index_t steal_count() const;
  ContentionStats contention() const override { return counters_.snapshot(); }

 private:
  /// A worker's view of its static queue.  head/pending_edges_ of the
  /// panels in this queue are guarded by m; unconsumed is a lock-free
  /// backlog hint for steal-victim selection.
  struct alignas(64) Shard {
    std::mutex m;
    std::size_t head = 0;               ///< consumed prefix of the queue
    std::atomic<index_t> unconsumed{0}; ///< panels at or past head
  };

  void compute_static_schedule();
  /// Finds a dispatchable unit in worker w's static queue; returns false
  /// when none.  Caller holds shard w's lock.
  bool pop_from(int w, Task* out);

  const TaskTable* table_;
  const Machine* machine_;
  const TaskCosts* costs_;
  NativeOptions options_;

  /// Static assignment: per-worker ordered panel list.
  std::vector<std::vector<index_t>> static_queue_;
  double static_makespan_ = 0.0;

  std::unique_ptr<Shard[]> shards_;
  AtomicCounters remaining_in_;            ///< pending updates into panel
  std::unique_ptr<std::atomic<char>[]> factor_taken_;
  std::unique_ptr<std::atomic<char>[]> factor_done_;
  /// Update edges of each panel not yet dispatched (guarded by the shard
  /// lock of the panel's statically assigned worker).
  std::vector<std::vector<index_t>> pending_edges_;
  /// Commute exclusion on update targets.
  std::unique_ptr<std::atomic<char>[]> target_busy_;
  std::atomic<index_t> completed_{0};
  CounterBank counters_;
};

}  // namespace spx
