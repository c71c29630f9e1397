#include "runtime/real_driver.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <cstring>

#include "common/timer.hpp"
#include "core/codelets.hpp"
#include "runtime/data_directory.hpp"
#include "runtime/device_engine.hpp"
#include "runtime/worker_queues.hpp"

namespace spx {
namespace {

/// PanelStore over FactorData<T>: panels as raw byte ranges (L block,
/// plus the U block for LU; the tiny LDLT diagonal stays host-resident).
/// Copies run under the driver's per-panel lock, taken by the caller.
template <typename T>
class FactorPanelStore final : public PanelStore {
 public:
  FactorPanelStore(FactorData<T>& f, std::mutex* locks)
      : f_(&f), locks_(locks) {}

  std::size_t panel_bytes(index_t p) const override {
    const std::size_t block = block_bytes(p);
    return f_->kind() == Factorization::LU ? 2 * block : block;
  }

  void read_panel(index_t p, std::byte* dst) const override {
    const std::size_t block = block_bytes(p);
    std::memcpy(dst, f_->panel_l(p), block);
    if (f_->kind() == Factorization::LU) {
      std::memcpy(dst + block, f_->panel_u(p), block);
    }
  }

  void write_panel(index_t p, const std::byte* src) override {
    const std::size_t block = block_bytes(p);
    std::memcpy(f_->panel_l(p), src, block);
    if (f_->kind() == Factorization::LU) {
      std::memcpy(f_->panel_u(p), src + block, block);
    }
  }

  std::mutex& panel_mutex(index_t p) const override { return locks_[p]; }

 private:
  std::size_t block_bytes(index_t p) const {
    const Panel& pn = f_->structure().panels[p];
    return static_cast<std::size_t>(pn.nrows) *
           static_cast<std::size_t>(pn.width()) * sizeof(T);
  }

  FactorData<T>* f_;
  std::mutex* locks_;
};

/// Per-run metric handles, resolved once (registration takes a mutex;
/// the hot path only touches the pre-resolved pointers through SPX_OBS).
struct DriverMetrics {
  obs::Counter* tasks[3][2] = {};  ///< [kind][cpu=0|gpu=1]
  obs::Histogram* seconds[3] = {};  ///< per-kind duration histograms

  explicit DriverMetrics(obs::MetricsRegistry& reg) {
    static constexpr TaskKind kKinds[3] = {TaskKind::Panel, TaskKind::Update,
                                           TaskKind::Subtree};
    for (int k = 0; k < 3; ++k) {
      const char* kind = to_string(kKinds[k]);
      for (int g = 0; g < 2; ++g) {
        tasks[k][g] = &reg.counter(
            "spx_tasks_executed_total", "Tasks executed by the real driver",
            {{"kind", kind}, {"resource", g == 0 ? "cpu" : "gpu"}});
      }
      seconds[k] = &reg.histogram("spx_task_seconds",
                                  obs::Histogram::duration_bounds(),
                                  "Per-task execution wall time",
                                  {{"kind", kind}});
    }
  }

  void observe(const Task& t, bool gpu, double seconds_taken) {
    const int k = static_cast<int>(t.kind);
    tasks[k][gpu ? 1 : 0]->inc();
    seconds[k]->observe(seconds_taken);
  }
};

template <typename T>
class RealRun {
 public:
  RealRun(Scheduler& sched, const Machine& machine, FactorData<T>& f,
          const RealDriverOptions& options)
      : sched_(sched),
        machine_(machine),
        f_(f),
        options_(options),
        registry_(obs::registry_or_global(options.instr.metrics)),
        metrics_(registry_),
        tracer_(options.instr.tracer),
        fault_(options.instr.fault) {
    panel_locks_ = std::make_unique<std::mutex[]>(
        static_cast<std::size_t>(f.structure().num_panels()));
    if (options_.hetero.enabled()) {
      store_ = std::make_unique<FactorPanelStore<T>>(f_, panel_locks_.get());
      directory_ = options_.hetero.directory;
      if (directory_ == nullptr) {
        owned_directory_ = std::make_unique<DataDirectory>(
            f.structure(), f.kind(), sizeof(T),
            static_cast<int>(options_.hetero.devices.size()));
        directory_ = owned_directory_.get();
      }
    }
  }

  RunStats run() {
    if (directory_ != nullptr) {
      // Before sched_.reset(): a shared directory (dmda placement) may
      // carry residency from a previous run, and reset() already places
      // the initially-ready tasks.  Every run starts host-only.
      directory_->reset();
    }
    sched_.reset();
    const int nr = machine_.num_resources();
    stats_.busy.assign(nr, 0.0);
    idle_wait_.assign(static_cast<std::size_t>(nr), 0.0);
    lock_wait_.assign(static_cast<std::size_t>(nr), 0.0);
    worker_err_.assign(static_cast<std::size_t>(nr), {});
    obs::ScopedSpan run_span;
    SPX_OBS(run_span = obs::ScopedSpan(tracer_, "driver.run", "service-",
                                       options_.instr.parent));
    task_parent_ = run_span.active() ? run_span.context()
                                     : options_.instr.parent;
    if (directory_ != nullptr) {
      stage_wait_.assign(static_cast<std::size_t>(nr), 0.0);
      engines_ = std::make_unique<EngineGroup>(
          machine_, options_.hetero, *directory_, *store_, fault_, registry_,
          tracer_, task_parent_);
    }
    Timer wall;
    {
      std::vector<std::jthread> workers;
      workers.reserve(static_cast<std::size_t>(nr));
      for (int r = 0; r < nr; ++r) {
        workers.emplace_back([this, r] { worker_loop(r); });
      }
    }
    stats_.makespan = wall.elapsed();
    if (engines_ != nullptr) {
      // Joining DMA threads drains leftover prefetches; the makespan was
      // already taken at worker join, so that slack is not charged.
      engines_->stop();
      const TransferCounters totals = engines_->totals();
      stats_.bytes_h2d = totals.bytes_h2d;
      stats_.bytes_d2h = totals.bytes_d2h;
      stats_.transfers_h2d = totals.transfers_h2d;
      stats_.transfers_d2h = totals.transfers_d2h;
      stats_.gpu_evictions = totals.evictions;
    }
    run_span.finish();
    stats_.tasks_cpu = tasks_cpu_.load();
    stats_.tasks_gpu = tasks_gpu_.load();
    // Contention observability: scheduler-side counters plus the driver's
    // own idle waits and per-panel lock waits, merged per resource.
    ContentionStats c = sched_.contention();
    const auto n = static_cast<std::size_t>(nr);
    c.lock_wait.resize(n, 0.0);
    c.steals.resize(n, 0);
    c.pops.resize(n, 0);
    c.depth_samples.resize(n, 0);
    c.depth_sum.resize(n, 0.0);
    for (std::size_t r = 0; r < n; ++r) c.lock_wait[r] += lock_wait_[r];
    c.idle_wait = idle_wait_;
    c.stage_wait = stage_wait_;
    stats_.contention = std::move(c);
    for (ModelErrorStats& e : worker_err_) {
      stats_.model_error.panel_rel.insert(stats_.model_error.panel_rel.end(),
                                          e.panel_rel.begin(),
                                          e.panel_rel.end());
      stats_.model_error.update_rel.insert(
          stats_.model_error.update_rel.end(), e.update_rel.begin(),
          e.update_rel.end());
    }
    SPX_OBS(export_run_metrics());
    if (error_) std::rethrow_exception(error_);
    return stats_;
  }

 private:
  // Idle protocol (eventcount): a worker snapshots the generation counter
  // *before* its failed try_pop, then waits until the generation moves.
  // Every completion bumps the generation, so a task that became runnable
  // between the failed pop and the wait flips the predicate -- no lost
  // wakeups and no timed-poll latency floor.  The completion fast path
  // skips the mutex entirely when no worker is parked; the Dekker-style
  // seq_cst ordering between generation_ and sleepers_ makes that safe.
  void worker_loop(int r) {
    Workspace<T> ws;
    while (!aborted_.load(std::memory_order_acquire)) {
      const std::uint64_t gen = generation_.load();
      Task t;
      bool got = false;
      try {
        got = sched_.try_pop(r, &t);
      } catch (...) {
        record_error();
        break;
      }
      if (!got) {
        if (sched_.finished()) break;
        Timer idle;
        {
          std::unique_lock<std::mutex> lock(wake_mutex_);
          sleepers_.fetch_add(1);
          wake_cv_.wait(lock, [&] {
            return generation_.load() != gen ||
                   aborted_.load(std::memory_order_relaxed);
          });
          sleepers_.fetch_sub(1);
        }
        idle_wait_[static_cast<std::size_t>(r)] += idle.elapsed();
        continue;
      }
      // Heterogeneous runs stage the task's handles into this resource's
      // memory space before compute and propagate writes after; the
      // classic path (no engines) skips all of it.
      std::vector<index_t> handles;
      if (engines_ != nullptr) {
        handles = task_handles(f_.structure(), sched_.subtree_groups(), t);
        try {
          stage_wait_[static_cast<std::size_t>(r)] +=
              engines_->acquire(r, handles);
        } catch (...) {
          record_error();
          break;
        }
        // Stage the next queued tasks' data while this one computes.
        if (options_.hetero.overlap) pump_prefetch(r);
      }
      double span_start = 0.0;
      SPX_OBS(if (tracer_ != nullptr) span_start = tracer_->now());
      Timer timer;
      try {
        execute(t, r, ws);
      } catch (...) {
        if (engines_ != nullptr) {
          engines_->release(r, handles, {});  // drop pins, nothing written
        }
        record_error();
        break;
      }
      const double actual = timer.elapsed();
      if (engines_ != nullptr) {
        engines_->release(r, handles, written_handles(t, handles));
      }
      stats_.busy[r] += actual;
      const bool gpu =
          machine_.resource(r).kind == ResourceKind::GpuStream;
      SPX_OBS(metrics_.observe(t, gpu, actual));
      SPX_OBS(if (tracer_ != nullptr) {
        tracer_->record_span(to_string(t.kind), "worker-", task_parent_,
                             span_start, tracer_->now(), r, t.panel, t.edge);
      });
      observe_duration(t, r, actual);
      try {
        sched_.on_complete(t, r);
      } catch (...) {
        record_error();
        break;
      }
      bump_generation();
      if (engines_ != nullptr && options_.hetero.overlap) {
        pump_prefetch(r);
      }
    }
    // A worker exiting (finish or error) may be what lets the others
    // observe the end state; wake them unconditionally.
    bump_generation();
  }

  /// Handles task `t` writes (MSI ownership transfer at release): the
  /// factored panel, an update's target, or everything a merged subtree
  /// touched -- mirroring the simulator's complete_task.
  std::vector<index_t> written_handles(const Task& t,
                                       const std::vector<index_t>& handles) {
    if (t.kind == TaskKind::Subtree) return handles;
    if (t.kind == TaskKind::Update) {
      return {f_.structure().targets[t.panel][t.edge].dst};
    }
    return {t.panel};
  }

  /// Transfer-compute overlap: asks the scheduler for queued-not-started
  /// tasks on this resource (each reported once) and starts staging their
  /// handles asynchronously.  Device streams stage H2D; CPU workers
  /// prefetch D2H write-backs of device-dirty panels a queued panel task
  /// will read.  For updates, only the read set moves: the *written*
  /// handle (the target) is usually invalidated again by an earlier
  /// member of its commute group before the task runs, so staging it
  /// early is wasted link time -- acquire fetches it at the last moment.
  /// A ready Panel task, by contrast, has no remaining writers, so its
  /// own panel is safe (and is the point of the CPU-side prefetch).
  void pump_prefetch(int r) {
    Task t;
    for (int i = 0; i < options_.hetero.prefetch_window &&
                    sched_.peek_prefetch(r, &t);
         ++i) {
      std::vector<index_t> handles =
          task_handles(f_.structure(), sched_.subtree_groups(), t);
      if (t.kind != TaskKind::Panel) {
        const std::vector<index_t> written = written_handles(t, handles);
        std::erase_if(handles, [&](index_t h) {
          return std::find(written.begin(), written.end(), h) !=
                 written.end();
        });
      }
      if (!handles.empty()) engines_->prefetch(r, handles);
    }
  }

  void bump_generation() {
    generation_.fetch_add(1);  // seq_cst, ordered against sleepers_
    if (sleepers_.load() == 0) return;
    // Serialize with a parked (or parking) waiter's predicate check so
    // the notify cannot slip between its check and its sleep.
    { std::lock_guard<std::mutex> lock(wake_mutex_); }
    wake_cv_.notify_all();
  }

  void execute(const Task& t, int r, Workspace<T>& ws) {
    const Resource& res = machine_.resource(r);
    const SymbolicStructure& st = f_.structure();
    double& lock_wait = lock_wait_[static_cast<std::size_t>(r)];
    if (fault_ != nullptr && fault_->on_task_start()) {
      corrupt_pivot(t, lock_wait);
    }
    if (t.kind == TaskKind::Subtree) {
      // Merged bottom subtree: factor + updates of every member, in
      // order.  The per-panel locks protect the external targets against
      // concurrent generic update tasks.
      for (const index_t m : sched_.subtree_groups()->members[t.panel]) {
        factor_panel(f_, m);
        for (const UpdateEdge& e : st.targets[m]) {
          TimedLock lock(panel_locks_[e.dst], lock_wait);
          apply_update(f_, m, e, ws);
        }
      }
      tasks_cpu_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (t.kind == TaskKind::Panel) {
      factor_panel(f_, t.panel);
      tasks_cpu_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const UpdateEdge& e = st.targets[t.panel][t.edge];
    // Per-panel lock: the schedulers' commute gating already serializes
    // generic updates into one target, but merged subtree tasks write
    // their external targets outside that protocol.
    TimedLock lock(panel_locks_[e.dst], lock_wait);
    apply_update(f_, t.panel, e, ws);
    if (res.kind == ResourceKind::GpuStream) {
      tasks_gpu_.fetch_add(1, std::memory_order_relaxed);
    } else {
      tasks_cpu_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Model-accuracy + online-refinement hooks.  Each worker appends to its
  // own ModelErrorStats slot (merged after join, so no locking); the
  // observer is documented thread-safe.  Subtree tasks are skipped: they
  // fuse many panels/updates and have no single-oracle prediction.
  void observe_duration(const Task& t, int r, double actual) {
    if (t.kind == TaskKind::Subtree || actual <= 0.0) return;
    const ResourceKind kind = machine_.resource(r).kind;
    if (options_.observer != nullptr) {
      options_.observer->observe_task(t, kind, actual);
    }
    const TaskCosts* model = options_.error_model;
    if (model == nullptr) return;
    ModelErrorStats& err = worker_err_[static_cast<std::size_t>(r)];
    if (t.kind == TaskKind::Panel) {
      if (kind != ResourceKind::Cpu) return;  // panels are CPU-only
      const double pred = model->panel_seconds(t.panel, kind);
      err.panel_rel.push_back((pred - actual) / actual);
    } else {
      const double pred = model->update_seconds(t.panel, t.edge, kind);
      err.update_rel.push_back((pred - actual) / actual);
    }
  }

  // CorruptPivot fault: zero the leading diagonal entry of the task's
  // target panel under its lock.  For a not-yet-factored panel this
  // plants a (near-)zero pivot for factor_panel to trip over, exercising
  // the perturbation/throw path from a genuinely concurrent context.
  void corrupt_pivot(const Task& t, double& lock_wait) {
    index_t target = t.panel;
    if (t.kind == TaskKind::Update) {
      target = f_.structure().targets[t.panel][t.edge].dst;
    } else if (t.kind == TaskKind::Subtree) {
      target = sched_.subtree_groups()->members[t.panel].front();
    }
    TimedLock lock(panel_locks_[target], lock_wait);
    f_.panel_l(target)[0] = T(0);
  }

  void record_error() {
    bool expected = false;
    if (aborted_.compare_exchange_strong(expected, true)) {
      error_ = std::current_exception();
    }
    bump_generation();
  }

  // Once-per-run registry export of the contention/utilization aggregates
  // (hot paths never touch these series): scheduler-labeled so runs under
  // different runtimes stay distinguishable on one scrape.
  void export_run_metrics() {
    const obs::Labels sched_label = {{"scheduler", sched_.name()}};
    registry_
        .counter("spx_driver_runs_total", "Real-driver executions",
                 sched_label)
        .inc();
    registry_
        .histogram("spx_driver_makespan_seconds",
                   obs::Histogram::duration_bounds(),
                   "Factorization makespan per run", sched_label)
        .observe(stats_.makespan);
    double busy = 0.0;
    for (const double b : stats_.busy) busy += b;
    registry_
        .counter("spx_driver_busy_seconds_total",
                 "Worker seconds spent executing tasks", sched_label)
        .inc(busy);
    const ContentionStats& c = stats_.contention;
    registry_
        .counter("spx_scheduler_steals_total",
                 "Tasks taken from another worker's queue", sched_label)
        .inc(static_cast<double>(c.total_steals()));
    registry_
        .counter("spx_scheduler_pops_total", "Successful try_pop calls",
                 sched_label)
        .inc(static_cast<double>(c.total_pops()));
    registry_
        .counter("spx_scheduler_lock_wait_seconds_total",
                 "Seconds blocked on scheduler and panel locks",
                 sched_label)
        .inc(c.total_lock_wait());
    registry_
        .counter("spx_driver_idle_wait_seconds_total",
                 "Seconds workers spent parked with no runnable task",
                 sched_label)
        .inc(c.total_idle_wait());
  }

  Scheduler& sched_;
  const Machine& machine_;
  FactorData<T>& f_;
  RealDriverOptions options_;
  obs::MetricsRegistry& registry_;
  DriverMetrics metrics_;
  obs::Tracer* tracer_ = nullptr;
  obs::SpanContext task_parent_;  ///< parent of every task span
  FaultInjector* fault_ = nullptr;  ///< effective fault harness
  std::unique_ptr<std::mutex[]> panel_locks_;
  // Heterogeneous-execution state; all null/empty when hetero is off.
  std::unique_ptr<PanelStore> store_;
  std::unique_ptr<DataDirectory> owned_directory_;
  DataDirectory* directory_ = nullptr;  ///< effective coherence directory
  std::unique_ptr<EngineGroup> engines_;
  std::vector<double> stage_wait_;  ///< per-resource staging-block seconds
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<int> sleepers_{0};
  std::atomic<bool> aborted_{false};
  std::atomic<index_t> tasks_cpu_{0};
  std::atomic<index_t> tasks_gpu_{0};
  std::vector<double> idle_wait_;  ///< per-resource, owner-thread written
  std::vector<double> lock_wait_;  ///< per-resource panel-lock waits
  std::vector<ModelErrorStats> worker_err_;  ///< per-resource error samples
  std::exception_ptr error_;
  RunStats stats_;
};

}  // namespace

template <typename T>
RunStats execute_real(Scheduler& scheduler, const Machine& machine,
                      FactorData<T>& f, const RealDriverOptions& options) {
  SPX_CHECK_ARG(machine.num_gpus() ==
                    static_cast<int>(options.hetero.devices.size()),
                "machine GPU count does not match hetero.devices: every "
                "GPU stream runs behind a device engine");
  RealRun<T> run(scheduler, machine, f, options);
  return run.run();
}

template RunStats execute_real<real_t>(Scheduler&, const Machine&,
                                       FactorData<real_t>&,
                                       const RealDriverOptions&);
template RunStats execute_real<complex_t>(Scheduler&, const Machine&,
                                          FactorData<complex_t>&,
                                          const RealDriverOptions&);

}  // namespace spx
