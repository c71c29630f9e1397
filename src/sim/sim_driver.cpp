#include "sim/sim_driver.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <limits>
#include <list>
#include <map>

#include "common/log.hpp"
#include "runtime/engine_model.hpp"
#include "sim/device_engine.hpp"

namespace spx::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Per-worker LRU over panel handles, capacity in bytes: the cache-reuse
/// model that separates PaRSEC's locality scheduling from StarPU's
/// central queues on multicore runs (paper §V-A).
class CacheModel {
 public:
  explicit CacheModel(double capacity) : capacity_(capacity) {}

  bool hot(index_t panel) const { return pos_.count(panel) != 0; }

  void touch(index_t panel, double bytes) {
    const auto it = pos_.find(panel);
    if (it != pos_.end()) {
      held_ -= it->second->second;
      lru_.erase(it->second);
      pos_.erase(it);
    }
    lru_.emplace_front(panel, bytes);
    pos_[panel] = lru_.begin();
    held_ += bytes;
    while (held_ > capacity_ && !lru_.empty()) {
      const auto& [p, b] = lru_.back();
      held_ -= b;
      pos_.erase(p);
      lru_.pop_back();
    }
  }

 private:
  double capacity_;
  double held_ = 0.0;
  std::list<std::pair<index_t, double>> lru_;
  std::map<index_t, std::list<std::pair<index_t, double>>::iterator> pos_;
};

struct Staged {
  Task task;
  int resource = -1;
  int pending_transfers = 0;
};

/// Per-GPU resident-set tracker: the shared DeviceLru from the engine
/// model (runtime/engine_model.hpp), so the simulator and the real
/// driver's emulated engines evict under identical recency/pinning rules.
using DeviceMemory = DeviceLru;

struct Transfer {
  index_t panel = -1;
  int dest = DataDirectory::kHost;  ///< kHost or gpu index
  int engine = 0;                   ///< DMA engine carrying it
  double bytes = 0.0;
  bool d2h = false;
  /// For GPU->GPU routing: once landed on the host, forward here.
  int forward_to = -2;  // -2 = none
  std::vector<int> waiters;  ///< staged-task ids
};

class Simulation {
 public:
  Simulation(Scheduler& sched, const Machine& machine,
             const TaskTable& table, const CostModel& model,
             double total_flops, const SimOptions& options)
      : sched_(sched),
        machine_(machine),
        table_(table),
        model_(model),
        options_(options),
        owned_directory_(
            options.directory == nullptr
                ? std::make_unique<DataDirectory>(
                      table.structure(), table.factorization(),
                      model.options().complex_arith ? 16 : 8,
                      machine.num_gpus())
                : nullptr),
        directory_(options.directory != nullptr ? *options.directory
                                                : *owned_directory_),
        total_flops_(total_flops) {
    const int nr = machine.num_resources();
    state_.assign(nr, Idle);
    cpu_done_.assign(nr, kInf);
    task_start_.assign(nr, 0.0);
    current_.assign(nr, Staged{});
    for (int r = 0; r < nr; ++r) {
      caches_.emplace_back(model.spec().cpu_cache_bytes);
    }
    for (int g = 0; g < machine.num_gpus(); ++g) {
      engines_.emplace_back(machine.streams_per_gpu());
      dma_busy_until_.push_back(0.0);
      dma_active_.push_back(-1);
      dma_queue_.emplace_back();
      device_memory_.emplace_back(model.spec().gpu_memory_bytes);
    }
    stats_.busy.assign(nr, 0.0);
  }

  RunStats run() {
    // Directory first: sched_.reset() already places the initially-ready
    // tasks, and dmda placement reads residency for transfer estimates.
    directory_.reset();
    sched_.reset();
    std::int64_t events = 0;
    while (!sched_.finished()) {
      dispatch();
      if (sched_.finished()) break;
      const double t = next_event_time();
      if (t == kInf) {
        throw InternalError("simulation deadlock: no events, not finished");
      }
      now_ = t;
      process_events();
      if (options_.max_events > 0 && ++events > options_.max_events) {
        throw InternalError("simulation exceeded max_events");
      }
    }
    stats_.makespan = now_;
    stats_.gflops = now_ > 0 ? total_flops_ / now_ / 1e9 : 0.0;
    return stats_;
  }

 private:
  enum State { Idle, Staging, Computing };

  // ---- data movement ----------------------------------------------------

  /// Requests panel p valid at `dest`; returns false when no transfer was
  /// needed.  `waiter` (staged id) is notified on completion; -1 = none.
  bool request_transfer(index_t p, int dest, int waiter) {
    if (directory_.valid_on(p, dest)) return false;
    const auto key = std::make_pair(dest, p);
    const auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      if (waiter >= 0) transfers_[it->second].waiters.push_back(waiter);
      return true;
    }
    const int src = directory_.source_of(p);
    Transfer tr;
    tr.panel = p;
    tr.bytes = directory_.panel_bytes(p);
    if (dest == DataDirectory::kHost) {
      SPX_ASSERT(src != DataDirectory::kHost);
      tr.dest = DataDirectory::kHost;
      tr.engine = src;
      tr.d2h = true;
    } else if (src == DataDirectory::kHost) {
      tr.dest = dest;
      tr.engine = dest;
      tr.d2h = false;
    } else {
      // GPU -> GPU: stage through the host (two hops; StarPU's direct
      // peer transfer is approximated by back-to-back hops).
      tr.dest = DataDirectory::kHost;
      tr.engine = src;
      tr.d2h = true;
      tr.forward_to = dest;
    }
    if (waiter >= 0) tr.waiters.push_back(waiter);
    const int id = static_cast<int>(transfers_.size());
    const int engine = tr.engine;
    const bool two_hop = tr.forward_to != -2;
    transfers_.push_back(std::move(tr));
    inflight_[key] = id;
    if (two_hop) {
      // The final hop is what unblocks the waiter; also dedupe on it.
      inflight_[std::make_pair(dest, p)] = id;
    }
    dma_queue_[engine].push_back(id);
    pump_dma(engine);
    return true;
  }

  void pump_dma(int g) {
    if (dma_active_[g] >= 0 || dma_queue_[g].empty()) return;
    const int id = dma_queue_[g].front();
    dma_queue_[g].pop_front();
    dma_active_[g] = id;
    dma_busy_until_[g] = std::max(now_, dma_busy_until_[g]) +
                         model_.transfer_seconds(transfers_[id].bytes);
  }

  void finish_transfer(int g) {
    const int id = dma_active_[g];
    dma_active_[g] = -1;
    Transfer& tr = transfers_[id];
    if (tr.dest != DataDirectory::kHost) {
      make_room(tr.dest, tr.bytes);
      device_memory_[tr.dest].insert(tr.panel, tr.bytes);
    }
    if (options_.trace != nullptr) {
      options_.trace->record_span(
          tr.d2h ? "transfer.d2h" : "transfer.h2d", "dma-", {},
          dma_busy_until_[g] - model_.transfer_seconds(tr.bytes),
          dma_busy_until_[g], g, tr.panel,
          static_cast<std::int64_t>(tr.bytes));
    }
    directory_.add_copy(tr.panel, tr.dest);
    (tr.d2h ? stats_.bytes_d2h : stats_.bytes_h2d) += tr.bytes;
    inflight_.erase(std::make_pair(tr.dest, tr.panel));
    if (tr.forward_to != -2) {
      // Second hop: host -> destination GPU.
      const int dest = tr.forward_to;
      tr.forward_to = -2;
      tr.dest = dest;
      tr.engine = dest;
      tr.d2h = false;
      dma_queue_[dest].push_back(id);
      pump_dma(dest);
      pump_dma(g);
      return;
    }
    for (const int w : tr.waiters) {
      if (--staged_[w].pending_transfers == 0) start_compute(w);
    }
    tr.waiters.clear();
    pump_dma(g);
  }

  /// Evicts clean LRU panels from GPU `g` until `incoming` bytes fit.
  void make_room(int g, double incoming) {
    DeviceMemory& mem = device_memory_[g];
    while (mem.used() + incoming > mem.capacity()) {
      const index_t victim = mem.eviction_victim([&](index_t p) {
        // Only clean panels (valid somewhere else) can be dropped
        // without a write-back.
        if (!directory_.valid_on(p, g)) return true;  // stale entry
        for (int loc = DataDirectory::kHost; loc < machine_.num_gpus();
             ++loc) {
          if (loc != g && directory_.valid_on(p, loc)) return true;
        }
        return false;
      });
      if (victim < 0) break;  // everything pinned/dirty: over-subscribe
      if (directory_.valid_on(victim, g)) {
        directory_.drop_copy(victim, g);
      }
      mem.remove(victim);
      stats_.gpu_evictions++;
    }
  }

  // ---- task lifecycle -----------------------------------------------------

  /// Shared with the real driver's engine layer (task_handles in
  /// runtime/engine_model.hpp): both stage exactly this handle set.
  std::vector<index_t> handles_of(const Task& t) const {
    return task_handles(table_.structure(), sched_.subtree_groups(), t);
  }

  void begin_task(int r, const Task& t) {
    const int id = static_cast<int>(staged_.size());
    staged_.push_back({t, r, 0});
    state_[r] = Staging;
    current_[r] = staged_[id];
    const Resource& res = machine_.resource(r);
    const int loc =
        res.kind == ResourceKind::Cpu ? DataDirectory::kHost : res.gpu;
    int pending = 0;
    if (machine_.num_gpus() > 0) {
      for (const index_t h : handles_of(t)) {
        if (res.kind == ResourceKind::GpuStream) {
          device_memory_[res.gpu].pin(h);
          device_memory_[res.gpu].touch(h);
        }
        if (request_transfer(h, loc, id)) ++pending;
      }
    }
    staged_[id].pending_transfers = pending;
    if (pending == 0) start_compute(id);
  }

  void start_compute(int id) {
    const Staged& s = staged_[id];
    const int r = s.resource;
    const Resource& res = machine_.resource(r);
    state_[r] = Computing;
    current_[r] = s;
    const Task& t = s.task;
    if (res.kind == ResourceKind::Cpu) {
      double dur;
      CacheModel& cache = caches_[r];
      const SymbolicStructure& st = table_.structure();
      if (t.kind == TaskKind::Subtree) {
        // Merged subtree: every member's factor + updates back to back on
        // this worker; each member panel is hot right after its factor.
        dur = 0.0;
        for (const index_t m : sched_.subtree_groups()->members[t.panel]) {
          dur += model_.panel_seconds(m, ResourceKind::Cpu);
          cache.touch(m, model_.panel_bytes(m));
          for (index_t e = 0;
               e < static_cast<index_t>(st.targets[m].size()); ++e) {
            const index_t dst = st.targets[m][e].dst;
            const bool dst_hot = cache.hot(dst);
            stats_.cache_queries++;
            stats_.cache_hits += dst_hot ? 1 : 0;
            dur += model_.cpu_update_seconds(m, e, true, dst_hot);
            cache.touch(dst, model_.panel_bytes(dst));
          }
        }
      } else if (t.kind == TaskKind::Panel) {
        dur = model_.panel_seconds(t.panel, ResourceKind::Cpu);
        cache.touch(t.panel, model_.panel_bytes(t.panel));
      } else {
        const index_t dst = st.targets[t.panel][t.edge].dst;
        const bool src_hot = cache.hot(t.panel);
        const bool dst_hot = cache.hot(dst);
        stats_.cache_queries += 2;
        stats_.cache_hits += (src_hot ? 1 : 0) + (dst_hot ? 1 : 0);
        dur = model_.cpu_update_seconds(t.panel, t.edge, src_hot, dst_hot);
        cache.touch(t.panel, model_.panel_bytes(t.panel));
        cache.touch(dst, model_.panel_bytes(dst));
      }
      cpu_done_[r] = now_ + dur;
      task_start_[r] = now_;
      stats_.busy[r] += dur;
      stats_.tasks_cpu++;
    } else {
      SPX_ASSERT(t.kind == TaskKind::Update);
      const double dur = model_.gpu_update_seconds(t.panel, t.edge) +
                         model_.options().task_overhead;
      engines_[res.gpu].start(res.stream, now_, dur,
                              model_.gpu_update_demand(t.panel, t.edge));
      task_start_[r] = now_;
      stats_.tasks_gpu++;
    }
  }

  void complete_task(int r) {
    const Staged s = current_[r];
    if (options_.trace != nullptr) {
      options_.trace->record_span(to_string(s.task.kind), "worker-", {},
                                  task_start_[r], now_, r, s.task.panel,
                                  s.task.edge);
    }
    const Resource& res = machine_.resource(r);
    const int loc =
        res.kind == ResourceKind::Cpu ? DataDirectory::kHost : res.gpu;
    const Task& t = s.task;
    if (machine_.num_gpus() > 0) {
      // A write invalidates all other copies; mirror that in the per-GPU
      // resident-set accounting.
      const auto write_handle = [&](index_t h) {
        directory_.note_write(h, loc);
        for (int g = 0; g < machine_.num_gpus(); ++g) {
          if (g != loc) device_memory_[g].remove(h);
        }
      };
      if (t.kind == TaskKind::Update) {
        write_handle(table_.structure().targets[t.panel][t.edge].dst);
      } else if (t.kind == TaskKind::Subtree) {
        for (const index_t h : handles_of(t)) write_handle(h);
      } else {
        write_handle(t.panel);
      }
    }
    if (res.kind == ResourceKind::GpuStream) {
      for (const index_t h : handles_of(t)) {
        device_memory_[res.gpu].unpin(h);
      }
    }
    state_[r] = Idle;
    cpu_done_[r] = kInf;
    sched_.on_complete(t, r);
  }

  // ---- event loop ---------------------------------------------------------

  void dispatch() {
    bool progress = true;
    while (progress) {
      progress = false;
      for (int r = 0; r < machine_.num_resources(); ++r) {
        if (state_[r] != Idle) continue;
        Task t;
        if (sched_.try_pop(r, &t)) {
          begin_task(r, t);
          progress = true;
        }
      }
    }
    if (options_.prefetch && machine_.num_gpus() > 0) {
      for (int r = 0; r < machine_.num_resources(); ++r) {
        const Resource& res = machine_.resource(r);
        if (res.kind != ResourceKind::GpuStream) continue;
        // Prefetch a small look-ahead window, like StarPU does.
        Task t;
        for (int ahead = 0; ahead < 2 && sched_.peek_prefetch(r, &t);
             ++ahead) {
          for (const index_t h : handles_of(t)) {
            request_transfer(h, res.gpu, -1);
          }
        }
      }
    }
  }

  double next_event_time() const {
    double t = kInf;
    for (int r = 0; r < machine_.num_resources(); ++r) {
      t = std::min(t, cpu_done_[r]);
    }
    for (int g = 0; g < machine_.num_gpus(); ++g) {
      if (dma_active_[g] >= 0) t = std::min(t, dma_busy_until_[g]);
      t = std::min(t, engines_[g].next_completion().second);
    }
    return t;
  }

  void process_events() {
    // CPU completions.
    for (int r = 0; r < machine_.num_resources(); ++r) {
      if (cpu_done_[r] <= now_ + 1e-15) complete_task(r);
    }
    // Transfer completions.
    for (int g = 0; g < machine_.num_gpus(); ++g) {
      if (dma_active_[g] >= 0 && dma_busy_until_[g] <= now_ + 1e-15) {
        finish_transfer(g);
      }
    }
    // GPU kernel completions.
    for (int g = 0; g < machine_.num_gpus(); ++g) {
      engines_[g].advance(now_);
      while (true) {
        const auto [slot, t] = engines_[g].next_completion();
        if (slot < 0 || t > now_ + 1e-15) break;
        engines_[g].finish(slot, now_);
        // Find the resource id of this (gpu, stream).
        const int r = machine_.num_cpus() +
                      g * machine_.streams_per_gpu() + slot;
        SPX_ASSERT(machine_.resource(r).gpu == g &&
                   machine_.resource(r).stream == slot);
        stats_.busy[r] += now_ - task_start_[r];
        complete_task(r);
      }
    }
  }

  Scheduler& sched_;
  const Machine& machine_;
  const TaskTable& table_;
  const CostModel& model_;
  SimOptions options_;
  std::unique_ptr<DataDirectory> owned_directory_;
  DataDirectory& directory_;
  double total_flops_;

  double now_ = 0.0;
  std::vector<State> state_;
  std::vector<double> cpu_done_;
  std::vector<double> task_start_;
  std::vector<Staged> current_;
  std::vector<CacheModel> caches_;
  std::vector<DeviceEngine> engines_;
  std::vector<DeviceMemory> device_memory_;
  std::vector<double> dma_busy_until_;
  std::vector<int> dma_active_;
  std::vector<std::deque<int>> dma_queue_;
  std::vector<Staged> staged_;
  std::vector<Transfer> transfers_;
  std::map<std::pair<int, index_t>, int> inflight_;
  RunStats stats_;
};

}  // namespace

RunStats simulate(Scheduler& scheduler, const Machine& machine,
                  const TaskTable& table, const CostModel& model,
                  double total_flops, const SimOptions& options) {
  Simulation sim(scheduler, machine, table, model, total_flops, options);
  return sim.run();
}

}  // namespace spx::sim
