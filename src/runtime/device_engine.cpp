#include "runtime/device_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <thread>
#include <unordered_map>

namespace spx {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void throttle(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace

// ---- TransferTicket --------------------------------------------------------

void TransferTicket::wait() {
  std::unique_lock<std::mutex> lock(m_);
  cv_.wait(lock, [&] { return done_; });
}

void TransferTicket::complete() {
  {
    std::lock_guard<std::mutex> lock(m_);
    done_ = true;
  }
  cv_.notify_all();
}

bool TransferTicket::done() const {
  std::lock_guard<std::mutex> lock(m_);
  return done_;
}

// ---- task_handles ----------------------------------------------------------

std::vector<index_t> task_handles(const SymbolicStructure& st,
                                  const SubtreeGroups* groups, const Task& t) {
  if (t.kind == TaskKind::Update) {
    const index_t dst = st.targets[t.panel][t.edge].dst;
    if (dst == t.panel) return {t.panel};
    return {t.panel, dst};
  }
  if (t.kind == TaskKind::Subtree) {
    SPX_ASSERT(groups != nullptr && "subtree task without groups");
    std::vector<index_t> handles = groups->members[t.panel];
    for (const index_t m : groups->members[t.panel]) {
      for (const UpdateEdge& e : st.targets[m]) {
        if (groups->root_of[e.dst] != t.panel) handles.push_back(e.dst);
      }
    }
    std::sort(handles.begin(), handles.end());
    handles.erase(std::unique(handles.begin(), handles.end()), handles.end());
    return handles;
  }
  return {t.panel};
}

// ---- CpuEngine -------------------------------------------------------------

namespace {

/// Engine 0: the host memory space behind the CPU worker pool.  Host
/// memory is the home location, so acquiring only ever means pulling a
/// device-dirty handle back through its owning engine's DMA queue.
class CpuEngine final : public DeviceEngine {
 public:
  CpuEngine(EngineGroup* group, DataDirectory* dir, int streams)
      : group_(group), dir_(dir), streams_(streams) {}

  const char* name() const override { return "cpu"; }
  ResourceKind resource_kind() const override { return ResourceKind::Cpu; }
  int num_streams() const override { return streams_; }

  double acquire(const std::vector<index_t>& handles) override {
    const auto t0 = std::chrono::steady_clock::now();
    bool waited = false;
    for (const index_t h : handles) {
      while (!dir_->valid_on(h, DataDirectory::kHost)) {
        std::shared_ptr<TransferTicket> ticket = group_->request_host_copy(h);
        if (ticket == nullptr) break;
        ticket->wait();
        waited = true;
      }
    }
    return waited ? seconds_since(t0) : 0.0;
  }

  void release(const std::vector<index_t>& handles,
               const std::vector<index_t>& written) override {
    (void)handles;
    for (const index_t w : written) {
      dir_->note_write(w, DataDirectory::kHost);
    }
  }

  /// Host-side overlap: start the D2H write-back of device-dirty handles
  /// a queued CPU task will need, so its later acquire finds the host
  /// copy valid.  The driver only prefetches *ready* tasks, so the bytes
  /// written back are final.
  void prefetch(const std::vector<index_t>& handles) override {
    for (const index_t h : handles) {
      if (dir_->valid_on(h, DataDirectory::kHost)) continue;
      group_->request_host_copy(h, /*demand=*/false);
    }
  }

 private:
  EngineGroup* group_;
  DataDirectory* dir_;
  int streams_;
};

// ---- EmulatedAcceleratorEngine ---------------------------------------------

/// Engines 1..N: an accelerator emulated on the host.  A dedicated DMA
/// thread drains a FIFO of transfer jobs; each job is throttled to the
/// EngineSpec link, then performs the staging memcpy between the factor
/// panels and this device's arena under the panel's lock, updating the
/// coherence directory inside the same critical section (so a staging
/// copy can never be marked valid around a concurrent panel write).
class EmulatedAcceleratorEngine final : public DeviceEngine {
 public:
  EmulatedAcceleratorEngine(int device, const EngineSpec& spec,
                            DataDirectory& dir, PanelStore& store,
                            FaultInjector* fault, obs::MetricsRegistry& reg,
                            obs::Tracer* tracer, obs::SpanContext parent)
      : device_(device),
        spec_(spec),
        dir_(&dir),
        store_(&store),
        fault_(fault),
        tracer_(tracer),
        parent_(parent),
        lru_(spec.memory_bytes),
        m_bytes_h2d_(reg.counter(
            "spx_engine_transfer_bytes_total",
            "Bytes staged between host and device engines",
            {{"dir", "h2d"}, {"device", std::to_string(device)}})),
        m_bytes_d2h_(reg.counter(
            "spx_engine_transfer_bytes_total",
            "Bytes staged between host and device engines",
            {{"dir", "d2h"}, {"device", std::to_string(device)}})),
        m_transfers_h2d_(reg.counter(
            "spx_engine_transfers_total", "Staging transfers by direction",
            {{"dir", "h2d"}, {"device", std::to_string(device)}})),
        m_transfers_d2h_(reg.counter(
            "spx_engine_transfers_total", "Staging transfers by direction",
            {{"dir", "d2h"}, {"device", std::to_string(device)}})),
        m_evictions_(reg.counter(
            "spx_engine_evictions_total",
            "Panels evicted from device arenas under memory pressure",
            {{"device", std::to_string(device)}})),
        m_transfer_bytes_(reg.histogram("spx_engine_transfer_bytes",
                                        obs::Histogram::byte_bounds(),
                                        "Staging transfer sizes")) {}

  void bind(EngineGroup* group) { group_ = group; }

  const char* name() const override { return "emu"; }
  ResourceKind resource_kind() const override {
    return ResourceKind::GpuStream;
  }
  int num_streams() const override { return spec_.streams; }

  void start() override {
    // One DMA thread per direction: PCIe is full duplex and real devices
    // expose separate H2D/D2H copy engines, so a demanded write-back
    // never queues behind an in-progress speculative fetch.
    dma_h2d_ = std::thread([this] { dma_loop(&h2d_); });
    dma_d2h_ = std::thread([this] { dma_loop(&d2h_); });
  }

  void stop() override {
    {
      std::lock_guard<std::mutex> lock(m_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (dma_h2d_.joinable()) dma_h2d_.join();
    if (dma_d2h_.joinable()) dma_d2h_.join();
  }

  double acquire(const std::vector<index_t>& handles) override {
    const auto t0 = std::chrono::steady_clock::now();
    bool waited = false;
    {
      std::lock_guard<std::mutex> lock(m_);
      for (const index_t h : handles) lru_.pin(h);
    }
    std::vector<std::shared_ptr<TransferTicket>> pending;
    for (const index_t h : handles) {
      if (dir_->valid_on(h, device_)) {
        std::lock_guard<std::mutex> lock(m_);
        lru_.touch(h);
        continue;
      }
      // Two-hop path: another device owns the only (dirty) copy -- pull
      // it home first, then stage host -> this device.
      while (!dir_->valid_on(h, DataDirectory::kHost)) {
        std::shared_ptr<TransferTicket> wb = group_->request_host_copy(h);
        if (wb == nullptr) break;
        wb->wait();
        waited = true;
      }
      if (std::shared_ptr<TransferTicket> t =
              enqueue(h, /*to_device=*/true, /*demand=*/true)) {
        pending.push_back(std::move(t));
      }
    }
    for (const std::shared_ptr<TransferTicket>& t : pending) {
      t->wait();
      waited = true;
    }
    return waited ? seconds_since(t0) : 0.0;
  }

  void release(const std::vector<index_t>& handles,
               const std::vector<index_t>& written) override {
    for (const index_t w : written) {
      // Compute ran against host (unified) memory; refresh the arena
      // copy from the freshly-written host bytes so the device-side
      // instance stays byte-identical, then claim MSI ownership.
      std::lock_guard<std::mutex> panel_lock(store_->panel_mutex(w));
      std::lock_guard<std::mutex> lock(m_);
      const auto it = arena_.find(w);
      if (it != arena_.end()) {
        store_->read_panel(w, it->second.data());
        dir_->note_write(w, device_);
      } else {
        // Written without a staged copy (should not happen after a
        // successful acquire, but stay coherent): host keeps ownership.
        dir_->note_write(w, DataDirectory::kHost);
      }
    }
    std::lock_guard<std::mutex> lock(m_);
    for (const index_t h : handles) lru_.unpin(h);
  }

  void prefetch(const std::vector<index_t>& handles) override {
    for (const index_t h : handles) {
      if (dir_->valid_on(h, device_)) {
        std::lock_guard<std::mutex> lock(m_);
        lru_.touch(h);
        continue;
      }
      // Never chain a cross-device write-back from the prefetch path;
      // acquire() will do it synchronously if still needed.
      if (!dir_->valid_on(h, DataDirectory::kHost)) continue;
      enqueue(h, /*to_device=*/true, /*demand=*/false);
    }
  }

  std::shared_ptr<TransferTicket> request_writeback(index_t p,
                                                    bool demand) override {
    if (dir_->valid_on(p, DataDirectory::kHost)) return nullptr;
    return enqueue(p, /*to_device=*/false, demand);
  }

  TransferCounters counters() const override {
    std::lock_guard<std::mutex> lock(m_);
    return counters_;
  }

 private:
  struct TransferJob {
    index_t panel = -1;
    bool to_device = true;
    std::shared_ptr<TransferTicket> ticket;
  };

  static std::int64_t job_key(index_t p, bool to_device) {
    return (static_cast<std::int64_t>(p) << 1) | (to_device ? 1 : 0);
  }

  /// One direction of the link: a demand FIFO (a worker is, or is about
  /// to be, blocked on these) and a speculative FIFO (prefetch); the
  /// direction's DMA thread drains demand first.
  struct Direction {
    std::deque<TransferJob> demand_q;
    std::deque<TransferJob> prefetch_q;
    bool empty() const { return demand_q.empty() && prefetch_q.empty(); }
  };

  /// Queues a transfer task (deduplicating against in-flight ones) and
  /// returns its completion ticket.  Demand jobs go to the priority
  /// queue; a demand request for an already-queued speculative job
  /// promotes it.
  std::shared_ptr<TransferTicket> enqueue(index_t p, bool to_device,
                                          bool demand) {
    std::shared_ptr<TransferTicket> ticket;
    {
      std::lock_guard<std::mutex> lock(m_);
      const std::int64_t key = job_key(p, to_device);
      const auto it = inflight_.find(key);
      if (it != inflight_.end()) {
        if (demand) promote(to_device ? h2d_ : d2h_, key);
        return it->second;
      }
      ticket = std::make_shared<TransferTicket>();
      inflight_[key] = ticket;
      Direction& dir = to_device ? h2d_ : d2h_;
      (demand ? dir.demand_q : dir.prefetch_q).push_back(
          {p, to_device, ticket});
    }
    cv_.notify_all();
    return ticket;
  }

  /// Moves a queued speculative job to its demand queue (under m_).
  static void promote(Direction& dir, std::int64_t key) {
    for (auto it = dir.prefetch_q.begin(); it != dir.prefetch_q.end();
         ++it) {
      if (job_key(it->panel, it->to_device) != key) continue;
      dir.demand_q.push_back(*it);
      dir.prefetch_q.erase(it);
      return;
    }
  }

  void dma_loop(Direction* dir) {
    for (;;) {
      TransferJob job;
      {
        std::unique_lock<std::mutex> lock(m_);
        cv_.wait(lock, [&] { return stopping_ || !dir->empty(); });
        if (dir->empty()) return;  // stopping and drained
        std::deque<TransferJob>& q =
            dir->demand_q.empty() ? dir->prefetch_q : dir->demand_q;
        job = q.front();
        q.pop_front();
      }
      if (job.to_device) {
        stage_h2d(job.panel);
      } else {
        stage_d2h(job.panel);
      }
      {
        std::lock_guard<std::mutex> lock(m_);
        inflight_.erase(job_key(job.panel, job.to_device));
      }
      job.ticket->complete();
    }
  }

  /// Host -> device staging: throttle to the emulated link, make room,
  /// then copy the panel bytes into the arena.  The memcpy and the
  /// directory update share one panel-lock critical section: a writer
  /// that sneaks in after them invalidates this copy via note_write, so
  /// the directory can never claim stale staged bytes valid.
  void stage_h2d(index_t p) {
    if (fault_ != nullptr) fault_->on_transfer_start();
    const double bytes = dir_->panel_bytes(p);
    const double t0 = tracer_ != nullptr ? tracer_->now() : 0.0;
    throttle(spec_.transfer_seconds(bytes));
    make_room(bytes, p);
    bool copied = false;
    {
      std::lock_guard<std::mutex> panel_lock(store_->panel_mutex(p));
      // The host copy can have vanished since this job was queued (a
      // device write invalidated it); the acquire path re-requests after
      // the write-back, so just drop the job.
      if (dir_->valid_on(p, DataDirectory::kHost) &&
          !dir_->valid_on(p, device_)) {
        const std::size_t n = store_->panel_bytes(p);
        std::lock_guard<std::mutex> lock(m_);
        std::vector<std::byte>& buf = arena_[p];
        buf.resize(n);
        store_->read_panel(p, buf.data());
        lru_.insert(p, bytes);
        dir_->add_copy(p, device_);
        copied = true;
      }
    }
    if (copied) note_transfer(p, bytes, /*to_device=*/true, t0);
  }

  /// Device -> host write-back of a dirty copy.  The arena bytes are
  /// byte-identical to the host's (compute runs on unified memory), so
  /// this is a real memcpy that can never corrupt -- it exists to move
  /// real bytes through the throttled link and flip dirty -> clean.
  void stage_d2h(index_t p) {
    if (fault_ != nullptr) fault_->on_transfer_start();
    const double bytes = dir_->panel_bytes(p);
    const double t0 = tracer_ != nullptr ? tracer_->now() : 0.0;
    throttle(spec_.transfer_seconds(bytes));
    bool copied = false;
    {
      std::lock_guard<std::mutex> panel_lock(store_->panel_mutex(p));
      if (!dir_->valid_on(p, DataDirectory::kHost) &&
          dir_->dirty_on(p, device_)) {
        std::lock_guard<std::mutex> lock(m_);
        const auto it = arena_.find(p);
        SPX_ASSERT(it != arena_.end() && "dirty panel without arena copy");
        store_->write_panel(p, it->second.data());
        dir_->add_copy(p, DataDirectory::kHost);
        dir_->mark_clean(p, device_);
        copied = true;
      }
    }
    if (copied) note_transfer(p, bytes, /*to_device=*/false, t0);
  }

  /// Evicts LRU panels until `bytes` more fit (or nothing evictable is
  /// left -- then oversubscribe rather than deadlock).  Dirty victims are
  /// written back first; stale victims (invalidated by a host write) are
  /// dropped for free.
  void make_room(double bytes, index_t incoming) {
    for (;;) {
      index_t victim = -1;
      bool dirty = false;
      {
        std::lock_guard<std::mutex> lock(m_);
        const double incoming_resident =
            lru_.resident(incoming) ? dir_->panel_bytes(incoming) : 0.0;
        if (lru_.used() - incoming_resident + bytes <= lru_.capacity()) {
          return;
        }
        victim = lru_.eviction_victim(
            [&](index_t q) { return q != incoming; });
        if (victim < 0) return;  // everything pinned: oversubscribe
        dirty = dir_->dirty_on(victim, device_);
      }
      if (dirty) stage_d2h(victim);
      std::lock_guard<std::mutex> panel_lock(store_->panel_mutex(victim));
      std::lock_guard<std::mutex> lock(m_);
      if (!lru_.resident(victim) || lru_.pinned(victim)) continue;
      if (dir_->dirty_on(victim, device_)) continue;  // re-dirtied: retry
      if (dir_->valid_on(victim, device_)) dir_->drop_copy(victim, device_);
      lru_.remove(victim);
      arena_.erase(victim);
      counters_.evictions++;
      SPX_OBS(m_evictions_.inc());
    }
  }

  void note_transfer(index_t p, double bytes, bool to_device, double t0) {
    {
      std::lock_guard<std::mutex> lock(m_);
      if (to_device) {
        counters_.bytes_h2d += bytes;
        counters_.transfers_h2d++;
      } else {
        counters_.bytes_d2h += bytes;
        counters_.transfers_d2h++;
      }
    }
    SPX_OBS((to_device ? m_bytes_h2d_ : m_bytes_d2h_).inc(bytes));
    SPX_OBS((to_device ? m_transfers_h2d_ : m_transfers_d2h_).inc());
    SPX_OBS(m_transfer_bytes_.observe(bytes));
    if (tracer_ != nullptr && obs::enabled()) {
      tracer_->record_span(to_device ? "transfer.h2d" : "transfer.d2h",
                           "dma-", parent_, t0, tracer_->now(), device_,
                           static_cast<std::int64_t>(p),
                           static_cast<std::int64_t>(bytes));
    }
  }

  const int device_;
  const EngineSpec spec_;
  DataDirectory* dir_;
  PanelStore* store_;
  FaultInjector* fault_;
  obs::Tracer* tracer_;
  obs::SpanContext parent_;
  EngineGroup* group_ = nullptr;

  mutable std::mutex m_;
  std::condition_variable cv_;
  bool stopping_ = false;
  Direction h2d_;
  Direction d2h_;
  std::unordered_map<std::int64_t, std::shared_ptr<TransferTicket>> inflight_;
  DeviceLru lru_;
  std::unordered_map<index_t, std::vector<std::byte>> arena_;
  TransferCounters counters_;

  obs::Counter& m_bytes_h2d_;
  obs::Counter& m_bytes_d2h_;
  obs::Counter& m_transfers_h2d_;
  obs::Counter& m_transfers_d2h_;
  obs::Counter& m_evictions_;
  obs::Histogram& m_transfer_bytes_;

  std::thread dma_h2d_;
  std::thread dma_d2h_;
};

}  // namespace

// ---- EngineGroup -----------------------------------------------------------

EngineGroup::EngineGroup(const Machine& machine, const HeteroOptions& options,
                         DataDirectory& directory, PanelStore& store,
                         FaultInjector* fault, obs::MetricsRegistry& registry,
                         obs::Tracer* tracer, obs::SpanContext parent)
    : machine_(&machine), options_(options), directory_(&directory) {
  SPX_CHECK_ARG(directory.num_gpus() >= machine.num_gpus(),
                "DataDirectory tracks fewer devices than the machine has");
  engines_.push_back(
      std::make_unique<CpuEngine>(this, &directory, machine.num_cpus()));
  for (std::size_t d = 0; d < options.devices.size(); ++d) {
    auto engine = std::make_unique<EmulatedAcceleratorEngine>(
        static_cast<int>(d), options.devices[d], directory, store, fault,
        registry, tracer, parent);
    engine->bind(this);
    engines_.push_back(std::move(engine));
  }
  for (const std::unique_ptr<DeviceEngine>& e : engines_) e->start();
}

EngineGroup::~EngineGroup() { stop(); }

DeviceEngine& EngineGroup::engine_of(int resource) {
  const Resource& res = machine_->resource(resource);
  if (res.kind == ResourceKind::Cpu) return *engines_.front();
  return *engines_[1 + static_cast<std::size_t>(res.gpu)];
}

double EngineGroup::acquire(int resource,
                            const std::vector<index_t>& handles) {
  return engine_of(resource).acquire(handles);
}

void EngineGroup::release(int resource, const std::vector<index_t>& handles,
                          const std::vector<index_t>& written) {
  engine_of(resource).release(handles, written);
}

void EngineGroup::prefetch(int resource,
                           const std::vector<index_t>& handles) {
  engine_of(resource).prefetch(handles);
}

std::shared_ptr<TransferTicket> EngineGroup::request_host_copy(index_t p,
                                                               bool demand) {
  const int src = directory_->source_of(p);
  if (src == DataDirectory::kHost) return nullptr;
  return engines_[1 + static_cast<std::size_t>(src)]->request_writeback(
      p, demand);
}

void EngineGroup::stop() {
  for (const std::unique_ptr<DeviceEngine>& e : engines_) e->stop();
}

TransferCounters EngineGroup::totals() const {
  TransferCounters total;
  for (const std::unique_ptr<DeviceEngine>& e : engines_) {
    total += e->counters();
  }
  return total;
}

// ---- hetero_from_env -------------------------------------------------------

namespace {

bool env_int(const char* name, long* out) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return false;
  *out = std::strtol(v, nullptr, 10);
  return true;
}

bool env_double(const char* name, double* out) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return false;
  *out = std::strtod(v, nullptr);
  return true;
}

}  // namespace

HeteroOptions hetero_from_env(HeteroOptions base) {
  long engines = 0;
  if (env_int("SPX_HETERO_ENGINES", &engines)) {
    base.devices.assign(static_cast<std::size_t>(std::max(0L, engines)),
                        EngineSpec{});
  }
  long streams = 0;
  double bw = 0.0, latency_us = 0.0, mem_mb = 0.0;
  const bool has_streams = env_int("SPX_HETERO_STREAMS", &streams);
  const bool has_bw = env_double("SPX_HETERO_BW_GBPS", &bw);
  const bool has_lat = env_double("SPX_HETERO_LATENCY_US", &latency_us);
  const bool has_mem = env_double("SPX_HETERO_MEM_MB", &mem_mb);
  for (EngineSpec& d : base.devices) {
    if (has_streams) d.streams = static_cast<int>(std::max(1L, streams));
    if (has_bw) d.bandwidth_gbps = bw;
    if (has_lat) d.latency_seconds = latency_us * 1e-6;
    if (has_mem) d.memory_bytes = mem_mb * 1024.0 * 1024.0;
  }
  long overlap = 0;
  if (env_int("SPX_HETERO_OVERLAP", &overlap)) base.overlap = overlap != 0;
  return base;
}

}  // namespace spx
