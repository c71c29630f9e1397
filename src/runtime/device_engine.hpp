// Pluggable device engines for the real (threaded) execution driver.
//
// The real driver executes tasks on a grid of resources (Machine): CPU
// workers first, then one resource per accelerator *stream*.  Each
// resource belongs to exactly one DeviceEngine, which owns that memory
// space's side of the coherence protocol:
//
//   * CpuEngine (engine 0) -- the host memory space behind the existing
//     CPU worker pool.  Host memory is the home location; acquiring a
//     handle whose only authoritative copy is device-dirty triggers a
//     D2H write-back through the owning engine.
//   * EmulatedAcceleratorEngine (engines 1..N) -- an accelerator
//     emulated on the host: a dedicated DMA thread drains a FIFO of
//     transfer tasks, each throttled to the EngineSpec's bandwidth and
//     latency before performing a real staging memcpy between the
//     factor panels and a per-device arena; an LRU over the arena evicts
//     clean panels (and write-back dirty ones) under memory pressure.
//     Stream workers block in acquire() until their task's handles are
//     resident, so the full placement/transfer/stream machinery of a
//     hybrid run is exercised -- and unit-testable -- on any host.
//   * A real CUDA engine is a future third implementation of the same
//     interface (docs/ARCHITECTURE.md, "adding a backend").
//
// Compute itself stays in the driver (it is templated on the scalar
// type); engines are type-erased and see panels only as byte ranges
// through PanelStore.  Every staging memcpy runs under the panel's
// driver-side lock together with its directory update, which is what
// keeps a prefetch racing a concurrent writer coherent.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "runtime/data_directory.hpp"
#include "runtime/engine_model.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/machine.hpp"

namespace spx {

/// Type-erased byte view of the factor panels, implemented by the driver
/// over FactorData<T>.  read/write must copy under the panel's lock so
/// staging never tears against a concurrent panel writer.
class PanelStore {
 public:
  virtual ~PanelStore() = default;
  /// Staged size of panel p in bytes (L, plus U for LU).
  virtual std::size_t panel_bytes(index_t p) const = 0;
  /// Copies the panel's current host bytes into `dst`.
  virtual void read_panel(index_t p, std::byte* dst) const = 0;
  /// Overwrites the panel's host bytes from `src`.
  virtual void write_panel(index_t p, const std::byte* src) = 0;
  /// The driver-side lock serializing writers of panel p; staging
  /// memcpys and their directory updates run under it.
  virtual std::mutex& panel_mutex(index_t p) const = 0;
};

/// Per-engine transfer accounting, merged into RunStats after the run.
struct TransferCounters {
  double bytes_h2d = 0.0;
  double bytes_d2h = 0.0;
  index_t transfers_h2d = 0;
  index_t transfers_d2h = 0;
  index_t evictions = 0;

  TransferCounters& operator+=(const TransferCounters& o) {
    bytes_h2d += o.bytes_h2d;
    bytes_d2h += o.bytes_d2h;
    transfers_h2d += o.transfers_h2d;
    transfers_d2h += o.transfers_d2h;
    evictions += o.evictions;
    return *this;
  }
};

/// Completion handle of one asynchronous transfer task.
class TransferTicket {
 public:
  void wait();
  void complete();
  bool done() const;

 private:
  mutable std::mutex m_;
  std::condition_variable cv_;
  bool done_ = false;
};

class EngineGroup;

/// One memory space plus the machinery to move panel data in and out of
/// it.  Implementations are internally synchronized; acquire/release/
/// prefetch are called concurrently from the streams' worker threads.
class DeviceEngine {
 public:
  virtual ~DeviceEngine() = default;

  /// Engine name for traces and docs ("cpu", "emu"; "cuda" later).
  virtual const char* name() const = 0;
  /// Resource class of this engine's streams.
  virtual ResourceKind resource_kind() const = 0;
  /// Worker threads (CPU) or kernel streams (accelerator) it serves.
  virtual int num_streams() const = 0;

  /// Spawns engine-owned service threads (DMA); paired with stop().
  virtual void start() {}
  /// Drains and joins engine-owned threads; engines outlive workers.
  virtual void stop() {}

  /// Blocking: makes every handle readable (and writable) in this
  /// engine's memory space; returns seconds spent blocked on transfers.
  virtual double acquire(const std::vector<index_t>& handles) = 0;
  /// Post-execution protocol step: `written` handles invalidate all
  /// other copies (MSI write), pins taken by acquire are dropped.
  virtual void release(const std::vector<index_t>& handles,
                       const std::vector<index_t>& written) = 0;
  /// Asynchronous, best-effort: starts staging `handles` toward this
  /// engine so a later acquire finds them resident (transfer-compute
  /// overlap).  Default: no-op.
  virtual void prefetch(const std::vector<index_t>& handles) {
    (void)handles;
  }
  /// Makes the *host* copy of p valid again (D2H write-back of a dirty
  /// copy this engine owns); null when nothing needs to move.  `demand`
  /// jobs jump ahead of speculative (prefetch-issued) ones in the DMA
  /// queue -- a blocked worker must never wait behind a speculation.
  virtual std::shared_ptr<TransferTicket> request_writeback(index_t p,
                                                            bool demand) {
    (void)p;
    (void)demand;
    return nullptr;
  }

  /// Transfer totals since construction (quiescent read after stop()).
  virtual TransferCounters counters() const { return {}; }
};

/// The engine set behind one real-driver run: engine 0 is the CPU pool's
/// host space, engines 1..N the emulated accelerators, with resource ids
/// mapped exactly like Machine lays them out.  Owns the cross-engine
/// routing (host acquire of a device-dirty handle) and the aggregate
/// counters; the driver calls the per-resource entry points below from
/// its worker threads.
class EngineGroup {
 public:
  /// `directory` and `store` must outlive the group; `fault`, `tracer`
  /// may be null.  Builds one CpuEngine plus one emulated engine per
  /// HeteroOptions device; machine.num_gpus() must match (execute_real
  /// checks it before building the group).
  EngineGroup(const Machine& machine, const HeteroOptions& options,
              DataDirectory& directory, PanelStore& store,
              FaultInjector* fault, obs::MetricsRegistry& registry,
              obs::Tracer* tracer, obs::SpanContext parent);
  ~EngineGroup();

  /// Blocking staging for a task about to run on `resource`; returns
  /// seconds the worker spent blocked on transfers.
  double acquire(int resource, const std::vector<index_t>& handles);
  void release(int resource, const std::vector<index_t>& handles,
               const std::vector<index_t>& written);
  void prefetch(int resource, const std::vector<index_t>& handles);

  /// Joins every engine's service threads (call after workers joined).
  void stop();

  /// Cross-engine routing: asks whichever engine owns the authoritative
  /// (dirty) copy of p to write it back; null when the host is already
  /// valid.  Engines call this for two-hop device->host->device paths;
  /// the CPU engine's prefetch issues it speculatively (demand = false).
  std::shared_ptr<TransferTicket> request_host_copy(index_t p,
                                                    bool demand = true);

  DeviceEngine& engine_of(int resource);
  const HeteroOptions& options() const { return options_; }
  /// Aggregate transfer counters across engines (after stop()).
  TransferCounters totals() const;

 private:
  const Machine* machine_;
  HeteroOptions options_;
  DataDirectory* directory_;
  std::vector<std::unique_ptr<DeviceEngine>> engines_;
};

/// HeteroOptions overridden by the SPX_HETERO_* environment knobs
/// (documented in docs/DEVICE_ENGINES.md): _ENGINES, _STREAMS, _BW_GBPS,
/// _LATENCY_US, _MEM_MB, _OVERLAP.  Unset variables keep `base` values.
HeteroOptions hetero_from_env(HeteroOptions base = {});

}  // namespace spx
