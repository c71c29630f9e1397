// Coherence directory for panel data across memory spaces.
//
// One entry per panel handle; locations are the host (kHost = -1) plus
// each device engine (0..num_gpus-1).  Two bit sets per handle:
//
//   valid  -- which locations hold a readable copy of the panel.  The
//             protocol is MSI-like: a write leaves exactly one valid
//             copy (the writer's), reads replicate.
//   dirty  -- a device copy that is the *only* authoritative instance
//             (the device wrote it and the host has not been refreshed).
//             Evicting a dirty copy requires a D2H write-back first;
//             evicting a clean copy is free.
//
// The residency state machine per (handle, device) is therefore
//
//   Absent --H2D--> Clean --device write--> Dirty --D2H write-back--> Clean
//     ^               |  \__evict (free)___________________/ |
//     \_______________/            Dirty --evict--> forbidden until
//                                   write-back makes it Clean
//
// (the full table, with the host side, is in docs/DEVICE_ENGINES.md).
//
// The execution drivers own the authoritative instance: the simulator
// turns bytes_to_fetch into DMA-engine events, the real driver's
// emulated engines (runtime/device_engine.hpp) turn them into throttled
// staging memcpys.  Model-based schedulers (dmda) read the directory to
// estimate transfer penalties, concurrently with engine threads mutating
// it, so every bit operation is atomic: readers see *a* recent placement
// (estimates tolerate staleness) and writers never tear.  Setting a valid
// bit is a release and valid_on an acquire: an engine that finds a copy
// valid without waiting (CpuEngine::acquire) also sees the bytes a
// staging copy wrote there before the bit was set.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "symbolic/structure.hpp"

namespace spx {

class DataDirectory {
 public:
  static constexpr int kHost = -1;

  DataDirectory(const SymbolicStructure& st, Factorization kind,
                std::size_t scalar_bytes, int num_gpus)
      : st_(&st), num_gpus_(num_gpus) {
    const int arrays = (kind == Factorization::LU) ? 2 : 1;
    bytes_.resize(static_cast<std::size_t>(st.num_panels()));
    for (index_t p = 0; p < st.num_panels(); ++p) {
      bytes_[p] = static_cast<double>(st.panels[p].nrows) *
                  st.panels[p].width() * scalar_bytes * arrays;
    }
    valid_ = std::make_unique<std::atomic<std::uint32_t>[]>(bytes_.size());
    dirty_ = std::make_unique<std::atomic<std::uint32_t>[]>(bytes_.size());
    reset();
  }

  void reset() {
    // Everything starts valid on the host only, nothing dirty.
    for (std::size_t p = 0; p < bytes_.size(); ++p) {
      valid_[p].store(1u, std::memory_order_relaxed);
      dirty_[p].store(0u, std::memory_order_relaxed);
    }
  }

  int num_gpus() const { return num_gpus_; }
  double panel_bytes(index_t p) const { return bytes_[p]; }

  bool valid_on(index_t p, int loc) const {
    return (valid_[p].load(std::memory_order_acquire) >> bit(loc)) & 1u;
  }

  /// True when the copy at `loc` is the sole authoritative instance (a
  /// device wrote it); eviction then requires a write-back first.
  bool dirty_on(index_t p, int loc) const {
    return (dirty_[p].load(std::memory_order_relaxed) >> bit(loc)) & 1u;
  }

  /// Bytes that must move for panel p to be readable at `loc`.
  double bytes_to_fetch(index_t p, int loc) const {
    return valid_on(p, loc) ? 0.0 : bytes_[p];
  }

  /// Records that a copy of p now exists at `loc` (after a transfer).
  void add_copy(index_t p, int loc) {
    valid_[p].fetch_or(1u << bit(loc), std::memory_order_release);
  }

  /// Records a write to p at `loc`: all other copies become invalid, and
  /// a device writer's copy becomes dirty (host writes are never dirty --
  /// host memory is the home location).
  void note_write(index_t p, int loc) {
    valid_[p].store(1u << bit(loc), std::memory_order_release);
    dirty_[p].store(loc == kHost ? 0u : 1u << bit(loc),
                    std::memory_order_relaxed);
  }

  /// Records a completed write-back: the copy at `loc` is no longer the
  /// sole authoritative instance (the caller add_copy'd the host).
  void mark_clean(index_t p, int loc) {
    dirty_[p].fetch_and(~(1u << bit(loc)), std::memory_order_relaxed);
  }

  /// Drops the copy at `loc` (LRU eviction); another valid copy must
  /// exist elsewhere (write back a dirty copy before dropping it).
  void drop_copy(index_t p, int loc) {
    const std::uint32_t left =
        valid_[p].fetch_and(~(1u << bit(loc)), std::memory_order_relaxed) &
        ~(1u << bit(loc));
    SPX_ASSERT(left != 0 && "evicted the last copy of a panel");
  }

  /// A location currently holding a valid copy (preferring the host).
  int source_of(index_t p) const {
    if (valid_on(p, kHost)) return kHost;
    for (int g = 0; g < num_gpus_; ++g) {
      if (valid_on(p, g)) return g;
    }
    SPX_ASSERT(false && "panel has no valid copy");
    return kHost;
  }

  /// Total bytes resident on a GPU (for memory-pressure accounting).
  double resident_bytes(int gpu) const {
    double total = 0.0;
    for (std::size_t p = 0; p < bytes_.size(); ++p) {
      if (valid_on(static_cast<index_t>(p), gpu)) total += bytes_[p];
    }
    return total;
  }

 private:
  static unsigned bit(int loc) { return static_cast<unsigned>(loc + 1); }

  const SymbolicStructure* st_;
  int num_gpus_;
  std::vector<double> bytes_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> valid_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> dirty_;
};

}  // namespace spx
