// A solve shard: SolveService wrapped behind the wire protocol.  One
// epoll loop (on a dedicated thread) runs the protocol listener and the
// HTTP probe endpoint; factorize/solve requests decode into service
// submissions, and worker-thread completions hop back onto the loop via
// Connection::post_send.  Completed factors live in an id-keyed LRU
// registry so remote solves can reference them across connections.
//
// Graceful drain (the SIGTERM path in tools/spx_shard.cpp):
//   1. stop accepting; in-progress reads still parse
//   2. new requests answer Error(Draining) -- the front-end reroutes them
//   3. SolveService::drain() runs every already-admitted request
//   4. responses flush, connections close, the loop stops
// No accepted request is ever dropped.
//
// Crash tolerance (docs/SERVICE.md "Failure modes and recovery"):
//   - With `persist_dir` set, completed non-degraded factorizations are
//     snapshotted to disk (async, rate-limited, crash-atomic) and
//     replayed on startup: the restarted shard re-registers each factor
//     under its pre-crash id, seeds the analysis cache, and serves an
//     identical (pattern, values, kind) factorize as an immediate warm
//     hit without redoing any numeric work.
//   - Factorize/solve requests are deduplicated by (correlation id,
//     content fingerprint): a failover retry of work this shard already
//     completed replays the stored response instead of re-executing, and
//     a retry racing the original execution joins it as a waiter.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "net/http.hpp"
#include "net/server.hpp"
#include "persist/factor_store.hpp"
#include "service/solve_service.hpp"

namespace spx::net {

struct ShardServerOptions {
  std::string name = "shard";  ///< reported in responses (affinity checks)
  std::string bind = "127.0.0.1";
  std::uint16_t port = 0;       ///< protocol port (0 = ephemeral)
  std::uint16_t http_port = 0;  ///< probe/metrics port (0 = ephemeral)
  double idle_timeout_s = 0;    ///< idle client connections are closed
  std::size_t max_payload = kDefaultMaxPayload;
  /// Resident factor cap; least-recently-used factors are dropped beyond
  /// it (clients holding a dropped id get UnknownFactor and re-factorize).
  std::size_t max_factors = 64;
  /// Snapshot directory for factor persistence (empty = disabled).
  /// Loaded on startup, written on factorize completion.
  std::string persist_dir;
  /// Per-key floor between snapshot rewrites (FactorStoreOptions).
  double persist_interval_s = 5.0;
  /// Completed responses retained for correlation-id dedup replay.
  std::size_t dedup_capacity = 256;
  service::ServiceOptions service;
};

class ShardServer {
 public:
  explicit ShardServer(ShardServerOptions options);
  ~ShardServer();
  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  std::uint16_t port() const { return port_; }
  std::uint16_t http_port() const { return http_port_; }
  const std::string& name() const { return options_.name; }
  service::ServiceStats service_stats() const { return service_->stats(); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Steps 1-2 of the drain: stop accepting, answer Draining.  Thread-safe
  /// and idempotent.
  void begin_drain();
  /// Full graceful shutdown: begin_drain, run every admitted request
  /// (bounded by `timeout_s`; 0 = no bound), flush responses, stop the
  /// loop.  Returns true when the service drained completely.
  bool drain_and_stop(double timeout_s = 0);

  /// Warm factors the store proved resident on startup (snapshot replay).
  std::size_t warm_factors() const {
    return warm_count_.load(std::memory_order_acquire);
  }

 private:
  struct FactorEntry {
    service::FactorHandle factor;
    std::list<std::uint64_t>::iterator lru;  ///< position in lru_
  };
  /// Identity of a warm-servable factorization: same pattern, same
  /// values, same kind => bit-identical factors.
  struct WarmKey {
    std::uint64_t digest = 0;
    std::uint64_t vhash = 0;
    std::uint8_t kind = 0;
    friend bool operator==(const WarmKey&, const WarmKey&) = default;
  };
  struct WarmKeyHash {
    std::size_t operator()(const WarmKey& k) const {
      std::uint64_t h = k.digest ^ (k.vhash * 0x9e3779b97f4a7c15ull);
      h ^= (h >> 29) ^ k.kind;
      return static_cast<std::size_t>(h * 0xbf58476d1ce4e5b9ull);
    }
  };
  /// Dedup identity: the wire correlation id plus a fingerprint of the
  /// request content (so unrelated requests reusing a corr id from a
  /// different front instance never alias).
  struct DedupKey {
    std::uint64_t corr = 0;
    std::uint64_t fingerprint = 0;
    friend bool operator==(const DedupKey&, const DedupKey&) = default;
  };
  struct DedupKeyHash {
    std::size_t operator()(const DedupKey& k) const {
      return static_cast<std::size_t>(
          (k.corr ^ k.fingerprint) * 0x9e3779b97f4a7c15ull);
    }
  };
  struct DedupEntry {
    bool done = false;
    /// Response frame (pre-seal encoding) once done; corr is patched per
    /// waiter on replay.
    std::vector<std::uint8_t> response;
    /// Connections waiting on the in-flight original.
    std::vector<std::pair<std::weak_ptr<Connection>, std::uint64_t>> waiters;
    std::list<DedupKey>::iterator lru;  ///< valid once done
  };

  void on_frame(Connection& conn, const FrameHeader& header,
                std::span<const std::uint8_t> payload);
  void handle_factorize(Connection& conn, std::uint64_t corr,
                        std::span<const std::uint8_t> payload);
  void handle_solve(Connection& conn, std::uint64_t corr,
                    std::span<const std::uint8_t> payload);
  void handle_refactorize(Connection& conn, std::uint64_t corr,
                          std::span<const std::uint8_t> payload);
  /// Registers a completed factor, evicting LRU beyond max_factors.
  std::uint64_t register_factor(service::FactorHandle factor);
  /// Replay path: registers under a persisted id (no-op on collision).
  void register_factor_as(std::uint64_t id, service::FactorHandle factor);
  service::FactorHandle find_factor(std::uint64_t id);
  /// Loads every snapshot in persist_dir into the service + registry.
  void replay_snapshots();
  /// Enqueues an async snapshot write of `version`, the pinned fp64
  /// version a request published for `factor`.  A refactorize of the
  /// same factor may already be running; it never rewrites `version`.
  void persist_factor(std::uint64_t digest, std::uint64_t vhash,
                      Factorization kind, std::uint64_t factor_id,
                      const service::Factor& factor,
                      const FactorVersion<real_t>& version);
  /// True when the request was answered (replay) or parked as a waiter
  /// on an identical in-flight request; false registers it as in-flight.
  bool dedup_admit(Connection& conn, std::uint64_t corr,
                   std::uint64_t fingerprint);
  /// Completes a dedup entry: answers every waiter; `cache` keeps the
  /// response for replay (successes), false erases it (retryable fails).
  void dedup_finish(const DedupKey& key, const std::vector<std::uint8_t>& resp,
                    bool cache);
  HttpResponse handle_http(const std::string& path);
  void stop_loop();

  ShardServerOptions options_;
  obs::MetricsRegistry* registry_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  NetCounters net_counters_;
  obs::Counter* rpc_dispatched_ = nullptr;  ///< spx_rpc_dispatch_total
  obs::Counter* rpc_errors_ = nullptr;      ///< spx_rpc_errors_total
  obs::Counter* warm_hits_ = nullptr;       ///< spx_shard_warm_hits_total
  obs::Counter* dedup_hits_ = nullptr;      ///< spx_shard_dedup_hits_total
  obs::Counter* snap_loaded_ = nullptr;  ///< spx_shard_snapshots_loaded_total
  obs::Counter* snap_saved_ = nullptr;   ///< spx_shard_snapshots_saved_total
  std::unique_ptr<service::SolveService> service_;
  std::unique_ptr<persist::FactorStore> store_;
  EventLoop loop_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<HttpServer> http_;
  std::uint16_t port_ = 0;
  std::uint16_t http_port_ = 0;
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  // Factor registry: loop thread only.
  std::unordered_map<std::uint64_t, FactorEntry> factors_;
  std::list<std::uint64_t> lru_;  ///< front = most recently used
  std::uint64_t next_factor_id_ = 1;
  // Warm index + request dedup: loop thread only (warm_count_ is read by
  // handle_http on the same loop and by tests off-loop, hence atomic).
  std::unordered_map<WarmKey, std::uint64_t, WarmKeyHash> warm_;
  std::atomic<std::size_t> warm_count_{0};
  std::unordered_map<DedupKey, DedupEntry, DedupKeyHash> dedup_;
  std::list<DedupKey> dedup_lru_;  ///< completed entries, front = newest
  std::thread loop_thread_;
};

}  // namespace spx::net
