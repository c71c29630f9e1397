#include "net/shard_server.hpp"

#include <algorithm>
#include <cstring>

#include "common/log.hpp"
#include "obs/export.hpp"

namespace spx::net {

using service::FactorizeResult;
using service::SolveResult;

namespace {

/// FNV-1a fingerprint of a request's content: what makes two wire
/// requests "the same work" for dedup purposes.
std::uint64_t fingerprint(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                          const std::string& tenant) {
  std::uint64_t h = 14695981039346656037ull;
  const auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  fold(a);
  fold(b);
  fold(c);
  for (const char ch : tenant) {
    h ^= static_cast<std::uint8_t>(ch);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

ShardServer::ShardServer(ShardServerOptions options)
    : options_(std::move(options)),
      registry_(
          &obs::registry_or_global(options_.service.solver.instr.metrics)),
      tracer_(options_.service.solver.instr.tracer) {
  net_counters_.resolve(*registry_);
  rpc_dispatched_ = &registry_->counter("spx_rpc_dispatch_total",
                                        "Protocol requests dispatched");
  rpc_errors_ = &registry_->counter(
      "spx_rpc_errors_total", "Protocol requests answered with Error frames");
  warm_hits_ = &registry_->counter(
      "spx_shard_warm_hits_total",
      "Factorize requests served from restored/remembered factors");
  dedup_hits_ = &registry_->counter(
      "spx_shard_dedup_hits_total",
      "Requests answered by correlation-id dedup (replayed or coalesced)");
  snap_loaded_ = &registry_->counter("spx_shard_snapshots_loaded_total",
                                     "Factor snapshots restored on startup");
  snap_saved_ = &registry_->counter("spx_shard_snapshots_saved_total",
                                    "Factor snapshots enqueued for writing");
  service_ = std::make_unique<service::SolveService>(options_.service);
  // Replay runs before the listener exists: the registry and warm index
  // are still single-threaded here, and the first client to connect
  // already sees every recovered factor.
  if (!options_.persist_dir.empty()) replay_snapshots();

  ServerOptions sopts;
  sopts.bind = options_.bind;
  sopts.port = options_.port;
  sopts.idle_timeout_s = options_.idle_timeout_s;
  sopts.max_payload = options_.max_payload;
  server_ = std::make_unique<Server>(
      loop_, sopts,
      [this](Connection& c, const FrameHeader& h,
             std::span<const std::uint8_t> p) { on_frame(c, h, p); },
      CloseCallback{}, &net_counters_);
  port_ = server_->port();
  http_ = std::make_unique<HttpServer>(
      loop_, options_.http_port,
      [this](const std::string& path) { return handle_http(path); });
  http_port_ = http_->port();
  // Everything is registered; the reactor can go live.
  loop_thread_ = std::thread([this] { loop_.run(); });
}

ShardServer::~ShardServer() {
  if (!stopped_.load(std::memory_order_acquire)) {
    loop_.post([this] {
      server_->close_all("shard shutdown");
      http_->close_all();
      loop_.stop();
    });
  }
  if (loop_thread_.joinable()) loop_thread_.join();
  // SolveService's destructor completes whatever is still queued.
  service_.reset();
}

void ShardServer::begin_drain() {
  draining_.store(true, std::memory_order_release);
  loop_.post([this] { server_->stop_accepting(); });
}

bool ShardServer::drain_and_stop(double timeout_s) {
  begin_drain();
  const bool drained = service_->drain(timeout_s);
  stop_loop();
  if (loop_thread_.joinable()) loop_thread_.join();
  stopped_.store(true, std::memory_order_release);
  return drained;
}

void ShardServer::stop_loop() {
  // Completion callbacks posted before drain() returned are already in
  // the loop's queue; posting the flush check after them serializes it
  // behind every response send.  The check then waits (bounded) for the
  // write queues to clear so no response is cut off mid-flush.
  loop_.post([this] {
    auto check = std::make_shared<std::function<void(int)>>();
    // The stored lambda holds only a weak self-reference; the strong ref
    // lives in each scheduled timer, so the chain frees itself when done.
    *check = [this, weak = std::weak_ptr<std::function<void(int)>>(check)](
                 int tries) {
      if (!server_->any_write_pending() || tries > 400) {
        server_->close_all("shard drained");
        http_->close_all();
        loop_.stop();
        return;
      }
      auto self = weak.lock();
      if (self == nullptr) return;
      loop_.schedule(0.005, [self, tries] { (*self)(tries + 1); });
    };
    (*check)(0);
  });
}

void ShardServer::on_frame(Connection& conn, const FrameHeader& header,
                           std::span<const std::uint8_t> payload) {
  if (header.version != kProtocolVersion) {
    SPX_OBS(rpc_errors_->inc());
    conn.send_error_and_close(
        header.corr_id, NetError::VersionMismatch,
        "shard speaks protocol v" + std::to_string(kProtocolVersion) +
            ", peer sent v" + std::to_string(header.version));
    return;
  }
  switch (header.type) {
    case FrameType::Ping:
      conn.send(encode_empty(FrameType::Pong, header.corr_id));
      return;
    case FrameType::FactorizeRequest:
      SPX_OBS(rpc_dispatched_->inc());
      handle_factorize(conn, header.corr_id, payload);
      return;
    case FrameType::SolveRequest:
      SPX_OBS(rpc_dispatched_->inc());
      handle_solve(conn, header.corr_id, payload);
      return;
    case FrameType::RefactorizeRequest:
      SPX_OBS(rpc_dispatched_->inc());
      handle_refactorize(conn, header.corr_id, payload);
      return;
    default:
      SPX_OBS(rpc_errors_->inc());
      conn.send(encode_error(
          header.corr_id, NetError::UnsupportedType,
          std::string("shard does not handle ") + to_string(header.type)));
      return;
  }
}

void ShardServer::handle_factorize(Connection& conn, std::uint64_t corr,
                                   std::span<const std::uint8_t> payload) {
  if (draining()) {
    SPX_OBS(rpc_errors_->inc());
    conn.send(encode_error(corr, NetError::Draining, "shard draining"));
    return;
  }
  FactorizeRequestFrame req;
  try {
    req = decode_factorize_request(payload);
  } catch (const ProtocolError& e) {
    SPX_OBS(rpc_errors_->inc());
    conn.send_error_and_close(corr, NetError::Malformed, e.what());
    return;
  }
  // Content identity: pattern digest + value hash + kind.  Drives both
  // the warm index (identical inputs => identical factors) and dedup.
  const std::uint64_t digest = pattern_digest(*req.matrix);
  const std::uint64_t vhash = persist::value_hash(req.matrix->values());
  const std::uint64_t fp = fingerprint(
      digest, vhash, static_cast<std::uint64_t>(req.kind), req.tenant);
  if (dedup_admit(conn, corr, fp)) return;
  const DedupKey key{corr, fp};
  const WarmKey wkey{digest, vhash, static_cast<std::uint8_t>(req.kind)};
  // The warm index exists only under persistence: without snapshots a
  // repeat factorize runs normally (callers may rely on fresh stats).
  if (const auto wit = warm_.find(wkey);
      store_ != nullptr && wit != warm_.end()) {
    if (find_factor(wit->second) != nullptr) {
      // Restored (or remembered) factor for this exact input: answer
      // without a single flop of numeric work.
      SPX_OBS(warm_hits_->inc());
      FactorizeResponseFrame out;
      out.status = static_cast<std::uint8_t>(service::RequestStatus::Done);
      out.code = static_cast<std::uint8_t>(service::ErrorCode::None);
      out.degraded = false;
      out.factor_id = wit->second;
      out.shard = options_.name;
      out.stats_json = "{\"warm\":true}";
      dedup_finish(key, encode_factorize_response(corr, out), true);
      return;
    }
    warm_.erase(wit);  // factor was LRU-evicted; recompute below
    warm_count_.store(warm_.size(), std::memory_order_release);
  }
  const obs::SpanContext wire_parent{req.trace.trace_id,
                                     req.trace.parent_span};
  obs::ScopedSpan dispatch;
  SPX_OBS(dispatch = obs::ScopedSpan(tracer_, "rpc.dispatch", "net-",
                                     wire_parent, 0,
                                     static_cast<std::int64_t>(corr)));
  auto ticket = std::make_shared<service::Ticket<FactorizeResult>>();
  // on_complete fires on a worker (or this) thread right after the result
  // promise resolves; the posted lambda runs on the loop thread strictly
  // after *ticket below is assigned, so get() never blocks.  Responses --
  // to the requester and to any deduped failover retries -- go through
  // the dedup entry's waiter list.
  auto finalize = [this, ticket, corr, key, wkey] {
    const FactorizeResult res = ticket->get();
    FactorizeResponseFrame out;
    out.status = static_cast<std::uint8_t>(res.status);
    out.code = static_cast<std::uint8_t>(res.code);
    out.degraded = res.stats.degraded;
    if (res.ok()) {
      out.factor_id = register_factor(res.factor);
      // fp32 factors stay memory-only: the snapshot format carries fp64
      // factor values, and the float path needs its reference matrix for
      // refinement, so they are neither warm-indexed nor persisted.
      if (store_ != nullptr && !res.factor->fp32()) {
        warm_[wkey] = out.factor_id;
        warm_count_.store(warm_.size(), std::memory_order_release);
        if (!res.stats.degraded) {
          persist_factor(wkey.digest, wkey.vhash,
                         static_cast<Factorization>(wkey.kind), out.factor_id,
                         *res.factor);
        }
      }
    }
    out.shard = options_.name;
    out.error = res.error;
    out.stats_json = obs::to_json(res.stats).dump();
    // Cache only successes: a failed attempt must stay retryable on this
    // shard (e.g. after an injected fault or a transient overload).
    dedup_finish(key, encode_factorize_response(corr, out), res.ok());
  };
  service::RequestOptions ropts;
  ropts.tenant = req.tenant;
  ropts.deadline_s = req.deadline_s;
  ropts.trace = dispatch.active() ? dispatch.context() : wire_parent;
  ropts.on_complete = [this, finalize] { loop_.post(finalize); };
  *ticket =
      service_->submit_factorize(std::move(ropts), req.matrix, req.kind);
}

void ShardServer::handle_solve(Connection& conn, std::uint64_t corr,
                               std::span<const std::uint8_t> payload) {
  if (draining()) {
    SPX_OBS(rpc_errors_->inc());
    conn.send(encode_error(corr, NetError::Draining, "shard draining"));
    return;
  }
  SolveRequestFrame req;
  try {
    req = decode_solve_request(payload);
  } catch (const ProtocolError& e) {
    SPX_OBS(rpc_errors_->inc());
    conn.send_error_and_close(corr, NetError::Malformed, e.what());
    return;
  }
  service::FactorHandle factor = find_factor(req.factor_id);
  if (factor == nullptr) {
    SPX_OBS(rpc_errors_->inc());
    conn.send(encode_error(corr, NetError::UnknownFactor,
                           "factor " + std::to_string(req.factor_id) +
                               " is not resident on this shard"));
    return;
  }
  const std::uint64_t fp = fingerprint(
      req.factor_id, persist::value_hash(req.rhs),
      static_cast<std::uint64_t>(FrameType::SolveRequest), req.tenant);
  if (dedup_admit(conn, corr, fp)) return;
  const DedupKey key{corr, fp};
  const obs::SpanContext wire_parent{req.trace.trace_id,
                                     req.trace.parent_span};
  obs::ScopedSpan dispatch;
  SPX_OBS(dispatch = obs::ScopedSpan(tracer_, "rpc.dispatch", "net-",
                                     wire_parent, 0,
                                     static_cast<std::int64_t>(corr)));
  auto ticket = std::make_shared<service::Ticket<SolveResult>>();
  auto finalize = [this, ticket, corr, key] {
    const SolveResult res = ticket->get();
    SolveResponseFrame out;
    out.status = static_cast<std::uint8_t>(res.status);
    out.code = static_cast<std::uint8_t>(res.code);
    out.degraded = res.stats.degraded;
    out.shard = options_.name;
    out.error = res.error;
    out.stats_json = obs::to_json(res.stats).dump();
    out.x = res.x;
    dedup_finish(key, encode_solve_response(corr, out), res.ok());
  };
  service::RequestOptions ropts;
  ropts.tenant = req.tenant;
  ropts.deadline_s = req.deadline_s;
  ropts.trace = dispatch.active() ? dispatch.context() : wire_parent;
  ropts.on_complete = [this, finalize] { loop_.post(finalize); };
  try {
    *ticket = service_->submit_solve(std::move(ropts), std::move(factor),
                                     std::move(req.rhs));
  } catch (const InvalidArgument& e) {
    // rhs size / factor mismatch: a caller bug, answered (not a drop).
    SPX_OBS(rpc_errors_->inc());
    dedup_finish(key, encode_error(corr, NetError::Malformed, e.what()),
                 false);
  }
}

void ShardServer::handle_refactorize(Connection& conn, std::uint64_t corr,
                                     std::span<const std::uint8_t> payload) {
  if (draining()) {
    SPX_OBS(rpc_errors_->inc());
    conn.send(encode_error(corr, NetError::Draining, "shard draining"));
    return;
  }
  RefactorizeRequestFrame req;
  try {
    req = decode_refactorize_request(payload);
  } catch (const ProtocolError& e) {
    SPX_OBS(rpc_errors_->inc());
    conn.send_error_and_close(corr, NetError::Malformed, e.what());
    return;
  }
  service::FactorHandle factor = find_factor(req.factor_id);
  if (factor == nullptr) {
    SPX_OBS(rpc_errors_->inc());
    conn.send(encode_error(corr, NetError::UnknownFactor,
                           "factor " + std::to_string(req.factor_id) +
                               " is not resident on this shard"));
    return;
  }
  if (!factor->refactorizable()) {
    // A snapshot-restored factor has no retained matrix to ingest values
    // into; the client's recovery action is the same as for an evicted
    // factor: submit a full factorize.
    SPX_OBS(rpc_errors_->inc());
    conn.send(encode_error(corr, NetError::UnknownFactor,
                           "factor " + std::to_string(req.factor_id) +
                               " cannot ingest values (restored from a "
                               "snapshot); submit a full factorize"));
    return;
  }
  // Value ingestion is digest-checked: new values for a *different*
  // pattern are a caller bug, not a refactorize.
  if (factor->solver().pattern_digest() != req.pattern_digest) {
    SPX_OBS(rpc_errors_->inc());
    conn.send(encode_error(
        corr, NetError::Malformed,
        "pattern digest does not match factor " +
            std::to_string(req.factor_id) +
            "; refactorize ingests new values for the factorized pattern"));
    return;
  }
  const std::uint64_t vhash = persist::value_hash(req.values);
  const std::uint64_t fp = fingerprint(
      req.factor_id, vhash,
      static_cast<std::uint64_t>(FrameType::RefactorizeRequest), req.tenant);
  if (dedup_admit(conn, corr, fp)) return;
  const DedupKey key{corr, fp};
  const obs::SpanContext wire_parent{req.trace.trace_id,
                                     req.trace.parent_span};
  obs::ScopedSpan dispatch;
  SPX_OBS(dispatch = obs::ScopedSpan(tracer_, "rpc.dispatch", "net-",
                                     wire_parent, 0,
                                     static_cast<std::int64_t>(corr)));
  auto ticket = std::make_shared<service::Ticket<FactorizeResult>>();
  const std::uint64_t factor_id = req.factor_id;
  const WarmKey wkey{req.pattern_digest, vhash,
                     static_cast<std::uint8_t>(factor->kind())};
  auto finalize = [this, ticket, corr, key, wkey, factor_id] {
    const FactorizeResult res = ticket->get();
    FactorizeResponseFrame out;
    out.status = static_cast<std::uint8_t>(res.status);
    out.code = static_cast<std::uint8_t>(res.code);
    out.degraded = res.stats.degraded;
    if (res.ok()) {
      out.factor_id = factor_id;  // same handle, refreshed values
      if (store_ != nullptr) {
        // The old values are gone, so every warm entry pointing at this
        // factor is stale; replace them with the ingested identity.
        for (auto it = warm_.begin(); it != warm_.end();) {
          it = it->second == factor_id ? warm_.erase(it) : std::next(it);
        }
        if (!res.factor->fp32()) {
          warm_[wkey] = factor_id;
          if (!res.stats.degraded) {
            persist_factor(wkey.digest, wkey.vhash,
                           static_cast<Factorization>(wkey.kind), factor_id,
                           *res.factor);
          }
        }
        warm_count_.store(warm_.size(), std::memory_order_release);
      }
    }
    out.shard = options_.name;
    out.error = res.error;
    out.stats_json = obs::to_json(res.stats).dump();
    dedup_finish(key, encode_refactorize_response(corr, out), res.ok());
  };
  service::RequestOptions ropts;
  ropts.tenant = req.tenant;
  ropts.deadline_s = req.deadline_s;
  ropts.trace = dispatch.active() ? dispatch.context() : wire_parent;
  ropts.on_complete = [this, finalize] { loop_.post(finalize); };
  try {
    *ticket = service_->submit_refactorize(std::move(ropts),
                                           std::move(factor),
                                           std::move(req.values));
  } catch (const InvalidArgument& e) {
    // Value-count mismatch: a caller bug, answered (not a drop).
    SPX_OBS(rpc_errors_->inc());
    dedup_finish(key, encode_error(corr, NetError::Malformed, e.what()),
                 false);
  }
}

std::uint64_t ShardServer::register_factor(service::FactorHandle factor) {
  const std::uint64_t id = next_factor_id_++;
  lru_.push_front(id);
  factors_.emplace(id, FactorEntry{std::move(factor), lru_.begin()});
  while (factors_.size() > options_.max_factors && !lru_.empty()) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    factors_.erase(victim);
  }
  return id;
}

void ShardServer::register_factor_as(std::uint64_t id,
                                     service::FactorHandle factor) {
  if (id == 0 || factors_.find(id) != factors_.end()) return;
  lru_.push_front(id);
  factors_.emplace(id, FactorEntry{std::move(factor), lru_.begin()});
  next_factor_id_ = std::max(next_factor_id_, id + 1);
  while (factors_.size() > options_.max_factors && !lru_.empty()) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    factors_.erase(victim);
  }
}

service::FactorHandle ShardServer::find_factor(std::uint64_t id) {
  const auto it = factors_.find(id);
  if (it == factors_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru);  // touch
  return it->second.factor;
}

void ShardServer::replay_snapshots() {
  persist::FactorStoreOptions po;
  po.dir = options_.persist_dir;
  po.min_interval_s = options_.persist_interval_s;
  store_ = std::make_unique<persist::FactorStore>(std::move(po));
  for (persist::LoadedSnapshot& loaded : store_->load_all()) {
    persist::FactorSnapshot& sn = loaded.snap;
    try {
      Solver<real_t> solver(options_.service.solver);
      solver.adopt_analysis(sn.analysis, sn.pattern_digest);
      solver.restore_factors(sn.kind, sn.lval, sn.uval, sn.dval, sn.quality);
      service::FactorHandle handle = service_->adopt_factor(std::move(solver));
      if (sn.factor_id == 0) sn.factor_id = next_factor_id_;
      register_factor_as(sn.factor_id, std::move(handle));
      warm_[WarmKey{sn.pattern_digest, sn.value_hash,
                    static_cast<std::uint8_t>(sn.kind)}] = sn.factor_id;
      SPX_OBS(snap_loaded_->inc());
      logf(LogLevel::Info, "persist: %s warmed factor %llu from %s",
           options_.name.c_str(),
           static_cast<unsigned long long>(sn.factor_id),
           loaded.path.c_str());
    } catch (const std::exception& e) {
      // Restoring must never take the shard down: worst case is a cold
      // start for this pattern.
      logf(LogLevel::Warn, "persist: cannot restore %s: %s",
           loaded.path.c_str(), e.what());
    }
  }
  warm_count_.store(warm_.size(), std::memory_order_release);
}

void ShardServer::persist_factor(std::uint64_t digest, std::uint64_t vhash,
                                 Factorization kind, std::uint64_t factor_id,
                                 const service::Factor& factor) {
  const Solver<real_t>& solver = factor.solver();
  const FactorData<real_t>& fd = solver.factor_data();
  persist::FactorSnapshot snap;
  snap.pattern_digest = digest;
  snap.value_hash = vhash;
  snap.kind = kind;
  snap.factor_id = factor_id;
  snap.analysis = solver.analysis_shared();
  snap.quality = fd.quality();
  snap.lval.assign(fd.lvalues().begin(), fd.lvalues().end());
  snap.uval.assign(fd.uvalues().begin(), fd.uvalues().end());
  snap.dval.assign(fd.dvalues().begin(), fd.dvalues().end());
  if (store_->save(std::move(snap))) SPX_OBS(snap_saved_->inc());
}

bool ShardServer::dedup_admit(Connection& conn, std::uint64_t corr,
                              std::uint64_t fp) {
  const DedupKey key{corr, fp};
  const auto it = dedup_.find(key);
  if (it == dedup_.end()) {
    // First sighting: the requester becomes the entry's first waiter and
    // the caller proceeds to execute.
    DedupEntry e;
    e.waiters.emplace_back(
        std::static_pointer_cast<Connection>(conn.shared_from_this()), corr);
    dedup_.emplace(key, std::move(e));
    return false;
  }
  SPX_OBS(dedup_hits_->inc());
  if (it->second.done) {
    // Failover retry of acknowledged work: replay the stored response
    // (same corr id -- it is part of the key) without re-executing.
    dedup_lru_.splice(dedup_lru_.begin(), dedup_lru_, it->second.lru);
    conn.send(it->second.response);
    return true;
  }
  // The original is still executing; park this connection on it.
  it->second.waiters.emplace_back(
      std::static_pointer_cast<Connection>(conn.shared_from_this()), corr);
  return true;
}

void ShardServer::dedup_finish(const DedupKey& key,
                               const std::vector<std::uint8_t>& resp,
                               bool cache) {
  const auto it = dedup_.find(key);
  if (it == dedup_.end()) return;
  for (auto& [wconn, corr] : it->second.waiters) {
    (void)corr;  // same corr for every waiter: it is part of the key
    if (ConnectionPtr c = wconn.lock(); c != nullptr && c->open()) {
      c->send(resp);
    }
  }
  it->second.waiters.clear();
  if (!cache || options_.dedup_capacity == 0) {
    dedup_.erase(it);
    return;
  }
  it->second.done = true;
  it->second.response = resp;
  dedup_lru_.push_front(key);
  it->second.lru = dedup_lru_.begin();
  while (dedup_lru_.size() > options_.dedup_capacity) {
    dedup_.erase(dedup_lru_.back());
    dedup_lru_.pop_back();
  }
}

HttpResponse ShardServer::handle_http(const std::string& path) {
  if (path == "/healthz") {
    const service::ServiceStats st = service_->stats();
    const char* health = st.health();
    const int status = std::strcmp(health, "failing") == 0 ? 503 : 200;
    return {status, "text/plain", std::string(health) + "\n"};
  }
  if (path == "/readyz") {
    if (draining()) return {503, "text/plain", "draining\n"};
    // warm = factors recovered or remembered and still resident; a
    // restarted shard advertises its head start here.
    return {200, "text/plain",
            "ready warm=" +
                std::to_string(warm_count_.load(std::memory_order_acquire)) +
                "\n"};
  }
  if (path == "/metrics") {
    HttpResponse r;
    r.body = obs::prometheus_text(*registry_);
    return r;
  }
  return {404, "text/plain", "not found\n"};
}

}  // namespace spx::net
