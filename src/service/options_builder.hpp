// Layered options builder (DESIGN.md §11): set tracing / metrics /
// fault-injection knobs ONCE and materialize consistent option structs
// for every layer of the stack.
//
//   obs::Tracer tracer;
//   obs::MetricsRegistry registry;
//   spx::OptionsBuilder b;
//   b.metrics(&registry).tracer(&tracer)          // instrumentation layer
//    .runtime(RuntimeKind::Parsec).threads(8)     // solver layer
//    .workers(4).cache_bytes(64 << 20);           // service layer
//   service::SolveService svc(b.service_options());
//   Solver<double> solo(b.solver_options());      // same instrumentation
//
// Before this builder the same knobs lived in three places --
// RealDriverOptions::{trace,fault}, SolverOptions::fault, and the service
// config -- and had to be re-plumbed at every layer boundary.  The
// [[deprecated]] aliases that bridged one release are gone; the builder
// (and the InstrumentationOptions struct it fills, reachable directly as
// `options.instr`) is the only path.
#pragma once

#include "core/solver.hpp"
#include "runtime/real_driver.hpp"
#include "service/solve_service.hpp"

namespace spx {

class OptionsBuilder {
 public:
  // --- Instrumentation layer (inherited by every produced struct) ---

  /// Metrics sink; null (the default) means the process-global registry.
  OptionsBuilder& metrics(obs::MetricsRegistry* registry) {
    instr_.metrics = registry;
    return *this;
  }
  /// Span sink; null disables span tracing.  Must outlive every run.
  OptionsBuilder& tracer(obs::Tracer* tracer) {
    instr_.tracer = tracer;
    return *this;
  }
  /// Parent context for all downstream spans (rarely set by hand; the
  /// service threads per-request contexts automatically).
  OptionsBuilder& parent(obs::SpanContext ctx) {
    instr_.parent = ctx;
    return *this;
  }
  /// Fault-injection harness (task faults + allocation failures).
  OptionsBuilder& fault(FaultInjector* fault) {
    instr_.fault = fault;
    return *this;
  }

  // --- Solver layer ---

  OptionsBuilder& runtime(RuntimeKind kind) {
    solver_.runtime = kind;
    solver_set_runtime_ = true;
    return *this;
  }
  OptionsBuilder& threads(int n) {
    solver_.num_threads = n;
    return *this;
  }
  OptionsBuilder& cpu_variant(UpdateVariant v) {
    solver_.cpu_variant = v;
    return *this;
  }
  OptionsBuilder& pivot_threshold(double eps) {
    solver_.pivot_threshold = eps;
    return *this;
  }
  OptionsBuilder& perf_model_file(std::string path) {
    solver_.perf_model_file = std::move(path);
    return *this;
  }

  // --- Service layer ---

  OptionsBuilder& workers(int n) {
    service_.num_workers = n;
    return *this;
  }
  OptionsBuilder& queue_capacity(std::size_t n) {
    service_.queue_capacity = n;
    return *this;
  }
  OptionsBuilder& cache_bytes(std::size_t n) {
    service_.cache_bytes = n;
    return *this;
  }
  OptionsBuilder& batch_window(double seconds) {
    service_.batch_window = seconds;
    return *this;
  }
  OptionsBuilder& max_batch(index_t n) {
    service_.max_batch = n;
    return *this;
  }
  OptionsBuilder& max_attempts(int n) {
    service_.max_attempts = n;
    return *this;
  }
  OptionsBuilder& retry_backoff(double seconds) {
    service_.retry_backoff_s = seconds;
    return *this;
  }
  /// Service-wide default precision policy (per-tenant and per-request
  /// settings override it; see docs/SERVICE.md "Precision policy").
  OptionsBuilder& precision(service::PrecisionPolicy policy) {
    service_.precision = policy;
    return *this;
  }
  /// Convergence target for fp32+refinement serving; tripping it falls
  /// back to a full fp64 factorization.
  OptionsBuilder& mixed_tolerance(double tol) {
    service_.mixed_tolerance = tol;
    return *this;
  }
  /// Declares (or replaces) a tenant's QoS configuration: scheduling
  /// weight, queue capacity, and optional precision override.
  OptionsBuilder& tenant(const std::string& name,
                         service::TenantConfig config) {
    service_.tenants[name] = config;
    return *this;
  }

  // --- Materialized views (each call re-derives from current state) ---

  /// The shared instrumentation layer as configured so far.
  const obs::InstrumentationOptions& instrumentation() const {
    return instr_;
  }
  /// Solver options with the instrumentation layer attached.
  SolverOptions solver_options() const;
  /// Driver options with the instrumentation layer attached (for callers
  /// driving execute_real directly).
  RealDriverOptions driver_options() const;
  /// Service options whose inner solver carries the instrumentation
  /// layer; SolveService wires its cache/queue/counters from it.
  service::ServiceOptions service_options() const;

 private:
  obs::InstrumentationOptions instr_;
  SolverOptions solver_;
  service::ServiceOptions service_;
  /// ServiceOptions defaults its inner runtime to Sequential while a bare
  /// SolverOptions defaults to Native; remember whether the caller chose.
  bool solver_set_runtime_ = false;
};

}  // namespace spx
