// Observability types of the solve service: per-request statistics and
// service-wide counters, all implementing obs::Exportable over the shared
// JsonWriter (the one export API; see docs/OBSERVABILITY.md).  Tenant
// names are arbitrary UTF-8 -- the JSON writer escapes them -- so the
// stats surface never emits invalid output.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "common/json.hpp"
#include "runtime/run_stats.hpp"

namespace spx::service {

/// Terminal state of a service request.
enum class RequestStatus {
  Done,       ///< executed successfully
  Failed,     ///< executed but threw (e.g. NumericalError)
  Rejected,   ///< bounced at admission (tenant queue full)
  Cancelled,  ///< cancelled before execution started
  Expired     ///< deadline passed while queued
};

const char* to_string(RequestStatus s);

/// Structured classification of how a request terminated -- the machine-
/// readable companion of RequestStatus (which only says *that* it failed)
/// and the key of the per-code counters in ServiceStats.
enum class ErrorCode {
  None,               ///< done at full accuracy
  NumericalDegraded,  ///< done, but pivots were perturbed + refinement ran
  NumericalFailed,    ///< numerical breakdown (indefinite / zero pivot)
  InjectedFault,      ///< the fault-injection harness killed the attempt
  OutOfMemory,        ///< factor allocation failed
  Overloaded,         ///< rejected at admission (tenant queue full)
  Cancelled,          ///< cancelled before execution
  Timeout,            ///< deadline passed while queued
  Internal            ///< shutdown drain or unexpected exception
};

inline constexpr std::size_t kErrorCodeCount = 9;

const char* to_string(ErrorCode c);

/// The code a never-executed terminal status maps to.
ErrorCode code_for_unrun(RequestStatus s);

/// What the analysis cache did for a factorize request.
enum class CacheOutcome {
  Hit,    ///< shared an existing (or in-flight) analysis
  Miss,   ///< computed and inserted a new analysis
  Bypass  ///< cache disabled; computed privately
};

const char* to_string(CacheOutcome c);

/// Numeric precision policy of the serving path, resolved per request
/// from the request override, the tenant's TenantConfig, then the
/// service-wide default (docs/SERVICE.md "Precision policy").
enum class PrecisionPolicy {
  Fp64,        ///< factor and solve in double -- the classic path
  Fp32Refine,  ///< factor in float, iteratively refine solves to fp64
  Auto         ///< Fp32Refine, but skip fp32 for patterns that already
               ///< tripped the fallback gate (adaptive)
};

const char* to_string(PrecisionPolicy p);

/// Per-tenant QoS + serving configuration (ServiceOptions::tenants).
/// Tenants absent from that map get the defaults below, which reproduce
/// the historical behavior exactly: equal round-robin shares, the
/// service-wide queue bound, and the service-wide precision policy.
struct TenantConfig {
  /// Weighted share of worker pops under contention: the admission queue
  /// runs smooth weighted round-robin across tenants with pending work,
  /// so a weight-4 tenant gets 4 slots for every slot of a weight-1
  /// tenant.  1.0 = plain round-robin.
  double weight = 1.0;
  /// Per-tenant admission bound; 0 = ServiceOptions::queue_capacity.
  std::size_t queue_capacity = 0;
  /// Default precision policy for this tenant's factorizations (a
  /// RequestOptions::precision override still wins).  Unset = the
  /// service-wide ServiceOptions::precision.
  PrecisionPolicy precision = PrecisionPolicy::Fp64;
  /// True when `precision` was set explicitly (distinguishes "tenant
  /// wants fp64" from "tenant has no opinion").
  bool precision_set = false;
};

/// Per-request statistics, attached to every result the service returns.
struct RequestStats : obs::Exportable {
  std::uint64_t id = 0;
  std::string tenant;
  double queue_wait_s = 0;  ///< admission-queue wait until claimed
  double analyze_s = 0;     ///< symbolic analysis time (cache misses only)
  double factorize_s = 0;   ///< numeric factorization wall time
  double solve_s = 0;       ///< triangular solve wall time (whole batch)
  CacheOutcome cache = CacheOutcome::Bypass;
  index_t batched_rhs = 0;  ///< columns in the coalesced solve call
  ErrorCode code = ErrorCode::None;  ///< structured outcome classification
  int attempts = 0;         ///< execution attempts (factorize retry loop)
  bool degraded = false;    ///< static pivoting perturbed this request
  /// Max-norm relative residual after refinement; populated when the
  /// request degraded (static pivoting) or the fp32 path probed quality.
  double backward_error = 0;
  PrecisionPolicy precision = PrecisionPolicy::Fp64;  ///< policy in effect
  bool fp32 = false;  ///< served by the float-factor + fp64-refine path
  /// The fp32 quality/backward-error gate tripped and the service
  /// re-factorized in fp64 automatically (Fp32Refine/Auto policies).
  bool precision_fallback = false;
  int refine_iterations = 0;  ///< mixed-precision refinement sweeps
  /// Global completion order (1-based): request k was the k-th to reach a
  /// terminal status.  Lets callers audit fairness across tenants.
  std::uint64_t completion_seq = 0;
  RunStats run;  ///< scheduler stats of the factorization (factorize only)

  void export_json(obs::JsonWriter& w) const override;
};

/// Analysis-cache counters (a snapshot; see service/analysis_cache.hpp).
struct AnalysisCacheStats : obs::Exportable {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t bytes = 0;    ///< current resident estimate
  std::size_t entries = 0;  ///< current resident count

  void export_json(obs::JsonWriter& w) const override;
};

/// Per-tenant slice of the service counters, keyed by tenant name in
/// ServiceStats::tenants and mirrored by the spx_service_tenant_*
/// metric family.
struct TenantStats : obs::Exportable {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  ///< finished with status Done
  std::uint64_t rejected = 0;   ///< bounced at admission
  std::uint64_t factorizes = 0;
  std::uint64_t refactorizes = 0;
  std::uint64_t solves = 0;
  std::uint64_t fp32_served = 0;     ///< requests the fp32 path served
  std::uint64_t fp64_fallbacks = 0;  ///< fp32 gate trips -> fp64 refactor
  double weight = 1.0;               ///< configured QoS weight

  void export_json(obs::JsonWriter& w) const override;
};

/// Service-wide counters (a snapshot of SolveService::stats()).
struct ServiceStats : obs::Exportable {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  ///< finished with status Done
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t expired = 0;
  std::uint64_t factorizes = 0;   ///< factorize requests completed Done
  std::uint64_t refactorizes = 0;  ///< refactorize requests completed Done
  std::uint64_t solves = 0;       ///< solve requests completed Done
  std::uint64_t batches = 0;      ///< coalesced solve_multi calls issued
  std::uint64_t batched_rhs = 0;  ///< total RHS columns across batches
  std::uint64_t retries = 0;      ///< factorize re-attempts issued
  std::size_t queue_depth = 0;    ///< requests currently admitted + waiting
  /// Terminal outcomes per ErrorCode (indexed by the enum's value); the
  /// Done-at-full-accuracy slot [None] counts too, so the array sums to
  /// every terminal request.
  std::array<std::uint64_t, kErrorCodeCount> errors{};
  AnalysisCacheStats cache;
  /// Per-tenant slices (every tenant ever seen by this service).
  std::map<std::string, TenantStats> tenants;

  std::uint64_t error_count(ErrorCode c) const {
    return errors[static_cast<std::size_t>(c)];
  }
  /// Coarse health from the counters: "ok" (nothing failed), "degraded"
  /// (some failures/degradations but work still completes), "failing"
  /// (failures dominate completions).
  const char* health() const;

  void export_json(obs::JsonWriter& w) const override;
};

}  // namespace spx::service
