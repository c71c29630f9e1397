#include "service/service_stats.hpp"

namespace spx::service {

const char* to_string(RequestStatus s) {
  switch (s) {
    case RequestStatus::Done:
      return "done";
    case RequestStatus::Failed:
      return "failed";
    case RequestStatus::Rejected:
      return "rejected";
    case RequestStatus::Cancelled:
      return "cancelled";
    case RequestStatus::Expired:
      return "expired";
  }
  return "?";
}

const char* to_string(ErrorCode c) {
  switch (c) {
    case ErrorCode::None:
      return "none";
    case ErrorCode::NumericalDegraded:
      return "numerical-degraded";
    case ErrorCode::NumericalFailed:
      return "numerical-failed";
    case ErrorCode::InjectedFault:
      return "injected-fault";
    case ErrorCode::OutOfMemory:
      return "out-of-memory";
    case ErrorCode::Overloaded:
      return "overloaded";
    case ErrorCode::Cancelled:
      return "cancelled";
    case ErrorCode::Timeout:
      return "timeout";
    case ErrorCode::Internal:
      return "internal";
  }
  return "?";
}

ErrorCode code_for_unrun(RequestStatus s) {
  switch (s) {
    case RequestStatus::Rejected:
      return ErrorCode::Overloaded;
    case RequestStatus::Cancelled:
      return ErrorCode::Cancelled;
    case RequestStatus::Expired:
      return ErrorCode::Timeout;
    default:
      return ErrorCode::Internal;  // shutdown drain / never-ran failures
  }
}

const char* to_string(CacheOutcome c) {
  switch (c) {
    case CacheOutcome::Hit:
      return "hit";
    case CacheOutcome::Miss:
      return "miss";
    case CacheOutcome::Bypass:
      return "bypass";
  }
  return "?";
}

const char* to_string(PrecisionPolicy p) {
  switch (p) {
    case PrecisionPolicy::Fp64:
      return "fp64";
    case PrecisionPolicy::Fp32Refine:
      return "fp32_refine";
    case PrecisionPolicy::Auto:
      return "auto";
  }
  return "?";
}

void RequestStats::export_json(obs::JsonWriter& w) const {
  w.field("id", id).field("tenant", tenant).field("queue_wait_s",
                                                  queue_wait_s);
  if (analyze_s > 0) w.field("analyze_s", analyze_s);
  if (factorize_s > 0) {
    w.field("factorize_s", factorize_s).field("cache", to_string(cache));
  }
  if (solve_s > 0 || batched_rhs > 0) {
    w.field("solve_s", solve_s).field("batched_rhs", batched_rhs);
  }
  w.field("code", to_string(code));
  if (attempts > 0) w.field("attempts", attempts);
  if (degraded) {
    w.field("degraded", true).field("backward_error", backward_error);
  }
  if (precision != PrecisionPolicy::Fp64 || fp32 || precision_fallback) {
    w.field("precision", to_string(precision)).field("fp32", fp32);
    if (precision_fallback) w.field("precision_fallback", true);
    if (refine_iterations > 0) {
      w.field("refine_iterations", refine_iterations)
          .field("backward_error", backward_error);
    }
  }
  w.field("completion_seq", completion_seq);
  if (run.makespan > 0) w.object("run", run);
}

void AnalysisCacheStats::export_json(obs::JsonWriter& w) const {
  w.field("hits", hits)
      .field("misses", misses)
      .field("evictions", evictions)
      .field("bytes", bytes)
      .field("entries", entries);
}

void TenantStats::export_json(obs::JsonWriter& w) const {
  w.field("submitted", submitted)
      .field("completed", completed)
      .field("rejected", rejected)
      .field("factorizes", factorizes)
      .field("refactorizes", refactorizes)
      .field("solves", solves)
      .field("fp32_served", fp32_served)
      .field("fp64_fallbacks", fp64_fallbacks)
      .field("weight", weight);
}

const char* ServiceStats::health() const {
  const std::uint64_t hard_failures =
      failed + error_count(ErrorCode::Internal);
  if (hard_failures > completed) return "failing";
  if (hard_failures > 0 || error_count(ErrorCode::NumericalDegraded) > 0 ||
      retries > 0) {
    return "degraded";
  }
  return "ok";
}

void ServiceStats::export_json(obs::JsonWriter& w) const {
  w.field("submitted", submitted)
      .field("completed", completed)
      .field("failed", failed)
      .field("rejected", rejected)
      .field("cancelled", cancelled)
      .field("expired", expired)
      .field("factorizes", factorizes)
      .field("refactorizes", refactorizes)
      .field("solves", solves)
      .field("batches", batches)
      .field("batched_rhs", batched_rhs)
      .field("retries", retries)
      .field("queue_depth", queue_depth)
      .object("errors",
              [&](obs::JsonWriter& e) {
                for (std::size_t i = 0; i < kErrorCodeCount; ++i) {
                  e.field(to_string(static_cast<ErrorCode>(i)), errors[i]);
                }
              })
      .field("health", health())
      .object("cache", cache)
      .object("tenants", [&](obs::JsonWriter& t) {
        for (const auto& [name, ts] : tenants) t.object(name, ts);
      });
}

}  // namespace spx::service
