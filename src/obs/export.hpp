// The one export API of the observability layer (docs/OBSERVABILITY.md):
//
//   * Exportable + JsonWriter -- the single JSON-emission interface that
//     RunStats, FactorQuality, and the service stats implement (replacing
//     three divergent hand-rolled emitters; golden keys preserved).
//   * Prometheus text exposition over a MetricsRegistry scrape.
//   * Structured JSON over a MetricsRegistry scrape or a span stream.
//   * Chrome-tracing JSON over a span stream: the task and transfer
//     timelines of both drivers, one row per worker or DMA engine.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace spx::obs {

/// Escapes `s` for use inside a JSON string literal (quotes, backslashes,
/// and control characters).
std::string json_escape(std::string_view s);

class Exportable;

/// Structured-JSON emission helper shared by every Exportable: builds a
/// json::Value object field by field, so emitters state their schema
/// (golden keys) without hand-rolling json::Value plumbing.
class JsonWriter {
 public:
  JsonWriter() : value_(json::Value::object()) {}

  JsonWriter& field(std::string key, double v) {
    value_.set(std::move(key), json::Value(v));
    return *this;
  }
  JsonWriter& field(std::string key, bool v) {
    value_.set(std::move(key), json::Value(v));
    return *this;
  }
  JsonWriter& field(std::string key, std::string_view v) {
    value_.set(std::move(key), json::Value(std::string(v)));
    return *this;
  }
  JsonWriter& field(std::string key, const char* v) {
    return field(std::move(key), std::string_view(v));
  }
  /// Integer counters (index_t, uint64_t, int) serialize as numbers.
  template <typename T>
    requires std::is_integral_v<T>
  JsonWriter& field(std::string key, T v) {
    return field(std::move(key), static_cast<double>(v));
  }
  /// Escape hatch for pre-built values (arrays, parsed documents).
  JsonWriter& field(std::string key, json::Value v) {
    value_.set(std::move(key), std::move(v));
    return *this;
  }
  /// Numeric array field from any range of arithmetic values.
  template <typename Range>
  JsonWriter& number_array(std::string key, const Range& range) {
    json::Value arr = json::Value::array();
    for (const auto& x : range) {
      arr.push_back(json::Value(static_cast<double>(x)));
    }
    return field(std::move(key), std::move(arr));
  }
  /// Nested object written by `fill(JsonWriter&)`.
  template <typename F>
    requires std::is_invocable_v<F, JsonWriter&>
  JsonWriter& object(std::string key, F&& fill) {
    JsonWriter nested;
    fill(nested);
    return field(std::move(key), std::move(nested).take());
  }
  /// Nested object from another Exportable.
  JsonWriter& object(std::string key, const Exportable& e);

  json::Value take() && { return std::move(value_); }

 private:
  json::Value value_;
};

/// Anything that can serialize itself through the shared JsonWriter.
/// Implementations promise stable keys (the golden-key tests pin them).
class Exportable {
 public:
  virtual ~Exportable() = default;
  virtual void export_json(JsonWriter& w) const = 0;
};

/// Runs `e` through a JsonWriter and returns the finished value.
json::Value to_json(const Exportable& e);

// ---- metrics exporters --------------------------------------------------

/// Prometheus text exposition format, version 0.0.4: `# HELP` / `# TYPE`
/// headers, one `name{labels} value` line per series, histogram
/// `_bucket`/`_sum`/`_count` expansion.  Families appear in registration
/// order, so output is deterministic for a deterministic workload.
void write_prometheus(const MetricsRegistry& registry, std::ostream& out);
std::string prometheus_text(const MetricsRegistry& registry);

/// The same scrape as a structured JSON object keyed by family name.
json::Value metrics_to_json(const MetricsRegistry& registry);

// ---- span exporters -----------------------------------------------------

/// Chrome-tracing "traceEvents" JSON (complete events, microseconds) over
/// a span snapshot: one row per (track, resource), a span named
/// "<name> p<arg0> [e<arg1>]" (a task: "<kind> p<panel> [e<edge>]").
void write_chrome_trace(const std::vector<SpanRecord>& spans,
                        std::ostream& out);

/// Structured JSON span dump (ids, parent links, track, args, times).
json::Value spans_to_json(const std::vector<SpanRecord>& spans);

}  // namespace spx::obs
