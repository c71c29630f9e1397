// The shared instrumentation layer of the layered options design
// (DESIGN.md §11): one struct carrying every tracing / metrics /
// fault-injection knob, embedded by RealDriverOptions, SolverOptions and
// (through SolverOptions) service::ServiceOptions, so the knobs are set
// once -- e.g. via spx::OptionsBuilder (service/options_builder.hpp) --
// and inherited down the stack instead of being re-plumbed per layer.
#pragma once

#include "obs/span.hpp"

namespace spx {
class FaultInjector;
}  // namespace spx

namespace spx::obs {

class MetricsRegistry;
class Tracer;

struct InstrumentationOptions {
  /// Metrics sink; null means the process-global registry (metrics are
  /// always on unless the SPX_OBS seam is disabled).
  MetricsRegistry* metrics = nullptr;
  /// Span sink; null disables span tracing.  Must outlive the run.
  Tracer* tracer = nullptr;
  /// Parent context for every span emitted downstream: the solver parents
  /// its analyze/factorize/solve spans here, the driver its task spans.
  SpanContext parent;
  /// Fault-injection harness consulted at task start and factor
  /// allocation.  Must outlive the run.
  spx::FaultInjector* fault = nullptr;
};

}  // namespace spx::obs
