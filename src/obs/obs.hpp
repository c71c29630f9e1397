// Umbrella header and the SPX_OBS macro seam of the observability layer.
//
// All instrumentation in hot paths goes through SPX_OBS(...):
//
//   SPX_OBS(counters.tasks->inc());
//
// Compiled with -DSPX_OBS_ENABLED=0 the statement vanishes entirely; in
// the default build it costs one relaxed atomic load of the process-wide
// enable flag before evaluating its argument, so `obs::set_enabled(false)`
// turns the whole layer off at runtime for near-zero cost (the <5%
// makespan acceptance gate in ISSUE/EXPERIMENTS is measured through this
// seam by `bench_service --metrics`).
#pragma once

#include "obs/metrics.hpp"
#include "obs/span.hpp"

#ifndef SPX_OBS_ENABLED
#define SPX_OBS_ENABLED 1
#endif

namespace spx::obs {

namespace detail {
/// Process-wide runtime switch behind SPX_OBS (default: on).
inline std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{true};
  return flag;
}
}  // namespace detail

inline bool enabled() {
#if SPX_OBS_ENABLED
  return detail::enabled_flag().load(std::memory_order_relaxed);
#else
  return false;
#endif
}

inline void set_enabled(bool on) {
  detail::enabled_flag().store(on, std::memory_order_relaxed);
}

}  // namespace spx::obs

#if SPX_OBS_ENABLED
#define SPX_OBS(statement)            \
  do {                                \
    if (::spx::obs::enabled()) {      \
      statement;                      \
    }                                 \
  } while (0)
#else
#define SPX_OBS(statement) \
  do {                     \
  } while (0)
#endif
