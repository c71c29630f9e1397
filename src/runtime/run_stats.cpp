#include "runtime/run_stats.hpp"

namespace spx {

void RunStats::export_json(obs::JsonWriter& w) const {
  w.field("makespan_s", makespan)
      .field("gflops", gflops)
      .field("tasks_cpu", tasks_cpu)
      .field("tasks_gpu", tasks_gpu)
      .field("busy_fraction", busy_fraction());
  if (bytes_h2d > 0 || bytes_d2h > 0) {
    w.field("bytes_h2d", bytes_h2d).field("bytes_d2h", bytes_d2h);
  }
  if (transfers_h2d > 0 || transfers_d2h > 0) {
    w.field("transfers_h2d", transfers_h2d)
        .field("transfers_d2h", transfers_d2h);
  }
  if (gpu_evictions > 0) {
    w.field("gpu_evictions", gpu_evictions);
  }
  if (!contention.lock_wait.empty() || !contention.idle_wait.empty()) {
    w.object("contention", [&](obs::JsonWriter& c) {
      c.field("lock_wait_s", contention.total_lock_wait())
          .field("idle_wait_s", contention.total_idle_wait())
          .field("steals", contention.total_steals())
          .field("pops", contention.total_pops());
      if (!contention.stage_wait.empty()) {
        c.field("stage_wait_s", contention.total_stage_wait());
      }
    });
  }
  if (!kernel_isa.empty()) {
    w.field("kernel_isa", kernel_isa).field("kernel_blas", kernel_blas);
  }
  w.field("degraded", quality.degraded());
  if (quality.threshold > 0 || quality.degraded()) {
    w.object("quality", quality);
  }
  if (!model_error.empty()) {
    w.object("model_error", [&](obs::JsonWriter& m) {
      m.field("median_panel", model_error.median_panel())
          .field("median_update", model_error.median_update())
          .field("bias_panel", model_error.bias_panel())
          .field("bias_update", model_error.bias_update());
    });
  }
}

}  // namespace spx
