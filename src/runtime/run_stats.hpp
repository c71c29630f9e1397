// Execution statistics shared by the simulated and real drivers.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "common/factor_quality.hpp"
#include "common/types.hpp"

namespace spx {

/// Per-worker contention counters from a real execution: where worker
/// time goes besides compute.  Vectors are indexed by resource id; any of
/// them may be empty when the producing scheduler or driver does not
/// measure that quantity.
struct ContentionStats {
  std::vector<double> lock_wait;      ///< seconds blocked on scheduler locks
  std::vector<double> idle_wait;      ///< seconds parked waiting for work
  std::vector<double> stage_wait;     ///< seconds blocked on data staging
                                      ///< (device-engine transfers)
  std::vector<index_t> steals;        ///< tasks taken from another worker
  std::vector<index_t> pops;          ///< successful try_pop calls
  std::vector<index_t> depth_samples; ///< queue-depth sample count
  std::vector<double> depth_sum;      ///< sum of sampled own-queue depths

  double total_lock_wait() const { return sum(lock_wait); }
  double total_idle_wait() const { return sum(idle_wait); }
  double total_stage_wait() const { return sum(stage_wait); }
  index_t total_steals() const { return sum_i(steals); }
  index_t total_pops() const { return sum_i(pops); }
  double avg_queue_depth() const {
    const double n = static_cast<double>(sum_i(depth_samples));
    return n > 0 ? sum(depth_sum) / n : 0.0;
  }
  /// Fraction of total worker-seconds spent blocked on scheduler locks.
  double lock_wait_share(double makespan) const {
    return share(total_lock_wait(), makespan, lock_wait.size());
  }
  /// Fraction of total worker-seconds spent parked with no runnable task.
  double idle_share(double makespan) const {
    return share(total_idle_wait(), makespan, idle_wait.size());
  }

 private:
  static double sum(const std::vector<double>& v) {
    double total = 0.0;
    for (const double x : v) total += x;
    return total;
  }
  static index_t sum_i(const std::vector<index_t>& v) {
    index_t total = 0;
    for (const index_t x : v) total += x;
    return total;
  }
  static double share(double total, double makespan, std::size_t workers) {
    if (makespan <= 0 || workers == 0) return 0.0;
    return total / (makespan * static_cast<double>(workers));
  }
};

/// Cost-model accuracy observed during a real run: one signed
/// (predicted - actual) / actual sample per executed panel/update task.
/// Populated by the real driver when RealDriverOptions::error_model is
/// set (the perfmodel pipeline reports these per kernel class; see
/// docs/PERF_MODELS.md).  Empty when no model was attached.
struct ModelErrorStats {
  std::vector<double> panel_rel;   ///< signed panel-task relative errors
  std::vector<double> update_rel;  ///< signed update-task relative errors

  /// True when no samples were collected (no model attached to the run).
  bool empty() const { return panel_rel.empty() && update_rel.empty(); }
  /// Median of a sample vector (0 when empty); by value, it sorts a copy.
  static double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    return v[mid];
  }
  /// Median |error|: the headline accuracy figure per task class.
  static double median_abs(std::vector<double> v) {
    for (double& x : v) x = x < 0 ? -x : x;
    return median(std::move(v));
  }
  double median_panel() const { return median_abs(panel_rel); }
  double median_update() const { return median_abs(update_rel); }
  /// Median *signed* error: + means the model over-predicts durations.
  double bias_panel() const { return median(panel_rel); }
  double bias_update() const { return median(update_rel); }
};

/// Per-run execution statistics; `makespan`/`busy` are virtual seconds
/// when produced by the simulator, wall-clock otherwise.
struct RunStats : obs::Exportable {
  double makespan = 0.0;        ///< seconds (virtual for the simulator)
  double gflops = 0.0;          ///< total factorization flops / makespan
  std::vector<double> busy;     ///< per-resource busy seconds
  double bytes_h2d = 0.0;       ///< host-to-device transfer volume
  double bytes_d2h = 0.0;       ///< device-to-host transfer volume
  index_t transfers_h2d = 0;    ///< staging transfers, host-to-device
  index_t transfers_d2h = 0;    ///< staging transfers, device-to-host
  index_t tasks_cpu = 0;        ///< tasks executed on CPU workers
  index_t tasks_gpu = 0;        ///< tasks executed on GPU streams
  index_t cache_hits = 0;       ///< cache-model hits (simulator only)
  index_t cache_queries = 0;    ///< cache-model lookups (simulator only)
  index_t gpu_evictions = 0;    ///< LRU evictions under device memory
                                ///< pressure (simulator and emulated
                                ///< device engines)
  ContentionStats contention;   ///< lock/idle/steal counters (real driver)
  ModelErrorStats model_error;  ///< cost-model accuracy (real driver, only
                                ///< when a model is attached)
  FactorQuality quality;        ///< static-pivot perturbation accounting
                                ///< (filled by Solver::factorize)
  std::string kernel_isa;       ///< dense-kernel ISA tier the run dispatched
                                ///< to ("generic"/"neon"/"avx2"/"avx512";
                                ///< empty when no kernels ran)
  bool kernel_blas = false;     ///< true when large GEMMs delegated to an
                                ///< external CBLAS (-DSPX_WITH_BLAS)

  /// Mean per-resource utilization: busy seconds / makespan, in [0, 1].
  double busy_fraction() const {
    if (busy.empty() || makespan <= 0) return 0.0;
    double total = 0.0;
    for (const double b : busy) total += b;
    return total / (makespan * static_cast<double>(busy.size()));
  }

  /// JSON schema (makespan, gflops, task counts, contention and
  /// model-error summaries) -- the per-request stats surface the solve
  /// service exports (src/service/).  Stable golden keys.
  void export_json(obs::JsonWriter& w) const override;
};

}  // namespace spx
