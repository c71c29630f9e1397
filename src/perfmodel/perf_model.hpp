// Calibrated per-kernel performance models (StarPU-style).
//
// The paper's StarPU port relies on auto-calibrated, history-based
// per-kernel performance models to drive dmda/HEFT placement (§IV); this
// subsystem is our equivalent for *real* execution on the current host:
//
//   calibrate -> persist -> load -> predict -> refine online
//
// Two layers, consulted in order by CalibratedCosts:
//   1. a *history* layer: per (task class, resource kind, flop bucket)
//      running-average rates observed from real task executions -- the
//      direct analogue of StarPU's per-codelet history models keyed by
//      data footprint;
//   2. a *fitted kernel* layer: piecewise rate curves per (kernel class,
//      resource kind) measured by the microbenchmark harness
//      (calibrate.hpp) over a grid of (m, n, k) shapes.
// Shapes not covered by either layer degrade to the flop-proportional
// oracle (flop_costs.hpp), so a stale or partial model can never make a
// prediction impossible -- only less accurate.
//
// Models persist as versioned JSON under models/ (schema documented with
// a worked example in docs/PERF_MODELS.md) and are validated by the
// `docs_check` ctest target.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/task.hpp"

namespace spx::perfmodel {

/// The kernel families the calibration harness measures.  Every update
/// task, on a CPU worker or a GPU stream, runs one GemmNtGapped (the
/// mapped GEMM) per edge and side, matching the real driver.  GemmNt and
/// Scatter are measured and persisted too; no task prediction reads them.
enum class KernelClass : std::uint8_t {
  Potrf,         ///< diagonal-block Cholesky (LLT panels)
  Ldlt,          ///< diagonal-block LDL^T (LDLT panels)
  Getrf,         ///< diagonal-block LU, no pivoting (LU panels)
  TrsmPanel,     ///< off-diagonal panel TRSM (X := X * T^{-1} shapes)
  GemmNt,        ///< contiguous C -= A*B^T (the dense gemm_nt)
  GemmNtGapped,  ///< the update's mapped GEMM into the gapped panel
  Scatter        ///< buffer scatter-subtract; a *bytes*-rate kernel
};
inline constexpr int kNumKernelClasses = 7;

/// Task classes of the history layer (one StarPU "codelet" each).  Panel
/// classes are split per factorization kind because their kernel mix
/// differs (POTRF vs LDL^T vs GETRF + 2 TRSM).
enum class TaskClass : std::uint8_t {
  PanelLlt,
  PanelLdlt,
  PanelLu,
  Update
};
inline constexpr int kNumTaskClasses = 4;

const char* to_string(KernelClass c);
const char* to_string(TaskClass c);
bool kernel_class_from_string(std::string_view s, KernelClass* out);
bool task_class_from_string(std::string_view s, TaskClass* out);

/// History class of a panel/update task under factorization `kind`.
TaskClass task_class_of(Factorization kind, TaskKind task);

/// Kernel shape; the semantics of (m, n, k) per class:
///   Potrf/Ldlt/Getrf: n x n diagonal block (m = n = k)
///   TrsmPanel:        m rows solved against an n x n triangle
///   GemmNt[Gapped]:   C(m x n) -= A(m x k) * B(n x k)^T
///   Scatter:          m x n entries scattered into the target panel
struct KernelShape {
  double m = 0.0;
  double n = 0.0;
  double k = 0.0;
};

/// Work of a shape in the class's rate currency: *effective* flops for the
/// compute kernels -- raw flops inflated by a saturating small-dimension
/// penalty, so shapes with equal work take approximately equal time and a
/// 1-D table keyed by it can cover thin-block and cube shapes at once --
/// and bytes moved for Scatter.  Strictly increasing in each of m, n, k.
double kernel_work(KernelClass c, const KernelShape& s);

/// One calibrated grid point: measured sustained rate (work units/s) at a
/// concrete shape.
struct CalPoint {
  KernelShape shape;
  double work = 0.0;   ///< kernel_work of the shape
  double rate = 0.0;   ///< work units per second
  int samples = 0;     ///< timing repetitions behind the measurement
};

/// Piecewise rate curve for one (kernel class, resource kind): prediction
/// log-log-interpolates the rate between the two calibrated points
/// bracketing the queried work, clamping outside the grid.  fit() enforces
/// rate(w2)/rate(w1) <= w2/w1 between adjacent points, which makes the
/// predicted *time* non-decreasing in work within every fitted segment
/// (tested in test_perfmodel.cpp).
class KernelTable {
 public:
  /// Adds a calibration point (any order; fit() sorts).
  void add(const CalPoint& p);
  /// Sorts by work, merges duplicate work values, applies the
  /// monotonicity clamp.  Must be called before seconds().
  void fit();

  bool empty() const { return points_.empty(); }
  const std::vector<CalPoint>& points() const { return points_; }

  /// Predicted seconds for `work` units; work <= 0 returns 0.
  double seconds(double work) const;

 private:
  std::vector<CalPoint> points_;  ///< sorted by work after fit()
};

/// The persisted model: fitted kernel tables + online history.
///
/// Thread safety: the kernel tables are immutable after load/calibration;
/// the history layer is internally locked so the real driver can observe()
/// from worker threads while nothing else mutates the model.  Consumers
/// (CalibratedCosts) snapshot predictions at construction, so refinement
/// takes effect on the *next* factorization -- the same "models converge
/// across runs" behaviour as StarPU's on-disk history files.
class PerfModel {
 public:
  static constexpr int kSchemaVersion = 1;

  PerfModel() = default;
  PerfModel(const PerfModel& other);
  PerfModel& operator=(const PerfModel& other);

  /// Free-form host tag stored in the file ("hostname", "mirage", ...).
  const std::string& host() const { return host_; }
  void set_host(std::string host) { host_ = std::move(host); }

  /// Installs a fitted table (replacing any previous one for the slot).
  void set_table(KernelClass c, ResourceKind kind, KernelTable table);
  /// The fitted table for a slot, or nullptr when never calibrated.
  const KernelTable* table(KernelClass c, ResourceKind kind) const;

  /// Predicted seconds for one kernel invocation; false when the slot has
  /// no fitted table (caller falls back to its flop model).
  bool kernel_seconds(KernelClass c, ResourceKind kind,
                      const KernelShape& shape, double* out) const;

  // ---- history layer (online refinement) ------------------------------
  /// Feeds one measured task duration into the history layer.  Buckets by
  /// floor(log2(flops)); keeps a saturating running mean of the rate.
  /// Thread-safe.
  void observe(TaskClass c, ResourceKind kind, double flops,
               double seconds);
  /// Predicted seconds from the history layer; false when the bucket has
  /// fewer than `min_samples` observations.  Thread-safe.
  bool history_seconds(TaskClass c, ResourceKind kind, double flops,
                       double* out, double min_samples = 3.0) const;
  /// Total populated history buckets (all classes and kinds).
  std::size_t num_history_buckets() const;

  // ---- persistence ----------------------------------------------------
  /// Serializes to the versioned JSON schema of docs/PERF_MODELS.md.
  std::string to_json() const;
  /// Writes to_json() to `path`; throws InvalidArgument on I/O failure.
  void save(const std::string& path) const;
  /// Parses a JSON document; throws InvalidArgument on schema violations
  /// (wrong version, missing fields, non-positive rates).
  static PerfModel from_json(std::string_view text);
  /// Loads from a file; returns nullopt (and fills `error`) on a missing
  /// or corrupt file instead of throwing -- callers degrade to FlopCosts.
  static std::optional<PerfModel> load(const std::string& path,
                                       std::string* error = nullptr);

 private:
  struct HistoryKey {
    std::uint8_t task_class;
    std::uint8_t kind;
    int bucket;
    auto operator<=>(const HistoryKey&) const = default;
  };
  struct HistoryEntry {
    double rate = 0.0;    ///< running mean, work units/s
    double weight = 0.0;  ///< saturating observation count
  };
  static int resource_slot(ResourceKind kind);

  std::string host_ = "uncalibrated";
  /// [kernel class][resource slot]; empty table = never calibrated.
  KernelTable tables_[kNumKernelClasses][2];
  mutable std::mutex history_mutex_;
  std::map<HistoryKey, HistoryEntry> history_;
};

}  // namespace spx::perfmodel
