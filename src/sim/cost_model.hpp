// Kernel cost models for the simulated platform.
//
// CPU GEMM: roofline of a size-dependent compute rate (small dimensions
// hurt blocking efficiency) against per-core memory bandwidth; the cache
// model discounts traffic for panels hot in the executing worker's cache.
//
// GPU GEMM: occupancy model -- a kernel needs ceil(M/T)*ceil(N/T) thread
// blocks; its attainable rate scales with the fraction of resident blocks
// it can fill, which is why small sparse updates underuse a Fermi and why
// extra streams pay off (paper Fig. 3).  The gapped sparse variant adds a
// coalescence penalty growing with how much taller the destination panel
// is than the update.  Variant efficiencies (ASTRA -15%, no-texture -5%,
// LDL^T -5%) come straight from the paper's §V-B.
//
// Complex arithmetic: flop counts follow the paper's convention (an op in
// the working precision counts once), so complex rates are ~4x lower in
// counted ops -- exactly why Table I's Z matrices report lower GFlop/s.
#pragma once

#include <vector>

#include "runtime/task.hpp"
#include "sim/platform.hpp"

namespace spx::perfmodel {
class PerfModel;
}  // namespace spx::perfmodel

namespace spx::sim {

enum class GpuGemmVariant { Cublas, Astra, Sparse, SparseLdlt };

/// Raw Fermi GEMM model (free functions so kernel studies can use them
/// without a symbolic structure).  Time of one C(m x n) -= A(m x k) *
/// B(n x k)^T kernel alone on the device; `gap_ratio` >= 1 is (rows of the
/// stored C panel) / m for the gapped sparse variants.
double gpu_gemm_seconds(const PlatformSpec& spec, double m, double n,
                        double k, GpuGemmVariant variant, double gap_ratio,
                        bool complex_arith = false);
/// SM demand of that kernel in [0, 1].
double gpu_gemm_demand(const PlatformSpec& spec, double m, double n);

/// Which LDL^T update kernel the simulated runtime uses (paper §V-A,
/// Fig. 2): native PASTIX prescales each panel once into a D*L^T buffer,
/// the generic runtimes pay the fused rescale in every update task.  The
/// real code runs only the fused kernel (core/codelets.hpp).
enum class LdltStrategy { Prescaled, Fused };

class CostModel : public TaskCosts {
 public:
  struct Options {
    bool complex_arith = false;
    LdltStrategy ldlt = LdltStrategy::Fused;
    double task_overhead = 2e-6;
    /// Optional calibrated model (docs/PERF_MODELS.md): CPU task times it
    /// covers replace the analytic roofline, grounding the simulated host
    /// in measured rates; the hot-cache discount is rescaled
    /// proportionally and the device side stays analytic (no real GPU to
    /// calibrate against).  Must outlive the CostModel.
    const perfmodel::PerfModel* measured = nullptr;
  };

  CostModel(const PlatformSpec& spec, const SymbolicStructure& st,
            Factorization kind, Options options);

  // ---- TaskCosts interface (placement estimates, priorities) ----------
  double panel_seconds(index_t p, ResourceKind kind) const override;
  double update_seconds(index_t p, index_t edge,
                        ResourceKind kind) const override;
  double transfer_seconds(double bytes) const override;

  // ---- extended queries for the simulator ------------------------------
  /// CPU update duration with cache hints for source/target panels.
  double cpu_update_seconds(index_t p, index_t edge, bool src_hot,
                            bool dst_hot) const;
  /// GPU kernel time when running alone on the device (excl. transfers).
  double gpu_update_seconds(index_t p, index_t edge) const;
  /// SM demand of the update's kernels in [0, 1]; concurrent kernels on a
  /// device sharing more than 1.0 total demand slow down proportionally.
  double gpu_update_demand(index_t p, index_t edge) const;

  double panel_bytes(index_t p) const { return panel_bytes_[p]; }
  const PlatformSpec& spec() const { return spec_; }
  const Options& options() const { return options_; }

  // ---- raw GEMM models (Fig. 3 benchmark uses these directly) ----------
  /// Time of one C(m x n) -= A*B^T kernel on the GPU, alone on the device.
  /// `gap_ratio` >= 1 is (rows of the stored C panel) / m.
  double gpu_gemm_seconds(double m, double n, double k,
                          GpuGemmVariant variant, double gap_ratio) const;
  /// SM demand of that kernel.
  double gpu_gemm_demand(double m, double n) const;
  /// CPU GEMM time (used for calibration cross-checks).
  double cpu_gemm_seconds(double m, double n, double k) const;

 private:
  double cpu_rate(double m, double n, double k) const;
  void precompute();

  PlatformSpec spec_;
  const SymbolicStructure* st_;
  Factorization kind_;
  Options options_;
  double arith_factor_;   ///< 4 for complex (counted-op convention)
  double bytes_factor_;   ///< scalar size in bytes

  // Precomputed per-task values.
  struct UpdateCost {
    double cpu_flop_time;   ///< compute-bound time
    double cpu_bytes;       ///< total traffic (cold caches)
    double src_bytes;       ///< traffic attributable to the source panel
    double dst_bytes;       ///< traffic attributable to the target panel
    double gpu_time;        ///< alone-on-device kernel time
    double gpu_demand;
  };
  std::vector<double> panel_cpu_seconds_;
  std::vector<double> panel_bytes_;
  std::vector<UpdateCost> update_;
  std::vector<index_t> update_base_;
};

}  // namespace spx::sim
