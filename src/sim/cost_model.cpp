#include "sim/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "perfmodel/calibrated_costs.hpp"

namespace spx::sim {

CostModel::CostModel(const PlatformSpec& spec, const SymbolicStructure& st,
                     Factorization kind, Options options)
    : spec_(spec), st_(&st), kind_(kind), options_(options) {
  arith_factor_ = options.complex_arith ? 4.0 : 1.0;
  bytes_factor_ = options.complex_arith ? 16.0 : 8.0;
  precompute();
}

double CostModel::cpu_rate(double m, double n, double k) const {
  // Size-dependent efficiency: each small dimension hurts blocking.
  const double h = spec_.cpu_half_dim;
  const double eff = spec_.cpu_efficiency * (m / (m + h)) * (n / (n + h)) *
                     (k / (k + h));
  return spec_.cpu_peak_gflops * 1e9 * eff / arith_factor_;
}

double CostModel::cpu_gemm_seconds(double m, double n, double k) const {
  const double flop_time = flops_gemm(m, n, k) / cpu_rate(m, n, k);
  const double bytes = bytes_factor_ * (m * k + n * k + 2.0 * m * n);
  return std::max(flop_time, bytes / spec_.cpu_mem_bw);
}

double gpu_gemm_demand(const PlatformSpec& spec, double m, double n) {
  const double t = spec.gpu_tile;
  const double blocks = std::ceil(m / t) * std::ceil(n / t);
  // Saturating occupancy: also the fraction of attainable rate the kernel
  // reaches alone (rate and demand must agree so concurrent streams sum
  // to exactly the device peak once saturated).
  return blocks / (blocks + spec.gpu_block_half);
}

double gpu_gemm_seconds(const PlatformSpec& spec, double m, double n,
                        double k, GpuGemmVariant variant, double gap_ratio,
                        bool complex_arith) {
  double eff = 1.0;
  switch (variant) {
    case GpuGemmVariant::Cublas:
      break;
    case GpuGemmVariant::Astra:
      eff = spec.astra_efficiency;
      break;
    case GpuGemmVariant::Sparse:
      eff = spec.astra_efficiency * spec.no_texture_efficiency;
      break;
    case GpuGemmVariant::SparseLdlt:
      eff = spec.astra_efficiency * spec.no_texture_efficiency *
            spec.ldlt_gpu_efficiency;
      break;
  }
  if (variant == GpuGemmVariant::Sparse ||
      variant == GpuGemmVariant::SparseLdlt) {
    // Scatter into the gapped destination panel breaks coalescence; the
    // taller the panel relative to the computed rows, the worse
    // (paper Fig. 3, dotted curves).
    eff /= 1.0 + spec.gap_penalty_slope * std::max(0.0, gap_ratio - 1.0);
  }
  const double arith = complex_arith ? 4.0 : 1.0;
  const double occupancy = gpu_gemm_demand(spec, m, n);
  const double rate =
      spec.gpu_peak_gflops * 1e9 * eff * occupancy / arith;
  const double flop_time = flops_gemm(m, n, k) / rate;
  // Memory traffic: A, B read once; C read+written, amplified by the gaps.
  const double c_amp = (variant == GpuGemmVariant::Sparse ||
                        variant == GpuGemmVariant::SparseLdlt)
                           ? gap_ratio
                           : 1.0;
  const double bytes = (complex_arith ? 16.0 : 8.0) *
                       (m * k + n * k + 2.0 * m * n * c_amp);
  return std::max(flop_time, bytes / spec.gpu_mem_bw) +
         spec.gpu_launch_latency;
}

double CostModel::gpu_gemm_demand(double m, double n) const {
  return sim::gpu_gemm_demand(spec_, m, n);
}

double CostModel::gpu_gemm_seconds(double m, double n, double k,
                                   GpuGemmVariant variant,
                                   double gap_ratio) const {
  return sim::gpu_gemm_seconds(spec_, m, n, k, variant, gap_ratio,
                               options_.complex_arith);
}

void CostModel::precompute() {
  const SymbolicStructure& st = *st_;
  const index_t np = st.num_panels();
  panel_cpu_seconds_.resize(static_cast<std::size_t>(np));
  panel_bytes_.resize(static_cast<std::size_t>(np));
  update_base_.resize(static_cast<std::size_t>(np) + 1, 0);
  const int arrays = kind_ == Factorization::LU ? 2 : 1;
  const bool sym = kind_ != Factorization::LU;
  const bool ldlt = kind_ == Factorization::LDLT;

  for (index_t p = 0; p < np; ++p) {
    const Panel& panel = st.panels[p];
    panel_bytes_[p] = bytes_factor_ * panel.nrows * panel.width() * arrays;
    // Panel task: factor + TRSM at a reduced efficiency (skinny shapes,
    // divisions); roofline against one pass over the panel.
    double flops = st.panel_task_flops(p, kind_);
    if (ldlt && options_.ldlt == LdltStrategy::Prescaled) {
      // The native strategy prescales D*L^T once per panel here.
      flops += flops_scale(panel.nrows_below(), panel.width());
    }
    const double rate =
        cpu_rate(panel.nrows, panel.width(), panel.width()) *
        spec_.cpu_panel_efficiency;
    panel_cpu_seconds_[p] =
        std::max(flops / rate, 2.0 * panel_bytes_[p] / spec_.cpu_mem_bw);
    // Measured override: a calibrated table covering this panel replaces
    // the analytic estimate (the prescale extra stays analytic -- it is
    // bandwidth noise next to the factor + TRSM kernels).
    if (options_.measured != nullptr) {
      double s = 0.0;
      if (perfmodel::panel_task_seconds(*options_.measured, st, kind_, p,
                                        ResourceKind::Cpu, &s)) {
        panel_cpu_seconds_[p] = s;
      }
    }
    update_base_[p + 1] =
        update_base_[p] + static_cast<index_t>(st.targets[p].size());
  }

  update_.resize(static_cast<std::size_t>(update_base_[np]));
  for (index_t p = 0; p < np; ++p) {
    const Panel& sp = st.panels[p];
    const double w = sp.width();
    for (index_t e = 0; e < static_cast<index_t>(st.targets[p].size());
         ++e) {
      const UpdateEdge& edge = st.targets[p][e];
      const Panel& dp = st.panels[edge.dst];
      UpdateCost uc{0, 0, 0, 0, 0, 0};
      const index_t first_off = sp.blocks[edge.first_block].offset;
      const index_t last_off =
          edge.last_block < static_cast<index_t>(sp.blocks.size())
              ? sp.blocks[edge.last_block].offset
              : sp.nrows;
      for (index_t b = edge.first_block; b < edge.last_block; ++b) {
        const Block& blk = sp.blocks[b];
        const double nb = blk.height();
        // L-side GEMM rows of the paper's per-block Mirage kernels
        // (trapezoid for symmetric, from the first facing block for LU).
        // The CPU codelet runs one GEMM per edge and side instead; this
        // model keeps the paper's decomposition.
        const double m = sym ? sp.nrows - blk.offset : sp.nrows - first_off;
        double gemm_rate = cpu_rate(m, nb, w);
        if (ldlt && options_.ldlt == LdltStrategy::Fused) {
          // The fused kernel rescales B on the fly and loses the pure
          // vendor-GEMM shape (paper §V-A).
          gemm_rate *= spec_.ldlt_fused_cpu_efficiency;
        }
        uc.cpu_flop_time += flops_gemm(m, nb, w) / gemm_rate;
        if (ldlt && options_.ldlt == LdltStrategy::Fused) {
          uc.cpu_flop_time += flops_scale(nb, w) / spec_.cpu_mem_bw * 8.0;
        }
        const double gap = std::max(1.0, double(dp.nrows) / m);
        uc.gpu_time += gpu_gemm_seconds(
            m, nb, w,
            ldlt ? GpuGemmVariant::SparseLdlt : GpuGemmVariant::Sparse,
            gap);
        uc.gpu_demand += gpu_gemm_demand(m, nb);
        // CPU traffic of the paper's CPU kernel (GEMM into a buffer,
        // then scatter): A and W/C per block, plus the buffer write and
        // the scatter read.  The real codelet writes no buffer; this
        // model reproduces the paper's machine and kernels.
        uc.src_bytes += bytes_factor_ * (m * w + nb * w);
        uc.dst_bytes += bytes_factor_ * 2.0 * m * nb;
        uc.cpu_bytes += bytes_factor_ * 2.0 * m * nb;
        if (kind_ == Factorization::LU) {
          // U-side mirror GEMM.
          const double mu = sp.nrows - last_off;
          if (mu > 0) {
            uc.cpu_flop_time += flops_gemm(mu, nb, w) / cpu_rate(mu, nb, w);
            uc.gpu_time += gpu_gemm_seconds(mu, nb, w,
                                            GpuGemmVariant::Sparse, gap);
            uc.gpu_demand += gpu_gemm_demand(mu, nb);
            uc.src_bytes += bytes_factor_ * (mu * w + nb * w);
            uc.dst_bytes += bytes_factor_ * 2.0 * mu * nb;
            uc.cpu_bytes += bytes_factor_ * 2.0 * mu * nb;
          }
        }
      }
      uc.cpu_bytes += uc.src_bytes + uc.dst_bytes;
      uc.gpu_demand = std::min(1.0, uc.gpu_demand);
      // Measured override: scale the flop-time/traffic pair so the
      // cold-cache time equals the calibrated prediction while the
      // hot-cache discounts keep their relative size.
      if (options_.measured != nullptr) {
        double s = 0.0;
        if (perfmodel::update_task_seconds(*options_.measured, st, kind_, p,
                                           e, ResourceKind::Cpu, &s)) {
          const double cold =
              std::max(uc.cpu_flop_time, uc.cpu_bytes / spec_.cpu_mem_bw);
          if (cold > 0.0 && s > 0.0) {
            const double scale = s / cold;
            uc.cpu_flop_time *= scale;
            uc.cpu_bytes *= scale;
            uc.src_bytes *= scale;
            uc.dst_bytes *= scale;
          }
        }
      }
      update_[update_base_[p] + e] = uc;
    }
  }
}

double CostModel::panel_seconds(index_t p, ResourceKind kind) const {
  SPX_DEBUG_ASSERT(kind == ResourceKind::Cpu);
  (void)kind;
  return panel_cpu_seconds_[p] + options_.task_overhead;
}

double CostModel::update_seconds(index_t p, index_t edge,
                                 ResourceKind kind) const {
  const UpdateCost& uc = update_[update_base_[p] + edge];
  if (kind == ResourceKind::Cpu) {
    return std::max(uc.cpu_flop_time, uc.cpu_bytes / spec_.cpu_mem_bw) +
           options_.task_overhead;
  }
  return uc.gpu_time + options_.task_overhead;
}

double CostModel::transfer_seconds(double bytes) const {
  if (bytes <= 0.0) return 0.0;
  return spec_.pcie_latency + bytes / spec_.pcie_bw;
}

double CostModel::cpu_update_seconds(index_t p, index_t edge, bool src_hot,
                                     bool dst_hot) const {
  const UpdateCost& uc = update_[update_base_[p] + edge];
  double bytes = uc.cpu_bytes;
  // A hot panel is streamed from cache instead of memory.
  if (src_hot) bytes -= uc.src_bytes;
  if (dst_hot) bytes -= uc.dst_bytes;
  return std::max(uc.cpu_flop_time, bytes / spec_.cpu_mem_bw) +
         options_.task_overhead;
}

double CostModel::gpu_update_seconds(index_t p, index_t edge) const {
  return update_[update_base_[p] + edge].gpu_time;
}

double CostModel::gpu_update_demand(index_t p, index_t edge) const {
  return update_[update_base_[p] + edge].gpu_demand;
}

}  // namespace spx::sim
