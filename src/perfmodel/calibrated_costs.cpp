#include "perfmodel/calibrated_costs.hpp"

namespace spx::perfmodel {
namespace {

KernelClass factor_kernel_of(Factorization kind) {
  switch (kind) {
    case Factorization::LLT: return KernelClass::Potrf;
    case Factorization::LDLT: return KernelClass::Ldlt;
    case Factorization::LU: return KernelClass::Getrf;
  }
  return KernelClass::Potrf;
}

}  // namespace

bool panel_task_seconds(const PerfModel& model, const SymbolicStructure& st,
                        Factorization kind, index_t p, ResourceKind res,
                        double* out) {
  const Panel& panel = st.panels[p];
  const double w = panel.width();
  const double below = panel.nrows_below();
  double factor_s = 0.0;
  if (!model.kernel_seconds(factor_kernel_of(kind), res, {w, w, w},
                            &factor_s)) {
    return false;
  }
  double trsm_s = 0.0;
  if (below > 0.0) {
    if (!model.kernel_seconds(KernelClass::TrsmPanel, res, {below, w, w},
                              &trsm_s)) {
      return false;
    }
    if (kind == Factorization::LU) trsm_s *= 2.0;  // L and U sides
  }
  *out = factor_s + trsm_s;
  return true;
}

bool update_task_seconds(const PerfModel& model, const SymbolicStructure& st,
                         Factorization kind, index_t p, index_t e,
                         ResourceKind res, double* out) {
  const Panel& sp = st.panels[p];
  const UpdateEdge& edge = st.targets[p][e];
  const double w = sp.width();
  const index_t first_off = sp.blocks[edge.first_block].offset;
  const index_t last_off =
      edge.last_block < static_cast<index_t>(sp.blocks.size())
          ? sp.blocks[edge.last_block].offset
          : sp.nrows;
  const double n = last_off - first_off;
  const bool lu = kind == Factorization::LU;
  double total = 0.0;
  auto add = [&](KernelClass c, const KernelShape& shape) {
    double s = 0.0;
    if (!model.kernel_seconds(c, res, shape, &s)) return false;
    total += s;
    return true;
  };
  if (res == ResourceKind::Cpu) {
    // The executing codelet's TempBuffer path (codelets.cpp): per side,
    // one GEMM over the edge's whole facing range, then one scatter of
    // the entries it writes -- every block's trapezoid for the symmetric
    // kinds, the full m x n buffer for each LU side.
    auto add_side = [&](double m, double entries) {
      return m <= 0.0 || (add(KernelClass::GemmNt, {m, n, w}) &&
                          add(KernelClass::Scatter, {entries / n, n, 0.0}));
    };
    if (lu) {
      const double ml = sp.nrows - first_off;
      const double mu = sp.nrows - last_off;
      if (!add_side(ml, ml * n) || !add_side(mu, mu * n)) return false;
    } else {
      double entries = 0.0;
      for (index_t b = edge.first_block; b < edge.last_block; ++b) {
        const Block& blk = sp.blocks[b];
        entries += double(sp.nrows - blk.offset) * blk.height();
      }
      if (!add_side(sp.nrows - first_off, entries)) return false;
    }
  } else {
    // The Direct path: one segmented GEMM per (block, side), with the
    // trapezoid per block for the symmetric kinds and, for LU, m rows
    // from the first facing block on the L side plus -- only when rows
    // remain past the facing blocks -- the strictly-below mirror on the
    // U side.
    for (index_t b = edge.first_block; b < edge.last_block; ++b) {
      const Block& blk = sp.blocks[b];
      const double nb = blk.height();
      const double m = sp.nrows - (lu ? first_off : blk.offset);
      if (!add(KernelClass::GemmNtGapped, {m, nb, w})) return false;
      if (lu && sp.nrows > last_off &&
          !add(KernelClass::GemmNtGapped, {double(sp.nrows - last_off), nb,
                                           w})) {
        return false;
      }
    }
  }
  *out = total;
  return true;
}

CalibratedCosts::CalibratedCosts(const TaskTable& table,
                                 const PerfModel& model, Options options)
    : table_(&table),
      model_(&model),
      options_(options),
      pcie_rate_(options.pcie_gbps * 1e9) {
  const SymbolicStructure& st = table.structure();
  const Factorization kind = table.factorization();
  const index_t np = st.num_panels();
  // Snapshot every prediction now: scheduler queries (dmda placement runs
  // under a lock on the hot path) must stay as cheap as FlopCosts.
  FlopCosts fallback(table, options.fallback_cpu_gflops,
                     options.fallback_gpu_speedup, options.pcie_gbps);
  panel_cpu_.resize(static_cast<std::size_t>(np));
  update_base_.resize(static_cast<std::size_t>(np) + 1, 0);
  index_t covered = 0;
  for (index_t p = 0; p < np; ++p) {
    const double flops = st.panel_task_flops(p, kind);
    double s;
    if (model.history_seconds(task_class_of(kind, TaskKind::Panel),
                              ResourceKind::Cpu, flops, &s,
                              options.history_min_samples) ||
        panel_task_seconds(model, st, kind, p, ResourceKind::Cpu, &s)) {
      ++covered;
    } else {
      s = fallback.panel_seconds(p, ResourceKind::Cpu);
    }
    panel_cpu_[p] = s;
    update_base_[p + 1] =
        update_base_[p] + static_cast<index_t>(st.targets[p].size());
  }
  update_cpu_.resize(static_cast<std::size_t>(update_base_[np]));
  update_gpu_.resize(static_cast<std::size_t>(update_base_[np]));
  for (index_t p = 0; p < np; ++p) {
    for (index_t e = 0; e < static_cast<index_t>(st.targets[p].size());
         ++e) {
      const double flops =
          st.update_task_flops(p, st.targets[p][e], kind);
      for (const ResourceKind res :
           {ResourceKind::Cpu, ResourceKind::GpuStream}) {
        double s;
        if (model.history_seconds(TaskClass::Update, res, flops, &s,
                                  options.history_min_samples) ||
            update_task_seconds(model, st, kind, p, e, res, &s)) {
          ++covered;
        } else {
          s = fallback.update_seconds(p, e, res);
        }
        (res == ResourceKind::Cpu ? update_cpu_
                                  : update_gpu_)[update_base_[p] + e] = s;
      }
    }
  }
  const index_t queries = np + 2 * update_base_[np];
  coverage_ = queries > 0 ? static_cast<double>(covered) / queries : 0.0;
}

double CalibratedCosts::panel_seconds(index_t p, ResourceKind kind) const {
  SPX_CHECK_ARG(kind == ResourceKind::Cpu,
                "panel tasks are CPU-only (paper §V-B): no GPU panel rate");
  return panel_cpu_[p];
}

double CalibratedCosts::update_seconds(index_t p, index_t edge,
                                       ResourceKind kind) const {
  return (kind == ResourceKind::Cpu ? update_cpu_
                                    : update_gpu_)[update_base_[p] + edge];
}

double CalibratedCosts::transfer_seconds(double bytes) const {
  return bytes / pcie_rate_;
}

}  // namespace spx::perfmodel
