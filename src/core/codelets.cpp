#include "core/codelets.hpp"

#include <algorithm>

#include "kernels/dense.hpp"

namespace spx {
namespace k = kernels;

template <typename T>
void factor_panel(FactorData<T>& f, index_t p) {
  const SymbolicStructure& st = f.structure();
  const Panel& panel = st.panels[p];
  const index_t w = panel.width();
  const index_t below = panel.nrows_below();
  const index_t ld = panel.nrows;
  T* diag = f.panel_l(p);
  T* l21 = diag + w;
  // Per-panel pivot accounting, merged into the factor-wide record below
  // (local so concurrent panels never contend inside the kernels).
  FactorQuality local;
  const k::PivotControl pc{f.pivot_threshold(), panel.col_begin, &local};
  // Even a failed panel merges its accounting (the indefinite flag must
  // survive the throw so callers can report *why* factorization died).
  struct MergeOnExit {
    FactorData<T>& f;
    FactorQuality& q;
    ~MergeOnExit() { f.merge_quality(q); }
  } merge_on_exit{f, local};

  switch (f.kind()) {
    case Factorization::LLT:
      k::potrf(w, diag, ld, pc);
      if (below > 0) {
        k::trsm_right_lower_trans(below, w, diag, ld, l21, ld, false);
      }
      break;
    case Factorization::LDLT: {
      k::ldlt(w, diag, ld, pc);
      T* d = f.panel_d(p);
      for (index_t j = 0; j < w; ++j) {
        d[j] = diag[j + static_cast<std::size_t>(j) * ld];
      }
      if (below > 0) {
        k::trsm_right_lower_trans(below, w, diag, ld, l21, ld, true);
        k::scale_cols_inv(below, w, l21, ld, d);
      }
      break;
    }
    case Factorization::LU: {
      k::getrf_nopiv(w, diag, ld, pc);
      if (below > 0) {
        // L21 := A21 * U11^{-1}
        k::trsm_right_upper(below, w, diag, ld, l21, ld);
        // U21' := A12^T * L11^{-T} (unit diagonal)
        T* u21 = f.panel_u(p) + w;
        k::trsm_right_lower_trans(below, w, diag, ld, u21, ld, true);
      }
      break;
    }
  }
}

namespace {

/// Grows (never shrinks) a worker buffer to at least `n` entries; a
/// resize down and back up would zero-fill the regrown part every call.
template <typename T>
T* grow(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
  return v.data();
}

}  // namespace

template <typename T>
void apply_update(FactorData<T>& f, index_t src, const UpdateEdge& e,
                  Workspace<T>& ws) {
  const SymbolicStructure& st = f.structure();
  const Panel& sp = st.panels[src];
  const Panel& dp = st.panels[e.dst];
  const index_t w = sp.width();
  const index_t ld = sp.nrows;
  const index_t first_off = sp.blocks[e.first_block].offset;
  const index_t last_off = e.last_block < static_cast<index_t>(sp.blocks.size())
                               ? sp.blocks[e.last_block].offset
                               : sp.nrows;
  const index_t n = last_off - first_off;
  const index_t m = sp.nrows - first_off;
  SPX_ASSERT(e.map_end > e.map_begin);  // build_row_maps ran

  // The map of the edge, expanded: the target row of every map row (map
  // row 0 = source row first_off), and the target column and first map
  // row (the block's own, for a trapezoid) of every facing column.
  index_t* rows = grow(ws.map, static_cast<std::size_t>(m) + 2 * n);
  index_t* cols = rows + m;
  index_t* first = cols + n;
  k::expand_row_map(st.row_map(e), rows);
  for (index_t bi = e.first_block; bi < e.last_block; ++bi) {
    const Block& blk = sp.blocks[bi];
    const index_t col = blk.offset - first_off;
    for (index_t j = 0; j < blk.height(); ++j) {
      cols[col + j] = blk.row_begin - dp.col_begin + j;
      first[col + j] = col;
    }
  }
  const T* l = f.panel_l(src) + first_off;

  switch (f.kind()) {
    case Factorization::LLT:
      k::gemm_nt_mapped(m, n, w, l, ld, l, ld,
                        {f.panel_l(e.dst), dp.nrows, rows, cols, first});
      break;
    case Factorization::LDLT: {
      // D-scale the facing rows now (the fused LDL^T update kernel).
      T* scaled = grow(ws.scaled, static_cast<std::size_t>(n) * w);
      k::scale_cols(n, w, l, ld, f.panel_d(src), scaled, n);
      k::gemm_nt_mapped(m, n, w, l, ld, scaled, n,
                        {f.panel_l(e.dst), dp.nrows, rows, cols, first});
      break;
    }
    case Factorization::LU: {
      const T* u = f.panel_u(src) + first_off;
      // L side: rows from the first facing block down; the columns of the
      // target it touches include its own diagonal block (both triangles,
      // since U11 of the target lives there).
      k::gemm_nt_mapped(m, n, w, l, ld, u, ld,
                        {f.panel_l(e.dst), dp.nrows, rows, cols, nullptr});
      // U side: rows strictly past the facing blocks (those correspond to
      // columns beyond the target panel, i.e. its U^T part).
      k::gemm_nt_mapped(m - n, n, w, u + n, ld, l, ld,
                        {f.panel_u(e.dst), dp.nrows, rows + n, cols,
                         nullptr});
      break;
    }
  }
}

template void factor_panel<real_t>(FactorData<real_t>&, index_t);
template void factor_panel<complex_t>(FactorData<complex_t>&, index_t);
template void apply_update<real_t>(FactorData<real_t>&, index_t,
                                   const UpdateEdge&, Workspace<real_t>&);
template void apply_update<complex_t>(FactorData<complex_t>&, index_t,
                                      const UpdateEdge&,
                                      Workspace<complex_t>&);
template void factor_panel<real32_t>(FactorData<real32_t>&, index_t);
template void apply_update<real32_t>(FactorData<real32_t>&, index_t,
                                     const UpdateEdge&,
                                     Workspace<real32_t>&);

}  // namespace spx
