#include "core/solve.hpp"

#include <algorithm>
#include <vector>

#include "kernels/dense.hpp"

namespace spx {
namespace k = kernels;
namespace {

/// Smallest nrhs that solve_permuted_multi runs on the RHS-contiguous
/// tile; fewer columns take the vector sweep one column at a time.  A
/// probe on the serving and `solve` surrogates timed both paths per
/// nrhs: the tile path lost at nrhs 1 and 2, the two tied at nrhs 3 and
/// the tile won from nrhs 4 on (DESIGN.md §16).
constexpr index_t kTileMinRhs = 3;

/// Grows a scratch vector to at least `n` elements, never shrinking it,
/// so a steady stream of solves allocates and zero-fills nothing.
template <typename T>
T* grown(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
  return v.data();
}

/// Per-thread scratch of the sweeps.  Const solves run concurrently on
/// one factor (the solve service takes a shared lock), so the scratch
/// belongs to the calling thread, never to the factor or the Solver.
/// `below` holds a panel's off-diagonal rows, `tile` its RHS tile.
template <typename T>
struct Scratch {
  std::vector<T> below;
  std::vector<T> tile;
};

template <typename T>
Scratch<T>& scratch() {
  thread_local Scratch<T> s;
  return s;
}

index_t panels_in(const SymbolicStructure& st, index_t panel_limit) {
  return panel_limit < 0 ? st.num_panels()
                         : std::min(panel_limit, st.num_panels());
}

/// The off-diagonal rows of a panel are contiguous in its storage (rows
/// w .. nrows of each column), but their rows of x lie in one interval
/// per block.  These copy between x and a buffer of nrows_below() rows
/// in storage order.
template <typename T>
void gather_below(const Panel& panel, const T* x, T* buf) {
  const index_t w = panel.width();
  for (std::size_t b = 1; b < panel.blocks.size(); ++b) {
    const Block& blk = panel.blocks[b];
    std::copy_n(x + blk.row_begin, blk.height(), buf + (blk.offset - w));
  }
}

template <typename T>
void scatter_below(const Panel& panel, const T* buf, T* x) {
  const index_t w = panel.width();
  for (std::size_t b = 1; b < panel.blocks.size(); ++b) {
    const Block& blk = panel.blocks[b];
    std::copy_n(buf + (blk.offset - w), blk.height(), x + blk.row_begin);
  }
}

/// Y(nrhs x w) := X(panel rows, :)^T, the RHS-contiguous tile: row j of
/// the panel's slice of X becomes column j of Y (leading dimension nrhs).
template <typename T>
void load_tile(const Panel& panel, const T* x, index_t nrhs, index_t ldx,
               T* y) {
  const index_t w = panel.width();
  for (index_t c = 0; c < nrhs; ++c) {
    const T* xc = x + panel.col_begin + static_cast<std::size_t>(c) * ldx;
    for (index_t j = 0; j < w; ++j) {
      y[c + static_cast<std::size_t>(j) * nrhs] = xc[j];
    }
  }
}

template <typename T>
void store_tile(const Panel& panel, const T* y, index_t nrhs, index_t ldx,
                T* x) {
  const index_t w = panel.width();
  for (index_t c = 0; c < nrhs; ++c) {
    T* xc = x + panel.col_begin + static_cast<std::size_t>(c) * ldx;
    for (index_t j = 0; j < w; ++j) {
      xc[j] = y[c + static_cast<std::size_t>(j) * nrhs];
    }
  }
}

/// The off-diagonal part of the panel the backward sweep multiplies by:
/// L21, or for LU the stored U12^T (same rows, same leading dimension).
template <typename T>
const T* backward_below(const FactorData<T>& f, index_t p) {
  const T* base =
      f.kind() == Factorization::LU ? f.panel_u(p) : f.panel_l(p);
  return base + f.structure().panels[p].width();
}

}  // namespace

template <typename T>
void solve_forward(const FactorData<T>& f, std::span<T> x,
                   index_t panel_limit) {
  const SymbolicStructure& st = f.structure();
  const bool unit = f.kind() != Factorization::LLT;
  std::vector<T>& scratch_below = scratch<T>().below;
  for (index_t p = 0, np = panels_in(st, panel_limit); p < np; ++p) {
    const Panel& panel = st.panels[p];
    const index_t w = panel.width();
    const index_t ld = panel.nrows;
    const index_t below = panel.nrows_below();
    const T* l = f.panel_l(p);
    T* xp = x.data() + panel.col_begin;
    k::trsv_lower(w, l, ld, unit, xp);
    if (below == 0) continue;
    // One gemv over all of L21: x_below -= L21 * x_panel.
    T* buf = grown(scratch_below, static_cast<std::size_t>(below));
    gather_below(panel, x.data(), buf);
    k::gemv_sub(below, w, l + w, ld, xp, buf);
    scatter_below(panel, buf, x.data());
  }
}

template <typename T>
void solve_diagonal(const FactorData<T>& f, std::span<T> x,
                    index_t panel_limit) {
  SPX_CHECK_ARG(f.kind() == Factorization::LDLT, "LDLT only");
  const SymbolicStructure& st = f.structure();
  for (index_t p = 0, np = panels_in(st, panel_limit); p < np; ++p) {
    const Panel& panel = st.panels[p];
    const T* d = f.panel_d(p);
    for (index_t j = 0; j < panel.width(); ++j) {
      x[panel.col_begin + j] /= d[j];
    }
  }
}

template <typename T>
void solve_backward(const FactorData<T>& f, std::span<T> x,
                    index_t panel_limit) {
  const SymbolicStructure& st = f.structure();
  std::vector<T>& scratch_below = scratch<T>().below;
  for (index_t p = panels_in(st, panel_limit) - 1; p >= 0; --p) {
    const Panel& panel = st.panels[p];
    const index_t w = panel.width();
    const index_t ld = panel.nrows;
    const index_t below = panel.nrows_below();
    T* xp = x.data() + panel.col_begin;
    if (below > 0) {
      // One gemv over the whole panel: x_panel -= A21^T * x_below.
      T* buf = grown(scratch_below, static_cast<std::size_t>(below));
      gather_below(panel, x.data(), buf);
      k::gemv_trans_sub(below, w, backward_below(f, p), ld, buf, xp);
    }
    if (f.kind() == Factorization::LU) {
      k::trsv_upper(w, f.panel_l(p), ld, xp);
    } else {
      k::trsv_lower_trans(w, f.panel_l(p), ld,
                          f.kind() == Factorization::LDLT, xp);
    }
  }
}

template <typename T>
void solve_permuted(const FactorData<T>& f, std::span<T> x) {
  solve_forward(f, x);
  if (f.kind() == Factorization::LDLT) solve_diagonal(f, x);
  solve_backward(f, x);
}

template <typename T>
void solve_forward_multi(const FactorData<T>& f, T* x, index_t nrhs,
                         index_t ldx) {
  const SymbolicStructure& st = f.structure();
  const bool unit = f.kind() != Factorization::LLT;
  Scratch<T>& s = scratch<T>();
  for (index_t p = 0; p < st.num_panels(); ++p) {
    const Panel& panel = st.panels[p];
    const index_t w = panel.width();
    const index_t ld = panel.nrows;
    const index_t below = panel.nrows_below();
    const T* l = f.panel_l(p);
    // Y := Y * L11^{-T} is X_panel := L11^{-1} X_panel on the tile.
    T* y = grown(s.tile, static_cast<std::size_t>(w) * nrhs);
    load_tile(panel, x, nrhs, ldx, y);
    k::trsm_right_lower_trans(nrhs, w, l, ld, y, nrhs, unit);
    store_tile(panel, y, nrhs, ldx, x);
    if (below == 0) continue;
    // One GEMM over all of L21 into a buffer (below x nrhs), then
    // X(block rows, :) -= its rows, block by block.
    T* buf = grown(s.below, static_cast<std::size_t>(below) * nrhs);
    k::gemm_nt(below, nrhs, w, T(1), l + w, ld, y, nrhs, T(0), buf, below);
    for (index_t c = 0; c < nrhs; ++c) {
      T* xc = x + static_cast<std::size_t>(c) * ldx;
      const T* bc = buf + static_cast<std::size_t>(c) * below;
      for (std::size_t b = 1; b < panel.blocks.size(); ++b) {
        const Block& blk = panel.blocks[b];
        const T* src = bc + (blk.offset - w);
        T* dst = xc + blk.row_begin;
        for (index_t i = 0; i < blk.height(); ++i) dst[i] -= src[i];
      }
    }
  }
}

template <typename T>
void solve_diagonal_multi(const FactorData<T>& f, T* x, index_t nrhs,
                          index_t ldx) {
  SPX_CHECK_ARG(f.kind() == Factorization::LDLT, "LDLT only");
  const SymbolicStructure& st = f.structure();
  for (index_t p = 0; p < st.num_panels(); ++p) {
    const Panel& panel = st.panels[p];
    const T* d = f.panel_d(p);
    for (index_t c = 0; c < nrhs; ++c) {
      T* col = x + panel.col_begin + static_cast<std::size_t>(c) * ldx;
      for (index_t j = 0; j < panel.width(); ++j) col[j] /= d[j];
    }
  }
}

template <typename T>
void solve_backward_multi(const FactorData<T>& f, T* x, index_t nrhs,
                          index_t ldx) {
  const SymbolicStructure& st = f.structure();
  Scratch<T>& s = scratch<T>();
  for (index_t p = st.num_panels() - 1; p >= 0; --p) {
    const Panel& panel = st.panels[p];
    const index_t w = panel.width();
    const index_t ld = panel.nrows;
    const index_t below = panel.nrows_below();
    T* y = grown(s.tile, static_cast<std::size_t>(w) * nrhs);
    load_tile(panel, x, nrhs, ldx, y);
    if (below > 0) {
      // G(nrhs x below) := X(below rows, :)^T, gathered block by block,
      // then one GEMM: Y -= G * A21 (A21 = L21, or U12^T for LU).
      T* g = grown(s.below, static_cast<std::size_t>(below) * nrhs);
      for (std::size_t b = 1; b < panel.blocks.size(); ++b) {
        const Block& blk = panel.blocks[b];
        T* gb = g + static_cast<std::size_t>(blk.offset - w) * nrhs;
        for (index_t c = 0; c < nrhs; ++c) {
          const T* xc =
              x + blk.row_begin + static_cast<std::size_t>(c) * ldx;
          for (index_t i = 0; i < blk.height(); ++i) {
            gb[c + static_cast<std::size_t>(i) * nrhs] = xc[i];
          }
        }
      }
      k::gemm_nn(nrhs, w, below, T(-1), g, nrhs, backward_below(f, p), ld,
                 T(1), y, nrhs);
    }
    // Y := Y * L11^{-1} (or U11^{-T}) is X_panel := L11^{-T} X_panel (or
    // U11^{-1} X_panel) on the tile.
    if (f.kind() == Factorization::LU) {
      k::trsm_right_upper_trans(nrhs, w, f.panel_l(p), ld, y, nrhs);
    } else {
      k::trsm_right_lower(nrhs, w, f.panel_l(p), ld, y, nrhs,
                          f.kind() == Factorization::LDLT);
    }
    store_tile(panel, y, nrhs, ldx, x);
  }
}

template <typename T>
void solve_permuted_multi(const FactorData<T>& f, T* x, index_t nrhs,
                          index_t ldx) {
  if (nrhs < kTileMinRhs) {
    const index_t n = f.structure().num_cols();
    for (index_t c = 0; c < nrhs; ++c) {
      solve_permuted(f, std::span<T>(x + static_cast<std::size_t>(c) * ldx,
                                     static_cast<std::size_t>(n)));
    }
    return;
  }
  solve_forward_multi(f, x, nrhs, ldx);
  if (f.kind() == Factorization::LDLT) solve_diagonal_multi(f, x, nrhs, ldx);
  solve_backward_multi(f, x, nrhs, ldx);
}

#define SPX_INSTANTIATE_SOLVE(T)                                   \
  template void solve_forward<T>(const FactorData<T>&, std::span<T>,       \
                                 index_t);                                 \
  template void solve_diagonal<T>(const FactorData<T>&, std::span<T>,      \
                                  index_t);                                \
  template void solve_backward<T>(const FactorData<T>&, std::span<T>,      \
                                  index_t);                                \
  template void solve_permuted<T>(const FactorData<T>&, std::span<T>);      \
  template void solve_forward_multi<T>(const FactorData<T>&, T*, index_t,  \
                                       index_t);                           \
  template void solve_diagonal_multi<T>(const FactorData<T>&, T*, index_t, \
                                        index_t);                          \
  template void solve_backward_multi<T>(const FactorData<T>&, T*, index_t, \
                                        index_t);                          \
  template void solve_permuted_multi<T>(const FactorData<T>&, T*, index_t, \
                                        index_t);

SPX_INSTANTIATE_SOLVE(real_t)
SPX_INSTANTIATE_SOLVE(complex_t)
SPX_INSTANTIATE_SOLVE(real32_t)

}  // namespace spx
