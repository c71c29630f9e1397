// Shared helpers for the spx test suites.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/analysis.hpp"
#include "core/codelets.hpp"
#include "core/factor_data.hpp"
#include "core/solve.hpp"
#include "graph/ordering.hpp"
#include "kernels/dense.hpp"
#include "kernels/scatter.hpp"
#include "mat/csc.hpp"

namespace spx::test {

/// Relative residual ||Ax - b|| / ||b|| (inf-norm).
template <typename T>
double relative_residual(const CscMatrix<T>& a, std::span<const T> x,
                         std::span<const T> b) {
  std::vector<T> ax(static_cast<std::size_t>(a.nrows()));
  a.multiply(x, ax);
  double rnorm = 0.0, bnorm = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    rnorm = std::max(rnorm, static_cast<double>(magnitude<T>(ax[i] - b[i])));
    bnorm = std::max(bnorm, static_cast<double>(magnitude<T>(b[i])));
  }
  return bnorm > 0 ? rnorm / bnorm : rnorm;
}

/// End-to-end solve through a caller-supplied factorization routine:
/// analyze, permute, initialize, factorize (via `factorize`), solve, and
/// return the relative residual against a random RHS.
template <typename T, typename FactorizeFn>
double solve_residual(const CscMatrix<T>& a, Factorization kind,
                      FactorizeFn&& factorize,
                      const AnalysisOptions& opts = {}) {
  const Analysis an = analyze(a, opts);
  an.structure.validate();
  const CscMatrix<T> ap = permute_symmetric(a, an.perm);
  FactorData<T> f(an.structure, kind);
  f.initialize(ap);
  factorize(f);

  Rng rng(12345);
  const index_t n = a.ncols();
  std::vector<T> xref(static_cast<std::size_t>(n));
  for (auto& v : xref) v = rng.scalar<T>();
  std::vector<T> b(static_cast<std::size_t>(n));
  a.multiply(xref, b);

  std::vector<T> pb(static_cast<std::size_t>(n));
  permute_vector<T>(an.perm, b, pb);
  solve_permuted(f, std::span<T>(pb));
  std::vector<T> x(static_cast<std::size_t>(n));
  unpermute_vector<T>(an.perm, pb, x);
  return relative_residual<T>(a, x, b);
}

/// The update along edge e computed through a buffer: per side, one
/// gemm_nt over the edge's whole facing range into a zeroed buffer, then
/// scatter_sub of each block's columns from the block's own map row
/// (LL^T, LDL^T) or from the side's first row (LU).  The arithmetic the
/// mapped GEMM of apply_update must reproduce byte for byte (real types).
template <typename T>
void buffered_update(FactorData<T>& f, index_t src, const UpdateEdge& e) {
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
  const std::span<const RowSegment> map = st.row_map(e);
  std::vector<T> buf;
  auto side = [&](index_t row0, bool trapezoid, const T* a, const T* b,
                  index_t ldb, T* dst) {
    const index_t m = sp.nrows - first_off - row0;
    if (m <= 0) return;
    buf.assign(static_cast<std::size_t>(m) * n, T(0));
    kernels::gemm_nt(m, n, w, T(1), a, ld, b, ldb, T(0), buf.data(), m);
    for (index_t bi = e.first_block; bi < e.last_block; ++bi) {
      const Block& blk = sp.blocks[bi];
      const index_t col = blk.offset - first_off;
      const index_t r0 = trapezoid ? col : row0;
      kernels::scatter_sub(
          map, blk.height(),
          buf.data() + static_cast<std::size_t>(col) * m + (r0 - row0), m,
          dst, dp.nrows, blk.row_begin - dp.col_begin, r0);
    }
  };
  const T* l = f.panel_l(src) + first_off;
  switch (f.kind()) {
    case Factorization::LLT:
      side(0, true, l, l, ld, f.panel_l(e.dst));
      break;
    case Factorization::LDLT: {
      std::vector<T> scaled(static_cast<std::size_t>(n) * w);
      kernels::scale_cols(n, w, l, ld, f.panel_d(src), scaled.data(), n);
      side(0, true, l, scaled.data(), n, f.panel_l(e.dst));
      break;
    }
    case Factorization::LU: {
      const T* u = f.panel_u(src) + first_off;
      side(0, false, l, u, ld, f.panel_l(e.dst));
      side(n, false, u + n, l, ld, f.panel_u(e.dst));
      break;
    }
  }
}

}  // namespace spx::test
