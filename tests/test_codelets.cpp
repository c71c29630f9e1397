// apply_update at edge granularity against the per-block reference.
//
// The update codelet runs one GEMM per edge and side on the TempBuffer
// path and reads the edge's row map from the analysis.  These tests run
// it on every edge of two matrices, each time right after the source
// panel is factored, and compare the target panel with the per-block
// algorithm it replaced: one gemm_nt_ref per facing block into a buffer,
// then scatter_sub through a map built for that block.  Every entry the
// update does not own must keep its bytes -- in particular the rectangle
// above each block's trapezoid, which the edge GEMM computes but must not
// write back.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "core/analysis.hpp"
#include "core/codelets.hpp"
#include "kernels/dispatch.hpp"
#include "mat/generators.hpp"

namespace spx {
namespace {

namespace k = kernels;

/// Same pattern as `a`, symmetric strictly diagonally dominant values
/// with a positive diagonal (SPD), so LL^T and LDL^T factor it.
CscMatrix<real_t> spd_values(const CscMatrix<real_t>& a) {
  CscMatrix<real_t> s = a;
  std::vector<real_t> offsum(static_cast<std::size_t>(a.ncols()), 0.0);
  auto vals = s.values_mut();
  for (index_t j = 0; j < a.ncols(); ++j) {
    for (size_type q = a.colptr()[j]; q < a.colptr()[j + 1]; ++q) {
      const index_t i = a.rowind()[q];
      if (i == j) continue;
      vals[q] = -1.0 / (1.0 + (i + j) % 7);
      offsum[j] += std::abs(vals[q]);
    }
  }
  for (index_t j = 0; j < a.ncols(); ++j) {
    for (size_type q = a.colptr()[j]; q < a.colptr()[j + 1]; ++q) {
      if (a.rowind()[q] == j) vals[q] = offsum[j] + 1.0;
    }
  }
  return s;
}

template <typename T>
std::vector<T> values_as(std::span<const real_t> v) {
  std::vector<T> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    // Complex values get an imaginary part, so the complex kernels do
    // complex arithmetic (c * A keeps A's symmetry).
    if constexpr (std::is_same_v<T, complex_t>) {
      out[i] = complex_t(v[i]) * complex_t(1.0, 0.25);
    } else {
      out[i] = static_cast<T>(v[i]);
    }
  }
  return out;
}

/// The per-block update: one gemm_nt_ref per facing block (and side) into
/// a buffer, subtracted through a row map built for that block.
template <typename T>
void reference_update(FactorData<T>& f, index_t src, const UpdateEdge& e) {
  const SymbolicStructure& st = f.structure();
  const Panel& sp = st.panels[src];
  const Panel& dp = st.panels[e.dst];
  const index_t w = sp.width();
  const index_t ld = sp.nrows;
  const index_t first_off = sp.blocks[e.first_block].offset;
  const index_t last_off = e.last_block < static_cast<index_t>(sp.blocks.size())
                               ? sp.blocks[e.last_block].offset
                               : sp.nrows;
  const T* l = f.panel_l(src);
  std::vector<T> buf;
  auto gemm_scatter = [&](index_t row_off, const Block& blk, const T* a,
                          const T* b, index_t ldb, T* dst) {
    const index_t m = sp.nrows - row_off;
    const index_t n = blk.height();
    if (m <= 0) return;
    buf.assign(static_cast<std::size_t>(m) * n, T(0));
    k::gemm_nt_ref(m, n, w, T(1), a, ld, b, ldb, T(0), buf.data(), m);
    k::scatter_sub(k::build_row_segments(sp, row_off, dp), n, buf.data(), m,
                   dst, dp.nrows, blk.row_begin - dp.col_begin);
  };
  std::vector<T> scaled;
  for (index_t bi = e.first_block; bi < e.last_block; ++bi) {
    const Block& blk = sp.blocks[bi];
    switch (f.kind()) {
      case Factorization::LLT:
        gemm_scatter(blk.offset, blk, l + blk.offset, l + blk.offset, ld,
                     f.panel_l(e.dst));
        break;
      case Factorization::LDLT:
        scaled.resize(static_cast<std::size_t>(blk.height()) * w);
        for (index_t j = 0; j < w; ++j) {
          for (index_t i = 0; i < blk.height(); ++i) {
            scaled[i + static_cast<std::size_t>(j) * blk.height()] =
                l[blk.offset + i + static_cast<std::size_t>(j) * ld] *
                f.panel_d(src)[j];
          }
        }
        gemm_scatter(blk.offset, blk, l + blk.offset, scaled.data(),
                     blk.height(), f.panel_l(e.dst));
        break;
      case Factorization::LU: {
        const T* u = f.panel_u(src);
        gemm_scatter(first_off, blk, l + first_off, u + blk.offset, ld,
                     f.panel_l(e.dst));
        gemm_scatter(last_off, blk, u + last_off, l + blk.offset, ld,
                     f.panel_u(e.dst));
        break;
      }
    }
  }
}

/// Storage entries of the target panel (L, then U for LU) the update
/// along e may write: each block's columns, at the target rows the
/// block's map covers.
std::vector<bool> footprint(const SymbolicStructure& st, index_t src,
                            const UpdateEdge& e, Factorization kind) {
  const Panel& sp = st.panels[src];
  const Panel& dp = st.panels[e.dst];
  const std::size_t size = static_cast<std::size_t>(dp.nrows) * dp.width();
  const bool lu = kind == Factorization::LU;
  std::vector<bool> mask(lu ? 2 * size : size, false);
  const index_t first_off = sp.blocks[e.first_block].offset;
  const index_t last_off = e.last_block < static_cast<index_t>(sp.blocks.size())
                               ? sp.blocks[e.last_block].offset
                               : sp.nrows;
  auto mark = [&](index_t row_off, const Block& blk, std::size_t base) {
    if (row_off >= sp.nrows) return;
    for (const RowSegment& s : k::build_row_segments(sp, row_off, dp)) {
      for (index_t j = 0; j < blk.height(); ++j) {
        const index_t col = blk.row_begin - dp.col_begin + j;
        for (index_t r = 0; r < s.len; ++r) {
          mask[base + s.dst_offset + r +
               static_cast<std::size_t>(col) * dp.nrows] = true;
        }
      }
    }
  };
  for (index_t bi = e.first_block; bi < e.last_block; ++bi) {
    const Block& blk = sp.blocks[bi];
    if (lu) {
      mark(first_off, blk, 0);
      mark(last_off, blk, size);
    } else {
      mark(blk.offset, blk, 0);
    }
  }
  return mask;
}

template <typename T>
std::vector<T> target_values(const FactorData<T>& f, index_t p) {
  const Panel& dp = f.structure().panels[p];
  const std::size_t size = static_cast<std::size_t>(dp.nrows) * dp.width();
  std::vector<T> v(f.panel_l(p), f.panel_l(p) + size);
  if (f.kind() == Factorization::LU) {
    v.insert(v.end(), f.panel_u(p), f.panel_u(p) + size);
  }
  return v;
}

template <typename T>
void set_target_values(FactorData<T>& f, index_t p, const std::vector<T>& v) {
  const Panel& dp = f.structure().panels[p];
  const std::size_t size = static_cast<std::size_t>(dp.nrows) * dp.width();
  std::copy(v.begin(), v.begin() + size, f.panel_l(p));
  if (f.kind() == Factorization::LU) {
    std::copy(v.begin() + size, v.end(), f.panel_u(p));
  }
}

template <typename T>
double norm_diff(const std::vector<T>& a, const std::vector<T>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::abs(a[i] - b[i]);
    s += d * d;
  }
  return std::sqrt(s);
}

template <typename T>
double norm(const std::vector<T>& a) {
  double s = 0.0;
  for (const T& x : a) s += std::norm(x);
  return std::sqrt(s);
}

/// Factors `a` panel by panel; after each panel, runs every update edge
/// through the reference, TempBuffer and Direct paths from the same
/// state and compares the target panels.
template <typename T>
void check_every_edge(const CscMatrix<real_t>& a, const AnalysisOptions& opts,
                      Factorization kind) {
  SCOPED_TRACE(to_string(kind));
  const Analysis an = analyze(a, opts);
  const SymbolicStructure& st = an.structure;
  FactorData<T> f(st, kind);
  const std::vector<T> vals = values_as<T>(a.values());
  f.assemble(build_assembly_map(st, an.perm, a.colptr(), a.rowind()),
             std::span<const T>(vals));
  const double tol = std::is_same_v<T, real32_t> ? 1e-5 : 1e-12;
  Workspace<T> ws;
  std::size_t edges = 0;
  for (index_t p = 0; p < st.num_panels(); ++p) {
    factor_panel(f, p);
    for (const UpdateEdge& e : st.targets[p]) {
      const std::vector<T> before = target_values(f, e.dst);
      reference_update(f, p, e);
      const std::vector<T> want = target_values(f, e.dst);
      std::vector<T> got[2];
      const UpdateVariant variants[2] = {UpdateVariant::TempBuffer,
                                         UpdateVariant::Direct};
      for (int v = 0; v < 2; ++v) {
        set_target_values(f, e.dst, before);
        apply_update(f, p, e, variants[v], ws);
        got[v] = target_values(f, e.dst);
      }
      const std::vector<bool> mask = footprint(st, p, e, kind);
      const double scale = norm(want);
      for (int v = 0; v < 2; ++v) {
        ASSERT_LE(norm_diff(got[v], want), tol * scale)
            << (v == 0 ? "TempBuffer" : "Direct") << " edge " << p << "->"
            << e.dst;
        for (std::size_t i = 0; i < mask.size(); ++i) {
          if (mask[i]) continue;
          ASSERT_EQ(std::memcmp(&got[v][i], &before[i], sizeof(T)), 0)
              << (v == 0 ? "TempBuffer" : "Direct") << " wrote entry " << i
              << " outside the footprint of edge " << p << "->" << e.dst;
        }
      }
      ASSERT_LE(norm_diff(got[0], got[1]), tol * scale)
          << "TempBuffer vs Direct, edge " << p << "->" << e.dst;
      set_target_values(f, e.dst, want);
      ++edges;
    }
  }
  EXPECT_EQ(edges, static_cast<std::size_t>(st.num_update_tasks()));
}

template <typename T>
void check_all_kinds(const CscMatrix<real_t>& a, const AnalysisOptions& opts) {
  const CscMatrix<real_t> spd = spd_values(a);
  check_every_edge<T>(spd, opts, Factorization::LLT);
  check_every_edge<T>(spd, opts, Factorization::LDLT);
  check_every_edge<T>(a, opts, Factorization::LU);
}

/// Real and fp32 GEMMs dispatch per ISA tier: run every tier the host
/// supports.  Complex GEMMs do not dispatch.
template <typename T>
void check_every_tier(const CscMatrix<real_t>& a, const AnalysisOptions& opts) {
  if constexpr (std::is_same_v<T, complex_t>) {
    check_all_kinds<T>(a, opts);
  } else {
    for (const k::Isa isa : k::Dispatch::instance().supported()) {
      SCOPED_TRACE(k::to_string(isa));
      k::ScopedIsaOverride force(isa);
      ASSERT_TRUE(force.ok());
      check_all_kinds<T>(a, opts);
    }
  }
}

/// A 14^3 grid with its wide separator panels split into slices of at
/// most 24 columns (edges between slices of one supernode are dense).
struct GridCase {
  CscMatrix<real_t> a = gen::grid3d_laplacian(14, 14, 14);
  AnalysisOptions opts = [] {
    AnalysisOptions o;
    o.symbolic.max_panel_width = 24;
    return o;
  }();
};

/// A random structurally symmetric matrix with unsymmetric values.
struct RandomCase {
  CscMatrix<real_t> a = [] {
    Rng rng(2202);
    return gen::random_unsym(400, 0.015, rng);
  }();
  AnalysisOptions opts;
};

TEST(EdgeUpdate, GridRealMatchesPerBlockReference) {
  GridCase c;
  check_every_tier<real_t>(c.a, c.opts);
}

TEST(EdgeUpdate, GridComplexMatchesPerBlockReference) {
  GridCase c;
  check_every_tier<complex_t>(c.a, c.opts);
}

TEST(EdgeUpdate, GridFp32MatchesPerBlockReference) {
  GridCase c;
  check_every_tier<real32_t>(c.a, c.opts);
}

TEST(EdgeUpdate, RandomUnsymRealMatchesPerBlockReference) {
  RandomCase c;
  check_every_tier<real_t>(c.a, c.opts);
}

TEST(EdgeUpdate, RandomUnsymComplexMatchesPerBlockReference) {
  RandomCase c;
  check_every_tier<complex_t>(c.a, c.opts);
}

TEST(EdgeUpdate, RandomUnsymFp32MatchesPerBlockReference) {
  RandomCase c;
  check_every_tier<real32_t>(c.a, c.opts);
}

}  // namespace
}  // namespace spx
