// Row-mapping ("gap") machinery for sparse panel updates.
//
// An update task computes W = A_trailing * B^T, where A_trailing is the
// source panel's rows from its first block facing the target and B is
// those facing rows, and subtracts W from the facing panel, whose stored
// rows are a *superset* arranged with gaps.  The row map of an edge
// (RowSegment runs, built once per analysis by build_row_maps and kept
// in SymbolicStructure::row_maps) says where each source row lands.  The
// paper's GPU kernel (modified ASTRA GEMM) computes directly into the
// gapped C (gemm_nt_gapped); the CPU kernel computes W into a contiguous
// buffer with one GEMM per edge and side, then subtracts it block column
// by block column (scatter_sub).
//
// Both kernels take the map of the whole edge plus a starting map row
// `row0`: the rows above it are skipped and the segment straddling it is
// clipped, which is how one map serves every block's trapezoid and the
// LU U side (rows from the last facing block down).
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "kernels/dense.hpp"
#include "symbolic/structure.hpp"

namespace spx::kernels {

/// Maps the trailing rows of `src` (storage rows [first_offset,
/// src.nrows), map row 0 = storage row first_offset) onto storage rows of
/// `dst`.  A valid symbolic structure guarantees that every trailing
/// source row exists in dst; one that does not (a corrupt snapshot)
/// throws InvalidArgument.
std::vector<RowSegment> build_row_segments(const Panel& src,
                                           index_t first_offset,
                                           const Panel& dst);

/// First segment of a row map (sorted by src_offset) that holds map rows
/// at or below `row0`.
inline const RowSegment* first_segment_at(std::span<const RowSegment> segs,
                                          index_t row0) {
  return std::partition_point(segs.data(), segs.data() + segs.size(),
                              [row0](const RowSegment& s) {
                                return s.src_offset + s.len <= row0;
                              });
}

/// c_dst(:, dst_col + j) -= w(:, j) for the map rows from `row0` down:
/// the CPU "compute-then-dispatch" path.  Row 0 of w is map row `row0`.
template <typename T>
void scatter_sub(std::span<const RowSegment> segs, index_t ncols,
                 const T* w, index_t ldw, T* dst, index_t lddst,
                 index_t dst_col, index_t row0 = 0) {
  const RowSegment* first = first_segment_at(segs, row0);
  const RowSegment* end = segs.data() + segs.size();
  for (index_t j = 0; j < ncols; ++j) {
    const T* wcol = w + static_cast<std::size_t>(j) * ldw;
    T* dcol = dst + static_cast<std::size_t>(dst_col + j) * lddst;
    for (const RowSegment* s = first; s != end; ++s) {
      const index_t lo = std::max(s->src_offset, row0);
      const T* ws = wcol + (lo - row0);
      T* ds = dcol + s->dst_offset + (lo - s->src_offset);
      const index_t len = s->src_offset + s->len - lo;
      for (index_t r = 0; r < len; ++r) ds[r] -= ws[r];
    }
  }
}

/// Buffer-free path (the paper's modified-ASTRA GPU kernel): one GEMM per
/// contiguous segment from map row `row0` down, accumulating straight
/// into the gapped target.  `a` addresses map row `row0` of the source
/// panel (leading dimension lda).
template <typename T>
void gemm_nt_gapped(std::span<const RowSegment> segs, index_t n, index_t k,
                    T alpha, const T* a, index_t lda, const T* b,
                    index_t ldb, T* dst, index_t lddst, index_t dst_col,
                    index_t row0 = 0) {
  const RowSegment* end = segs.data() + segs.size();
  for (const RowSegment* s = first_segment_at(segs, row0); s != end; ++s) {
    const index_t lo = std::max(s->src_offset, row0);
    gemm_nt(s->src_offset + s->len - lo, n, k, alpha, a + (lo - row0), lda,
            b, ldb, T(1),
            dst + s->dst_offset + (lo - s->src_offset) +
                static_cast<std::size_t>(dst_col) * lddst,
            lddst);
  }
}

}  // namespace spx::kernels
