// Row-mapping ("gap") machinery for sparse panel updates.
//
// An update task subtracts W = A_trailing * B^T, where A_trailing is the
// source panel's rows from its first block facing the target and B is
// those facing rows, from the facing panel, whose stored rows are a
// *superset* arranged with gaps.  The row map of an edge (RowSegment
// runs, built once per analysis by build_row_maps and kept in
// SymbolicStructure::row_maps) says where each source row lands.
//
// One kernel does the update on every resource: gemm_nt_mapped, the
// paper's "no temporary buffer" GEMM (Fig. 3) on the CPU.  For real types
// each register tile is stored through the map straight into the gapped
// target, so no W is ever written; complex computes W with the streaming
// gemm_nt and subtracts it through the same maps.  The caller expands the
// map into per-row and per-column target indices (expand_row_map,
// MappedTarget).  scatter_sub, the subtract of a computed W through the
// map, stays as the test oracle's write-back and as the calibration
// harness's Scatter kernel.
//
// scatter_sub takes the map of the whole edge plus a starting map row
// `row0`: the rows above it are skipped and the segment straddling it is
// clipped, which is how one map serves every block's trapezoid and the
// LU U side (rows from the last facing block down).
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "kernels/dense.hpp"
#include "kernels/dispatch.hpp"
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

/// rows[i] := the target storage row of map row i, for every map row of
/// `segs`: the row map in the form MappedTarget::rows takes.
inline void expand_row_map(std::span<const RowSegment> segs, index_t* rows) {
  for (const RowSegment& s : segs) {
    for (index_t r = 0; r < s.len; ++r) {
      rows[s.src_offset + r] = s.dst_offset + r;
    }
  }
}

/// c_dst(:, dst_col + j) -= w(:, j) for the map rows from `row0` down.
/// Row 0 of w is map row `row0`.
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

/// dst -= A(m x k) * B(n x k)^T through dst's row and column maps (see
/// MappedTarget): the update kernel.  Real types run the active ISA
/// tier's micro-kernel; for k <= 256 (every panel of at most
/// max_panel_width = 128 columns) the target gets the bytes of gemm_nt
/// into a zeroed buffer followed by the masked subtract.  Complex runs
/// exactly that: the streaming gemm_nt into a buffer, then the subtract.
template <typename T>
void gemm_nt_mapped(index_t m, index_t n, index_t k, const T* a, index_t lda,
                    const T* b, index_t ldb, const MappedTarget<T>& dst);

}  // namespace spx::kernels
