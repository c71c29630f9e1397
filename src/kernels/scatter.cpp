#include "kernels/scatter.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "kernels/dispatch.hpp"

namespace spx::kernels {

std::vector<RowSegment> build_row_segments(const Panel& src,
                                           index_t first_offset,
                                           const Panel& dst) {
  std::vector<RowSegment> segs;
  // Locate the source block containing `first_offset`.
  std::size_t sb = 0;
  while (sb < src.blocks.size() &&
         src.blocks[sb].offset + src.blocks[sb].height() <= first_offset) {
    ++sb;
  }
  std::size_t db = 0;  // target blocks are sorted by row; sweep once
  for (; sb < src.blocks.size(); ++sb) {
    const Block& s = src.blocks[sb];
    index_t r =
        s.row_begin + std::max<index_t>(0, first_offset - s.offset);
    while (r < s.row_end) {
      // Advance to the target block containing row r.
      while (db < dst.blocks.size() && dst.blocks[db].row_end <= r) ++db;
      if (db == dst.blocks.size() || dst.blocks[db].row_begin > r) {
        throw InvalidArgument("build_row_segments: source row " +
                              std::to_string(r) +
                              " is not a row of the target panel");
      }
      const Block& d = dst.blocks[db];
      const index_t stop = std::min(s.row_end, d.row_end);
      segs.push_back({s.offset + (r - s.row_begin) - first_offset,
                      d.offset + (r - d.row_begin), stop - r});
      r = stop;
    }
  }
  // Merge runs that stayed contiguous on both sides (cheap and shrinks the
  // per-update segment walk).
  std::vector<RowSegment> merged;
  for (const RowSegment& s : segs) {
    if (!merged.empty() &&
        merged.back().src_offset + merged.back().len == s.src_offset &&
        merged.back().dst_offset + merged.back().len == s.dst_offset) {
      merged.back().len += s.len;
    } else {
      merged.push_back(s);
    }
  }
  return merged;
}

template <typename T>
void gemm_nt_mapped(index_t m, index_t n, index_t k, const T* a, index_t lda,
                    const T* b, index_t ldb, const MappedTarget<T>& dst) {
  SPX_DEBUG_ASSERT(m >= 0 && n >= 0 && k >= 0);
  SPX_DEBUG_ASSERT(lda >= std::max<index_t>(1, m) &&
                   ldb >= std::max<index_t>(1, n));
  if constexpr (is_complex_v<T>) {
    // The streaming gemm_nt into a per-thread buffer, then the subtract
    // through the maps.
    if (m <= 0 || n <= 0 || k <= 0) return;
    thread_local std::vector<T> p;
    if (p.size() < static_cast<std::size_t>(m) * n) {
      p.resize(static_cast<std::size_t>(m) * n);
    }
    gemm_nt(m, n, k, T(1), a, lda, b, ldb, T(0), p.data(), m);
    for (index_t j = 0; j < n; ++j) {
      T* col = dst.c + static_cast<std::size_t>(dst.cols[j]) * dst.ldc;
      const T* pc = p.data() + static_cast<std::size_t>(j) * m;
      for (index_t i = dst.first == nullptr ? 0 : dst.first[j]; i < m; ++i) {
        col[dst.rows[i]] -= pc[i];
      }
    }
  } else {
    const Dispatch& d = Dispatch::instance();
    d.variant<T>(d.active()).mapped(m, n, k, a, lda, b, ldb, dst);
  }
}

template void gemm_nt_mapped<real_t>(index_t, index_t, index_t,
                                     const real_t*, index_t, const real_t*,
                                     index_t, const MappedTarget<real_t>&);
template void gemm_nt_mapped<real32_t>(index_t, index_t, index_t,
                                       const real32_t*, index_t,
                                       const real32_t*, index_t,
                                       const MappedTarget<real32_t>&);
template void gemm_nt_mapped<complex_t>(index_t, index_t, index_t,
                                        const complex_t*, index_t,
                                        const complex_t*, index_t,
                                        const MappedTarget<complex_t>&);

}  // namespace spx::kernels
