#include "kernels/scatter.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"

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

}  // namespace spx::kernels
