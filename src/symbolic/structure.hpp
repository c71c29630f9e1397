// Block symbolic structure: the final product of the analysis phase.
//
// Each supernode is split vertically into one or more *panels* (paper §III:
// "supernodes of the higher levels are split vertically prior to the
// factorization to limit the task granularity and create more
// parallelism").  A panel stores a dense tall-and-skinny column-major
// matrix: its diagonal block followed by its off-diagonal blocks.  Blocks
// are maximal row intervals that do not cross a facing panel's boundary,
// which is what allows an update task to target exactly one panel.
//
// The structure also carries the task-DAG adjacency (per-panel target
// lists) used by all three runtimes, the row map of every update edge
// and every panel's in-edges (both built once here and shared by every
// numeric factorization and solve of the analysis), and the per-task flop
// counts used for GFlop/s reporting and the simulation cost models.
#pragma once

#include <span>
#include <vector>

#include "common/flops.hpp"
#include "common/types.hpp"
#include "symbolic/amalgamation.hpp"

namespace spx {

struct Block {
  index_t row_begin;      ///< first (permuted) row of the block
  index_t row_end;        ///< one past the last row
  index_t facing_panel;   ///< panel owning those rows (self for diagonal)
  index_t offset;         ///< row offset of this block inside the panel

  index_t height() const { return row_end - row_begin; }
};

struct Panel {
  index_t col_begin = 0;   ///< first (permuted) column
  index_t col_end = 0;     ///< one past the last column
  index_t supernode = 0;   ///< owning supernode (pre-split)
  size_type storage_offset = 0;  ///< offset into the factor value array
  index_t nrows = 0;       ///< total rows = sum of block heights
  /// blocks[0] is the diagonal block; the rest are below-diagonal, sorted
  /// by row_begin.
  std::vector<Block> blocks;

  index_t width() const { return col_end - col_begin; }
  /// Rows strictly below the diagonal block.
  index_t nrows_below() const { return nrows - width(); }
};

/// An edge of the panel DAG: "panel src updates panel dst".
struct UpdateEdge {
  index_t dst;          ///< target panel
  index_t first_block;  ///< first off-diagonal block of src facing dst
  index_t last_block;   ///< one past the last such block
  /// The edge's row map is SymbolicStructure::row_maps[map_begin,
  /// map_end) (set by build_row_maps).
  index_t map_begin = 0;
  index_t map_end = 0;
};

/// An in-edge of a panel: edge `edge` of SymbolicStructure::targets[src].
struct SourceEdge {
  index_t src;
  index_t edge;
};

/// One contiguous run of rows of a row map: `len` source rows starting
/// at map row `src_offset` land at target storage rows starting at
/// `dst_offset`.
struct RowSegment {
  index_t src_offset;
  index_t dst_offset;
  index_t len;

  bool operator==(const RowSegment&) const = default;
};

struct SymbolicOptions {
  AmalgamationOptions amalgamation;
  /// Panels wider than this are split into ceil(w / max_panel_width)
  /// near-equal slices.  0 disables splitting.
  index_t max_panel_width = 128;
};

class SymbolicStructure {
 public:
  std::vector<Panel> panels;
  /// Panel owning each column (size n).
  std::vector<index_t> panel_of_col;
  /// Out-edges of each panel, sorted by dst; edge (p -> dst) covers the
  /// contiguous run of p's blocks facing dst.
  std::vector<std::vector<UpdateEdge>> targets;
  /// Number of incoming update edges per panel.
  std::vector<index_t> in_degree;
  /// Row maps of all update edges, one after another.  Edge (p -> dst)'s
  /// map sends p's storage rows [first_off, nrows) -- first_off being the
  /// offset of its first facing block, map row 0 -- onto dst's storage
  /// rows, sorted by source row.
  std::vector<RowSegment> row_maps;
  /// In-edges of every panel, each panel's in ascending source order:
  /// panel p's are sources[source_begin[p], source_begin[p + 1]) (set by
  /// build_row_maps).  The parallel forward solve applies a panel's
  /// sources in this order, the order of the one-thread sweep.
  std::vector<index_t> source_begin;
  std::vector<SourceEdge> sources;
  /// Total L storage in scalars (sum over panels of nrows * width).
  size_type factor_entries = 0;
  /// nnz(L) counting the diagonal block as a lower triangle (the value the
  /// paper's Table I reports as nnz_L).
  size_type nnz_factor = 0;

  index_t num_panels() const { return static_cast<index_t>(panels.size()); }
  index_t num_cols() const {
    return static_cast<index_t>(panel_of_col.size());
  }
  size_type num_update_tasks() const;

  /// Row map of edge e (see row_maps).
  std::span<const RowSegment> row_map(const UpdateEdge& e) const {
    return {row_maps.data() + e.map_begin,
            static_cast<std::size_t>(e.map_end - e.map_begin)};
  }
  /// Bytes held by the row maps.
  std::size_t row_map_bytes() const {
    return row_maps.capacity() * sizeof(RowSegment);
  }
  /// In-edges of panel p (see sources).
  std::span<const SourceEdge> sources_of(index_t p) const {
    return {sources.data() + source_begin[static_cast<std::size_t>(p)],
            static_cast<std::size_t>(
                source_begin[static_cast<std::size_t>(p) + 1] -
                source_begin[static_cast<std::size_t>(p)])};
  }

  /// Flops of the panel task (diag factorization + TRSM) under a given
  /// factorization kind.
  double panel_task_flops(index_t p, Factorization kind) const;
  /// Flops of the update task along edge e of panel p.
  double update_task_flops(index_t p, const UpdateEdge& e,
                           Factorization kind) const;
  /// Total factorization flops (the paper's Table I "Flop" column).
  double total_flops(Factorization kind) const;

  /// Structural sanity checks, every index range-checked before use;
  /// throws InvalidArgument on the first violation (snapshot loading runs
  /// this on untrusted bytes).
  void validate() const;
};

/// Builds the block structure, row maps included, from an amalgamated
/// supernode partition.
SymbolicStructure build_structure(const SupernodePartition& part,
                                  const SupernodeForest& forest,
                                  index_t max_panel_width);

/// (Re)builds st.row_maps, every edge's map range and the in-edge lists
/// (source_begin, sources) from the blocks and edges.  The structure must
/// be valid (SymbolicStructure::validate); throws InvalidArgument when an
/// edge's rows are missing from its target panel.
void build_row_maps(SymbolicStructure& st);

}  // namespace spx
