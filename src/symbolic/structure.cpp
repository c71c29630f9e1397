#include "symbolic/structure.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "kernels/scatter.hpp"

namespace spx {

size_type SymbolicStructure::num_update_tasks() const {
  size_type total = 0;
  for (const auto& t : targets) total += static_cast<size_type>(t.size());
  return total;
}

double SymbolicStructure::panel_task_flops(index_t p,
                                           Factorization kind) const {
  const Panel& panel = panels[p];
  const double w = panel.width();
  const double below = panel.nrows_below();
  switch (kind) {
    case Factorization::LLT:
      return flops_potrf(w) + flops_trsm(w, below);
    case Factorization::LDLT:
      // Diagonal LDL^T + solve + column scaling by D^{-1}.
      return flops_ldlt(w) + flops_trsm(w, below) + flops_scale(below, w);
    case Factorization::LU:
      // Both the L and the U side get a TRSM.
      return flops_getrf(w) + 2.0 * flops_trsm(w, below);
  }
  return 0.0;
}

double SymbolicStructure::update_task_flops(index_t p, const UpdateEdge& e,
                                            Factorization kind) const {
  const Panel& panel = panels[p];
  const double w = panel.width();
  double total = 0.0;
  for (index_t b = e.first_block; b < e.last_block; ++b) {
    const Block& blk = panel.blocks[b];
    const double m = panel.nrows - blk.offset;  // trailing rows incl. blk
    const double nb = blk.height();
    total += flops_gemm(m, nb, w);
    if (kind == Factorization::LU) {
      total += flops_gemm(m, nb, w);  // the U-side update
    } else if (kind == Factorization::LDLT) {
      total += flops_scale(nb, w);  // form D * L_b^T on the fly
    }
  }
  return total;
}

double SymbolicStructure::total_flops(Factorization kind) const {
  double total = 0.0;
  for (index_t p = 0; p < num_panels(); ++p) {
    total += panel_task_flops(p, kind);
    for (const UpdateEdge& e : targets[p]) {
      total += update_task_flops(p, e, kind);
    }
  }
  return total;
}

namespace {

/// validate()'s check.  Structures read from outside the process
/// (snapshots) reach it, so a violation throws instead of aborting.
void require(bool ok, const char* what) {
  if (!ok) throw InvalidArgument(std::string("invalid structure: ") + what);
}

}  // namespace

void SymbolicStructure::validate() const {
  const index_t np = num_panels();
  const index_t n = num_cols();
  require(static_cast<index_t>(targets.size()) == np,
          "one edge list per panel");
  require(static_cast<index_t>(in_degree.size()) == np,
          "one in-degree per panel");
  std::vector<index_t> in_check(static_cast<std::size_t>(np), 0);
  index_t col = 0;
  size_type storage = 0;
  for (index_t p = 0; p < np; ++p) {
    const Panel& panel = panels[p];
    require(panel.col_begin == col && panel.col_end > panel.col_begin &&
                panel.col_end <= n,
            "panels tile the columns in order");
    col = panel.col_end;
    require(!panel.blocks.empty(), "every panel has a diagonal block");
    const Block& diag = panel.blocks.front();
    require(diag.row_begin == panel.col_begin &&
                diag.row_end == panel.col_end && diag.facing_panel == p &&
                diag.offset == 0,
            "the diagonal block covers the panel's columns");
    // Rows lie in [0, n) and blocks are sorted and disjoint, so offsets
    // sum to at most n: no overflow below.
    index_t offset = 0;
    for (std::size_t b = 0; b < panel.blocks.size(); ++b) {
      const Block& blk = panel.blocks[b];
      require(blk.row_begin >= 0 && blk.row_begin < blk.row_end &&
                  blk.row_end <= n,
              "block rows lie in [0, n)");
      if (b > 0) {
        require(blk.row_begin >= panel.blocks[b - 1].row_end &&
                    blk.row_begin >= panel.col_end,
                "blocks are sorted, disjoint and below the diagonal");
        require(blk.facing_panel > p && blk.facing_panel < np,
                "a block faces a later panel");
        const Panel& facing = panels[blk.facing_panel];
        require(blk.row_begin >= facing.col_begin &&
                    blk.row_end <= facing.col_end,
                "a block's rows lie in its facing panel's columns");
      }
      require(blk.offset == offset, "block offsets are contiguous");
      offset += blk.height();
    }
    require(offset == panel.nrows, "a panel's rows are its blocks' rows");
    require(panel.storage_offset == storage,
            "panel storage is contiguous");
    storage += static_cast<size_type>(panel.nrows) * panel.width();
    for (index_t j = panel.col_begin; j < panel.col_end; ++j) {
      require(panel_of_col[j] == p, "panel_of_col matches the panels");
    }
    // Edges cover exactly the off-diagonal blocks, in order.
    const auto nblocks = static_cast<index_t>(panel.blocks.size());
    index_t next_block = 1;
    for (const UpdateEdge& e : targets[p]) {
      require(e.first_block == next_block && e.last_block > e.first_block &&
                  e.last_block <= nblocks,
              "edges cover the off-diagonal blocks in order");
      require(e.dst > p && e.dst < np, "an edge targets a later panel");
      next_block = e.last_block;
      for (index_t b = e.first_block; b < e.last_block; ++b) {
        require(panel.blocks[b].facing_panel == e.dst,
                "an edge's blocks face its target");
      }
      in_check[e.dst]++;
    }
    require(next_block == nblocks, "edges cover every off-diagonal block");
  }
  require(col == n, "panels cover every column");
  require(storage == factor_entries, "factor_entries matches the panels");
  for (index_t p = 0; p < np; ++p) {
    require(in_check[p] == in_degree[p], "in_degree counts the edges");
  }
}

SymbolicStructure build_structure(const SupernodePartition& part,
                                  const SupernodeForest& forest,
                                  index_t max_panel_width) {
  const index_t nsn = part.count();
  const index_t n =
      nsn == 0 ? 0 : part.first_col[static_cast<std::size_t>(nsn)];
  SymbolicStructure st;
  st.panel_of_col.assign(static_cast<std::size_t>(n), -1);

  // Pass 1: create the panels (column slices), so that panel_of_col is
  // complete before blocks are cut at panel boundaries.
  for (index_t s = 0; s < nsn; ++s) {
    const index_t w = part.width(s);
    index_t nsplit = 1;
    if (max_panel_width > 0 && w > max_panel_width) {
      nsplit = (w + max_panel_width - 1) / max_panel_width;
    }
    const index_t base = w / nsplit, rem = w % nsplit;
    index_t c = part.first_col[s];
    for (index_t k = 0; k < nsplit; ++k) {
      Panel p;
      p.col_begin = c;
      p.col_end = c + base + (k < rem ? 1 : 0);
      p.supernode = s;
      c = p.col_end;
      const index_t id = static_cast<index_t>(st.panels.size());
      for (index_t j = p.col_begin; j < p.col_end; ++j) {
        st.panel_of_col[j] = id;
      }
      st.panels.push_back(std::move(p));
    }
    SPX_ASSERT(c == part.first_col[s + 1]);
  }

  // Pass 2: blocks.  A panel's below-diagonal rows are the remaining
  // columns of its supernode followed by the supernode's row structure;
  // both are sorted and disjoint, and we cut maximal runs at facing-panel
  // boundaries.
  const index_t np = st.num_panels();
  st.targets.resize(static_cast<std::size_t>(np));
  st.in_degree.assign(static_cast<std::size_t>(np), 0);
  for (index_t p = 0; p < np; ++p) {
    Panel& panel = st.panels[p];
    const index_t s = panel.supernode;
    panel.blocks.push_back(
        {panel.col_begin, panel.col_end, p, 0});
    index_t offset = panel.width();

    auto emit_rows = [&](index_t row_begin, index_t row_end) {
      // Split [row_begin,row_end) at facing panel boundaries and at block
      // discontinuities (the caller guarantees the run is contiguous).
      index_t r = row_begin;
      while (r < row_end) {
        const index_t fp = st.panel_of_col[r];
        const index_t stop = std::min(row_end, st.panels[fp].col_end);
        // Merge with the previous block when contiguous and same facing.
        Block& prev = panel.blocks.back();
        if (prev.row_end == r && prev.facing_panel == fp &&
            prev.offset > 0) {
          prev.row_end = stop;
        } else {
          panel.blocks.push_back({r, stop, fp, offset});
        }
        offset += stop - r;
        r = stop;
      }
    };

    // Trailing columns of the same supernode (dense coupling between the
    // split slices).
    if (panel.col_end < part.first_col[s + 1]) {
      emit_rows(panel.col_end, part.first_col[s + 1]);
    }
    // Supernode row structure: group consecutive indices into runs.
    const auto& rows = forest.rows[s];
    std::size_t k = 0;
    while (k < rows.size()) {
      std::size_t e = k + 1;
      while (e < rows.size() && rows[e] == rows[e - 1] + 1) ++e;
      emit_rows(rows[k], rows[k - 1 + (e - k)] + 1);
      k = e;
    }
    panel.nrows = offset;

    // Edges: group consecutive off-diagonal blocks by facing panel.
    index_t b = 1;
    const index_t nb = static_cast<index_t>(panel.blocks.size());
    while (b < nb) {
      index_t e = b + 1;
      while (e < nb &&
             panel.blocks[e].facing_panel == panel.blocks[b].facing_panel) {
        ++e;
      }
      st.targets[p].push_back({panel.blocks[b].facing_panel, b, e});
      st.in_degree[panel.blocks[b].facing_panel]++;
      b = e;
    }
  }

  // Storage offsets and nnz.
  size_type storage = 0, nnz = 0;
  for (Panel& panel : st.panels) {
    panel.storage_offset = storage;
    const size_type w = panel.width();
    storage += static_cast<size_type>(panel.nrows) * w;
    nnz += w * (w + 1) / 2 +
           static_cast<size_type>(panel.nrows_below()) * w;
  }
  st.factor_entries = storage;
  st.nnz_factor = nnz;
  // Panels, blocks and edges were appended one at a time; drop the slack
  // so that an analysis kept in the cache holds only what it uses.
  st.panels.shrink_to_fit();
  for (Panel& panel : st.panels) panel.blocks.shrink_to_fit();
  for (auto& edges : st.targets) edges.shrink_to_fit();
  build_row_maps(st);
  return st;
}

void build_row_maps(SymbolicStructure& st) {
  const auto np = static_cast<std::size_t>(st.num_panels());
  st.row_maps.clear();
  st.source_begin.assign(np + 1, 0);
  st.sources.resize(static_cast<std::size_t>(st.num_update_tasks()));
  for (std::size_t p = 0; p < np; ++p) {
    st.source_begin[p + 1] = st.source_begin[p] + st.in_degree[p];
  }
  // Panels are visited in ascending order, so each panel's in-edges land
  // in ascending source order.
  std::vector<index_t> next(st.source_begin.begin(), st.source_begin.end() - 1);
  for (index_t p = 0; p < st.num_panels(); ++p) {
    for (index_t e = 0; e < static_cast<index_t>(st.targets[p].size()); ++e) {
      st.sources[next[st.targets[p][e].dst]++] = {p, e};
    }
  }
  for (index_t p = 0; p < st.num_panels(); ++p) {
    const Panel& sp = st.panels[p];
    for (UpdateEdge& e : st.targets[p]) {
      const auto segs = kernels::build_row_segments(
          sp, sp.blocks[e.first_block].offset, st.panels[e.dst]);
      if (st.row_maps.size() + segs.size() >
          static_cast<std::size_t>(std::numeric_limits<index_t>::max())) {
        throw InvalidArgument("row maps overflow index_t");
      }
      e.map_begin = static_cast<index_t>(st.row_maps.size());
      st.row_maps.insert(st.row_maps.end(), segs.begin(), segs.end());
      e.map_end = static_cast<index_t>(st.row_maps.size());
    }
  }
  st.row_maps.shrink_to_fit();
}

}  // namespace spx
