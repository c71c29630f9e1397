// Task bodies ("codelets" in StarPU terminology) executed by the runtimes.
//
// Two task kinds, exactly the paper's decomposition (§V):
//   * factor_panel  -- diagonal block factorization + TRSM on the
//     off-diagonal blocks of one panel;
//   * apply_update  -- the GEMM update from one panel onto one facing
//     panel (one task per (source, target) panel couple).
//
// apply_update runs one kernel on every resource -- CPU workers, the
// emulated GPU streams, merged subtree tasks, factorize_sequential, the
// Schur complement and the fp32 factor: per edge and side, one mapped
// GEMM (kernels::gemm_nt_mapped) over the edge's whole facing range (the
// n source rows of its facing blocks, contiguous in the panel), whose
// register tiles are subtracted through the edge's row map straight into
// the gapped target panel.  This is the paper's GPU kernel structure, a
// GEMM with no temporary buffer (Fig. 3), applied on the CPU.  For LL^T
// and LDL^T each block's columns take the rows from that block down: the
// kernel skips the tiles wholly above a block's trapezoid and masks the
// rows above it in a straddling tile.  LU's L side (rows from the first
// facing block) and U side (rows past the last one) are one GEMM each.
// The row map is the one the analysis built for the edge
// (SymbolicStructure::row_maps); the task expands it into target rows and
// columns in its workspace and allocates nothing beyond growing that.
//
// For LDL^T, the update needs D-scaled source rows.  Every update scales
// its own edge's facing rows into the worker's scratch: the paper's "less
// efficient kernel that performs the full LDL^T operation at each
// update" (§V-A), which a task runtime needs because a D*L^T buffer
// shared by a panel's update tasks would have an unbounded life span.
// Native PASTIX scales each panel once into such a buffer instead.  The
// edges of a panel cover its off-diagonal blocks exactly once
// (SymbolicStructure::validate), so both scale the same entries; the
// per-edge kernel needs a scratch of one edge, not one panel.  Only the
// simulator models the difference (sim::LdltStrategy).
#pragma once

#include "core/factor_data.hpp"
#include "kernels/scatter.hpp"

namespace spx {

/// Per-worker scratch (grown lazily, never shrunk).
template <typename T>
struct Workspace {
  std::vector<T> scaled;      ///< D-scaled facing rows of an edge (LDL^T)
  std::vector<index_t> map;   ///< an edge's target rows, columns, first rows
};

/// Factorizes the diagonal block of panel p and solves its off-diagonal
/// blocks.  Throws NumericalError on breakdown.
template <typename T>
void factor_panel(FactorData<T>& f, index_t p);

/// Applies the update along edge e of panel src onto panel e.dst; e must
/// be an edge of the factor's structure (its row map is read from there).
/// LDL^T scales the edge's facing rows by D into ws.scaled first.
/// NOT thread-safe on the target panel: callers serialize updates into
/// the same destination (the runtimes do this via commute access mode or
/// per-panel locks).
template <typename T>
void apply_update(FactorData<T>& f, index_t src, const UpdateEdge& e,
                  Workspace<T>& ws);

extern template void factor_panel<real_t>(FactorData<real_t>&, index_t);
extern template void factor_panel<complex_t>(FactorData<complex_t>&,
                                             index_t);
extern template void apply_update<real_t>(FactorData<real_t>&, index_t,
                                          const UpdateEdge&,
                                          Workspace<real_t>&);
extern template void apply_update<complex_t>(FactorData<complex_t>&,
                                             index_t, const UpdateEdge&,
                                             Workspace<complex_t>&);

}  // namespace spx
