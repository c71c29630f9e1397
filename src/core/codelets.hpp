// Task bodies ("codelets" in StarPU terminology) executed by the runtimes.
//
// Two task kinds, exactly the paper's decomposition (§V):
//   * factor_panel  -- diagonal block factorization + TRSM on the
//     off-diagonal blocks of one panel;
//   * apply_update  -- the GEMM update from one panel onto one facing
//     panel (one task per (source, target) panel couple).
//
// apply_update has two code paths mirroring the paper's CPU and GPU
// kernels: TempBuffer computes the outer product into a contiguous
// per-worker buffer and scatters it (the CPU path, which keeps the vendor
// GEMM shape), and Direct accumulates straight into the gapped target
// panel (the modified-ASTRA GPU path, no extra device memory).
//
// TempBuffer runs one GEMM per edge and side, over the edge's whole
// facing range (the n source rows of its facing blocks, contiguous in
// the panel), then subtracts the buffer block column by block column
// through the edge's row map.  For LL^T and LDL^T each block's columns
// are scattered from that block's own row down: the rectangle above each
// trapezoid is computed (2-7% more update flops on the benchmark
// matrices, DESIGN.md §17) but never written.  LU's L side
// (rows from the first facing block) and U side (rows past the last one)
// are one GEMM each with no extra flops.  Direct keeps one segmented GEMM
// per block and side.  Both read the row map the analysis built for the
// edge (SymbolicStructure::row_maps), clipped at the block or side's
// first row, so a task allocates nothing beyond growing its workspace.
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

enum class UpdateVariant {
  TempBuffer,  ///< CPU path: contiguous GEMM + scatter
  Direct       ///< GPU path: segmented GEMM into the gapped panel
};

/// Per-worker scratch (grown lazily, never shrunk).
template <typename T>
struct Workspace {
  std::vector<T> w;        ///< outer-product buffer (TempBuffer path)
  std::vector<T> scaled;   ///< D-scaled facing rows of an edge (LDL^T)
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
                  UpdateVariant variant, Workspace<T>& ws);

extern template void factor_panel<real_t>(FactorData<real_t>&, index_t);
extern template void factor_panel<complex_t>(FactorData<complex_t>&,
                                             index_t);
extern template void apply_update<real_t>(FactorData<real_t>&, index_t,
                                          const UpdateEdge&, UpdateVariant,
                                          Workspace<real_t>&);
extern template void apply_update<complex_t>(FactorData<complex_t>&,
                                             index_t, const UpdateEdge&,
                                             UpdateVariant,
                                             Workspace<complex_t>&);

}  // namespace spx
