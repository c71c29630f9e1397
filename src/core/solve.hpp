// Triangular solve phase: forward/backward substitution over panels.
//
// Operates on the permuted right-hand side; the Solver facade wraps the
// permutations.  The one-thread sweeps traverse panels in order (forward)
// and reverse (backward); off-diagonal blocks gather/scatter against the
// dense global vector using the block row intervals, so no row-index
// indirection is needed.  solve_permuted_multi can also run both sweeps
// as a DAG over the panels on several threads, byte-identical to the
// one-thread sweeps (DESIGN.md §16, "Across cores").
#pragma once

#include <span>

#include "core/factor_data.hpp"
#include "obs/span.hpp"

namespace spx {

/// Factor entries x nrhs below which solve_permuted_multi stays on one
/// thread whatever its `threads` says: below it, starting and feeding the
/// helpers costs more than they save (DESIGN.md §16).
inline constexpr double kParallelSolveMinWork = 5e5;

/// Largest nrhs whose forward sweep runs as a DAG.  Its product arena
/// holds sum(nrows_below) x nrhs scalars; wider blocks run the forward
/// sweep on the calling thread and only the backward sweep as a DAG.
inline constexpr index_t kForwardDagMaxRhs = 8;

/// Where solve_permuted_multi records its two phase spans,
/// `solver.solve.forward` and `solver.solve.backward` (arg0 = the
/// phase's worker count), on the `service-` track under `parent`.  No
/// tracer, no spans.
struct SolveSpans {
  obs::Tracer* tracer = nullptr;
  obs::SpanContext parent;
};

/// x := L^{-1} x (LLT), or unit-L^{-1} x (LDLT/LU).  `panel_limit`
/// restricts the pass to panels [0, panel_limit) (-1 = all): the partial
/// pass a Schur condensation needs.
template <typename T>
void solve_forward(const FactorData<T>& f, std::span<T> x,
                   index_t panel_limit = -1);

/// LDLT only: x := D^{-1} x (restricted to panels [0, panel_limit)).
template <typename T>
void solve_diagonal(const FactorData<T>& f, std::span<T> x,
                    index_t panel_limit = -1);

/// x := L^{-T} x (LLT), unit-L^{-T} x (LDLT), or U^{-1} x (LU), again
/// restrictable to the first `panel_limit` panels.
template <typename T>
void solve_backward(const FactorData<T>& f, std::span<T> x,
                    index_t panel_limit = -1);

/// Full solve of the factorized system (forward, diagonal, backward as
/// appropriate for the factorization kind), on the permuted RHS in place.
template <typename T>
void solve_permuted(const FactorData<T>& f, std::span<T> x);

/// Multi-RHS variants: X is n x nrhs column-major with leading dimension
/// ldx; each panel is solved on an RHS-contiguous tile (nrhs x width) with
/// one GEMM for its off-diagonal update.  solve_permuted_multi runs fewer
/// than three columns through the single-vector sweeps, one column at a
/// time.  With `threads` > 1 and at least kParallelSolveMinWork factor
/// entries x nrhs, it runs the sweeps as a panel DAG on the caller plus
/// threads - 1 helper threads started for the call; x comes out
/// byte-identical to the one-thread result.  A step that throws stops
/// every worker, and the exception is rethrown once the helpers have
/// joined (x is then unspecified).
template <typename T>
void solve_forward_multi(const FactorData<T>& f, T* x, index_t nrhs,
                         index_t ldx);
template <typename T>
void solve_diagonal_multi(const FactorData<T>& f, T* x, index_t nrhs,
                          index_t ldx);
template <typename T>
void solve_backward_multi(const FactorData<T>& f, T* x, index_t nrhs,
                          index_t ldx);
template <typename T>
void solve_permuted_multi(const FactorData<T>& f, T* x, index_t nrhs,
                          index_t ldx, int threads = 1,
                          SolveSpans spans = {});

}  // namespace spx
