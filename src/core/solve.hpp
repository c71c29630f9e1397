// Triangular solve phase: forward/backward substitution over panels.
//
// Operates on the permuted right-hand side; the Solver facade wraps the
// permutations.  The solve traverses panels in order (forward) and reverse
// (backward); off-diagonal blocks gather/scatter against the dense global
// vector using the block row intervals, so no row-index indirection is
// needed.
#pragma once

#include <span>

#include "core/factor_data.hpp"

namespace spx {

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
/// than three columns through solve_permuted, one column at a time.
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
                          index_t ldx);

}  // namespace spx
