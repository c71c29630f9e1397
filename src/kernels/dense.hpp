// Dense BLAS/LAPACK-style kernels used inside panels.
//
// Column-major layout with explicit leading dimension, templated over
// double and std::complex<double>.  Transposes are PLAIN transposes (no
// conjugation): the solver's complex cases are complex-*symmetric* LDL^T
// and general LU, never Hermitian (paper Table I: Z matrices use LU and
// LDL^T only).
//
// The `*_ref` kernels are deliberately naive and serve as test oracles for
// the optimized versions.
#pragma once

#include "common/error.hpp"
#include "common/factor_quality.hpp"
#include "common/types.hpp"

namespace spx::kernels {

/// Static-pivot handling policy of the factorization kernels.
///
/// With `threshold <= 0` (the default) a bad pivot throws NumericalError
/// naming the offending global column.  With `threshold > 0` the kernels
/// degrade gracefully instead (PaStiX-style static perturbation): a pivot
/// with |d| < threshold is replaced by +/- threshold (sign preserving;
/// exact zeros become +threshold, complex pivots keep their phase) and
/// the replacement is recorded in `quality`.  Cholesky cannot absorb
/// genuine indefiniteness: a pivot below -threshold still throws, after
/// flagging `quality->indefinite`.
struct PivotControl {
  double threshold = 0.0;    ///< absolute perturbation floor (eps * ||A||)
  index_t col_offset = 0;    ///< global column of local column 0
  FactorQuality* quality = nullptr;  ///< optional pivot accounting sink
};

/// C(m x n) := beta*C + alpha * A(m x k) * B(n x k)^T.
/// The "NT" shape is the one sparse updates use: B is the facing block of
/// the same panel as A (paper Fig. 3 benchmarks exactly C = C - A*B^T).
template <typename T>
void gemm_nt(index_t m, index_t n, index_t k, T alpha, const T* a,
             index_t lda, const T* b, index_t ldb, T beta, T* c,
             index_t ldc);

/// Reference (naive triple loop) version of gemm_nt.
template <typename T>
void gemm_nt_ref(index_t m, index_t n, index_t k, T alpha, const T* a,
                 index_t lda, const T* b, index_t ldb, T beta, T* c,
                 index_t ldc);

/// C(m x n) := beta*C + alpha * A(m x k) * B(k x n)  (no transpose; the
/// blocked LU trailing update and right-upper TRSM need this shape).
template <typename T>
void gemm_nn(index_t m, index_t n, index_t k, T alpha, const T* a,
             index_t lda, const T* b, index_t ldb, T beta, T* c,
             index_t ldc);

/// Reference version of gemm_nn.
template <typename T>
void gemm_nn_ref(index_t m, index_t n, index_t k, T alpha, const T* a,
                 index_t lda, const T* b, index_t ldb, T beta, T* c,
                 index_t ldc);

/// X(n x m) := L^{-1} * X where L(n x n) is lower triangular with unit
/// diagonal (the U12 solve of blocked LU).
template <typename T>
void trsm_left_lower_unit(index_t n, index_t m, const T* l, index_t ldl,
                          T* x, index_t ldx);

/// X(n x m) := U^{-1} X, upper triangle, one trsv per column (the Schur
/// tests build their dense oracle with it).
template <typename T>
void trsm_left_upper(index_t n, index_t m, const T* u, index_t ldu, T* x,
                     index_t ldx);

/// X(m x n) := X * L^{-T} where L(n x n) is lower triangular.
/// `unit_diag` skips the diagonal division (LDL^T / LU-L cases).
/// This is the panel TRSM: L21 := A21 * L11^{-T}.
template <typename T>
void trsm_right_lower_trans(index_t m, index_t n, const T* l, index_t ldl,
                            T* x, index_t ldx, bool unit_diag);

/// X(m x n) := X * U^{-1} where U(n x n) is upper triangular (non-unit).
/// LU panel: L21 := A21 * U11^{-1}.
template <typename T>
void trsm_right_upper(index_t m, index_t n, const T* u, index_t ldu, T* x,
                      index_t ldx);

/// X(m x n) := X * L^{-1} where L(n x n) is lower triangular; `unit_diag`
/// skips the diagonal division.  The backward diagonal solve of the
/// multi-RHS sweep (LL^T / LDL^T) on its RHS-contiguous tile Y = Xp^T.
template <typename T>
void trsm_right_lower(index_t m, index_t n, const T* l, index_t ldl, T* x,
                      index_t ldx, bool unit_diag);

/// X(m x n) := X * U^{-T} where U(n x n) is upper triangular (non-unit).
/// The backward diagonal solve of the multi-RHS LU sweep, on the tile.
template <typename T>
void trsm_right_upper_trans(index_t m, index_t n, const T* u, index_t ldu,
                            T* x, index_t ldx);

/// Unblocked (column-at-a-time) base case of trsm_right_lower_trans.
/// Exposed as a test oracle: the blocked variant must agree with this for
/// every n, including n that is not a multiple of the blocking factor.
template <typename T>
void trsm_right_lower_trans_unblocked(index_t m, index_t n, const T* l,
                                      index_t ldl, T* x, index_t ldx,
                                      bool unit_diag);

/// Unblocked base case of trsm_right_upper (test oracle, see above).
template <typename T>
void trsm_right_upper_unblocked(index_t m, index_t n, const T* u,
                                index_t ldu, T* x, index_t ldx);

/// Unblocked base case of trsm_right_lower (test oracle, see above).
template <typename T>
void trsm_right_lower_unblocked(index_t m, index_t n, const T* l,
                                index_t ldl, T* x, index_t ldx,
                                bool unit_diag);

/// Unblocked base case of trsm_right_upper_trans (test oracle).
template <typename T>
void trsm_right_upper_trans_unblocked(index_t m, index_t n, const T* u,
                                      index_t ldu, T* x, index_t ldx);

/// In-place lower Cholesky of the leading n x n block: A = L*L^T, lower
/// triangle overwritten by L (strictly upper part untouched).
/// Throws NumericalError on a non-positive pivot (or, under a perturbing
/// PivotControl, only on an indefinite pivot below -threshold).
template <typename T>
void potrf(index_t n, T* a, index_t lda, const PivotControl& pc = {});

/// In-place LDL^T (no pivoting, plain transpose): unit lower L overwrites
/// the strictly lower triangle, D overwrites the diagonal.
/// Throws NumericalError on a zero pivot unless `pc` perturbs it.
template <typename T>
void ldlt(index_t n, T* a, index_t lda, const PivotControl& pc = {});

/// In-place LU without pivoting: unit lower L strictly below the diagonal,
/// U on and above.  Throws NumericalError on a zero pivot unless `pc`
/// perturbs it.
template <typename T>
void getrf_nopiv(index_t n, T* a, index_t lda, const PivotControl& pc = {});

/// B(m x n) := A(m x n) scaled column-wise: B(:,j) = A(:,j) * d[j].
/// In-place allowed (b == a).
template <typename T>
void scale_cols(index_t m, index_t n, const T* a, index_t lda, const T* d,
                T* b, index_t ldb);

/// A(m x n) := A(:,j) / d[j] column-wise (the D^{-1} step of LDL^T panels).
template <typename T>
void scale_cols_inv(index_t m, index_t n, T* a, index_t lda, const T* d);

/// Lower-triangular solve L*y = b (forward substitution), in place on b.
template <typename T>
void trsv_lower(index_t n, const T* l, index_t ldl, bool unit_diag, T* b);

/// Transposed lower-triangular solve L^T*y = b (backward), in place.
template <typename T>
void trsv_lower_trans(index_t n, const T* l, index_t ldl, bool unit_diag,
                      T* b);

/// Upper-triangular solve U*y = b (backward substitution), in place.
template <typename T>
void trsv_upper(index_t n, const T* u, index_t ldu, T* b);

/// y(m) := y - A(m x n) * x(n)  (dense column-major GEMV accumulate),
/// four columns of A per pass over y.
template <typename T>
void gemv_sub(index_t m, index_t n, const T* a, index_t lda, const T* x,
              T* y);

/// y(n) := y - A(m x n)^T * x(m)  (transposed GEMV accumulate), four
/// columns of A per pass over x.  Each y(j) takes one dot product summed
/// in row order, so the result does not depend on n's remainder mod 4.
template <typename T>
void gemv_trans_sub(index_t m, index_t n, const T* a, index_t lda,
                    const T* x, T* y);

}  // namespace spx::kernels
