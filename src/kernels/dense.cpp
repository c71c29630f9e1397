#include "kernels/dense.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "kernels/dispatch.hpp"

namespace spx::kernels {
namespace {

/// Shared argument guards: every dense kernel validates its dimensions
/// and leading dimensions in debug builds, so a bad stride from a future
/// caller (e.g. a 2D tile task) faults here instead of corrupting
/// neighboring panels.  `ld_of(rows)` is the minimum legal leading
/// dimension of an operand with `rows` rows.
inline index_t ld_of(index_t rows) { return std::max<index_t>(1, rows); }

#define SPX_KERNEL_ASSERT_DIMS_2(m, n) \
  SPX_DEBUG_ASSERT((m) >= 0 && (n) >= 0)
#define SPX_KERNEL_ASSERT_DIMS_3(m, n, k) \
  SPX_DEBUG_ASSERT((m) >= 0 && (n) >= 0 && (k) >= 0)

/// Register-tiled core of the streaming (non-packed) gemm_nt used by the
/// complex path: processes a j-tile of up to 4 columns of C at once so
/// each A column is streamed once per 4 C columns.
template <typename T, int JT>
void gemm_nt_jtile(index_t m, index_t k, T alpha, const T* a, index_t lda,
                   const T* b, index_t ldb, T* c, index_t ldc) {
  for (index_t l = 0; l < k; ++l) {
    const T* acol = a + static_cast<std::size_t>(l) * lda;
    T bv[JT];
    for (int j = 0; j < JT; ++j) {
      bv[j] = alpha * b[j + static_cast<std::size_t>(l) * ldb];
    }
    for (index_t i = 0; i < m; ++i) {
      const T av = acol[i];
      for (int j = 0; j < JT; ++j) {
        c[i + static_cast<std::size_t>(j) * ldc] += av * bv[j];
      }
    }
  }
}

/// C := beta * C over the full m x n extent (beta==0 overwrites NaN).
template <typename T>
void scale_beta(index_t m, index_t n, T beta, T* c, index_t ldc) {
  if (beta == T(1)) return;
  if (beta == T(0)) {
    for (index_t j = 0; j < n; ++j) {
      std::fill_n(c + static_cast<std::size_t>(j) * ldc, m, T(0));
    }
  } else {
    for (index_t j = 0; j < n; ++j) {
      T* col = c + static_cast<std::size_t>(j) * ldc;
      for (index_t i = 0; i < m; ++i) col[i] *= beta;
    }
  }
}

/// Streaming gemm_nt kept for the complex types (the dispatch layer
/// covers real_t/real32_t with packed SIMD variants; see dispatch.hpp).
template <typename T>
void gemm_nt_streaming(index_t m, index_t n, index_t k, T alpha, const T* a,
                       index_t lda, const T* b, index_t ldb, T beta, T* c,
                       index_t ldc) {
  scale_beta(m, n, beta, c, ldc);
  if (m == 0 || n == 0 || k == 0 || alpha == T(0)) return;
  // Block over k to keep the streamed A panel in cache.
  constexpr index_t KB = 256;
  for (index_t l0 = 0; l0 < k; l0 += KB) {
    const index_t kb = std::min(KB, k - l0);
    const T* ablk = a + static_cast<std::size_t>(l0) * lda;
    const T* bblk = b + static_cast<std::size_t>(l0) * ldb;
    index_t j = 0;
    for (; j + 4 <= n; j += 4) {
      gemm_nt_jtile<T, 4>(m, kb, alpha, ablk, lda, bblk + j, ldb,
                          c + static_cast<std::size_t>(j) * ldc, ldc);
    }
    for (; j < n; ++j) {
      gemm_nt_jtile<T, 1>(m, kb, alpha, ablk, lda, bblk + j, ldb,
                          c + static_cast<std::size_t>(j) * ldc, ldc);
    }
  }
}

/// Streaming gemm_nn (axpy formulation) kept for the complex types.
template <typename T>
void gemm_nn_streaming(index_t m, index_t n, index_t k, T alpha, const T* a,
                       index_t lda, const T* b, index_t ldb, T beta, T* c,
                       index_t ldc) {
  scale_beta(m, n, beta, c, ldc);
  if (m == 0 || n == 0 || k == 0 || alpha == T(0)) return;
  // axpy formulation: C(:,j) += alpha * B(l,j) * A(:,l), streaming A once
  // per column of C with 4-column tiles like gemm_nt.
  for (index_t j0 = 0; j0 < n; j0 += 4) {
    const index_t jt = std::min<index_t>(4, n - j0);
    for (index_t l = 0; l < k; ++l) {
      const T* acol = a + static_cast<std::size_t>(l) * lda;
      T bv[4];
      for (index_t j = 0; j < jt; ++j) {
        bv[j] = alpha * b[l + static_cast<std::size_t>(j0 + j) * ldb];
      }
      for (index_t i = 0; i < m; ++i) {
        const T av = acol[i];
        for (index_t j = 0; j < jt; ++j) {
          c[i + static_cast<std::size_t>(j0 + j) * ldc] += av * bv[j];
        }
      }
    }
  }
}

}  // namespace

template <typename T>
void gemm_nt(index_t m, index_t n, index_t k, T alpha, const T* a,
             index_t lda, const T* b, index_t ldb, T beta, T* c,
             index_t ldc) {
  SPX_KERNEL_ASSERT_DIMS_3(m, n, k);
  SPX_DEBUG_ASSERT(lda >= ld_of(m) && ldb >= ld_of(n) && ldc >= ld_of(m));
  if constexpr (is_complex_v<T>) {
    gemm_nt_streaming(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  } else {
    Dispatch::instance().gemm<T>(GemmShape::Nt, m, n, k, alpha, a, lda, b,
                                 ldb, beta, c, ldc);
  }
}

template <typename T>
void gemm_nt_ref(index_t m, index_t n, index_t k, T alpha, const T* a,
                 index_t lda, const T* b, index_t ldb, T beta, T* c,
                 index_t ldc) {
  SPX_KERNEL_ASSERT_DIMS_3(m, n, k);
  SPX_DEBUG_ASSERT(lda >= ld_of(m) && ldb >= ld_of(n) && ldc >= ld_of(m));
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      T acc = T(0);
      for (index_t l = 0; l < k; ++l) {
        acc += a[i + static_cast<std::size_t>(l) * lda] *
               b[j + static_cast<std::size_t>(l) * ldb];
      }
      T& cij = c[i + static_cast<std::size_t>(j) * ldc];
      cij = beta * cij + alpha * acc;
    }
  }
}

template <typename T>
void gemm_nn(index_t m, index_t n, index_t k, T alpha, const T* a,
             index_t lda, const T* b, index_t ldb, T beta, T* c,
             index_t ldc) {
  SPX_KERNEL_ASSERT_DIMS_3(m, n, k);
  SPX_DEBUG_ASSERT(lda >= ld_of(m) && ldb >= ld_of(k) && ldc >= ld_of(m));
  if constexpr (is_complex_v<T>) {
    gemm_nn_streaming(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  } else {
    Dispatch::instance().gemm<T>(GemmShape::Nn, m, n, k, alpha, a, lda, b,
                                 ldb, beta, c, ldc);
  }
}

template <typename T>
void gemm_nn_ref(index_t m, index_t n, index_t k, T alpha, const T* a,
                 index_t lda, const T* b, index_t ldb, T beta, T* c,
                 index_t ldc) {
  SPX_KERNEL_ASSERT_DIMS_3(m, n, k);
  SPX_DEBUG_ASSERT(lda >= ld_of(m) && ldb >= ld_of(k) && ldc >= ld_of(m));
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      T acc = T(0);
      for (index_t l = 0; l < k; ++l) {
        acc += a[i + static_cast<std::size_t>(l) * lda] *
               b[l + static_cast<std::size_t>(j) * ldb];
      }
      T& cij = c[i + static_cast<std::size_t>(j) * ldc];
      cij = beta * cij + alpha * acc;
    }
  }
}

namespace {

/// Blocking factor of the panel-level kernels: diagonal blocks are
/// factored unblocked below this size, larger ones recurse through
/// GEMM-rich updates (same arithmetic, better cache behaviour).
constexpr index_t kNB = 48;

/// PivotControl whose local column 0 sits `k` columns past pc's (the
/// blocked kernels hand the unblocked base case shifted diagonals).
PivotControl shift(const PivotControl& pc, index_t k) {
  return {pc.threshold, pc.col_offset + k, pc.quality};
}

[[noreturn]] void throw_pivot(const char* kernel, const char* what,
                              index_t global_col) {
  throw NumericalError(std::string(kernel) + ": " + what +
                       " at global column " + std::to_string(global_col));
}

/// Accepts, perturbs, or rejects the pivot of local column `j`.
/// Returns the (possibly replaced) pivot value; records accounting.
template <typename T>
T settle_pivot(const char* kernel, T d, index_t j, const PivotControl& pc,
               bool cholesky) {
  const double mag = static_cast<double>(magnitude<T>(d));
  const index_t col = pc.col_offset + j;
  bool perturbed = false;
  if (pc.threshold > 0) {
    if (cholesky) {
      // Cholesky needs d > 0; a tiny (or tiny-negative, i.e. roundoff on
      // a singular matrix) pivot is lifted to +threshold, but a pivot
      // below -threshold means genuine indefiniteness -- no perturbation
      // repairs that, so escalate (callers wanting to continue use LDL^T).
      double dr;
      if constexpr (is_complex_v<T>) {
        dr = mag;  // complex-symmetric "Cholesky" guards magnitude only
      } else {
        dr = static_cast<double>(d);
      }
      if (dr < -pc.threshold) {
        if (pc.quality != nullptr) pc.quality->indefinite = true;
        throw_pivot(kernel, "indefinite pivot", col);
      }
      if (dr < pc.threshold) {
        d = T(pc.threshold);
        perturbed = true;
      }
    } else if (mag < pc.threshold) {
      // Sign/phase-preserving replacement: d <- threshold * d/|d|
      // (exact zero becomes +threshold).
      if (mag == 0.0) {
        d = T(pc.threshold);
      } else {
        d *= static_cast<real_of_t<T>>(pc.threshold / mag);
      }
      perturbed = true;
    }
  } else if (cholesky) {
    bool bad;
    if constexpr (is_complex_v<T>) {
      // Complex Cholesky without conjugation is only used on matrices
      // guaranteed safe by construction; guard against exact zero.
      bad = (d == T(0));
    } else {
      bad = !(d > T(0));
    }
    if (bad) throw_pivot(kernel, "non-positive pivot", col);
  } else if (d == T(0)) {
    throw_pivot(kernel, "zero pivot", col);
  }
  if (pc.quality != nullptr) {
    pc.quality->note_pivot(perturbed ? pc.threshold : mag, col, perturbed);
  }
  return d;
}

template <typename T>
void potrf_unblocked(index_t n, T* a, index_t lda, const PivotControl& pc) {
  // Left-looking scalar Cholesky, used on diagonal blocks of size <= kNB.
  for (index_t j = 0; j < n; ++j) {
    T* aj = a + static_cast<std::size_t>(j) * lda;
    // a(j:n,j) -= A(j:n,0:j) * A(j,0:j)^T
    for (index_t k = 0; k < j; ++k) {
      const T ajk = a[j + static_cast<std::size_t>(k) * lda];
      if (ajk == T(0)) continue;
      const T* ak = a + static_cast<std::size_t>(k) * lda;
      for (index_t i = j; i < n; ++i) aj[i] -= ak[i] * ajk;
    }
    const T diag = settle_pivot("potrf", aj[j], j, pc, /*cholesky=*/true);
    const T root = std::sqrt(diag);
    const T inv = T(1) / root;
    aj[j] = root;
    for (index_t i = j + 1; i < n; ++i) aj[i] *= inv;
  }
}

template <typename T>
void ldlt_unblocked(index_t n, T* a, index_t lda, const PivotControl& pc) {
  // Right-looking LDL^T with plain transpose (complex-symmetric safe).
  for (index_t j = 0; j < n; ++j) {
    T* aj = a + static_cast<std::size_t>(j) * lda;
    const T d = settle_pivot("ldlt", aj[j], j, pc, /*cholesky=*/false);
    aj[j] = d;
    const T inv = T(1) / d;
    for (index_t i = j + 1; i < n; ++i) aj[i] *= inv;  // L(i,j)
    // Trailing update: A(i,k) -= L(i,j) * d * L(k,j) for k > j.
    for (index_t k = j + 1; k < n; ++k) {
      const T lkj_d = aj[k] * d;
      if (lkj_d == T(0)) continue;
      T* akcol = a + static_cast<std::size_t>(k) * lda;
      for (index_t i = k; i < n; ++i) akcol[i] -= aj[i] * lkj_d;
    }
  }
}

template <typename T>
void getrf_nopiv_unblocked(index_t n, T* a, index_t lda,
                           const PivotControl& pc) {
  for (index_t j = 0; j < n; ++j) {
    T* aj = a + static_cast<std::size_t>(j) * lda;
    const T piv = settle_pivot("getrf", aj[j], j, pc, /*cholesky=*/false);
    aj[j] = piv;
    const T inv = T(1) / piv;
    for (index_t i = j + 1; i < n; ++i) aj[i] *= inv;
    for (index_t k = j + 1; k < n; ++k) {
      T* ak = a + static_cast<std::size_t>(k) * lda;
      const T ujk = ak[j];
      if (ujk == T(0)) continue;
      for (index_t i = j + 1; i < n; ++i) ak[i] -= aj[i] * ujk;
    }
  }
}

}  // namespace

template <typename T>
void trsm_right_lower_trans_unblocked(index_t m, index_t n, const T* l,
                                      index_t ldl, T* x, index_t ldx,
                                      bool unit_diag) {
  SPX_KERNEL_ASSERT_DIMS_2(m, n);
  SPX_DEBUG_ASSERT(ldl >= ld_of(n) && ldx >= ld_of(m));
  // Solve X * L^T = B column by column of L^T (i.e. row j of L):
  //   X(:,j) = (B(:,j) - sum_{i<j} X(:,i) * L(j,i)) / L(j,j)
  for (index_t j = 0; j < n; ++j) {
    T* xj = x + static_cast<std::size_t>(j) * ldx;
    for (index_t i = 0; i < j; ++i) {
      const T lji = l[j + static_cast<std::size_t>(i) * ldl];
      if (lji == T(0)) continue;
      const T* xi = x + static_cast<std::size_t>(i) * ldx;
      for (index_t r = 0; r < m; ++r) xj[r] -= xi[r] * lji;
    }
    if (!unit_diag) {
      const T d = l[j + static_cast<std::size_t>(j) * ldl];
      const T inv = T(1) / d;
      for (index_t r = 0; r < m; ++r) xj[r] *= inv;
    }
  }
}

template <typename T>
void trsm_right_upper_unblocked(index_t m, index_t n, const T* u,
                                index_t ldu, T* x, index_t ldx) {
  SPX_KERNEL_ASSERT_DIMS_2(m, n);
  SPX_DEBUG_ASSERT(ldu >= ld_of(n) && ldx >= ld_of(m));
  // Solve X * U = B:  X(:,j) = (B(:,j) - sum_{i<j} X(:,i)*U(i,j)) / U(j,j).
  for (index_t j = 0; j < n; ++j) {
    T* xj = x + static_cast<std::size_t>(j) * ldx;
    for (index_t i = 0; i < j; ++i) {
      const T uij = u[i + static_cast<std::size_t>(j) * ldu];
      if (uij == T(0)) continue;
      const T* xi = x + static_cast<std::size_t>(i) * ldx;
      for (index_t r = 0; r < m; ++r) xj[r] -= xi[r] * uij;
    }
    const T inv = T(1) / u[j + static_cast<std::size_t>(j) * ldu];
    for (index_t r = 0; r < m; ++r) xj[r] *= inv;
  }
}

template <typename T>
void trsm_right_lower_trans(index_t m, index_t n, const T* l, index_t ldl,
                            T* x, index_t ldx, bool unit_diag) {
  SPX_KERNEL_ASSERT_DIMS_2(m, n);
  SPX_DEBUG_ASSERT(ldl >= ld_of(n) && ldx >= ld_of(m));
  // Blocked: X_j := (B_j - X_{<j} * L(j, <j)^T) * L_jj^{-T}.
  for (index_t j = 0; j < n; j += kNB) {
    const index_t jb = std::min(kNB, n - j);
    if (j > 0) {
      gemm_nt(m, jb, j, T(-1), x, ldx, l + j, ldl, T(1),
              x + static_cast<std::size_t>(j) * ldx, ldx);
    }
    trsm_right_lower_trans_unblocked(
        m, jb, l + j + static_cast<std::size_t>(j) * ldl, ldl,
        x + static_cast<std::size_t>(j) * ldx, ldx, unit_diag);
  }
}

template <typename T>
void trsm_right_upper(index_t m, index_t n, const T* u, index_t ldu, T* x,
                      index_t ldx) {
  SPX_KERNEL_ASSERT_DIMS_2(m, n);
  SPX_DEBUG_ASSERT(ldu >= ld_of(n) && ldx >= ld_of(m));
  // Blocked: X_j := (B_j - X_{<j} * U(<j, j)) * U_jj^{-1}.
  for (index_t j = 0; j < n; j += kNB) {
    const index_t jb = std::min(kNB, n - j);
    if (j > 0) {
      gemm_nn(m, jb, j, T(-1), x, ldx,
              u + static_cast<std::size_t>(j) * ldu, ldu, T(1),
              x + static_cast<std::size_t>(j) * ldx, ldx);
    }
    trsm_right_upper_unblocked(
        m, jb, u + j + static_cast<std::size_t>(j) * ldu, ldu,
        x + static_cast<std::size_t>(j) * ldx, ldx);
  }
}

template <typename T>
void trsm_right_lower_unblocked(index_t m, index_t n, const T* l,
                                index_t ldl, T* x, index_t ldx,
                                bool unit_diag) {
  SPX_KERNEL_ASSERT_DIMS_2(m, n);
  SPX_DEBUG_ASSERT(ldl >= ld_of(n) && ldx >= ld_of(m));
  // Solve X * L = B from the last column:
  //   X(:,j) = (B(:,j) - sum_{i>j} X(:,i) * L(i,j)) / L(j,j)
  for (index_t j = n - 1; j >= 0; --j) {
    T* xj = x + static_cast<std::size_t>(j) * ldx;
    const T* lj = l + static_cast<std::size_t>(j) * ldl;
    for (index_t i = j + 1; i < n; ++i) {
      const T lij = lj[i];
      if (lij == T(0)) continue;
      const T* xi = x + static_cast<std::size_t>(i) * ldx;
      for (index_t r = 0; r < m; ++r) xj[r] -= xi[r] * lij;
    }
    if (!unit_diag) {
      const T inv = T(1) / lj[j];
      for (index_t r = 0; r < m; ++r) xj[r] *= inv;
    }
  }
}

template <typename T>
void trsm_right_upper_trans_unblocked(index_t m, index_t n, const T* u,
                                      index_t ldu, T* x, index_t ldx) {
  SPX_KERNEL_ASSERT_DIMS_2(m, n);
  SPX_DEBUG_ASSERT(ldu >= ld_of(n) && ldx >= ld_of(m));
  // Solve X * U^T = B from the last column:
  //   X(:,j) = (B(:,j) - sum_{i>j} X(:,i) * U(j,i)) / U(j,j)
  for (index_t j = n - 1; j >= 0; --j) {
    T* xj = x + static_cast<std::size_t>(j) * ldx;
    for (index_t i = j + 1; i < n; ++i) {
      const T uji = u[j + static_cast<std::size_t>(i) * ldu];
      if (uji == T(0)) continue;
      const T* xi = x + static_cast<std::size_t>(i) * ldx;
      for (index_t r = 0; r < m; ++r) xj[r] -= xi[r] * uji;
    }
    const T inv = T(1) / u[j + static_cast<std::size_t>(j) * ldu];
    for (index_t r = 0; r < m; ++r) xj[r] *= inv;
  }
}

template <typename T>
void trsm_right_lower(index_t m, index_t n, const T* l, index_t ldl, T* x,
                      index_t ldx, bool unit_diag) {
  SPX_KERNEL_ASSERT_DIMS_2(m, n);
  SPX_DEBUG_ASSERT(ldl >= ld_of(n) && ldx >= ld_of(m));
  // Blocked, last block first: X_j := (B_j - X_{>j} * L(>j, j)) * L_jj^{-1}.
  for (index_t j = (std::max<index_t>(n, 1) - 1) / kNB * kNB; j >= 0;
       j -= kNB) {
    const index_t jb = std::min(kNB, n - j);
    const index_t rest = n - j - jb;
    if (rest > 0) {
      gemm_nn(m, jb, rest, T(-1), x + static_cast<std::size_t>(j + jb) * ldx,
              ldx, l + (j + jb) + static_cast<std::size_t>(j) * ldl, ldl,
              T(1), x + static_cast<std::size_t>(j) * ldx, ldx);
    }
    trsm_right_lower_unblocked(
        m, jb, l + j + static_cast<std::size_t>(j) * ldl, ldl,
        x + static_cast<std::size_t>(j) * ldx, ldx, unit_diag);
  }
}

template <typename T>
void trsm_right_upper_trans(index_t m, index_t n, const T* u, index_t ldu,
                            T* x, index_t ldx) {
  SPX_KERNEL_ASSERT_DIMS_2(m, n);
  SPX_DEBUG_ASSERT(ldu >= ld_of(n) && ldx >= ld_of(m));
  // Blocked, last block first: X_j := (B_j - X_{>j} * U(j, >j)^T) * U_jj^{-T}.
  for (index_t j = (std::max<index_t>(n, 1) - 1) / kNB * kNB; j >= 0;
       j -= kNB) {
    const index_t jb = std::min(kNB, n - j);
    const index_t rest = n - j - jb;
    if (rest > 0) {
      gemm_nt(m, jb, rest, T(-1), x + static_cast<std::size_t>(j + jb) * ldx,
              ldx, u + j + static_cast<std::size_t>(j + jb) * ldu, ldu, T(1),
              x + static_cast<std::size_t>(j) * ldx, ldx);
    }
    trsm_right_upper_trans_unblocked(
        m, jb, u + j + static_cast<std::size_t>(j) * ldu, ldu,
        x + static_cast<std::size_t>(j) * ldx, ldx);
  }
}

template <typename T>
void trsm_left_lower_unit(index_t n, index_t m, const T* l, index_t ldl,
                          T* x, index_t ldx) {
  SPX_KERNEL_ASSERT_DIMS_2(n, m);
  SPX_DEBUG_ASSERT(ldl >= ld_of(n) && ldx >= ld_of(n));
  // Forward substitution on block rows: X_i := X_i - L(i, <i) * X_{<i}.
  for (index_t i = 0; i < n; i += kNB) {
    const index_t ib = std::min(kNB, n - i);
    if (i > 0) {
      gemm_nn(ib, m, i, T(-1), l + i, ldl, x, ldx, T(1), x + i, ldx);
    }
    // Unblocked unit-lower solve on the diagonal block.
    const T* lii = l + i + static_cast<std::size_t>(i) * ldl;
    for (index_t c = 0; c < m; ++c) {
      T* col = x + i + static_cast<std::size_t>(c) * ldx;
      for (index_t j = 0; j < ib; ++j) {
        const T v = col[j];
        if (v == T(0)) continue;
        for (index_t r = j + 1; r < ib; ++r) {
          col[r] -= lii[r + static_cast<std::size_t>(j) * ldl] * v;
        }
      }
    }
  }
}

template <typename T>
void potrf(index_t n, T* a, index_t lda, const PivotControl& pc) {
  SPX_DEBUG_ASSERT(n >= 0 && lda >= ld_of(n));
  // Right-looking blocked Cholesky over the unblocked base case.
  for (index_t k = 0; k < n; k += kNB) {
    const index_t kb = std::min(kNB, n - k);
    T* akk = a + k + static_cast<std::size_t>(k) * lda;
    potrf_unblocked(kb, akk, lda, shift(pc, k));
    const index_t m2 = n - k - kb;
    if (m2 == 0) continue;
    T* a21 = akk + kb;
    trsm_right_lower_trans(m2, kb, akk, lda, a21, lda, false);
    // Trailing symmetric update, lower trapezoid by block columns.
    for (index_t j = 0; j < m2; j += kNB) {
      const index_t jb = std::min(kNB, m2 - j);
      gemm_nt(m2 - j, jb, kb, T(-1), a21 + j, lda, a21 + j, lda, T(1),
              a + (k + kb + j) +
                  static_cast<std::size_t>(k + kb + j) * lda,
              lda);
    }
  }
}

template <typename T>
void ldlt(index_t n, T* a, index_t lda, const PivotControl& pc) {
  SPX_DEBUG_ASSERT(n >= 0 && lda >= ld_of(n));
  // Blocked LDL^T: needs a W = L21 * D scratch for the trailing update.
  std::vector<T> w;
  for (index_t k = 0; k < n; k += kNB) {
    const index_t kb = std::min(kNB, n - k);
    T* akk = a + k + static_cast<std::size_t>(k) * lda;
    ldlt_unblocked(kb, akk, lda, shift(pc, k));
    const index_t m2 = n - k - kb;
    if (m2 == 0) continue;
    T* a21 = akk + kb;
    trsm_right_lower_trans(m2, kb, akk, lda, a21, lda, true);
    // a21 currently holds L21 * D (the TRSM solved against unit L only);
    // save it as W column by column into a tight m2-stride buffer (a
    // whole-panel copy would also drag the (lda - m2)-element inter-column
    // gaps along, and overread a caller's tight-bottom panel), then divide
    // out D to obtain L21.
    w.resize(static_cast<std::size_t>(kb) * m2);
    for (index_t j = 0; j < kb; ++j) {
      std::copy_n(a21 + static_cast<std::size_t>(j) * lda, m2,
                  w.data() + static_cast<std::size_t>(j) * m2);
    }
    std::vector<T> dinv(static_cast<std::size_t>(kb));
    for (index_t j = 0; j < kb; ++j) {
      dinv[j] = akk[j + static_cast<std::size_t>(j) * lda];
    }
    scale_cols_inv(m2, kb, a21, lda, dinv.data());
    // Trailing update: A22 -= L21 * (L21 * D)^T = L21 * W^T (lower part).
    for (index_t j = 0; j < m2; j += kNB) {
      const index_t jb = std::min(kNB, m2 - j);
      gemm_nt(m2 - j, jb, kb, T(-1), a21 + j, lda, w.data() + j, m2, T(1),
              a + (k + kb + j) +
                  static_cast<std::size_t>(k + kb + j) * lda,
              lda);
    }
  }
}

template <typename T>
void getrf_nopiv(index_t n, T* a, index_t lda, const PivotControl& pc) {
  SPX_DEBUG_ASSERT(n >= 0 && lda >= ld_of(n));
  for (index_t k = 0; k < n; k += kNB) {
    const index_t kb = std::min(kNB, n - k);
    T* akk = a + k + static_cast<std::size_t>(k) * lda;
    getrf_nopiv_unblocked(kb, akk, lda, shift(pc, k));
    const index_t m2 = n - k - kb;
    if (m2 == 0) continue;
    T* a21 = akk + kb;                                        // below
    T* a12 = akk + static_cast<std::size_t>(kb) * lda;        // right
    T* a22 = a12 + kb;
    trsm_right_upper(m2, kb, akk, lda, a21, lda);             // L21
    trsm_left_lower_unit(kb, m2, akk, lda, a12, lda);         // U12
    gemm_nn(m2, m2, kb, T(-1), a21, lda, a12, lda, T(1), a22, lda);
  }
}

template <typename T>
void trsm_left_upper(index_t n, index_t m, const T* u, index_t ldu, T* x,
                     index_t ldx) {
  SPX_KERNEL_ASSERT_DIMS_2(n, m);
  SPX_DEBUG_ASSERT(ldu >= ld_of(n) && ldx >= ld_of(n));
  for (index_t c = 0; c < m; ++c) {
    trsv_upper(n, u, ldu, x + static_cast<std::size_t>(c) * ldx);
  }
}

template <typename T>
void scale_cols(index_t m, index_t n, const T* a, index_t lda, const T* d,
                T* b, index_t ldb) {
  SPX_KERNEL_ASSERT_DIMS_2(m, n);
  SPX_DEBUG_ASSERT(lda >= ld_of(m) && ldb >= ld_of(m));
  for (index_t j = 0; j < n; ++j) {
    const T* acol = a + static_cast<std::size_t>(j) * lda;
    T* bcol = b + static_cast<std::size_t>(j) * ldb;
    const T dj = d[j];
    for (index_t i = 0; i < m; ++i) bcol[i] = acol[i] * dj;
  }
}

template <typename T>
void scale_cols_inv(index_t m, index_t n, T* a, index_t lda, const T* d) {
  SPX_KERNEL_ASSERT_DIMS_2(m, n);
  SPX_DEBUG_ASSERT(lda >= ld_of(m));
  for (index_t j = 0; j < n; ++j) {
    T* col = a + static_cast<std::size_t>(j) * lda;
    const T inv = T(1) / d[j];
    for (index_t i = 0; i < m; ++i) col[i] *= inv;
  }
}

template <typename T>
void trsv_lower(index_t n, const T* l, index_t ldl, bool unit_diag, T* b) {
  SPX_DEBUG_ASSERT(n >= 0 && ldl >= ld_of(n));
  for (index_t j = 0; j < n; ++j) {
    const T* lj = l + static_cast<std::size_t>(j) * ldl;
    if (!unit_diag) b[j] /= lj[j];
    const T bj = b[j];
    for (index_t i = j + 1; i < n; ++i) b[i] -= lj[i] * bj;
  }
}

template <typename T>
void trsv_lower_trans(index_t n, const T* l, index_t ldl, bool unit_diag,
                      T* b) {
  SPX_DEBUG_ASSERT(n >= 0 && ldl >= ld_of(n));
  for (index_t j = n - 1; j >= 0; --j) {
    const T* lj = l + static_cast<std::size_t>(j) * ldl;
    T acc = b[j];
    for (index_t i = j + 1; i < n; ++i) acc -= lj[i] * b[i];
    b[j] = unit_diag ? acc : acc / lj[j];
  }
}

template <typename T>
void trsv_upper(index_t n, const T* u, index_t ldu, T* b) {
  SPX_DEBUG_ASSERT(n >= 0 && ldu >= ld_of(n));
  for (index_t j = n - 1; j >= 0; --j) {
    const T* uj = u + static_cast<std::size_t>(j) * ldu;
    b[j] /= uj[j];
    const T bj = b[j];
    for (index_t i = 0; i < j; ++i) b[i] -= uj[i] * bj;
  }
}

template <typename T>
void gemv_sub(index_t m, index_t n, const T* a, index_t lda, const T* x,
              T* y) {
  SPX_KERNEL_ASSERT_DIMS_2(m, n);
  SPX_DEBUG_ASSERT(lda >= ld_of(m));
  // Four columns per pass: y is loaded and stored once per four columns
  // of A instead of once per column.
  index_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const T* c0 = a + static_cast<std::size_t>(j) * lda;
    const T* c1 = c0 + lda;
    const T* c2 = c1 + lda;
    const T* c3 = c2 + lda;
    const T x0 = x[j], x1 = x[j + 1], x2 = x[j + 2], x3 = x[j + 3];
    for (index_t i = 0; i < m; ++i) {
      y[i] -= c0[i] * x0 + c1[i] * x1 + c2[i] * x2 + c3[i] * x3;
    }
  }
  for (; j < n; ++j) {
    const T xj = x[j];
    const T* col = a + static_cast<std::size_t>(j) * lda;
    for (index_t i = 0; i < m; ++i) y[i] -= col[i] * xj;
  }
}

template <typename T>
void gemv_trans_sub(index_t m, index_t n, const T* a, index_t lda,
                    const T* x, T* y) {
  SPX_KERNEL_ASSERT_DIMS_2(m, n);
  SPX_DEBUG_ASSERT(lda >= ld_of(m));
  // Four dot products per pass: x is read once for four columns of A,
  // and the four independent sums keep the adder pipeline full.
  index_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const T* c0 = a + static_cast<std::size_t>(j) * lda;
    const T* c1 = c0 + lda;
    const T* c2 = c1 + lda;
    const T* c3 = c2 + lda;
    T s0 = T(0), s1 = T(0), s2 = T(0), s3 = T(0);
    for (index_t i = 0; i < m; ++i) {
      const T xi = x[i];
      s0 += c0[i] * xi;
      s1 += c1[i] * xi;
      s2 += c2[i] * xi;
      s3 += c3[i] * xi;
    }
    y[j] -= s0;
    y[j + 1] -= s1;
    y[j + 2] -= s2;
    y[j + 3] -= s3;
  }
  for (; j < n; ++j) {
    const T* col = a + static_cast<std::size_t>(j) * lda;
    T acc = T(0);
    for (index_t i = 0; i < m; ++i) acc += col[i] * x[i];
    y[j] -= acc;
  }
}

#define SPX_INSTANTIATE_DENSE(T)                                              \
  template void gemm_nt<T>(index_t, index_t, index_t, T, const T*, index_t,  \
                           const T*, index_t, T, T*, index_t);               \
  template void gemm_nt_ref<T>(index_t, index_t, index_t, T, const T*,      \
                               index_t, const T*, index_t, T, T*, index_t); \
  template void gemm_nn<T>(index_t, index_t, index_t, T, const T*, index_t, \
                           const T*, index_t, T, T*, index_t);              \
  template void gemm_nn_ref<T>(index_t, index_t, index_t, T, const T*,      \
                               index_t, const T*, index_t, T, T*, index_t); \
  template void trsm_left_lower_unit<T>(index_t, index_t, const T*,         \
                                        index_t, T*, index_t);              \
  template void trsm_left_upper<T>(index_t, index_t, const T*, index_t,     \
                                   T*, index_t);                            \
  template void trsm_right_lower_trans<T>(index_t, index_t, const T*,       \
                                          index_t, T*, index_t, bool);      \
  template void trsm_right_lower_trans_unblocked<T>(                        \
      index_t, index_t, const T*, index_t, T*, index_t, bool);              \
  template void trsm_right_upper<T>(index_t, index_t, const T*, index_t,    \
                                    T*, index_t);                           \
  template void trsm_right_upper_unblocked<T>(index_t, index_t, const T*,   \
                                              index_t, T*, index_t);        \
  template void trsm_right_lower<T>(index_t, index_t, const T*, index_t,    \
                                    T*, index_t, bool);                     \
  template void trsm_right_lower_unblocked<T>(index_t, index_t, const T*,   \
                                              index_t, T*, index_t, bool);  \
  template void trsm_right_upper_trans<T>(index_t, index_t, const T*,       \
                                          index_t, T*, index_t);            \
  template void trsm_right_upper_trans_unblocked<T>(                        \
      index_t, index_t, const T*, index_t, T*, index_t);                    \
  template void potrf<T>(index_t, T*, index_t, const PivotControl&);        \
  template void ldlt<T>(index_t, T*, index_t, const PivotControl&);         \
  template void getrf_nopiv<T>(index_t, T*, index_t, const PivotControl&);  \
  template void scale_cols<T>(index_t, index_t, const T*, index_t,          \
                              const T*, T*, index_t);                       \
  template void scale_cols_inv<T>(index_t, index_t, T*, index_t, const T*); \
  template void trsv_lower<T>(index_t, const T*, index_t, bool, T*);        \
  template void trsv_lower_trans<T>(index_t, const T*, index_t, bool, T*);  \
  template void trsv_upper<T>(index_t, const T*, index_t, T*);              \
  template void gemv_sub<T>(index_t, index_t, const T*, index_t, const T*,  \
                            T*);                                            \
  template void gemv_trans_sub<T>(index_t, index_t, const T*, index_t,      \
                                  const T*, T*);

SPX_INSTANTIATE_DENSE(real_t)
SPX_INSTANTIATE_DENSE(complex_t)
SPX_INSTANTIATE_DENSE(real32_t)

}  // namespace spx::kernels
