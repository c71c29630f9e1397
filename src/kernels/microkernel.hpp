// Packed, register- and cache-blocked GEMM shared by every ISA variant of
// the dense-kernel dispatch layer (kernels/dispatch.hpp).
//
// The design is the classic three-level blocking of Goto/BLIS, sized for
// the panel shapes the sparse factorization produces:
//
//   jc over NC columns of C   (B panel reused across the whole M extent)
//     pc over KC of k         (B block packed once, alpha folded in)
//       ic over MC rows of C  (A block packed into MR-row micro-panels)
//         jr over NR, ir over MR -> micro-kernel: an MR x NR register
//         tile accumulated over KC with one A load + NR broadcasts per k.
//
// Each ISA translation unit (microkernel_generic.cpp, microkernel_avx2.cpp,
// microkernel_avx512.cpp, microkernel_neon.cpp) instantiates packed_gemm
// with its own micro-kernel struct and is compiled with that ISA's flags;
// the dispatcher only ever calls a variant after cpuid confirms support.
//
// Micro-kernel contract (struct M):
//   static constexpr int MR, NR;           // register tile, MR <= 32
//   template <TileWrite W>
//   static void run(index_t kc, const T* ap, const T* bp, T* c, index_t ldc);
//     -> P = sum_l ap[l*MR + i] * bp[l*NR + j] over the MR x NR tile, then
//        C(0:MR, 0:NR) += P (Accumulate) or -= P (Subtract), column-major;
//   static void run_mapped(index_t kc, const T* ap, const T* bp,
//                          const TileTarget<T, MR, NR>& t);
//     -> the same P, subtracted from the registers through t (below).
// Edge tiles of packed_gemm run the same kernel into a zeroed MR x NR
// stack buffer whose valid region is then added to C, so packed panels
// are always full-width (zero padded) and the inner loop never branches
// on remainders.
//
// mapped_gemm is the sparse update's kernel (the paper's Fig. 3 GEMM with
// no temporary buffer): the same blocking, with each register tile
// subtracted through an edge's row map straight into the gapped target
// panel instead of into a contiguous C.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "kernels/dispatch.hpp"

namespace spx::kernels::micro {

/// Cache blocking parameters (elements, not bytes).  KC x NR of packed B
/// stays L1-resident per micro-panel; MC x KC of packed A targets L2; NC
/// bounds the packed-B workspace (KC*NC doubles = 1 MiB at the defaults).
constexpr index_t kKC = 256;
constexpr index_t kMC = 192;
constexpr index_t kNC = 512;

/// Calls with m*n*k below this skip packing entirely: the streaming
/// fallback below beats the packed path once the pack cost is not
/// amortized (measured crossover is near 12^3 on both tested hosts).
constexpr double kSmallGemmCutoff = 2048.0;

/// Bound on m * n of a product under kSmallGemmCutoff (k >= 1): the
/// stack tile mapped_gemm computes such products into.
constexpr index_t kSmallGemmEntries = 2048;
static_assert(kSmallGemmEntries >= kSmallGemmCutoff);

/// How a micro-kernel call writes its MR x NR product tile P to C.
enum class TileWrite {
  Accumulate,  ///< C += P; the accumulators start from C (packed_gemm)
  Subtract,    ///< C -= P; the accumulators start from zero
};

/// Where one register tile of the mapped GEMM goes.  The tile's rows come
/// in runs of contiguous target rows: run r holds the tile rows whose bits
/// are set in run_mask[r], and tile row i of it lands on target row
/// shift[r] + i.  Column j takes the tile rows whose bits are set in
/// col_mask[j] (none for a column past the product's edge) and lands on
/// col[j].  So P(i, j) is subtracted from col[j][shift[r] + i] for every
/// bit i of run_mask[r] & col_mask[j].  shift[r] >= 0, and col[j] is
/// always a valid column, so a vector based at col[j] + shift[r] never
/// starts before the target; lanes outside the mask are neither read nor
/// written.
template <typename T, int MR, int NR>
struct TileTarget {
  T* col[NR];
  std::uint32_t col_mask[NR];
  int runs;
  const std::uint32_t* run_mask;
  const index_t* shift;
};

/// B-operand shape of the two GEMM flavors the solver uses.
/// Nt: B is n x k, C += alpha*A*B^T (the sparse-update shape).
/// Nn: B is k x n, C += alpha*A*B (blocked-LU trailing update).
enum class BShape { Nt, Nn };

/// C := beta * C over the full m x n extent (beta==0 overwrites, so C may
/// hold NaN/garbage on entry).
template <typename T>
inline void apply_beta(index_t m, index_t n, T beta, T* c, index_t ldc) {
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

/// Packs an mc x kc block of A (column-major, lda) into MR-row
/// micro-panels: out[panel][l*MR + i], zero-padding the last panel.
template <typename T, int MR>
void pack_a(index_t mc, index_t kc, const T* a, index_t lda, T* out) {
  for (index_t i0 = 0; i0 < mc; i0 += MR) {
    const index_t mr = std::min<index_t>(MR, mc - i0);
    for (index_t l = 0; l < kc; ++l) {
      const T* col = a + i0 + static_cast<std::size_t>(l) * lda;
      index_t i = 0;
      for (; i < mr; ++i) out[i] = col[i];
      for (; i < MR; ++i) out[i] = T(0);
      out += MR;
    }
  }
}

/// Packs a kc x nc block of B into NR-column micro-panels with alpha
/// folded in: out[panel][l*NR + j] = alpha * B(j, l) (Nt) or
/// alpha * B(l, j) (Nn), zero-padding the last panel.
template <typename T, int NR>
void pack_b(BShape shape, index_t kc, index_t nc, T alpha, const T* b,
            index_t ldb, T* out) {
  for (index_t j0 = 0; j0 < nc; j0 += NR) {
    const index_t nr = std::min<index_t>(NR, nc - j0);
    for (index_t l = 0; l < kc; ++l) {
      index_t j = 0;
      if (shape == BShape::Nt) {
        const T* row = b + j0 + static_cast<std::size_t>(l) * ldb;
        for (; j < nr; ++j) out[j] = alpha * row[j];
      } else {
        for (; j < nr; ++j) {
          out[j] = alpha * b[l + static_cast<std::size_t>(j0 + j) * ldb];
        }
      }
      for (; j < NR; ++j) out[j] = T(0);
      out += NR;
    }
  }
}

/// Streaming (non-packing) fallback for tiny products: the 4-column
/// register-tiled axpy formulation the pre-dispatch kernels used.
template <typename T>
void small_gemm(BShape shape, index_t m, index_t n, index_t k, T alpha,
                const T* a, index_t lda, const T* b, index_t ldb, T beta,
                T* c, index_t ldc) {
  apply_beta(m, n, beta, c, ldc);
  if (m == 0 || n == 0 || k == 0 || alpha == T(0)) return;
  for (index_t j0 = 0; j0 < n; j0 += 4) {
    const index_t jt = std::min<index_t>(4, n - j0);
    for (index_t l = 0; l < k; ++l) {
      const T* acol = a + static_cast<std::size_t>(l) * lda;
      T bv[4];
      for (index_t j = 0; j < jt; ++j) {
        bv[j] = alpha * (shape == BShape::Nt
                             ? b[(j0 + j) + static_cast<std::size_t>(l) * ldb]
                             : b[l + static_cast<std::size_t>(j0 + j) * ldb]);
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

/// Per-thread packing workspaces of one micro-kernel, shared by its
/// packed_gemm and mapped_gemm; resize() only reallocates on growth.
template <typename T, typename M>
struct PackBuffers {
  std::vector<T> a;
  std::vector<T> b;
};

template <typename T, typename M>
PackBuffers<T, M>& pack_buffers() {
  thread_local PackBuffers<T, M> packs;
  return packs;
}

/// The full blocked GEMM: C := beta*C + alpha * A * op(B) with op chosen
/// by `shape`.  Complete kernel semantics (beta always applied, m==0 /
/// n==0 / k==0 / alpha==0 degenerate cases handled) so each ISA variant
/// is a drop-in function pointer for the dispatcher.
template <typename T, typename M>
void packed_gemm(BShape shape, index_t m, index_t n, index_t k, T alpha,
                 const T* a, index_t lda, const T* b, index_t ldb, T beta,
                 T* c, index_t ldc) {
  if (static_cast<double>(m) * static_cast<double>(n) *
          static_cast<double>(k) < kSmallGemmCutoff) {
    small_gemm(shape, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
    return;
  }
  apply_beta(m, n, beta, c, ldc);
  if (alpha == T(0)) return;
  constexpr int MR = M::MR;
  constexpr int NR = M::NR;
  std::vector<T>& apack = pack_buffers<T, M>().a;
  std::vector<T>& bpack = pack_buffers<T, M>().b;
  for (index_t jc = 0; jc < n; jc += kNC) {
    const index_t nc = std::min(kNC, n - jc);
    const index_t ncp = (nc + NR - 1) / NR * NR;
    for (index_t pc = 0; pc < k; pc += kKC) {
      const index_t kc = std::min(kKC, k - pc);
      bpack.resize(static_cast<std::size_t>(ncp) * kc);
      const T* bblk = (shape == BShape::Nt)
                          ? b + jc + static_cast<std::size_t>(pc) * ldb
                          : b + pc + static_cast<std::size_t>(jc) * ldb;
      pack_b<T, NR>(shape, kc, nc, alpha, bblk, ldb, bpack.data());
      for (index_t ic = 0; ic < m; ic += kMC) {
        const index_t mc = std::min(kMC, m - ic);
        const index_t mcp = (mc + MR - 1) / MR * MR;
        apack.resize(static_cast<std::size_t>(mcp) * kc);
        pack_a<T, MR>(mc, kc, a + ic + static_cast<std::size_t>(pc) * lda,
                      lda, apack.data());
        for (index_t jr = 0; jr < nc; jr += NR) {
          const index_t nr = std::min<index_t>(NR, nc - jr);
          const T* bp = bpack.data() + static_cast<std::size_t>(jr) * kc;
          for (index_t ir = 0; ir < mc; ir += MR) {
            const index_t mr = std::min<index_t>(MR, mc - ir);
            const T* ap = apack.data() + static_cast<std::size_t>(ir) * kc;
            T* cblk = c + (ic + ir) + static_cast<std::size_t>(jc + jr) * ldc;
            if (mr == MR && nr == NR) {
              M::template run<TileWrite::Accumulate>(kc, ap, bp, cblk, ldc);
            } else {
              T buf[MR * NR] = {};
              M::template run<TileWrite::Accumulate>(kc, ap, bp, buf, MR);
              for (index_t j = 0; j < nr; ++j) {
                for (index_t i = 0; i < mr; ++i) {
                  cblk[i + static_cast<std::size_t>(j) * ldc] +=
                      buf[i + j * MR];
                }
              }
            }
          }
        }
      }
    }
  }
}

/// The sparse update kernel: dst -= A * B^T through dst's row and column
/// maps (A is m x k, B is n x k; see MappedTarget).  The blocking is
/// packed_gemm's.  A tile that lies wholly above its columns' first rows
/// is neither computed nor written.  A full tile whose target rows and
/// columns are both contiguous and whose rows all lie at or below its
/// columns' first rows is subtracted with plain vector stores (M::run);
/// every other tile goes out run by run of contiguous target rows, with
/// masked stores straight from the registers (M::run_mapped).  Products
/// under kSmallGemmCutoff run small_gemm into a stack tile, which is then
/// subtracted entry by entry.
///
/// Each product entry is summed from zero over k in order, exactly as
/// packed_gemm (or small_gemm) sums it into a zeroed C, and then
/// subtracted once, so for k <= kKC the target ends up with the bytes of
/// "GEMM into a zeroed buffer, then subtract it through the map".
template <typename T, typename M>
void mapped_gemm(index_t m, index_t n, index_t k, const T* a, index_t lda,
                 const T* b, index_t ldb, const MappedTarget<T>& dst) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  constexpr int MR = M::MR;
  constexpr int NR = M::NR;
  static_assert(MR <= 32, "tile row masks are 32-bit");
  constexpr std::uint32_t kAllRows =
      MR == 32 ? ~std::uint32_t(0) : (std::uint32_t(1) << MR) - 1;
  const index_t* first = dst.first;
  if (static_cast<double>(m) * static_cast<double>(n) *
          static_cast<double>(k) < kSmallGemmCutoff) {
    T p[kSmallGemmEntries];
    small_gemm(BShape::Nt, m, n, k, T(1), a, lda, b, ldb, T(0), p, m);
    for (index_t j = 0; j < n; ++j) {
      T* col = dst.c + static_cast<std::size_t>(dst.cols[j]) * dst.ldc;
      const T* pc = p + static_cast<std::size_t>(j) * m;
      for (index_t i = first == nullptr ? 0 : first[j]; i < m; ++i) {
        col[dst.rows[i]] -= pc[i];
      }
    }
    return;
  }
  // Row runs of the MR-row bands of one A block: band ir / MR holds
  // band_runs[ir / MR] runs, their masks and shifts from index ir.
  std::uint32_t band_mask[kMC + MR];
  index_t band_shift[kMC + MR];
  int band_runs[kMC / MR + 1];
  std::vector<T>& apack = pack_buffers<T, M>().a;
  std::vector<T>& bpack = pack_buffers<T, M>().b;
  for (index_t jc = 0; jc < n; jc += kNC) {
    const index_t nc = std::min(kNC, n - jc);
    const index_t ncp = (nc + NR - 1) / NR * NR;
    for (index_t pc = 0; pc < k; pc += kKC) {
      const index_t kc = std::min(kKC, k - pc);
      bpack.resize(static_cast<std::size_t>(ncp) * kc);
      pack_b<T, NR>(BShape::Nt, kc, nc, T(1),
                    b + jc + static_cast<std::size_t>(pc) * ldb, ldb,
                    bpack.data());
      for (index_t ic = 0; ic < m; ic += kMC) {
        const index_t mc = std::min(kMC, m - ic);
        const index_t mcp = (mc + MR - 1) / MR * MR;
        apack.resize(static_cast<std::size_t>(mcp) * kc);
        pack_a<T, MR>(mc, kc, a + ic + static_cast<std::size_t>(pc) * lda,
                      lda, apack.data());
        for (index_t ir = 0; ir < mc; ir += MR) {
          const index_t mr = std::min<index_t>(MR, mc - ir);
          const index_t* rows = dst.rows + ic + ir;
          int runs = 0;
          for (index_t i = 0; i < mr; ++i) {
            if (i == 0 || rows[i] != rows[i - 1] + 1) {
              band_mask[ir + runs] = 0;
              band_shift[ir + runs] = rows[i] - i;
              ++runs;
            }
            band_mask[ir + runs - 1] |= std::uint32_t(1) << i;
          }
          band_runs[ir / MR] = runs;
        }
        for (index_t jr = 0; jr < nc; jr += NR) {
          const index_t nr = std::min<index_t>(NR, nc - jr);
          const index_t j0 = jc + jr;
          const T* bp = bpack.data() + static_cast<std::size_t>(jr) * kc;
          // first[] does not decrease: the strip's first column has the
          // smallest first row and its last column the largest.
          const index_t top = first == nullptr ? 0 : first[j0];
          const index_t full = first == nullptr ? 0 : first[j0 + nr - 1];
          const bool cols_contiguous =
              nr == NR && dst.cols[j0 + NR - 1] - dst.cols[j0] == NR - 1;
          // Columns past the edge repeat the last one, with no rows.
          TileTarget<T, MR, NR> t;
          for (int j = 0; j < NR; ++j) {
            const index_t col = dst.cols[j0 + std::min<index_t>(j, nr - 1)];
            t.col[j] = dst.c + static_cast<std::size_t>(col) * dst.ldc;
          }
          for (index_t ir = 0; ir < mc; ir += MR) {
            const index_t mr = std::min<index_t>(MR, mc - ir);
            const index_t i0 = ic + ir;
            if (i0 + mr <= top) continue;  // wholly above the trapezoid
            const T* ap = apack.data() + static_cast<std::size_t>(ir) * kc;
            t.runs = band_runs[ir / MR];
            if (cols_contiguous && mr == MR && i0 >= full && t.runs == 1) {
              M::template run<TileWrite::Subtract>(
                  kc, ap, bp, t.col[0] + band_shift[ir], dst.ldc);
              continue;
            }
            for (int j = 0; j < NR; ++j) {
              const index_t lo =
                  j >= nr ? MR : (first == nullptr ? 0 : first[j0 + j] - i0);
              const std::uint32_t above =
                  lo <= 0 ? 0 : (std::uint32_t(1) << std::min(lo, MR - 1)) - 1;
              t.col_mask[j] = lo >= MR ? 0 : kAllRows & ~above;
            }
            t.run_mask = band_mask + ir;
            t.shift = band_shift + ir;
            M::run_mapped(kc, ap, bp, t);
          }
        }
      }
    }
  }
}

/// Portable micro-kernel: fixed-bound loops over a stack accumulator tile
/// that any -O2 autovectorizer turns into the baseline SIMD of the target
/// (SSE2 on x86-64, NEON on aarch64).  Also the semantics oracle the
/// intrinsics kernels are conformance-tested against.
template <typename T, int MR_, int NR_>
struct GenericMicro {
  static constexpr int MR = MR_;
  static constexpr int NR = NR_;
  static void product(index_t kc, const T* ap, const T* bp, T* acc) {
    for (index_t l = 0; l < kc; ++l) {
      for (int j = 0; j < NR; ++j) {
        const T bv = bp[j];
        for (int i = 0; i < MR; ++i) acc[i + j * MR] += ap[i] * bv;
      }
      ap += MR;
      bp += NR;
    }
  }
  template <TileWrite W>
  static void run(index_t kc, const T* ap, const T* bp, T* c, index_t ldc) {
    T acc[MR * NR] = {};
    product(kc, ap, bp, acc);
    for (int j = 0; j < NR; ++j) {
      T* col = c + static_cast<std::size_t>(j) * ldc;
      for (int i = 0; i < MR; ++i) {
        if constexpr (W == TileWrite::Accumulate) {
          col[i] += acc[i + j * MR];
        } else {
          col[i] -= acc[i + j * MR];
        }
      }
    }
  }
  static void run_mapped(index_t kc, const T* ap, const T* bp,
                         const TileTarget<T, MR, NR>& t) {
    T acc[MR * NR] = {};
    product(kc, ap, bp, acc);
    for (int r = 0; r < t.runs; ++r) {
      for (int j = 0; j < NR; ++j) {
        T* base = t.col[j] + t.shift[r];
        for (std::uint32_t bits = t.run_mask[r] & t.col_mask[j]; bits != 0;
             bits &= bits - 1) {
          const int i = std::countr_zero(bits);
          base[i] -= acc[i + j * MR];
        }
      }
    }
  }
};

}  // namespace spx::kernels::micro
