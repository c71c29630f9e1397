// AVX-512F packed-GEMM variant (x86-64).  Compiled with -mavx512f
// -mavx512dq -mfma when the toolchain supports it; degrades to null
// tables otherwise.
//
// 16x8 doubles / 32x8 floats: 16 zmm accumulators + 2 A loads + 1
// broadcast out of 32 registers, twice the AVX2 tile in both the vector
// width and the broadcast reuse.  The mapped write-back subtracts each run
// of contiguous target rows from the accumulators with masked loads and
// stores based at the run's target row minus its first tile row.
#include "kernels/dispatch.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

#include "kernels/microkernel.hpp"

namespace spx::kernels {
namespace {

struct MicroAvx512D {
  static constexpr int MR = 16;
  static constexpr int NR = 8;
  static void product(index_t kc, const double* ap, const double* bp,
                      __m512d (&acc0)[NR], __m512d (&acc1)[NR]) {
    for (index_t l = 0; l < kc; ++l) {
      const __m512d a0 = _mm512_loadu_pd(ap);
      const __m512d a1 = _mm512_loadu_pd(ap + 8);
      ap += MR;
      for (int j = 0; j < NR; ++j) {
        const __m512d bv = _mm512_set1_pd(bp[j]);
        acc0[j] = _mm512_fmadd_pd(a0, bv, acc0[j]);
        acc1[j] = _mm512_fmadd_pd(a1, bv, acc1[j]);
      }
      bp += NR;
    }
  }
  template <micro::TileWrite W>
  static void run(index_t kc, const double* ap, const double* bp, double* c,
                  index_t ldc) {
    __m512d acc0[NR];
    __m512d acc1[NR];
    for (int j = 0; j < NR; ++j) {
      if constexpr (W == micro::TileWrite::Accumulate) {
        double* col = c + static_cast<std::size_t>(j) * ldc;
        acc0[j] = _mm512_loadu_pd(col);
        acc1[j] = _mm512_loadu_pd(col + 8);
      } else {
        acc0[j] = _mm512_setzero_pd();
        acc1[j] = _mm512_setzero_pd();
      }
    }
    product(kc, ap, bp, acc0, acc1);
    for (int j = 0; j < NR; ++j) {
      double* col = c + static_cast<std::size_t>(j) * ldc;
      if constexpr (W == micro::TileWrite::Subtract) {
        acc0[j] = _mm512_sub_pd(_mm512_loadu_pd(col), acc0[j]);
        acc1[j] = _mm512_sub_pd(_mm512_loadu_pd(col + 8), acc1[j]);
      }
      _mm512_storeu_pd(col, acc0[j]);
      _mm512_storeu_pd(col + 8, acc1[j]);
    }
  }
  static void run_mapped(index_t kc, const double* ap, const double* bp,
                         const micro::TileTarget<double, MR, NR>& t) {
    __m512d acc0[NR];
    __m512d acc1[NR];
    for (int j = 0; j < NR; ++j) {
      acc0[j] = _mm512_setzero_pd();
      acc1[j] = _mm512_setzero_pd();
    }
    product(kc, ap, bp, acc0, acc1);
    for (int r = 0; r < t.runs; ++r) {
      const std::uint32_t run = t.run_mask[r];
      const index_t shift = t.shift[r];
      for (int j = 0; j < NR; ++j) {
        const std::uint32_t m = run & t.col_mask[j];
        double* base = t.col[j] + shift;
        const auto m0 = static_cast<__mmask8>(m);
        const auto m1 = static_cast<__mmask8>(m >> 8);
        if (m0 != 0) {
          _mm512_mask_storeu_pd(
              base, m0,
              _mm512_sub_pd(_mm512_maskz_loadu_pd(m0, base), acc0[j]));
        }
        if (m1 != 0) {
          _mm512_mask_storeu_pd(
              base + 8, m1,
              _mm512_sub_pd(_mm512_maskz_loadu_pd(m1, base + 8), acc1[j]));
        }
      }
    }
  }
};

struct MicroAvx512S {
  static constexpr int MR = 32;
  static constexpr int NR = 8;
  static void product(index_t kc, const float* ap, const float* bp,
                      __m512 (&acc0)[NR], __m512 (&acc1)[NR]) {
    for (index_t l = 0; l < kc; ++l) {
      const __m512 a0 = _mm512_loadu_ps(ap);
      const __m512 a1 = _mm512_loadu_ps(ap + 16);
      ap += MR;
      for (int j = 0; j < NR; ++j) {
        const __m512 bv = _mm512_set1_ps(bp[j]);
        acc0[j] = _mm512_fmadd_ps(a0, bv, acc0[j]);
        acc1[j] = _mm512_fmadd_ps(a1, bv, acc1[j]);
      }
      bp += NR;
    }
  }
  template <micro::TileWrite W>
  static void run(index_t kc, const float* ap, const float* bp, float* c,
                  index_t ldc) {
    __m512 acc0[NR];
    __m512 acc1[NR];
    for (int j = 0; j < NR; ++j) {
      if constexpr (W == micro::TileWrite::Accumulate) {
        float* col = c + static_cast<std::size_t>(j) * ldc;
        acc0[j] = _mm512_loadu_ps(col);
        acc1[j] = _mm512_loadu_ps(col + 16);
      } else {
        acc0[j] = _mm512_setzero_ps();
        acc1[j] = _mm512_setzero_ps();
      }
    }
    product(kc, ap, bp, acc0, acc1);
    for (int j = 0; j < NR; ++j) {
      float* col = c + static_cast<std::size_t>(j) * ldc;
      if constexpr (W == micro::TileWrite::Subtract) {
        acc0[j] = _mm512_sub_ps(_mm512_loadu_ps(col), acc0[j]);
        acc1[j] = _mm512_sub_ps(_mm512_loadu_ps(col + 16), acc1[j]);
      }
      _mm512_storeu_ps(col, acc0[j]);
      _mm512_storeu_ps(col + 16, acc1[j]);
    }
  }
  static void run_mapped(index_t kc, const float* ap, const float* bp,
                         const micro::TileTarget<float, MR, NR>& t) {
    __m512 acc0[NR];
    __m512 acc1[NR];
    for (int j = 0; j < NR; ++j) {
      acc0[j] = _mm512_setzero_ps();
      acc1[j] = _mm512_setzero_ps();
    }
    product(kc, ap, bp, acc0, acc1);
    for (int r = 0; r < t.runs; ++r) {
      const std::uint32_t run = t.run_mask[r];
      const index_t shift = t.shift[r];
      for (int j = 0; j < NR; ++j) {
        const std::uint32_t m = run & t.col_mask[j];
        float* base = t.col[j] + shift;
        const auto m0 = static_cast<__mmask16>(m);
        const auto m1 = static_cast<__mmask16>(m >> 16);
        if (m0 != 0) {
          _mm512_mask_storeu_ps(
              base, m0,
              _mm512_sub_ps(_mm512_maskz_loadu_ps(m0, base), acc0[j]));
        }
        if (m1 != 0) {
          _mm512_mask_storeu_ps(
              base + 16, m1,
              _mm512_sub_ps(_mm512_maskz_loadu_ps(m1, base + 16), acc1[j]));
        }
      }
    }
  }
};

template <typename T, typename M, micro::BShape S>
void gemm_impl(index_t m, index_t n, index_t k, T alpha, const T* a,
               index_t lda, const T* b, index_t ldb, T beta, T* c,
               index_t ldc) {
  micro::packed_gemm<T, M>(S, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

}  // namespace

GemmFuncs<real_t> gemm_variant_avx512_d() {
  return {&gemm_impl<real_t, MicroAvx512D, micro::BShape::Nt>,
          &gemm_impl<real_t, MicroAvx512D, micro::BShape::Nn>,
          &micro::mapped_gemm<real_t, MicroAvx512D>};
}

GemmFuncs<real32_t> gemm_variant_avx512_s() {
  return {&gemm_impl<real32_t, MicroAvx512S, micro::BShape::Nt>,
          &gemm_impl<real32_t, MicroAvx512S, micro::BShape::Nn>,
          &micro::mapped_gemm<real32_t, MicroAvx512S>};
}

}  // namespace spx::kernels

#else  // !__AVX512F__

namespace spx::kernels {
GemmFuncs<real_t> gemm_variant_avx512_d() { return {}; }
GemmFuncs<real32_t> gemm_variant_avx512_s() { return {}; }
}  // namespace spx::kernels

#endif
