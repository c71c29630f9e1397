// AVX2+FMA packed-GEMM variant (x86-64).  Compiled with -mavx2 -mfma by
// src/CMakeLists.txt when the toolchain supports it; on other targets (or
// toolchains) this TU degrades to null tables and the dispatcher never
// offers the tier.
//
// Register tiles are the classic Haswell shapes: 8x6 doubles (12 ymm
// accumulators + 2 A loads + 1 broadcast = 15 of 16 registers) and 16x6
// floats.  One A-panel load pair and NR broadcasts feed 2*NR independent
// FMA chains per k step, enough to hide the 4-5 cycle FMA latency at 2
// FMAs/cycle.  The mapped write-back subtracts each run of contiguous
// target rows from the accumulators with vmaskmov loads and stores based
// at the run's target row minus its first tile row.
#include "kernels/dispatch.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "kernels/microkernel.hpp"

namespace spx::kernels {
namespace {

/// Lane mask (all ones where bit i of `bits` is set) of a 4 x 64-bit and
/// an 8 x 32-bit vector.
inline __m256i lanes_pd(std::uint32_t bits) {
  const __m256i bit = _mm256_setr_epi64x(1, 2, 4, 8);
  return _mm256_cmpeq_epi64(
      _mm256_and_si256(_mm256_set1_epi64x(bits), bit), bit);
}
inline __m256i lanes_ps(std::uint32_t bits) {
  const __m256i bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  return _mm256_cmpeq_epi32(
      _mm256_and_si256(_mm256_set1_epi32(static_cast<int>(bits)), bit), bit);
}

struct MicroAvx2D {
  static constexpr int MR = 8;
  static constexpr int NR = 6;
  static void product(index_t kc, const double* ap, const double* bp,
                      __m256d (&acc0)[NR], __m256d (&acc1)[NR]) {
    for (index_t l = 0; l < kc; ++l) {
      const __m256d a0 = _mm256_loadu_pd(ap);
      const __m256d a1 = _mm256_loadu_pd(ap + 4);
      ap += MR;
      for (int j = 0; j < NR; ++j) {
        const __m256d bv = _mm256_broadcast_sd(bp + j);
        acc0[j] = _mm256_fmadd_pd(a0, bv, acc0[j]);
        acc1[j] = _mm256_fmadd_pd(a1, bv, acc1[j]);
      }
      bp += NR;
    }
  }
  template <micro::TileWrite W>
  static void run(index_t kc, const double* ap, const double* bp, double* c,
                  index_t ldc) {
    __m256d acc0[NR];
    __m256d acc1[NR];
    for (int j = 0; j < NR; ++j) {
      if constexpr (W == micro::TileWrite::Accumulate) {
        double* col = c + static_cast<std::size_t>(j) * ldc;
        acc0[j] = _mm256_loadu_pd(col);
        acc1[j] = _mm256_loadu_pd(col + 4);
      } else {
        acc0[j] = _mm256_setzero_pd();
        acc1[j] = _mm256_setzero_pd();
      }
    }
    product(kc, ap, bp, acc0, acc1);
    for (int j = 0; j < NR; ++j) {
      double* col = c + static_cast<std::size_t>(j) * ldc;
      if constexpr (W == micro::TileWrite::Subtract) {
        acc0[j] = _mm256_sub_pd(_mm256_loadu_pd(col), acc0[j]);
        acc1[j] = _mm256_sub_pd(_mm256_loadu_pd(col + 4), acc1[j]);
      }
      _mm256_storeu_pd(col, acc0[j]);
      _mm256_storeu_pd(col + 4, acc1[j]);
    }
  }
  static void run_mapped(index_t kc, const double* ap, const double* bp,
                         const micro::TileTarget<double, MR, NR>& t) {
    __m256d acc0[NR];
    __m256d acc1[NR];
    for (int j = 0; j < NR; ++j) {
      acc0[j] = _mm256_setzero_pd();
      acc1[j] = _mm256_setzero_pd();
    }
    product(kc, ap, bp, acc0, acc1);
    for (int r = 0; r < t.runs; ++r) {
      const std::uint32_t run = t.run_mask[r];
      const index_t shift = t.shift[r];
      for (int j = 0; j < NR; ++j) {
        const std::uint32_t m = run & t.col_mask[j];
        double* base = t.col[j] + shift;
        if ((m & 0xFu) != 0) {
          const __m256i m0 = lanes_pd(m & 0xFu);
          _mm256_maskstore_pd(
              base, m0, _mm256_sub_pd(_mm256_maskload_pd(base, m0), acc0[j]));
        }
        if ((m >> 4) != 0) {
          const __m256i m1 = lanes_pd(m >> 4);
          _mm256_maskstore_pd(
              base + 4, m1,
              _mm256_sub_pd(_mm256_maskload_pd(base + 4, m1), acc1[j]));
        }
      }
    }
  }
};

struct MicroAvx2S {
  static constexpr int MR = 16;
  static constexpr int NR = 6;
  static void product(index_t kc, const float* ap, const float* bp,
                      __m256 (&acc0)[NR], __m256 (&acc1)[NR]) {
    for (index_t l = 0; l < kc; ++l) {
      const __m256 a0 = _mm256_loadu_ps(ap);
      const __m256 a1 = _mm256_loadu_ps(ap + 8);
      ap += MR;
      for (int j = 0; j < NR; ++j) {
        const __m256 bv = _mm256_broadcast_ss(bp + j);
        acc0[j] = _mm256_fmadd_ps(a0, bv, acc0[j]);
        acc1[j] = _mm256_fmadd_ps(a1, bv, acc1[j]);
      }
      bp += NR;
    }
  }
  template <micro::TileWrite W>
  static void run(index_t kc, const float* ap, const float* bp, float* c,
                  index_t ldc) {
    __m256 acc0[NR];
    __m256 acc1[NR];
    for (int j = 0; j < NR; ++j) {
      if constexpr (W == micro::TileWrite::Accumulate) {
        float* col = c + static_cast<std::size_t>(j) * ldc;
        acc0[j] = _mm256_loadu_ps(col);
        acc1[j] = _mm256_loadu_ps(col + 8);
      } else {
        acc0[j] = _mm256_setzero_ps();
        acc1[j] = _mm256_setzero_ps();
      }
    }
    product(kc, ap, bp, acc0, acc1);
    for (int j = 0; j < NR; ++j) {
      float* col = c + static_cast<std::size_t>(j) * ldc;
      if constexpr (W == micro::TileWrite::Subtract) {
        acc0[j] = _mm256_sub_ps(_mm256_loadu_ps(col), acc0[j]);
        acc1[j] = _mm256_sub_ps(_mm256_loadu_ps(col + 8), acc1[j]);
      }
      _mm256_storeu_ps(col, acc0[j]);
      _mm256_storeu_ps(col + 8, acc1[j]);
    }
  }
  static void run_mapped(index_t kc, const float* ap, const float* bp,
                         const micro::TileTarget<float, MR, NR>& t) {
    __m256 acc0[NR];
    __m256 acc1[NR];
    for (int j = 0; j < NR; ++j) {
      acc0[j] = _mm256_setzero_ps();
      acc1[j] = _mm256_setzero_ps();
    }
    product(kc, ap, bp, acc0, acc1);
    for (int r = 0; r < t.runs; ++r) {
      const std::uint32_t run = t.run_mask[r];
      const index_t shift = t.shift[r];
      for (int j = 0; j < NR; ++j) {
        const std::uint32_t m = run & t.col_mask[j];
        float* base = t.col[j] + shift;
        if ((m & 0xFFu) != 0) {
          const __m256i m0 = lanes_ps(m & 0xFFu);
          _mm256_maskstore_ps(
              base, m0, _mm256_sub_ps(_mm256_maskload_ps(base, m0), acc0[j]));
        }
        if ((m >> 8) != 0) {
          const __m256i m1 = lanes_ps(m >> 8);
          _mm256_maskstore_ps(
              base + 8, m1,
              _mm256_sub_ps(_mm256_maskload_ps(base + 8, m1), acc1[j]));
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

GemmFuncs<real_t> gemm_variant_avx2_d() {
  return {&gemm_impl<real_t, MicroAvx2D, micro::BShape::Nt>,
          &gemm_impl<real_t, MicroAvx2D, micro::BShape::Nn>,
          &micro::mapped_gemm<real_t, MicroAvx2D>};
}

GemmFuncs<real32_t> gemm_variant_avx2_s() {
  return {&gemm_impl<real32_t, MicroAvx2S, micro::BShape::Nt>,
          &gemm_impl<real32_t, MicroAvx2S, micro::BShape::Nn>,
          &micro::mapped_gemm<real32_t, MicroAvx2S>};
}

}  // namespace spx::kernels

#else  // !(__AVX2__ && __FMA__)

namespace spx::kernels {
GemmFuncs<real_t> gemm_variant_avx2_d() { return {}; }
GemmFuncs<real32_t> gemm_variant_avx2_s() { return {}; }
}  // namespace spx::kernels

#endif
