// NEON packed-GEMM variant (aarch64).  NEON is baseline on aarch64, so no
// special flags are needed: this TU instantiates the generic micro-kernel
// with a tile sized for the 32 128-bit vector registers and lets the
// autovectorizer emit fmla.  On non-ARM targets it degrades to null
// tables and the tier is never offered.
#include "kernels/dispatch.hpp"

#if defined(__aarch64__) || defined(__ARM_NEON)

#include "kernels/microkernel.hpp"

namespace spx::kernels {
namespace {

// 8x6 doubles: 12 live 2-lane accumulators; 16x6 floats mirror AVX2.
template <typename T>
using Micro = micro::GenericMicro<T, std::is_same_v<T, float> ? 16 : 8, 6>;

template <typename T, micro::BShape S>
void gemm_impl(index_t m, index_t n, index_t k, T alpha, const T* a,
               index_t lda, const T* b, index_t ldb, T beta, T* c,
               index_t ldc) {
  micro::packed_gemm<T, Micro<T>>(S, m, n, k, alpha, a, lda, b, ldb, beta,
                                  c, ldc);
}

}  // namespace

GemmFuncs<real_t> gemm_variant_neon_d() {
  return {&gemm_impl<real_t, micro::BShape::Nt>,
          &gemm_impl<real_t, micro::BShape::Nn>,
          &micro::mapped_gemm<real_t, Micro<real_t>>};
}

GemmFuncs<real32_t> gemm_variant_neon_s() {
  return {&gemm_impl<real32_t, micro::BShape::Nt>,
          &gemm_impl<real32_t, micro::BShape::Nn>,
          &micro::mapped_gemm<real32_t, Micro<real32_t>>};
}

}  // namespace spx::kernels

#else  // not ARM

namespace spx::kernels {
GemmFuncs<real_t> gemm_variant_neon_d() { return {}; }
GemmFuncs<real32_t> gemm_variant_neon_s() { return {}; }
}  // namespace spx::kernels

#endif
