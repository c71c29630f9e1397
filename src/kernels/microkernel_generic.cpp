// Generic (portable) packed-GEMM variant: the GenericMicro template
// compiled with the build's baseline flags.  Always available; the
// floor every other variant must beat and the fallback the dispatcher
// uses when cpuid offers nothing better.
#include "kernels/dispatch.hpp"
#include "kernels/microkernel.hpp"

namespace spx::kernels {
namespace {

template <typename T>
using Micro = micro::GenericMicro<T, 8, 4>;

template <typename T>
void gemm_nt_impl(index_t m, index_t n, index_t k, T alpha, const T* a,
                  index_t lda, const T* b, index_t ldb, T beta, T* c,
                  index_t ldc) {
  micro::packed_gemm<T, Micro<T>>(micro::BShape::Nt, m, n, k, alpha, a, lda,
                                  b, ldb, beta, c, ldc);
}

template <typename T>
void gemm_nn_impl(index_t m, index_t n, index_t k, T alpha, const T* a,
                  index_t lda, const T* b, index_t ldb, T beta, T* c,
                  index_t ldc) {
  micro::packed_gemm<T, Micro<T>>(micro::BShape::Nn, m, n, k, alpha, a, lda,
                                  b, ldb, beta, c, ldc);
}

}  // namespace

GemmFuncs<real_t> gemm_variant_generic_d() {
  return {&gemm_nt_impl<real_t>, &gemm_nn_impl<real_t>,
          &micro::mapped_gemm<real_t, Micro<real_t>>};
}

GemmFuncs<real32_t> gemm_variant_generic_s() {
  return {&gemm_nt_impl<real32_t>, &gemm_nn_impl<real32_t>,
          &micro::mapped_gemm<real32_t, Micro<real32_t>>};
}

}  // namespace spx::kernels
