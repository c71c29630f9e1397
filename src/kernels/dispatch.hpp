// Runtime CPU dispatch for the dense-kernel layer (ROADMAP item 1).
//
// A process-wide Dispatch singleton probes CPU features once (AVX2/AVX-512
// + FMA via cpuid on x86-64, NEON on aarch64) and selects, per scalar type,
// the fastest packed-GEMM variant the host both supports and this build
// compiled (kernels/microkernel_*.cpp).  A variant holds three kernels:
// gemm_nt, gemm_nn and the sparse update's mapped GEMM (gemm_nt_mapped).
// Complex stays on the generic in-place path in dense.cpp, its mapped
// GEMM included (kernels/scatter.cpp) -- the paper's Z matrices spend
// their time in the same real panels after amalgamation, and complex SIMD
// horizontal shuffles are not worth the variant surface.
//
// Selection order and overrides:
//   1. `SPX_KERNEL_ISA` env: auto | generic | avx2 | avx512 | neon
//      (read once at first use; unsupported values warn and fall back);
//   2. Dispatch::force()/reset() or the ScopedIsaOverride RAII -- the
//      test knob the ISA conformance sweep uses;
//   3. otherwise the best supported variant.
//
// With -DSPX_WITH_BLAS=ON the dispatcher additionally delegates GEMMs
// whose m*n*k exceeds a crossover (default 96^3, `SPX_BLAS_CROSSOVER` env,
// <= 0 disables) to an external LP64 CBLAS (kernels/blas_backend.cpp);
// everything below the crossover and every non-GEMM kernel keeps the
// native path, and the `*_ref` kernels remain the oracle for all of it.
// The mapped update GEMM never delegates: its write-back goes through the
// edge's row map, which a CBLAS call cannot do.
//
// The decision is observable: RunStats carries `kernel_isa`/`kernel_blas`
// per factorization, an `spx_kernel_isa_info` gauge records the startup
// decision, and `bench_kernels --verify` prints it (docs/KERNELS.md).
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace spx::kernels {

/// Instruction-set tiers a GEMM variant can be compiled for.
enum class Isa {
  Generic,  ///< portable autovectorized micro-kernel (always available)
  Neon,     ///< aarch64 baseline SIMD
  Avx2,     ///< x86-64 AVX2 + FMA intrinsics
  Avx512,   ///< x86-64 AVX-512F intrinsics
};

const char* to_string(Isa isa);

/// GEMM flavor selector: Nt is C += alpha*A*B^T (B is n x k), Nn is
/// C += alpha*A*B (B is k x n).  Mirrors micro::BShape without pulling
/// the packing header into every dense-kernel consumer.
enum class GemmShape { Nt, Nn };

/// Destination of the mapped GEMM (kernels::gemm_nt_mapped): product
/// entry (i, j) is subtracted from c[rows[i] + cols[j] * ldc], for the
/// rows i >= first[j] only (every row when `first` is null).  `rows` and
/// `cols` strictly increase and `first` does not decrease, which is what
/// an update edge's row map and its blocks' trapezoids give.
template <typename T>
struct MappedTarget {
  T* c = nullptr;
  index_t ldc = 0;
  const index_t* rows = nullptr;
  const index_t* cols = nullptr;
  const index_t* first = nullptr;
};

/// Function-pointer table one ISA variant fills for one scalar type.
/// Null entries mean "not compiled into this build" (e.g. the AVX TUs on
/// aarch64, or a toolchain without -mavx512f).
template <typename T>
struct GemmFuncs {
  using Fn = void (*)(index_t m, index_t n, index_t k, T alpha, const T* a,
                      index_t lda, const T* b, index_t ldb, T beta, T* c,
                      index_t ldc);
  /// dst -= A(m x k) * B(n x k)^T through dst's maps.
  using MappedFn = void (*)(index_t m, index_t n, index_t k, const T* a,
                            index_t lda, const T* b, index_t ldb,
                            const MappedTarget<T>& dst);
  Fn nt = nullptr;
  Fn nn = nullptr;
  MappedFn mapped = nullptr;
  bool available() const {
    return nt != nullptr && nn != nullptr && mapped != nullptr;
  }
};

class Dispatch {
 public:
  /// The process-wide dispatcher; probes the CPU on first use.
  static Dispatch& instance();

  /// Best tier the host CPU supports (ignores build/env/force state).
  Isa detected() const { return detected_; }
  /// Tier the next dispatched GEMM will run (env/force applied).
  Isa active() const { return active_.load(std::memory_order_relaxed); }
  /// Tiers that are both compiled into this build and runnable on this
  /// host, in increasing preference order (Generic is always first).
  const std::vector<Isa>& supported() const { return supported_; }

  /// Forces a specific tier (tests; see ScopedIsaOverride).  Returns
  /// false -- leaving the selection unchanged -- when `isa` is not in
  /// supported().
  bool force(Isa isa);
  /// Reverts force() to the env/auto selection.
  void reset();

  /// True when this build delegates large GEMMs to an external CBLAS and
  /// the runtime crossover has not disabled it.
  bool blas_active() const;
  /// True when the build compiled the CBLAS backend at all.
  bool blas_compiled() const;
  /// Crossover dimension d: calls with m*n*k >= d^3 delegate to BLAS.
  index_t blas_crossover() const { return blas_crossover_; }

  /// One-line human-readable decision summary, e.g.
  /// "isa=avx2 (detected avx512, SPX_KERNEL_ISA=avx2), blas=off".
  std::string describe() const;

  /// Dispatched GEMM entry point used by kernels::gemm_nt / gemm_nn for
  /// real_t and real32_t.
  template <typename T>
  void gemm(GemmShape shape, index_t m, index_t n, index_t k, T alpha,
            const T* a, index_t lda, const T* b, index_t ldb, T beta, T* c,
            index_t ldc) const;

  /// Variant table lookup (exposed for the conformance sweep, which runs
  /// every supported tier against the *_ref oracle).
  template <typename T>
  const GemmFuncs<T>& variant(Isa isa) const;

  Dispatch(const Dispatch&) = delete;
  Dispatch& operator=(const Dispatch&) = delete;

 private:
  Dispatch();

  template <typename T>
  GemmFuncs<T>* table();

  Isa detected_ = Isa::Generic;
  Isa auto_choice_ = Isa::Generic;  ///< env-resolved default selection
  std::atomic<Isa> active_{Isa::Generic};
  std::vector<Isa> supported_;
  GemmFuncs<real_t> table_d_[4];
  GemmFuncs<real32_t> table_s_[4];
  bool env_override_ = false;
  std::string env_value_;
  index_t blas_crossover_ = 0;
};

/// RAII ISA override for tests: forces a tier for the enclosing scope and
/// restores the env/auto selection on destruction.  `ok()` is false when
/// the host or build cannot run the requested tier (callers skip then).
class ScopedIsaOverride {
 public:
  explicit ScopedIsaOverride(Isa isa) : ok_(Dispatch::instance().force(isa)) {}
  ~ScopedIsaOverride() { Dispatch::instance().reset(); }
  bool ok() const { return ok_; }
  ScopedIsaOverride(const ScopedIsaOverride&) = delete;
  ScopedIsaOverride& operator=(const ScopedIsaOverride&) = delete;

 private:
  bool ok_;
};

}  // namespace spx::kernels
