// Numerical storage of the factors, organized by panel.
//
// A panel is stored as a dense column-major (nrows x width) matrix: the
// diagonal block (full square; LU keeps U11 in its upper triangle) on top
// of the stacked off-diagonal blocks.  For LU a second array of identical
// shape holds U^T (so the U-side update has the exact same kernel shape as
// the L side).  LDL^T keeps D in a separate vector.
#pragma once

#include <algorithm>
#include <mutex>
#include <new>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/factor_quality.hpp"
#include "graph/ordering.hpp"
#include "mat/csc.hpp"
#include "symbolic/structure.hpp"

namespace spx {

/// Where every stored entry of an *unpermuted* input matrix lands in the
/// factor storage, in the input's storage order.  A slot s >= 0 is an index
/// into the L array; a negative slot encodes ~s, an index into the U^T
/// array of the panel owning the entry's row (an upper entry outside the
/// diagonal block; only LU stores it, the symmetric kinds skip it).  The
/// map depends on the pattern and the analysis only, so it is built once
/// per analysis and reused by every numeric factorization of that pattern.
using AssemblyMap = std::vector<size_type>;

/// Storage row of global row `r` inside `panel`; r must be in the panel's
/// structure.  Binary search over blocks.
inline index_t panel_row_position(const Panel& panel, index_t r) {
  const auto& blocks = panel.blocks;
  std::size_t lo = 0, hi = blocks.size();
  while (lo + 1 < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (blocks[mid].row_begin <= r) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  SPX_DEBUG_ASSERT(blocks[lo].row_begin <= r && r < blocks[lo].row_end);
  return blocks[lo].offset + (r - blocks[lo].row_begin);
}

/// Builds the assembly map of the pattern (colptr, rowind) under `perm`
/// against the panel layout `st`: the same placement initialize() applies
/// to the permuted matrix, computed without permuting it.
AssemblyMap build_assembly_map(const SymbolicStructure& st,
                               const Ordering& perm,
                               std::span<const size_type> colptr,
                               std::span<const index_t> rowind);

/// Hook consulted before large factor allocations; lets tests and the
/// fault-injection harness simulate memory exhaustion deterministically.
class AllocationHook {
 public:
  virtual ~AllocationHook() = default;
  /// Return true to make the allocation of `bytes` fail (std::bad_alloc).
  virtual bool fail_alloc(std::size_t bytes) = 0;
};

template <typename T>
class FactorData {
 public:
  FactorData() = default;
  FactorData(const SymbolicStructure& st, Factorization kind,
             AllocationHook* alloc_hook = nullptr)
      : st_(&st), kind_(kind) {
    std::size_t bytes =
        static_cast<std::size_t>(st.factor_entries) * sizeof(T);
    if (kind == Factorization::LU) bytes *= 2;
    if (alloc_hook != nullptr && alloc_hook->fail_alloc(bytes)) {
      throw std::bad_alloc();
    }
    lval_.assign(static_cast<std::size_t>(st.factor_entries), T(0));
    if (kind == Factorization::LU) {
      uval_.assign(static_cast<std::size_t>(st.factor_entries), T(0));
    }
    if (kind == Factorization::LDLT) {
      dval_.assign(static_cast<std::size_t>(st.num_cols()), T(0));
    }
  }

  // The quality mutex is not movable; moves are only performed while no
  // factorization is running, so a fresh mutex on the destination is fine.
  FactorData(FactorData&& o) noexcept
      : st_(o.st_),
        kind_(o.kind_),
        lval_(std::move(o.lval_)),
        uval_(std::move(o.uval_)),
        dval_(std::move(o.dval_)),
        pivot_threshold_(o.pivot_threshold_),
        quality_(std::move(o.quality_)) {}
  FactorData& operator=(FactorData&& o) noexcept {
    st_ = o.st_;
    kind_ = o.kind_;
    lval_ = std::move(o.lval_);
    uval_ = std::move(o.uval_);
    dval_ = std::move(o.dval_);
    pivot_threshold_ = o.pivot_threshold_;
    quality_ = std::move(o.quality_);
    return *this;
  }

  const SymbolicStructure& structure() const { return *st_; }
  Factorization kind() const { return kind_; }

  T* panel_l(index_t p) {
    return lval_.data() + st_->panels[p].storage_offset;
  }
  const T* panel_l(index_t p) const {
    return lval_.data() + st_->panels[p].storage_offset;
  }
  T* panel_u(index_t p) {
    SPX_DEBUG_ASSERT(kind_ == Factorization::LU);
    return uval_.data() + st_->panels[p].storage_offset;
  }
  const T* panel_u(index_t p) const {
    return uval_.data() + st_->panels[p].storage_offset;
  }
  /// LDL^T diagonal for the columns of panel p.
  T* panel_d(index_t p) { return dval_.data() + st_->panels[p].col_begin; }
  const T* panel_d(index_t p) const {
    return dval_.data() + st_->panels[p].col_begin;
  }

  std::size_t bytes() const {
    return (lval_.size() + uval_.size() + dval_.size()) * sizeof(T);
  }

  /// Raw value arrays, exposed read-only for the persistence layer's
  /// snapshot writer (persist/snapshot.cpp); empty when the kind does not
  /// use that array.
  std::span<const T> lvalues() const { return lval_; }
  std::span<const T> uvalues() const { return uval_; }
  std::span<const T> dvalues() const { return dval_; }

  /// Overwrites the value arrays with persisted bytes (the warm-restore
  /// path); sizes must match what the structure allocated.
  void restore_values(std::span<const T> l, std::span<const T> u,
                      std::span<const T> d) {
    SPX_CHECK_ARG(l.size() == lval_.size() && u.size() == uval_.size() &&
                      d.size() == dval_.size(),
                  "restored factor arrays do not match the structure");
    std::copy(l.begin(), l.end(), lval_.begin());
    std::copy(u.begin(), u.end(), uval_.begin());
    std::copy(d.begin(), d.end(), dval_.begin());
  }

  /// Reinstates a persisted quality record verbatim (warm-restore path;
  /// the live path accumulates via merge_quality instead).
  void set_quality(const FactorQuality& q) {
    std::lock_guard<std::mutex> lock(quality_mutex_);
    quality_ = q;
  }

  /// Arms static-pivot perturbation for the next factorization:
  /// `abs_threshold` is the already-scaled absolute floor (eps * ||A||),
  /// 0 keeps the legacy throw-on-bad-pivot behaviour.
  void set_pivot_policy(double abs_threshold, double anorm) {
    pivot_threshold_ = abs_threshold;
    std::lock_guard<std::mutex> lock(quality_mutex_);
    quality_ = FactorQuality{};
    quality_.threshold = abs_threshold;
    quality_.anorm = anorm;
  }
  double pivot_threshold() const { return pivot_threshold_; }

  /// Folds one panel's pivot accounting into the factor-wide record
  /// (called concurrently by factor_panel tasks).
  void merge_quality(const FactorQuality& panel) {
    std::lock_guard<std::mutex> lock(quality_mutex_);
    quality_.merge(panel);
  }
  FactorQuality quality() const {
    std::lock_guard<std::mutex> lock(quality_mutex_);
    return quality_;
  }

  /// Fills the panels from the *permuted* matrix: the lower triangle goes
  /// to L; for LU the upper triangle goes to U^T panels and the diagonal
  /// block keeps its upper part in L (it becomes U11 after getrf).  The
  /// solvers assemble() through an AssemblyMap instead; this direct form
  /// is the reference the map is tested against.
  void initialize(const CscMatrix<T>& a_perm);

  /// Scatters the values of an unpermuted input matrix into the panels
  /// through its assembly map, converting each to T (the fp32 path feeds
  /// double values).  Writes only the mapped slots, so the storage must be
  /// zero: freshly allocated, or reset().  Throws InvalidArgument unless
  /// `values` has exactly one value per map slot.
  template <typename S>
  void assemble(const AssemblyMap& map, std::span<const S> values) {
    SPX_CHECK_ARG(values.size() == map.size(),
                  "assemble(): value count differs from the assembly map");
    const bool lu = kind_ == Factorization::LU;
    for (std::size_t k = 0; k < map.size(); ++k) {
      const size_type s = map[k];
      if (s >= 0) {
        lval_[static_cast<std::size_t>(s)] = static_cast<T>(values[k]);
      } else if (lu) {
        uval_[static_cast<std::size_t>(~s)] = static_cast<T>(values[k]);
      }
    }
  }

  /// Zeroes all values (so a FactorData can be refilled and refactored).
  void reset() {
    std::fill(lval_.begin(), lval_.end(), T(0));
    std::fill(uval_.begin(), uval_.end(), T(0));
    std::fill(dval_.begin(), dval_.end(), T(0));
  }

  /// Storage row of global row `r` inside panel `p`; r must be in the
  /// panel's structure.  Binary search over blocks.
  index_t row_position(index_t p, index_t r) const {
    return panel_row_position(st_->panels[p], r);
  }

 private:
  const SymbolicStructure* st_ = nullptr;
  Factorization kind_ = Factorization::LLT;
  std::vector<T> lval_;
  std::vector<T> uval_;
  std::vector<T> dval_;
  double pivot_threshold_ = 0.0;
  mutable std::mutex quality_mutex_;
  FactorQuality quality_;
};

extern template class FactorData<real_t>;
extern template class FactorData<complex_t>;
extern template class FactorData<real32_t>;

}  // namespace spx
