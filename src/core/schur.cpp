#include "core/schur.hpp"

#include <algorithm>

#include "core/sequential.hpp"
#include "core/solve.hpp"
#include "mat/triplets.hpp"

namespace spx {

template <typename T>
void SchurComplement<T>::compute(const CscMatrix<T>& a,
                                 std::span<const index_t> interface_ids,
                                 Factorization kind) {
  SPX_CHECK_ARG(a.nrows() == a.ncols(), "square matrix required");
  n_ = a.ncols();
  k_ = static_cast<index_t>(interface_ids.size());
  kind_ = kind;
  SPX_CHECK_ARG(k_ > 0 && k_ < n_, "interface set must be a proper subset");
  SPX_CHECK_ARG(k_ <= 8192, "interface set too large (dense k x k Schur)");
  std::vector<char> is_iface(static_cast<std::size_t>(n_), 0);
  for (const index_t i : interface_ids) {
    SPX_CHECK_ARG(i >= 0 && i < n_ && !is_iface[i],
                  "interface ids must be unique and in range");
    is_iface[i] = 1;
  }

  // Augment the pattern with a clique on the interface so the elimination
  // tree's top chain is exactly the interface block.
  Triplets<T> aug(n_, n_);
  for (index_t j = 0; j < n_; ++j) {
    const auto rows = a.col_rows(j);
    for (const index_t r : rows) aug.add(r, j, T(1));
    aug.add(j, j, T(1));
  }
  for (index_t x = 0; x < k_; ++x) {
    for (index_t y = x + 1; y < k_; ++y) {
      aug.add_sym(interface_ids[x], interface_ids[y], T(1));
    }
  }
  const Graph g = Graph::from_pattern(aug.to_csc());

  // Order the interior with nested dissection; pin the interface last.
  std::vector<index_t> interior;
  interior.reserve(static_cast<std::size_t>(n_ - k_));
  for (index_t i = 0; i < n_; ++i) {
    if (!is_iface[i]) interior.push_back(i);
  }
  std::vector<index_t> scratch;
  const Graph gi = g.induced_subgraph(interior, scratch);
  const Ordering nd = nested_dissection(gi, options_.nd);
  std::vector<index_t> new_to_old;
  new_to_old.reserve(static_cast<std::size_t>(n_));
  for (index_t i = 0; i < n_ - k_; ++i) {
    new_to_old.push_back(interior[nd.new_to_old[i]]);
  }
  new_to_old.insert(new_to_old.end(), interface_ids.begin(),
                    interface_ids.end());

  analysis_ = analyze_ordered(
      g, Ordering::from_new_to_old(std::move(new_to_old)), options_, k_);
  // The pipeline must have kept the interface as the trailing block, in
  // the caller's order.
  for (index_t j = 0; j < k_; ++j) {
    SPX_ASSERT(analysis_->perm.old_to_new[interface_ids[j]] ==
               n_ - k_ + j);
  }
  first_schur_panel_ = analysis_->structure.panel_of_col[n_ - k_];
  SPX_ASSERT(
      analysis_->structure.panels[first_schur_panel_].col_begin == n_ - k_);

  // Partial factorization: factor interior panels, apply every update
  // (including those landing in the Schur block), never factor the block.
  const SymbolicStructure& st = analysis_->structure;
  factors_ = std::make_unique<FactorData<T>>(st, kind);
  factors_->assemble(
      build_assembly_map(st, analysis_->perm, a.colptr(), a.rowind()),
      a.values());
  factorize_sequential(*factors_, UpdateVariant::TempBuffer,
                       first_schur_panel_);
}

template <typename T>
std::vector<T> SchurComplement<T>::schur_matrix() const {
  SPX_CHECK_ARG(factors_ != nullptr, "compute() has not run");
  const SymbolicStructure& st = analysis_->structure;
  std::vector<T> s(static_cast<std::size_t>(k_) * k_, T(0));
  const index_t base = n_ - k_;
  const bool lu = kind_ == Factorization::LU;
  for (index_t p = first_schur_panel_; p < st.num_panels(); ++p) {
    const Panel& panel = st.panels[p];
    const index_t ld = panel.nrows;
    const T* l = factors_->panel_l(p);
    const T* u = lu ? factors_->panel_u(p) : nullptr;
    for (index_t j = 0; j < panel.width(); ++j) {
      const index_t col = panel.col_begin + j - base;
      for (const Block& blk : panel.blocks) {
        for (index_t r = 0; r < blk.height(); ++r) {
          const index_t row = blk.row_begin + r - base;
          const T lv = l[blk.offset + r + static_cast<std::size_t>(j) * ld];
          if (row >= col) {
            s[row + static_cast<std::size_t>(col) * k_] = lv;
            if (!lu && row != col) {
              // Symmetric kinds: mirror the lower triangle.
              s[col + static_cast<std::size_t>(row) * k_] = lv;
            }
          } else if (lu && blk.facing_panel == p) {
            // Upper triangle of the diagonal block (stored in L for LU).
            s[row + static_cast<std::size_t>(col) * k_] = lv;
          }
          if (lu && u != nullptr && row > col) {
            // U' panel holds S(col_of_this_panel, later row) = upper part.
            const T uv =
                u[blk.offset + r + static_cast<std::size_t>(j) * ld];
            if (blk.facing_panel != p) {
              s[col + static_cast<std::size_t>(row) * k_] = uv;
            }
          }
        }
      }
    }
  }
  return s;
}

template <typename T>
void SchurComplement<T>::forward_interior(std::span<T> px) const {
  solve_forward(*factors_, px, first_schur_panel_);
}

template <typename T>
std::vector<T> SchurComplement<T>::condense_rhs(std::span<const T> b) const {
  SPX_CHECK_ARG(factors_ != nullptr, "compute() has not run");
  SPX_CHECK_ARG(static_cast<index_t>(b.size()) == n_, "rhs size mismatch");
  std::vector<T> px(static_cast<std::size_t>(n_));
  permute_vector<T>(analysis_->perm, b, px);
  forward_interior(px);
  return std::vector<T>(px.begin() + (n_ - k_), px.end());
}

template <typename T>
std::vector<T> SchurComplement<T>::expand_solution(
    std::span<const T> b, std::span<const T> x2) const {
  SPX_CHECK_ARG(factors_ != nullptr, "compute() has not run");
  SPX_CHECK_ARG(static_cast<index_t>(b.size()) == n_ &&
                    static_cast<index_t>(x2.size()) == k_,
                "size mismatch");
  std::vector<T> px(static_cast<std::size_t>(n_));
  permute_vector<T>(analysis_->perm, b, px);
  forward_interior(px);
  std::copy(x2.begin(), x2.end(), px.begin() + (n_ - k_));
  if (kind_ == Factorization::LDLT) {
    solve_diagonal(*factors_, std::span<T>(px), first_schur_panel_);
  }
  solve_backward(*factors_, std::span<T>(px), first_schur_panel_);
  std::vector<T> x(static_cast<std::size_t>(n_));
  unpermute_vector<T>(analysis_->perm, px, x);
  return x;
}

template class SchurComplement<real_t>;
template class SchurComplement<complex_t>;

}  // namespace spx
