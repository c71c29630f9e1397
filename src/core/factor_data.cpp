#include "core/factor_data.hpp"

namespace spx {

AssemblyMap build_assembly_map(const SymbolicStructure& st,
                               const Ordering& perm,
                               std::span<const size_type> colptr,
                               std::span<const index_t> rowind) {
  const index_t n = st.num_cols();
  SPX_CHECK_ARG(perm.size() == n &&
                    colptr.size() == static_cast<std::size_t>(n) + 1 &&
                    colptr.back() == static_cast<size_type>(rowind.size()),
                "matrix/structure size mismatch");
  AssemblyMap map(rowind.size());
  for (index_t jold = 0; jold < n; ++jold) {
    const index_t j = perm.old_to_new[jold];
    const index_t p = st.panel_of_col[j];
    const Panel& panel = st.panels[p];
    const size_type lcol =
        panel.storage_offset +
        static_cast<size_type>(j - panel.col_begin) * panel.nrows;
    for (size_type k = colptr[jold]; k < colptr[jold + 1]; ++k) {
      const index_t r = perm.old_to_new[rowind[k]];
      const auto slot = static_cast<std::size_t>(k);
      if (r >= j) {
        map[slot] = lcol + panel_row_position(panel, r);
        continue;
      }
      // Upper entry A(r, j), r < j: the same three cases as initialize().
      const index_t pr = st.panel_of_col[r];
      if (pr == p) {
        map[slot] = lcol + (r - panel.col_begin);
      } else {
        const Panel& prow = st.panels[pr];
        map[slot] = ~(prow.storage_offset +
                      static_cast<size_type>(r - prow.col_begin) *
                          prow.nrows +
                      panel_row_position(prow, j));
      }
    }
  }
  return map;
}

template <typename T>
void FactorData<T>::initialize(const CscMatrix<T>& a_perm) {
  SPX_CHECK_ARG(a_perm.nrows() == st_->num_cols() &&
                    a_perm.ncols() == st_->num_cols(),
                "matrix/structure size mismatch");
  const index_t n = st_->num_cols();
  for (index_t j = 0; j < n; ++j) {
    const index_t p = st_->panel_of_col[j];
    const Panel& panel = st_->panels[p];
    const index_t ld = panel.nrows;
    T* lcol = panel_l(p) +
              static_cast<std::size_t>(j - panel.col_begin) * ld;
    const auto rows = a_perm.col_rows(j);
    const auto vals = a_perm.col_values(j);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const index_t r = rows[k];
      if (r >= j) {
        // Lower triangle (and diagonal): row r of column j.
        lcol[row_position(p, r)] = vals[k];
      } else {
        // Upper entry A(r, j), r < j.
        const index_t pr = st_->panel_of_col[r];
        const Panel& prow = st_->panels[pr];
        if (pr == p) {
          // Inside the diagonal block: keep it in L storage (it becomes
          // U11 for LU; ignored by the symmetric kernels).
          lcol[r - panel.col_begin] = vals[k];
        } else if (kind_ == Factorization::LU) {
          // U^T panel of the row's supernode: U(r, j) stored at
          // (row_position(pr, j), r - col_begin).
          T* ucol = panel_u(pr) + static_cast<std::size_t>(r - prow.col_begin) *
                                      prow.nrows;
          ucol[row_position(pr, j)] = vals[k];
        }
        // Symmetric kinds ignore strict-upper entries outside the diagonal
        // block (the caller guarantees a symmetric matrix).
      }
    }
  }
}

template class FactorData<real_t>;
template class FactorData<complex_t>;
template class FactorData<real32_t>;

}  // namespace spx
