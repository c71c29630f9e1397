#include "core/sequential.hpp"

#include <utility>
#include <vector>

namespace spx {

template <typename T>
void factorize_sequential(FactorData<T>& f, UpdateVariant variant,
                          index_t panel_limit) {
  const SymbolicStructure& st = f.structure();
  const index_t end = panel_limit < 0 ? st.num_panels() : panel_limit;
  Workspace<T> ws;
  for (index_t p = 0; p < end; ++p) {
    factor_panel(f, p);
    for (const UpdateEdge& e : st.targets[p]) {
      apply_update(f, p, e, variant, ws);
    }
  }
}

template <typename T>
void factorize_sequential_left(FactorData<T>& f, UpdateVariant variant) {
  const SymbolicStructure& st = f.structure();
  // Reverse adjacency: incoming update edges per panel, in ascending
  // source order (matching the right-looking application order exactly,
  // so both traversals produce bit-identical factors).
  std::vector<std::vector<std::pair<index_t, index_t>>> incoming(
      static_cast<std::size_t>(st.num_panels()));
  for (index_t q = 0; q < st.num_panels(); ++q) {
    for (index_t e = 0; e < static_cast<index_t>(st.targets[q].size());
         ++e) {
      incoming[st.targets[q][e].dst].emplace_back(q, e);
    }
  }
  Workspace<T> ws;
  for (index_t p = 0; p < st.num_panels(); ++p) {
    for (const auto& [q, e] : incoming[p]) {
      apply_update(f, q, st.targets[q][e], variant, ws);
    }
    factor_panel(f, p);
  }
}

template void factorize_sequential<real_t>(FactorData<real_t>&,
                                           UpdateVariant, index_t);
template void factorize_sequential<complex_t>(FactorData<complex_t>&,
                                              UpdateVariant, index_t);
template void factorize_sequential_left<real_t>(FactorData<real_t>&,
                                                UpdateVariant);
template void factorize_sequential_left<complex_t>(FactorData<complex_t>&,
                                                   UpdateVariant);
template void factorize_sequential<real32_t>(FactorData<real32_t>&,
                                             UpdateVariant, index_t);
template void factorize_sequential_left<real32_t>(FactorData<real32_t>&,
                                                  UpdateVariant);

}  // namespace spx
