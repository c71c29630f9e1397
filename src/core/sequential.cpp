#include "core/sequential.hpp"

#include <utility>
#include <vector>

namespace spx {

template <typename T>
void factorize_sequential(FactorData<T>& f, UpdateVariant variant,
                          bool per_update_scale) {
  const SymbolicStructure& st = f.structure();
  Workspace<T> ws;
  Workspace<T> prescale_ws;
  for (index_t p = 0; p < st.num_panels(); ++p) {
    factor_panel(f, p);
    const T* prescaled = nullptr;
    if (f.kind() == Factorization::LDLT && !per_update_scale &&
        !st.targets[p].empty()) {
      prescale_ldlt(f, p, prescale_ws);
      prescaled = prescale_ws.scaled.data();
    }
    for (const UpdateEdge& e : st.targets[p]) {
      apply_update(f, p, e, variant, ws, prescaled);
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
                                           UpdateVariant, bool);
template void factorize_sequential<complex_t>(FactorData<complex_t>&,
                                              UpdateVariant, bool);
template void factorize_sequential_left<real_t>(FactorData<real_t>&,
                                                UpdateVariant);
template void factorize_sequential_left<complex_t>(FactorData<complex_t>&,
                                                   UpdateVariant);
template void factorize_sequential<real32_t>(FactorData<real32_t>&,
                                             UpdateVariant, bool);
template void factorize_sequential_left<real32_t>(FactorData<real32_t>&,
                                                  UpdateVariant);

}  // namespace spx
