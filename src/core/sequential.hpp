// Sequential reference factorization: the plain right-looking supernodal
// loop with no runtime at all.  Serves as the correctness oracle for the
// three task-based schedulers and as the single-resource baseline.
#pragma once

#include "core/codelets.hpp"

namespace spx {

/// Factorizes in place, panel by panel (right-looking, PASTIX's choice:
/// each factored panel immediately scatters its updates).  `panel_limit`
/// restricts the loop to
/// panels [0, panel_limit) (-1 = all): their updates still land on every
/// later panel, which is the partial factorization a Schur complement
/// needs.
template <typename T>
void factorize_sequential(FactorData<T>& f, index_t panel_limit = -1);

/// Left-looking variant (paper §III: "all tasks contributing to a single
/// panel are associated in a single task, they have a lot of input edges
/// and only one in-out data"): each panel first gathers every incoming
/// update, then factors.  Identical arithmetic and results to the
/// right-looking loop; only the traversal differs.
template <typename T>
void factorize_sequential_left(FactorData<T>& f);

extern template void factorize_sequential<real_t>(FactorData<real_t>&,
                                                  index_t);
extern template void factorize_sequential<complex_t>(FactorData<complex_t>&,
                                                     index_t);
extern template void factorize_sequential_left<real_t>(FactorData<real_t>&);
extern template void factorize_sequential_left<complex_t>(
    FactorData<complex_t>&);

}  // namespace spx
