#include "common/factor_quality.hpp"

namespace spx {

void FactorQuality::export_json(obs::JsonWriter& w) const {
  w.field("degraded", degraded())
      .field("perturbed_pivots", perturbed_pivots)
      .number_array("perturbed_columns", perturbed_columns)
      .field("pivot_growth", pivot_growth())
      .field("anorm", anorm)
      .field("threshold", threshold)
      .field("indefinite", indefinite);
}

}  // namespace spx
