// Numerical quality accounting of one factorization under static-pivot
// perturbation (PaStiX-style, paper §III): the task DAG is fixed at
// analysis time, so a troublesome pivot cannot be repaired by
// re-pivoting.  Instead a pivot with |d| < eps * ||A|| is replaced by
// +/- eps * ||A|| (sign preserving) and the damage is accounted for
// here, to be repaired by iterative refinement at solve time.
//
// Kernels fill a thread-local FactorQuality per panel; FactorData merges
// them under a mutex; the Solver copies the merged record into
// RunStats::quality where it reaches the JSON stats surface.
#pragma once

#include <limits>
#include <vector>

#include "common/types.hpp"
#include "obs/export.hpp"

namespace spx {

struct FactorQuality : obs::Exportable {
  /// Columns whose perturbed location is recorded verbatim; beyond this
  /// only the count grows (keeps the record O(1) for mass breakdowns).
  static constexpr std::size_t kMaxRecordedColumns = 64;

  index_t perturbed_pivots = 0;    ///< pivots replaced by +/- threshold
  std::vector<index_t> perturbed_columns;  ///< global columns, capped
  double min_pivot = std::numeric_limits<double>::infinity();
  double max_pivot = 0.0;          ///< |pivot| extrema after perturbation
  double anorm = 0.0;              ///< max |A_ij| estimate the threshold used
  double threshold = 0.0;          ///< absolute perturbation value eps*||A||
  bool indefinite = false;         ///< LL^T met a pivot < -threshold

  /// True when any pivot was perturbed: the factors are those of A + E
  /// with ||E|| <= threshold * perturbed_pivots, and solves should refine.
  bool degraded() const { return perturbed_pivots > 0; }

  /// Pivot growth |d|_max / ||A||: how far the factorization wandered
  /// from the input's scale (large growth costs refinement accuracy).
  double pivot_growth() const { return anorm > 0 ? max_pivot / anorm : 0.0; }

  /// Records one accepted pivot of magnitude `mag` at global column
  /// `col`; `perturbed` marks it as replaced by the threshold.
  void note_pivot(double mag, index_t col, bool perturbed) {
    if (mag < min_pivot) min_pivot = mag;
    if (mag > max_pivot) max_pivot = mag;
    if (perturbed) {
      ++perturbed_pivots;
      if (perturbed_columns.size() < kMaxRecordedColumns) {
        perturbed_columns.push_back(col);
      }
    }
  }

  /// Merges another panel's record into this one (order-insensitive up
  /// to the recorded-column cap).
  void merge(const FactorQuality& o) {
    perturbed_pivots += o.perturbed_pivots;
    for (const index_t c : o.perturbed_columns) {
      if (perturbed_columns.size() >= kMaxRecordedColumns) break;
      perturbed_columns.push_back(c);
    }
    if (o.min_pivot < min_pivot) min_pivot = o.min_pivot;
    if (o.max_pivot > max_pivot) max_pivot = o.max_pivot;
    indefinite = indefinite || o.indefinite;
  }

  /// JSON schema: the degraded flag, perturbation count/locations, pivot
  /// growth and the norm/threshold pair (stable keys; see the JsonSchema
  /// golden-key test).
  void export_json(obs::JsonWriter& w) const override;
};

}  // namespace spx
