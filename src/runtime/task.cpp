#include "runtime/task.hpp"

#include <algorithm>

namespace spx {

const char* to_string(TaskKind k) {
  switch (k) {
    case TaskKind::Panel:
      return "panel";
    case TaskKind::Update:
      return "update";
    case TaskKind::Subtree:
      return "subtree";
  }
  return "?";
}

TaskTable::TaskTable(const SymbolicStructure& st, Factorization kind)
    : st_(&st), kind_(kind), np_(st.num_panels()) {
  update_base_.resize(static_cast<std::size_t>(np_) + 1);
  index_t acc = 0;
  for (index_t p = 0; p < np_; ++p) {
    update_base_[p] = acc;
    acc += static_cast<index_t>(st.targets[p].size());
  }
  update_base_[np_] = acc;
  ntasks_ = np_ + acc;
  flops_.resize(static_cast<std::size_t>(ntasks_));
  for (index_t p = 0; p < np_; ++p) {
    flops_[p] = st.panel_task_flops(p, kind);
    for (index_t e = 0; e < static_cast<index_t>(st.targets[p].size());
         ++e) {
      flops_[np_ + update_base_[p] + e] =
          st.update_task_flops(p, st.targets[p][e], kind);
    }
  }
}

std::vector<double> TaskTable::bottom_levels(const TaskCosts& costs) const {
  // DAG edges: panel(p) -> update(p, e) -> panel(target).  Panels are
  // topologically ordered by id, so one reverse sweep suffices.
  std::vector<double> level(static_cast<std::size_t>(ntasks_), 0.0);
  const SymbolicStructure& st = *st_;
  for (index_t p = np_ - 1; p >= 0; --p) {
    // Updates of p finish before their target panel's task.
    double panel_succ = 0.0;
    for (index_t e = 0; e < static_cast<index_t>(st.targets[p].size());
         ++e) {
      const index_t uid = np_ + update_base_[p] + e;
      const double dur = costs.update_seconds(p, e, ResourceKind::Cpu);
      level[uid] = dur + level[st.targets[p][e].dst];
      panel_succ = std::max(panel_succ, level[uid]);
    }
    level[p] = costs.panel_seconds(p, ResourceKind::Cpu) + panel_succ;
  }
  return level;
}

}  // namespace spx
