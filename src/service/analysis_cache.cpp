#include "service/analysis_cache.hpp"

namespace spx::service {

AnalysisCache::AnalysisCache(std::size_t max_bytes,
                             obs::MetricsRegistry* registry)
    : max_bytes_(max_bytes) {
  obs::MetricsRegistry& reg = obs::registry_or_global(registry);
  m_hits_ = &reg.counter("spx_analysis_cache_hits_total",
                         "Analysis-cache hits (including coalesced waits)");
  m_misses_ = &reg.counter("spx_analysis_cache_misses_total",
                           "Analysis-cache misses (fresh computes)");
  m_evictions_ = &reg.counter("spx_analysis_cache_evictions_total",
                              "Entries evicted under the byte budget");
  m_coalesced_ = &reg.counter(
      "spx_analysis_cache_coalesced_total",
      "Hits that joined an in-flight compute instead of duplicating it");
  m_bytes_ = &reg.gauge("spx_analysis_cache_bytes",
                        "Resident byte estimate of cached analyses");
  m_entries_ =
      &reg.gauge("spx_analysis_cache_entries", "Resident cached analyses");
}

std::size_t AnalysisCache::analysis_bytes(const Analysis& an) {
  std::size_t b = sizeof(Analysis);
  b += an.perm.new_to_old.capacity() * sizeof(index_t);
  b += an.perm.old_to_new.capacity() * sizeof(index_t);
  const SymbolicStructure& st = an.structure;
  b += st.panel_of_col.capacity() * sizeof(index_t);
  b += st.in_degree.capacity() * sizeof(index_t);
  b += st.panels.capacity() * sizeof(Panel);
  for (const Panel& p : st.panels) b += p.blocks.capacity() * sizeof(Block);
  b += st.targets.capacity() * sizeof(std::vector<UpdateEdge>);
  for (const auto& t : st.targets) b += t.capacity() * sizeof(UpdateEdge);
  b += st.row_map_bytes();
  return b;
}

void AnalysisCache::evict_over_budget_locked() {
  // Evict from the cold end; the entry just inserted sits at the front
  // and is evicted last (an analysis larger than the whole budget passes
  // through without residency).
  while (stats_.bytes > max_bytes_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    stats_.bytes -= victim.bytes;
    ++stats_.evictions;
    SPX_OBS(m_evictions_->inc());
    map_.erase(victim.key);
    lru_.pop_back();
  }
  stats_.entries = lru_.size();
}

void AnalysisCache::update_gauges_locked() {
  SPX_OBS({
    m_bytes_->set(static_cast<double>(stats_.bytes));
    m_entries_->set(static_cast<double>(stats_.entries));
  });
}

std::shared_ptr<const Analysis> AnalysisCache::get_or_compute(
    const PatternKey& key, const std::function<Analysis()>& compute,
    CacheOutcome* outcome) {
  if (!enabled()) {
    if (outcome != nullptr) *outcome = CacheOutcome::Bypass;
    return std::make_shared<const Analysis>(compute());
  }

  std::shared_future<std::shared_ptr<const Analysis>> pending;
  std::promise<std::shared_ptr<const Analysis>> promise;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = map_.find(key); it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // touch
      ++stats_.hits;
      SPX_OBS(m_hits_->inc());
      if (outcome != nullptr) *outcome = CacheOutcome::Hit;
      return it->second->analysis;
    }
    if (auto it = inflight_.find(key); it != inflight_.end()) {
      // Someone is computing this key right now; wait for their result
      // instead of duplicating the symbolic work.
      pending = it->second;
      ++stats_.hits;
      SPX_OBS({
        m_hits_->inc();
        m_coalesced_->inc();
      });
      if (outcome != nullptr) *outcome = CacheOutcome::Hit;
    } else {
      inflight_.emplace(key, promise.get_future().share());
      ++stats_.misses;
      SPX_OBS(m_misses_->inc());
      if (outcome != nullptr) *outcome = CacheOutcome::Miss;
    }
  }
  if (pending.valid()) return pending.get();  // rethrows compute failures

  std::shared_ptr<const Analysis> analysis;
  try {
    analysis = std::make_shared<const Analysis>(compute());
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      inflight_.erase(key);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
  const std::size_t bytes = analysis_bytes(*analysis);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    lru_.push_front(Entry{key, analysis, bytes});
    map_[key] = lru_.begin();
    stats_.bytes += bytes;
    evict_over_budget_locked();
    update_gauges_locked();
    inflight_.erase(key);
  }
  promise.set_value(analysis);
  return analysis;
}

void AnalysisCache::insert(const PatternKey& key,
                           std::shared_ptr<const Analysis> analysis) {
  if (!enabled() || analysis == nullptr) return;
  const std::size_t bytes = analysis_bytes(*analysis);
  std::lock_guard<std::mutex> lock(mutex_);
  if (map_.find(key) != map_.end()) return;
  lru_.push_front(Entry{key, std::move(analysis), bytes});
  map_[key] = lru_.begin();
  stats_.bytes += bytes;
  evict_over_budget_locked();
  update_gauges_locked();
}

AnalysisCacheStats AnalysisCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void AnalysisCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  map_.clear();
  stats_.bytes = 0;
  stats_.entries = 0;
  update_gauges_locked();
}

}  // namespace spx::service
