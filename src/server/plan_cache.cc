#include "server/plan_cache.h"

#include <algorithm>
#include <functional>
#include <iterator>

#include "common/hash.h"
#include "query/normalize_text.h"
#include "query/parser.h"

namespace ptp {

uint64_t EstimatePeakBytes(const NormalizedQuery& query,
                           const StrategyAdvice& advice) {
  // Same row-width convention as the meter's charge sites: tuples * arity *
  // sizeof(Value).
  uint64_t input_bytes = 0;
  size_t max_arity = 1;
  for (const NormalizedAtom& atom : query.atoms) {
    input_bytes += static_cast<uint64_t>(atom.relation.NumTuples()) *
                   atom.relation.arity() * sizeof(Value);
    max_arity = std::max(max_arity, atom.variables.size());
  }
  const size_t out_arity = std::max(max_arity, query.Variables().size());
  double family = advice.est_rs_tuples;
  switch (advice.shuffle) {
    case ShuffleKind::kRegular:
      family = advice.est_rs_tuples;
      break;
    case ShuffleKind::kBroadcast:
      family = advice.est_br_tuples;
      break;
    case ShuffleKind::kHypercube:
      family = advice.est_hc_tuples;
      break;
  }
  const double working = std::max(0.0, family) +
                         std::max(0.0, advice.est_max_intermediate);
  return input_bytes +
         static_cast<uint64_t>(working * static_cast<double>(out_arity) *
                               sizeof(Value));
}

size_t PlanCache::IndexKeyHash::operator()(const IndexKey& k) const {
  uint64_t h = std::hash<std::string_view>()(k.key);
  h = HashCombine(h, static_cast<uint64_t>(k.workers));
  return static_cast<size_t>(
      HashCombine(h, reinterpret_cast<uintptr_t>(k.catalog)));
}

void PlanCache::TouchLocked(LruList::iterator it) {
  lru_.splice(lru_.end(), lru_, it);
}

Result<PlanCache::Entry> PlanCache::Prepare(std::string_view text,
                                            int workers, Catalog* catalog,
                                            const FeedbackStore* feedback,
                                            bool* was_hit) {
  if (was_hit != nullptr) *was_hit = false;
  if (catalog == nullptr) {
    return Status::InvalidArgument("plan cache needs a catalog");
  }
  const std::string key = NormalizeQueryText(text);
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = index_.find(IndexKey{key, workers, catalog});
      it != index_.end()) {
    ++stats_.hits;
    if (was_hit != nullptr) *was_hit = true;
    TouchLocked(it->second);
    return *it->second;
  }
  ++stats_.misses;

  Entry e;
  e.key = key;
  e.workers = workers;
  e.catalog = catalog;
  PTP_ASSIGN_OR_RETURN(e.query,
                       ParseDatalog(text, &catalog->dictionary()));
  PTP_RETURN_IF_ERROR(e.query.Validate(*catalog));
  PTP_ASSIGN_OR_RETURN(NormalizedQuery normalized,
                       Normalize(e.query, *catalog));
  e.normalized =
      std::make_shared<const NormalizedQuery>(std::move(normalized));
  const QueryFeedback* qf =
      feedback != nullptr ? feedback->Find(key, workers) : nullptr;
  e.blind = ComputeBlindEstimates(*e.normalized, workers);
  e.advice = AdviseFromEstimates(e.blind, qf);
  e.est_peak_bytes = EstimatePeakBytes(*e.normalized, e.advice);
  ++stats_.parses;
  if (lru_.size() >= max_entries_) {
    // Front is least recently used. The evicted query costs one re-parse
    // (and re-advise) when it comes back — never wrong results.
    const Entry& victim = lru_.front();
    index_.erase(IndexKey{victim.key, victim.workers, victim.catalog});
    lru_.pop_front();
    ++stats_.evictions;
  }
  lru_.push_back(e);
  const Entry& inserted = lru_.back();
  index_.emplace(IndexKey{inserted.key, workers, catalog},
                 std::prev(lru_.end()));
  return e;
}

void PlanCache::Refresh(std::string_view key, int workers,
                        const Catalog* catalog,
                        const QueryFeedback& feedback,
                        uint64_t measured_peak_bytes,
                        double measured_exec_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(IndexKey{key, workers, catalog});
  if (it == index_.end()) return;
  Entry& e = *it->second;
  e.advice = AdviseFromEstimates(e.blind, &feedback);
  if (measured_peak_bytes > 0) {
    e.est_peak_bytes = measured_peak_bytes;
    e.measured = true;
  }
  if (measured_exec_seconds > 0) {
    e.est_exec_seconds = measured_exec_seconds;
  }
  ++e.executions;
  ++stats_.refreshes;
  TouchLocked(it->second);
}

bool PlanCache::Lookup(std::string_view key, int workers,
                       const Catalog* catalog, Entry* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(IndexKey{key, workers, catalog});
  if (it == index_.end()) return false;
  if (out != nullptr) *out = *it->second;
  return true;
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace ptp
