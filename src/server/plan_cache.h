#ifndef PTP_SERVER_PLAN_CACHE_H_
#define PTP_SERVER_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "obs/feedback.h"
#include "plan/advisor.h"
#include "query/query.h"
#include "storage/catalog.h"

namespace ptp {

/// Prepared-plan cache of the serving layer: parse + normalize + advise
/// once per distinct (normalized query text, cluster size), execute many.
///
/// The key is (NormalizeQueryText(text), workers, catalog), so
/// whitespace/case/atom-order respellings of a query share one entry. The
/// catalog is part of the key because preparation binds relation data into
/// the normalized plan: reusing an entry across catalogs would execute the
/// wrong data and misclassify the query's appetite. A hit returns the
/// cached parse and advice without touching the parser or the advisor —
/// stats() makes that observable (tests assert parses stays at the number
/// of distinct queries while hits grow).
///
/// Entries fold execution feedback back in via Refresh(): the advice is
/// re-derived from the entry's blind estimates (computed once, at prepare)
/// overlaid with the measured QueryFeedback, so the second execution of a
/// hot query runs the strategy its first execution proved out without
/// rescanning its relations, and the admission controller sees the
/// measured peak instead of the estimate.
/// Entries are bounded by an LRU cap (`max_entries`, default generous):
/// every hit/refresh moves its entry to most-recently-used, and an insert
/// past the cap evicts the least recently used entry — ad-hoc query text
/// can no longer grow the cache without bound. An evicted query is simply
/// re-parsed (and re-advised) on its next submission; stats().evictions
/// makes the churn observable. A hash index over an LRU list makes hit,
/// miss, refresh and eviction O(1) in the number of entries.
class PlanCache {
 public:
  static constexpr size_t kDefaultMaxEntries = 1024;

  explicit PlanCache(size_t max_entries = kDefaultMaxEntries)
      : max_entries_(max_entries == 0 ? 1 : max_entries) {}

  struct Entry {
    /// Cache key: NormalizeQueryText of the submitted text, plus the
    /// cluster size and the catalog the plan was prepared against.
    std::string key;
    int workers = 0;
    const Catalog* catalog = nullptr;
    ConjunctiveQuery query;
    /// Shared, immutable after preparation: concurrent executions of the
    /// same entry read one materialized normalization.
    std::shared_ptr<const NormalizedQuery> normalized;
    /// The advisor's data-dependent half, computed once at prepare:
    /// refreshes overlay feedback on it (AdviseFromEstimates) instead of
    /// rescanning the relations.
    BlindEstimates blind;
    StrategyAdvice advice;
    /// Admission-control peak estimate: the advisor's byte guess until a
    /// run measured the real peak (then `measured` flips).
    uint64_t est_peak_bytes = 0;
    bool measured = false;
    /// Measured wall-clock of the entry's last successful execution, for
    /// the admission controller's retry_after hint (0 until measured).
    double est_exec_seconds = 0;
    size_t executions = 0;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    /// Parser + normalizer + advisor invocations (== misses that prepared
    /// successfully; the hit path never parses).
    uint64_t parses = 0;
    /// Feedback-driven advice refreshes.
    uint64_t refreshes = 0;
    /// Entries dropped by the LRU cap (each costs a re-parse on return).
    uint64_t evictions = 0;
  };

  /// The entry for (text, workers), preparing it on miss: parse against
  /// `catalog` (its dictionary interns new string literals), validate,
  /// normalize, advise (consulting `feedback` when non-null). Returns a
  /// copy of the entry (the normalization is shared, not copied).
  /// Serialized internally — concurrent submitters race on neither the
  /// cache nor the catalog dictionary. `*was_hit` (optional) reports
  /// whether the entry came from the cache.
  Result<Entry> Prepare(std::string_view text, int workers, Catalog* catalog,
                        const FeedbackStore* feedback,
                        bool* was_hit = nullptr);

  /// Folds a measured run into the entry for (key, workers, catalog): new
  /// advice (AdviseFromEstimates over the entry's blind estimates and
  /// `feedback`, the query's accumulated measurements), measured peak
  /// bytes, measured runtime, execution count. Zero-valued measurements
  /// leave the previous value alone (a FAILed run teaches the advisor but
  /// not the admission controller). Missing entries are ignored (the cache
  /// never resurrects evicted state).
  void Refresh(std::string_view key, int workers, const Catalog* catalog,
               const QueryFeedback& feedback, uint64_t measured_peak_bytes,
               double measured_exec_seconds = 0);

  /// Snapshot of the entry for (key, workers, catalog); false when absent.
  bool Lookup(std::string_view key, int workers, const Catalog* catalog,
              Entry* out) const;

  Stats stats() const;
  size_t size() const;

 private:
  /// Index key. `key` views the entry's own Entry::key: list nodes never
  /// move, so the view lives exactly as long as the entry.
  struct IndexKey {
    std::string_view key;
    int workers;
    const Catalog* catalog;
    bool operator==(const IndexKey&) const = default;
  };
  struct IndexKeyHash {
    size_t operator()(const IndexKey& k) const;
  };
  using LruList = std::list<Entry>;

  /// Requires mu_. Marks the entry most recently used.
  void TouchLocked(LruList::iterator it);

  mutable std::mutex mu_;
  const size_t max_entries_;
  /// Front = least recently used, back = most.
  LruList lru_;
  std::unordered_map<IndexKey, LruList::iterator, IndexKeyHash> index_;
  Stats stats_;
};

/// Deterministic byte estimate of a strategy run's peak residency, derived
/// from the advisor's tuple estimates: materialized inputs plus the chosen
/// shuffle family's volume plus the worst intermediate, at the query's row
/// width. Coarse by design — admission control needs a stable ordering of
/// queries by appetite, not accuracy; Refresh() replaces it with the
/// measured peak after the first execution.
uint64_t EstimatePeakBytes(const NormalizedQuery& query,
                           const StrategyAdvice& advice);

}  // namespace ptp

#endif  // PTP_SERVER_PLAN_CACHE_H_
