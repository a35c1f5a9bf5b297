#ifndef PTP_OBS_FEEDBACK_H_
#define PTP_OBS_FEEDBACK_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace ptp {

/// Version of the feedback-file JSON schema; bumped on breaking changes.
/// Loaders reject files with a different major version.
inline constexpr int kFeedbackJsonVersion = 1;

/// The q-error of one cardinality estimate: max(est/act, act/est), the
/// standard symmetric multiplicative error (1.0 = exact). Zero/negative
/// sides are clamped to 1 tuple so degenerate operators don't divide by
/// zero; a missing estimate (est < 0) reports 1.0 (nothing to audit).
double QError(double estimated, double actual);

/// Measured (or estimated) cardinality of one operator or exchange of one
/// strategy run — the unit of the estimate-vs-actual audit.
struct FeedbackOp {
  enum class Kind { kStage, kExchange };
  Kind kind = Kind::kStage;
  /// Stage label ("join_1", "pipeline join 2") or exchange label
  /// ("R ->h[x]", "Intermediate_2 ->h[y]").
  std::string label;
  /// Planner estimate at the same point, < 0 when the planner had none
  /// (exchanges of pre-planned strategies, final outputs).
  double estimated = -1;
  /// Measured cardinality (stage output tuples / exchange tuples sent).
  double actual = 0;
  /// Exchanges only: measured consumer skew (max/mean tuples received).
  double skew = 0;
};

/// One strategy's measured run for a query.
struct StrategyFeedback {
  std::string strategy;
  bool failed = false;
  double tuples_shuffled = 0;
  double output_tuples = 0;
  double peak_bytes = 0;
  /// Measured sideways-passing bloom selectivity, summed over the run's
  /// filtered exchanges: tuples tested at producers and tuples dropped.
  /// Both 0 when the run had the filter off — the advisor treats that as
  /// "no measurement" (old stores parse as 0/0, no version bump needed).
  double bloom_tested = 0;
  double bloom_filtered = 0;
  std::vector<FeedbackOp> ops;

  /// The first op with this label, nullptr when absent.
  const FeedbackOp* FindOp(std::string_view label) const;
  /// Largest measured consumer skew over the exchange ops (0 when none).
  double MaxExchangeSkew() const;
};

/// All measured strategies for one (query, cluster-size) pair.
struct QueryFeedback {
  /// The lookup key: NormalizeQueryText (query/normalize_text.h) of the
  /// text it was recorded or loaded under, so any spelling of the query
  /// (Query::ToString(), hand-written text) resolves to the same entry.
  std::string query_key;
  int workers = 0;
  std::vector<StrategyFeedback> strategies;

  /// The run of `strategy`, nullptr when absent.
  const StrategyFeedback* FindStrategy(std::string_view strategy) const;
  /// The first non-failed run whose strategy name starts with `prefix`
  /// ("RS_", "BR_", "HC_"), nullptr when absent — how the advisor reads a
  /// strategy family's measured shuffle volume.
  const StrategyFeedback* FindFamily(std::string_view prefix) const;
};

/// Versioned on-disk store of measured query runs: what --feedback-out=
/// writes and --feedback-in= loads. Re-recording a (query, workers) pair
/// replaces its previous entry, so iterating runs converge on the latest
/// measurements.
///
/// Lookups normalize the probe text once and go through a hash index on
/// (canonical key, workers): O(1) in the number of entries. The store is
/// an LRU bounded by `max_entries`: FindOrAdd marks its entry most recently
/// used, and adding past the cap first evicts the least recently used
/// entry, reusing its slot. Find never reorders.
class FeedbackStore {
 public:
  static constexpr size_t kUnbounded = static_cast<size_t>(-1);

  explicit FeedbackStore(size_t max_entries = kUnbounded)
      : max_entries_(max_entries == 0 ? 1 : max_entries) {}

  int version = kFeedbackJsonVersion;
  /// Entries by slot: insertion order, except that an evicted entry's
  /// slot goes to the entry that evicted it. Read-only to callers — add
  /// and update entries through FindOrAdd, which keeps the index in step.
  std::vector<QueryFeedback> queries;

  /// The entry for (query_key, workers), added empty when absent. The
  /// pointer is valid until the next FindOrAdd.
  QueryFeedback* FindOrAdd(std::string_view query_key, int workers);
  const QueryFeedback* Find(std::string_view query_key, int workers) const;

  /// Entries are written least recently used first, so Parse (which adds
  /// them in file order) restores the recency order too.
  std::string ToJson() const;
  Status WriteFile(const std::string& path) const;
  /// Loaded keys are canonicalized; when two entries of a file share a
  /// canonical key and cluster size, the later one wins.
  static Result<FeedbackStore> Parse(std::string_view json);
  static Result<FeedbackStore> LoadFile(const std::string& path);

 private:
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);
  /// Doubly linked LRU order over slots, parallel to `queries`.
  struct Links {
    size_t prev = kNoSlot;
    size_t next = kNoSlot;
  };

  void Unlink(size_t slot);
  void LinkAsNewest(size_t slot);

  size_t max_entries_;
  /// "<workers>|<canonical key>" -> slot.
  std::unordered_map<std::string, size_t> index_;
  std::vector<Links> lru_;
  size_t oldest_ = kNoSlot;
  size_t newest_ = kNoSlot;
};

/// Human-readable q-error audit of one query's feedback: per strategy, each
/// op's estimate vs measurement with its q-error, worst first within kind.
std::string QErrorAuditText(const QueryFeedback& feedback);

}  // namespace ptp

#endif  // PTP_OBS_FEEDBACK_H_
