#ifndef PTP_PLAN_ADVISOR_H_
#define PTP_PLAN_ADVISOR_H_

#include <string>

#include "obs/feedback.h"
#include "plan/strategies.h"
#include "query/query.h"

namespace ptp {

/// Communication-cost estimates behind a strategy recommendation.
struct StrategyAdvice {
  ShuffleKind shuffle = ShuffleKind::kHypercube;
  JoinKind join = JoinKind::kTributary;

  /// Estimated tuples moved by each shuffle family.
  double est_rs_tuples = 0;  // inputs + every estimated intermediate
  double est_br_tuples = 0;  // (total - largest) * W
  double est_hc_tuples = 0;  // sum of inputs * replication factors
  /// Estimated max intermediate of the left-deep plan.
  double est_max_intermediate = 0;
  /// Heavy-hitter proxy for the first regular-shuffle round: the largest
  /// single-value frequency on a join column divided by the average
  /// per-worker load (> 1 means one worker gets more than its share).
  double est_rs_skew = 1.0;

  /// Algorithm-1 share configuration behind est_hc_tuples — what a
  /// HyperCube run following this advice should use.
  ConfigChoice hc_config;

  /// Estimated fraction of the first regular-shuffle round's probe side a
  /// build-side bloom filter would drop at the producer (0 = useless,
  /// 1 = everything doomed). Computed from exact key-membership of the
  /// probe side against the predicate-filtered first atom; replaced by the
  /// measured filtered/tested ratio when feedback from a bloom-enabled run
  /// is available.
  double est_bloom_reduction = 0;
  /// True when est_bloom_reduction clears the worth-it threshold — the
  /// --bloom=auto decision (StrategyOptions::bloom).
  bool use_bloom = false;

  /// True when measured feedback replaced at least one estimate above.
  bool used_feedback = false;
  /// Worst q-error of the blind estimates against the measurements the
  /// feedback provided, and the same after the substitution (1.0 by
  /// construction for every replaced quantity). Both 1.0 when no feedback
  /// was supplied or nothing in it was measurable.
  double blind_max_qerror = 1.0;
  double feedback_max_qerror = 1.0;

  std::string rationale;
};

/// The data-dependent half of the advice: every estimate the decision
/// reads, computed from the relations alone (no feedback). Producing it
/// scans the inputs (exact first-join size, bloom reduction, heavy-hitter
/// frequency), so a prepared plan computes it once and keeps it; the
/// fields mirror StrategyAdvice's estimates of the same name.
struct BlindEstimates {
  /// Summed input cardinality — the scale of the "small intermediates"
  /// test.
  double total_input = 0;
  double est_rs_tuples = 0;
  double est_br_tuples = 0;
  double est_hc_tuples = 0;
  double est_max_intermediate = 0;
  double est_rs_skew = 1.0;
  double est_bloom_reduction = 0;
  ConfigChoice hc_config;
};

/// The relation scans and the share optimization behind a recommendation.
BlindEstimates ComputeBlindEstimates(const NormalizedQuery& query,
                                     int num_workers);

/// The cheap half: overlays `feedback` (may be null) on the blind
/// estimates, then makes the Table-6 decision. No relation is read.
StrategyAdvice AdviseFromEstimates(const BlindEstimates& blind,
                                   const QueryFeedback* feedback);

/// Implements the decision logic the paper's Table 6 summary distills:
///  * small intermediates + low skew  -> regular shuffle (TJ when the
///    per-round sorted data stays below the inputs, else HJ);
///  * large intermediates             -> single-round plans with the
///    Tributary join; HyperCube when its replication beats broadcast,
///    broadcast otherwise (the Q4 regime: high-dimensional cubes);
///  * HyperCube degenerates to broadcast-the-small-relation automatically
///    via its share configuration (the Q7 regime), so "HC" covers it.
/// Pure estimation — nothing is executed.
///
/// When `feedback` (a prior measured run of the same query at the same
/// cluster size, loaded from a feedback store) is supplied, measured values
/// replace the corresponding guesses before the decision: each family's
/// tuples_shuffled, the max intermediate from recorded stage outputs, and
/// the measured consumer skew of the regular-shuffle exchanges. A family
/// whose every recorded run failed is never picked.
///
/// Equal to AdviseFromEstimates(ComputeBlindEstimates(query, num_workers),
/// feedback), field for field.
StrategyAdvice AdviseStrategy(const NormalizedQuery& query, int num_workers,
                              const QueryFeedback* feedback = nullptr);

/// Distills one executed strategy into the estimate-vs-actual record the
/// feedback store keeps: one stage op per booked stage (non-final joins
/// carry the planner's left-deep estimate at the same point), one exchange
/// op per shuffle with measured volume and consumer skew.
StrategyFeedback CollectStrategyFeedback(const NormalizedQuery& query,
                                         const std::string& strategy_name,
                                         const StrategyResult& result);

}  // namespace ptp

#endif  // PTP_PLAN_ADVISOR_H_
