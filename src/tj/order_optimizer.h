#ifndef PTP_TJ_ORDER_OPTIMIZER_H_
#define PTP_TJ_ORDER_OPTIMIZER_H_

#include <string>
#include <vector>

#include "query/query.h"
#include "tj/cost_model.h"

namespace ptp {

/// A chosen global variable order plus its estimated cost.
struct OrderChoice {
  std::vector<std::string> order;
  double estimated_cost = 0;
};

struct OrderOptimizerOptions {
  /// Exhaustively enumerate permutations of the join variables up to this
  /// count (8! = 40320 evaluations); fall back to greedy beyond it.
  size_t exhaustive_limit = 8;
};

/// Chooses the global variable order minimizing the Sec. 5 cost model.
/// Join variables are permuted (exhaustively or greedily); variables local
/// to a single atom are appended afterwards in first-occurrence order —
/// they only fan out the output and their relative order does not affect
/// the intersection work.
OrderChoice OptimizeVariableOrder(const NormalizedQuery& query,
                                  const OrderOptimizerOptions& options = {});

/// Same, costed on `inputs` instead of the query's atoms. Variables are
/// named by each input's schema, as TributaryJoin requires; a variable is a
/// join variable when two or more inputs carry it. The query-level call is
/// this one over the atoms' relations. A broadcast plan passes one worker's
/// fragments, whose in-place slice is far smaller than the global relation.
OrderChoice OptimizeVariableOrder(const std::vector<const Relation*>& inputs,
                                  const OrderOptimizerOptions& options = {});

/// Enumerates every global order (join-variable permutations + trailing
/// locals) with its estimated cost — used by the Fig. 12 experiment to
/// sample random orders. Capped at `max_orders` permutations.
std::vector<OrderChoice> EnumerateOrders(const NormalizedQuery& query,
                                         size_t max_orders);

}  // namespace ptp

#endif  // PTP_TJ_ORDER_OPTIMIZER_H_
