#include "tj/tributary_join.h"

#include <algorithm>

#include "common/logging.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "exec/local_ops.h"
#include "obs/counters.h"
#include "obs/resource.h"
#include "tj/btree.h"
#include "tj/btree_trie.h"
#include "tj/leapfrog.h"
#include "tj/trie_iterator.h"

namespace ptp {
namespace {

// A comparison predicate resolved against the global variable order.
struct ResolvedPredicate {
  int lhs_idx;  // index into var_order, or -1 for constant
  Value lhs_const;
  CmpOp op;
  int rhs_idx;
  Value rhs_const;
  // Depth at which both sides are bound (max var index; 0 if both constant).
  int ready_depth;
};

// Trie storage and cursors of one join: the inputs permuted to the global
// order and sorted (array backend) or built into B+-trees (B-tree backend).
struct PreparedJoin {
  std::vector<Relation> sorted;  // rows move into `trees` on the B-tree path
  std::vector<std::unique_ptr<BPlusTree>> trees;
  std::vector<std::unique_ptr<TrieCursor>> cursors;  // one per input
  // iters_per_depth[d] = inputs whose trie level matching var_order[d]
  // exists (i.e. atoms containing that variable).
  std::vector<std::vector<int>> iters_per_depth;
  std::vector<ResolvedPredicate> preds;
  double sort_seconds = 0;
  /// Trie storage bytes (sorted arrays or B+-tree rows — same row count
  /// either way), held live until the join finishes.
  ScopedMemCharge trie_mem;
};

// The recursive join driver (paper Sec. 2.2: find a value for the current
// variable via leapfrog intersection, then recurse into the residual query).
// Instantiated on the backend's concrete cursor type so the inner loop makes
// no virtual calls; the B-tree backend uses the TrieCursor instantiation.
// Keeps one leapfrog (with its cursor vector) per depth and re-initialises
// it at every trie node, so the recursion allocates nothing per node.
template <typename Cursor>
class Joiner {
 public:
  // `prepared` must outlive the joiner; its cursors must be `Cursor`s.
  Joiner(const PreparedJoin& prepared, size_t num_vars,
         const TJOptions& options)
      : iters_per_depth_(prepared.iters_per_depth),
        preds_(prepared.preds),
        num_vars_(num_vars),
        options_(options),
        binding_(num_vars),
        leapfrogs_(num_vars),
        lf_stats_(num_vars) {
    cursors_.reserve(prepared.cursors.size());
    for (const auto& cursor : prepared.cursors) {
      cursors_.push_back(static_cast<Cursor*>(cursor.get()));
    }
    for (size_t d = 0; d < num_vars_; ++d) {
      leapfrogs_[d].cursors().reserve(iters_per_depth_[d].size());
    }
  }

  // Appends the join result to `out`, or only counts it when `out` is null.
  Status Run(Relation* out) {
    out_ = out;
    return Recurse(0);
  }

  // Result rows found (appended or counted) so far.
  size_t count() const { return count_; }

  // Seeks the cursors counted so far; the max_seeks budget compares this.
  size_t seeks() const { return seeks_; }

  /// Per-variable leapfrog stats: lf_stats()[d] covers the intersections
  /// that bound var_order[d].
  const std::vector<LeapfrogStats>& lf_stats() const { return lf_stats_; }

 private:
  bool PredicatesHold(int depth) const {
    for (const ResolvedPredicate& p : preds_) {
      if (p.ready_depth != depth) continue;
      const Value l = p.lhs_idx >= 0 ? binding_[static_cast<size_t>(p.lhs_idx)]
                                     : p.lhs_const;
      const Value r = p.rhs_idx >= 0 ? binding_[static_cast<size_t>(p.rhs_idx)]
                                     : p.rhs_const;
      if (!Predicate::Eval(l, p.op, r)) return false;
    }
    return true;
  }

  Status Recurse(int depth) {
    const size_t d = static_cast<size_t>(depth);
    if (d == num_vars_) {
      ++count_;
      if (out_ != nullptr) out_->AddTuple(binding_);
      if (count_ > options_.max_output_rows) {
        return Status::ResourceExhausted(
            StrFormat("Tributary join output exceeded %zu rows",
                      options_.max_output_rows));
      }
      return Status::OK();
    }

    const std::vector<int>& participating = iters_per_depth_[d];
    PTP_DCHECK(!participating.empty());

    // Open the participating iterators one level deeper; if any relation has
    // no rows under the current prefix, the residual query is empty.
    LeapfrogJoinT<Cursor>& leapfrog = leapfrogs_[d];
    std::vector<Cursor*>& open = leapfrog.cursors();
    open.clear();
    bool empty = false;
    for (int idx : participating) {
      Cursor& it = *cursors_[static_cast<size_t>(idx)];
      if (it.depth() >= 0 && it.AtEnd()) {
        empty = true;
        break;
      }
      if (it.EmptyRelation()) {
        empty = true;
        break;
      }
      it.Open();
      open.push_back(&it);
      if (it.AtEnd()) {
        empty = true;
        break;
      }
    }
    Status status;
    if (!empty) {
      leapfrog.Init(&lf_stats_[d], &seeks_);
      while (!leapfrog.AtEnd()) {
        binding_[d] = leapfrog.Key();
        if (PredicatesHold(depth)) {
          status = Recurse(depth + 1);
          if (!status.ok()) break;
        }
        if (seeks_ > options_.max_seeks) {
          status = Status::ResourceExhausted(StrFormat(
              "Tributary join exceeded %zu seeks", options_.max_seeks));
          break;
        }
        leapfrog.Next();
      }
    }
    // Init() may have reordered `open`; every cursor in it goes up once.
    for (Cursor* it : open) it->Up();
    return status;
  }

  const std::vector<std::vector<int>>& iters_per_depth_;
  const std::vector<ResolvedPredicate>& preds_;
  size_t num_vars_;
  TJOptions options_;
  std::vector<Cursor*> cursors_;  // not owned; one per input
  Tuple binding_;
  std::vector<LeapfrogJoinT<Cursor>> leapfrogs_;  // one per variable (depth)
  std::vector<LeapfrogStats> lf_stats_;           // one per variable (depth)
  Relation* out_ = nullptr;
  size_t count_ = 0;
  size_t seeks_ = 0;
};

Result<PreparedJoin> Prepare(const std::vector<const Relation*>& inputs,
                             const std::vector<std::string>& var_order,
                             const std::vector<Predicate>& predicates,
                             const TJOptions& options) {
  if (inputs.empty()) {
    return Status::InvalidArgument("Tributary join needs at least one input");
  }
  auto order_index = [&](const std::string& var) {
    for (size_t i = 0; i < var_order.size(); ++i) {
      if (var_order[i] == var) return static_cast<int>(i);
    }
    return -1;
  };

  // Sort phase: permute each input's columns into global-order position and
  // sort lexicographically.
  Timer sort_timer;
  std::vector<Relation> sorted;
  sorted.reserve(inputs.size());
  uint64_t trie_bytes = 0;
  // iters_per_depth[d] = inputs whose trie level matching var_order[d]
  // exists (i.e. atoms containing that variable).
  std::vector<std::vector<int>> iters_per_depth(var_order.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    const Relation& rel = *inputs[i];
    // Column permutation: this atom's variables in global-order sequence.
    std::vector<std::pair<int, int>> order_and_col;  // (global idx, column)
    for (size_t col = 0; col < rel.arity(); ++col) {
      const int idx = order_index(rel.schema().name(col));
      if (idx < 0) {
        return Status::InvalidArgument(
            "variable '" + rel.schema().name(col) +
            "' of input '" + rel.name() + "' missing from var_order");
      }
      order_and_col.emplace_back(idx, static_cast<int>(col));
    }
    std::sort(order_and_col.begin(), order_and_col.end());
    std::vector<int> perm;
    perm.reserve(order_and_col.size());
    for (size_t level = 0; level < order_and_col.size(); ++level) {
      perm.push_back(order_and_col[level].second);
      iters_per_depth[static_cast<size_t>(order_and_col[level].first)]
          .push_back(static_cast<int>(i));
    }
    Relation permuted = rel.PermuteColumns(perm);
    trie_bytes += static_cast<uint64_t>(permuted.NumTuples()) *
                  permuted.arity() * sizeof(Value);
    if (options.backend == TJBackend::kSortedArray) {
      permuted.SortLex();
    }
    sorted.push_back(std::move(permuted));
  }

  // Build the trie storage: sorting already happened above for the array
  // backend; the B-tree backend pays its on-the-fly insertion build here.
  std::vector<std::unique_ptr<BPlusTree>> trees;
  std::vector<std::unique_ptr<TrieCursor>> cursors;
  if (options.backend == TJBackend::kBTree) {
    trees.reserve(sorted.size());
    for (Relation& rel : sorted) {
      auto tree = std::make_unique<BPlusTree>(rel.arity());
      tree->InsertAll(rel);
      rel.Clear();  // rows now live in the tree
      trees.push_back(std::move(tree));
    }
    for (const auto& tree : trees) {
      cursors.push_back(std::make_unique<BTreeTrieIterator>(tree.get()));
    }
  }
  const double sort_seconds = sort_timer.Seconds();

  for (size_t d = 0; d < var_order.size(); ++d) {
    if (iters_per_depth[d].empty()) {
      return Status::InvalidArgument("variable '" + var_order[d] +
                                     "' occurs in no input relation");
    }
  }

  // Resolve predicates against the order.
  std::vector<ResolvedPredicate> resolved;
  for (const Predicate& pred : predicates) {
    ResolvedPredicate r;
    r.op = pred.op;
    r.lhs_idx = pred.lhs.is_variable() ? order_index(pred.lhs.var) : -1;
    r.lhs_const = pred.lhs.constant;
    r.rhs_idx = pred.rhs.is_variable() ? order_index(pred.rhs.var) : -1;
    r.rhs_const = pred.rhs.constant;
    if ((pred.lhs.is_variable() && r.lhs_idx < 0) ||
        (pred.rhs.is_variable() && r.rhs_idx < 0)) {
      return Status::InvalidArgument("predicate variable missing from order: " +
                                     pred.ToString());
    }
    r.ready_depth = std::max(r.lhs_idx, r.rhs_idx);
    if (r.ready_depth < 0) r.ready_depth = 0;  // constant-only predicate
    resolved.push_back(r);
  }

  // Cursors point at the Relation objects inside `prepared.sorted`; moving
  // the PreparedJoin transfers the vector's heap buffer, so element
  // addresses (and thus the cursors) stay valid.
  PreparedJoin prepared;
  prepared.sorted = std::move(sorted);
  if (options.backend == TJBackend::kSortedArray) {
    cursors.reserve(prepared.sorted.size());
    for (const Relation& rel : prepared.sorted) {
      cursors.push_back(std::make_unique<TrieIterator>(&rel));
    }
  }
  prepared.trees = std::move(trees);
  prepared.cursors = std::move(cursors);
  prepared.iters_per_depth = std::move(iters_per_depth);
  prepared.preds = std::move(resolved);
  prepared.sort_seconds = sort_seconds;
  prepared.trie_mem = ScopedMemCharge(MemCategory::kTrie, trie_bytes);
  return prepared;
}

// What a finished join reports besides the cursors' own operation counts.
struct JoinOutcome {
  Status status;
  size_t rows = 0;                      // result rows appended or counted
  size_t budget_seeks = 0;              // the running count max_seeks bounds
  std::vector<LeapfrogStats> lf_stats;  // one per variable
};

template <typename Cursor>
JoinOutcome RunJoiner(const PreparedJoin& prepared, size_t num_vars,
                      const TJOptions& options, Relation* out) {
  Joiner<Cursor> joiner(prepared, num_vars, options);
  JoinOutcome outcome;
  outcome.status = joiner.Run(out);
  outcome.rows = joiner.count();
  outcome.budget_seeks = joiner.seeks();
  outcome.lf_stats = joiner.lf_stats();
  return outcome;
}

// Runs the prepared join on the cursor type of its backend: the array
// backend's final TrieIterator (calls inlined), else the TrieCursor
// interface. Appends to `out`, or only counts when `out` is null.
JoinOutcome RunPrepared(const PreparedJoin& prepared, size_t num_vars,
                        const TJOptions& options, Relation* out) {
  if (options.backend == TJBackend::kSortedArray) {
    return RunJoiner<TrieIterator>(prepared, num_vars, options, out);
  }
  return RunJoiner<TrieCursor>(prepared, num_vars, options, out);
}

// Fills `metrics` from the finished join and publishes the aggregated
// trie-operation counts to the active counter registry (single batch after
// the join — never per-tuple registry lookups on the hot path).
void FinishTJMetrics(const PreparedJoin& prepared, const JoinOutcome& outcome,
                     const std::vector<std::string>& var_order,
                     size_t output_tuples, TJMetrics* metrics) {
  size_t seeks = 0, nexts = 0, opens = 0, ups = 0, gallop_steps = 0;
  for (const auto& it : prepared.cursors) {
    seeks += it->num_seeks();
    nexts += it->num_nexts();
    opens += it->num_opens();
    ups += it->num_ups();
    gallop_steps += it->num_gallop_steps();
  }
  // The budget's running count is exactly the cursors' own seek count.
  PTP_DCHECK(outcome.budget_seeks == seeks);
  const std::vector<LeapfrogStats>& lf = outcome.lf_stats;
  if (metrics != nullptr) {
    metrics->sort_seconds = prepared.sort_seconds;
    metrics->seeks = seeks;
    metrics->nexts = nexts;
    metrics->opens = opens;
    metrics->ups = ups;
    metrics->gallop_steps = gallop_steps;
    metrics->output_tuples = output_tuples;
    metrics->seeks_per_var.assign(var_order.size(), 0);
    for (size_t d = 0; d < lf.size() && d < var_order.size(); ++d) {
      metrics->seeks_per_var[d] = lf[d].seeks;
    }
  }
  CounterRegistry* reg = ActiveCounterRegistry();
  if (reg == nullptr) return;
  reg->Add("tj.joins", 1);
  reg->Add("tj.seeks", seeks);
  reg->Add("tj.nexts", nexts);
  reg->Add("tj.opens", opens);
  reg->Add("tj.ups", ups);
  reg->Add("tj.gallop_steps", gallop_steps);
  reg->Add("tj.output_tuples", output_tuples);
  for (size_t d = 0; d < lf.size() && d < var_order.size(); ++d) {
    reg->Add(std::string("tj.seeks.") + var_order[d], lf[d].seeks);
    reg->Add(std::string("tj.nexts.") + var_order[d], lf[d].nexts);
    reg->Add(std::string("tj.keys.") + var_order[d], lf[d].keys);
  }
}

}  // namespace

Result<Relation> TributaryJoin(const std::vector<const Relation*>& inputs,
                               const std::vector<std::string>& var_order,
                               const std::vector<Predicate>& predicates,
                               const TJOptions& options, TJMetrics* metrics) {
  PTP_ASSIGN_OR_RETURN(PreparedJoin prepared,
                       Prepare(inputs, var_order, predicates, options));
  Timer join_timer;
  Relation out("tj_result", Schema(var_order));
  JoinOutcome outcome = RunPrepared(prepared, var_order.size(), options, &out);
  if (metrics != nullptr) metrics->join_seconds = join_timer.Seconds();
  FinishTJMetrics(prepared, outcome, var_order, out.NumTuples(), metrics);
  if (!outcome.status.ok()) return outcome.status;
  return out;
}

Result<size_t> TributaryCount(const std::vector<const Relation*>& inputs,
                              const std::vector<std::string>& var_order,
                              const std::vector<Predicate>& predicates,
                              const TJOptions& options, TJMetrics* metrics) {
  PTP_ASSIGN_OR_RETURN(PreparedJoin prepared,
                       Prepare(inputs, var_order, predicates, options));
  Timer join_timer;
  JoinOutcome outcome =
      RunPrepared(prepared, var_order.size(), options, nullptr);
  if (metrics != nullptr) metrics->join_seconds = join_timer.Seconds();
  FinishTJMetrics(prepared, outcome, var_order,
                  outcome.status.ok() ? outcome.rows : 0, metrics);
  if (!outcome.status.ok()) return outcome.status;
  return outcome.rows;
}

Result<Relation> TributaryJoinQuery(const NormalizedQuery& query,
                                    const std::vector<std::string>& var_order,
                                    const TJOptions& options,
                                    TJMetrics* metrics) {
  std::vector<const Relation*> inputs;
  inputs.reserve(query.atoms.size());
  for (const NormalizedAtom& atom : query.atoms) {
    inputs.push_back(&atom.relation);
  }
  PTP_ASSIGN_OR_RETURN(
      Relation full,
      TributaryJoin(inputs, var_order, query.predicates, options, metrics));
  if (query.head_vars == var_order) return full;
  Relation projected = ProjectToVars(full, query.head_vars, "tj_result");
  if (query.head_vars.size() < var_order.size()) {
    projected.SortAndDedup();
  }
  return projected;
}

}  // namespace ptp
