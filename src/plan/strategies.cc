#include "plan/strategies.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "exec/lifecycle.h"
#include "exec/local_ops.h"
#include "exec/pipeline.h"
#include "exec/recovery.h"
#include "exec/shuffle.h"
#include "fault/fault.h"
#include "obs/counters.h"
#include "obs/profile.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "query/planner.h"
#include "runtime/parallel.h"
#include "tj/order_optimizer.h"
#include "tj/tributary_join.h"

namespace ptp {
namespace {

std::string AtomLabel(const NormalizedAtom& atom) {
  std::string label = atom.relation.name() + "(";
  for (size_t i = 0; i < atom.variables.size(); ++i) {
    if (i > 0) label += ", ";
    label += atom.variables[i];
  }
  label += ")";
  return label;
}

std::string VarsLabel(const std::vector<std::string>& vars) {
  std::string out = "(";
  for (size_t i = 0; i < vars.size(); ++i) {
    if (i > 0) out += ", ";
    out += vars[i];
  }
  out += ")";
  return out;
}

// Execution context shared by the three shuffle families.
struct Ctx {
  const NormalizedQuery* q;
  const StrategyOptions* opts;
  int W;
  StrategyResult result;

  QueryMetrics& metrics() { return result.metrics; }

  // Books a shuffle: records its metrics, counts its measured elapsed time
  // toward the query wall clock, and spreads the routing CPU evenly over
  // the workers (the shuffle itself ran on the runtime pool).
  void BookShuffle(const ShuffleMetrics& sm, double elapsed) {
    if (TraceSession* trace = ActiveTraceSession()) {
      // The shuffle already ran when it is booked, so emit a complete span
      // ending "now" on the coordinator track.
      trace->CompleteSpan(sm.label, kCoordinatorTrack, elapsed * 1e6);
    }
    metrics().shuffles.push_back(sm);
    if (sm.tuples_sent == 0) return;
    const double per_worker = elapsed / W;
    for (int w = 0; w < W; ++w) {
      metrics().worker_seconds[static_cast<size_t>(w)] += per_worker;
    }
    metrics().wall_seconds += elapsed;
  }

  // Books a barrier of per-worker compute times. `region_elapsed` is the
  // measured wall time of the parallel region(s) that ran the workers
  // (summed over replay attempts). A retried-then-succeeded stage books
  // retries > 0 with failed == false.
  void BookStage(const std::string& label, double region_elapsed,
                 const std::vector<double>& worker_elapsed,
                 const std::vector<double>& sort_elapsed,
                 const std::vector<double>& join_elapsed,
                 size_t output_tuples, bool stage_failed, size_t retries = 0,
                 bool degraded = false,
                 const std::vector<MemStats>* worker_mem = nullptr) {
    StageMetrics stage;
    stage.label = label;
    if (worker_mem != nullptr) {
      if (ResourceMeter* meter = ActiveResourceMeter()) {
        stage.peak_bytes = static_cast<size_t>(
            meter->BookStageMemory(label, *worker_mem));
      }
    }
    for (int w = 0; w < W; ++w) {
      const size_t wi = static_cast<size_t>(w);
      metrics().worker_seconds[wi] += worker_elapsed[wi];
      if (!sort_elapsed.empty()) {
        metrics().worker_sort_seconds[wi] += sort_elapsed[wi];
      }
      if (!join_elapsed.empty()) {
        metrics().worker_join_seconds[wi] += join_elapsed[wi];
      }
      stage.cpu_seconds += worker_elapsed[wi];
    }
    stage.wall_seconds = region_elapsed;
    stage.output_tuples = output_tuples;
    stage.failed = stage_failed;
    stage.retries = retries;
    stage.degraded = degraded;
    metrics().wall_seconds += region_elapsed;
    metrics().stages.push_back(stage);
    if (QueryProfile* profile = ActiveQueryProfile()) {
      // The per-worker timeline mirrors exactly what was booked into
      // QueryMetrics above, so the profiler and SkewFactor reconcile.
      StageProfile sp;
      sp.label = label;
      sp.wall_seconds = region_elapsed;
      sp.busy_seconds = worker_elapsed;
      sp.sort_seconds = sort_elapsed;
      sp.join_seconds = join_elapsed;
      sp.output_tuples = output_tuples;
      sp.retries = retries;
      sp.failed = stage_failed;
      sp.degraded = degraded;
      profile->RecordStage(std::move(sp));
    }
  }

  // Graceful FAIL: the run keeps its booked metrics and returns OK status;
  // `code` classifies the failure for callers that map it back to a
  // response (kUnavailable = retries exhausted, kResourceExhausted =
  // budget).
  void Fail(std::string reason,
            StatusCode code = StatusCode::kUnavailable) {
    metrics().failed = true;
    metrics().fail_reason = std::move(reason);
    metrics().fail_code = code;
  }

  // When the active meter enforces a hard budget and this section breached
  // it, converts the latched breach into a graceful kResourceExhausted FAIL
  // and returns true. Polled at stage boundaries, so the decision point is
  // deterministic (worker peaks fold in index order, never mid-stage).
  bool FailOnHardBreach() {
    if (metrics().failed) return true;
    ResourceMeter* meter = ActiveResourceMeter();
    if (meter == nullptr || !meter->hard_breached()) return false;
    Fail(meter->breach_message(), StatusCode::kResourceExhausted);
    return true;
  }

  // Polls the active lifecycle at this coordinator point: a pending
  // cancellation/deadline becomes a graceful kCancelled/kDeadlineExceeded
  // FAIL (partial metrics intact). Same determinism contract as
  // FailOnHardBreach — decisions land only at these fixed points.
  bool FailOnLifecycle(std::string_view where) {
    if (metrics().failed) return true;
    QueryLifecycle* lifecycle = ActiveQueryLifecycle();
    if (lifecycle == nullptr) return false;
    Status stop = lifecycle->Poll(where);
    if (stop.ok()) return false;
    Fail(stop.message(), stop.code());
    return true;
  }

  // Hard-budget breach then lifecycle, in that fixed order, at one
  // coordinator decision point.
  bool FailOnControl(std::string_view where) {
    return FailOnHardBreach() || FailOnLifecycle(where);
  }

  void TrackIntermediate(size_t tuples) {
    metrics().max_intermediate_tuples =
        std::max(metrics().max_intermediate_tuples, tuples);
  }
};

// A status the lifecycle poll inside the recovery loop surfaced: the query
// must stop gracefully (never retry, degrade, or abort on it).
bool IsLifecycleStop(const Status& status) {
  return status.code() == StatusCode::kCancelled ||
         status.code() == StatusCode::kDeadlineExceeded;
}

// Converts a lifecycle stop carried by `status` into a graceful FAIL.
// Returns true when it did (the caller returns its partial result).
bool FailOnControlStatus(Ctx* ctx, const Status& status) {
  if (!IsLifecycleStop(status)) return false;
  ctx->Fail(status.message(), status.code());
  return true;
}

// Records a graceful plan degradation (the recovery loop gave up on an
// operator and the planner fell back to a more robust one).
void BookDegradation(Ctx* ctx, std::string what) {
  if (CounterRegistry* reg = ActiveCounterRegistry()) {
    reg->Add("retry.degraded", 1);
  }
  if (TraceSession* trace = ActiveTraceSession()) {
    trace->Instant("degraded", what, kCoordinatorTrack);
  }
  ctx->metrics().degradations.push_back(std::move(what));
}

// Stage watchdog (RecoveryOptions::watchdog_straggle_factor): after the
// barrier, a worker body whose virtual delay factor (injected via the
// fault plan's `slow` kind) reached the threshold is declared hung and its
// success converted into a retryable kUnavailable, in worker index order —
// the recovery ladder then replays the attempt (a transient straggler
// recovers bit-identically via lineage replay), degrades, or FAILs the
// query gracefully (a persistent straggler). Driven entirely by the
// injected virtual clock, so the decision is deterministic at any thread
// count and a clean run (delay 1.0) never trips it.
void ApplyWatchdog(const StrategyOptions& opts, const std::string& label,
                   const std::vector<double>& worker_delay,
                   std::vector<Status>* worker_status) {
  const double factor = opts.recovery.watchdog_straggle_factor;
  if (factor <= 0) return;
  for (size_t wi = 0; wi < worker_status->size(); ++wi) {
    if (!(*worker_status)[wi].ok() || worker_delay[wi] < factor) continue;
    (*worker_status)[wi] = Status::Unavailable(
        StrFormat("watchdog: worker %zu straggled %.1fx in stage '%s'", wi,
                  worker_delay[wi], label.c_str()));
    if (CounterRegistry* reg = ActiveCounterRegistry()) {
      reg->Add("lifecycle.watchdog_trips", 1);
    }
    if (TraceSession* trace = ActiveTraceSession()) {
      trace->Instant("watchdog", (*worker_status)[wi].message(),
                     kCoordinatorTrack);
    }
    if (QueryLifecycle* lifecycle = ActiveQueryLifecycle()) {
      lifecycle->BookWatchdogTrip();
    }
  }
}

// Runs one shuffle under the exchange recovery loop and books it on
// success. On exhausted retries returns the last retryable error (the
// caller degrades the plan or FAILs the query); non-retryable errors
// propagate unchanged.
Status ShuffleWithRecovery(
    Ctx* ctx, const std::string& label,
    const std::function<Result<ShuffleResult>(ShuffleAttempt)>& shuffle_fn,
    DistributedRelation* out,
    std::vector<std::vector<uint32_t>>* arrival = nullptr,
    std::vector<size_t>* unfiltered_rows = nullptr) {
  ShuffleResult result;
  Timer t;
  int retries = 0;
  Status status = RunWithRecovery(
      SiteKind::kExchange, label, ctx->opts->recovery, &ctx->metrics(),
      &retries, [&](int site, int attempt) -> Status {
        Result<ShuffleResult> r = shuffle_fn({site, attempt});
        if (!r.ok()) return r.status();
        result = std::move(r).value();
        return Status::OK();
      });
  if (!status.ok()) return status;
  result.metrics.retries = static_cast<size_t>(retries);
  ctx->BookShuffle(result.metrics, t.Seconds());
  *out = std::move(result.data);
  if (arrival != nullptr) *arrival = std::move(result.arrival);
  if (unfiltered_rows != nullptr) {
    *unfiltered_rows = std::move(result.unfiltered_rows);
  }
  return Status::OK();
}

// Gathers per-worker result fragments, projects to the head, and applies set
// semantics for proper projections.
void FinishOutput(Ctx* ctx, DistributedRelation frags) {
  const NormalizedQuery& q = *ctx->q;
  const std::vector<std::string> all_vars = q.Variables();
  Relation gathered = Gather(frags);
  Relation projected =
      ProjectToVars(gathered, q.head_vars, "result");
  if (q.head_vars.size() < all_vars.size()) {
    projected.SortAndDedup();
  }
  ctx->result.output = std::move(projected);
  ctx->metrics().output_tuples = ctx->result.output.NumTuples();
}

std::vector<std::string> SharedVars(const Schema& a, const Schema& b) {
  std::vector<std::string> shared;
  for (size_t i = 0; i < a.arity(); ++i) {
    if (b.IndexOf(a.name(i)) >= 0) shared.push_back(a.name(i));
  }
  return shared;
}

// Materialized bytes of a distributed relation's fragments — what the
// coordinator "holds" between rounds in the memory account.
uint64_t DistBytes(const DistributedRelation& frags) {
  uint64_t bytes = 0;
  for (const Relation& frag : frags) {
    bytes += static_cast<uint64_t>(frag.NumTuples()) * frag.arity() *
             sizeof(Value);
  }
  return bytes;
}

std::vector<int> ColumnIndices(const Schema& schema,
                               const std::vector<std::string>& vars) {
  std::vector<int> cols;
  for (const std::string& var : vars) {
    int c = schema.IndexOf(var);
    PTP_CHECK_GE(c, 0);
    cols.push_back(c);
  }
  return cols;
}

// Chooses the TJ variable order: an explicit StrategyOptions::var_order
// wins, otherwise the Sec. 5 cost model over the query's atoms.
std::vector<std::string> PickVarOrder(const NormalizedQuery& q,
                                      const StrategyOptions& opts) {
  if (!opts.var_order.empty()) return opts.var_order;
  return OptimizeVariableOrder(q).order;
}

std::vector<int> PickJoinOrder(const NormalizedQuery& q,
                               const StrategyOptions& opts) {
  if (!opts.join_order.empty()) return opts.join_order;
  return GreedyLeftDeepOrder(q);
}

// Probes the active fault injector for this (site, worker, attempt) body.
// One nullptr branch when injection is off.
StageFault ProbeStageFault(int site, const std::string& label, int worker,
                           int attempt) {
  if (FaultInjector* injector = ActiveFaultInjector()) {
    return injector->OnStage(site, label, worker, attempt);
  }
  return StageFault{};
}

Status InjectedCrash(const char* when, int worker,
                     const std::string& label) {
  return Status::Unavailable(StrFormat(
      "injected crash of worker %d %s stage '%s'", worker, when,
      label.c_str()));
}

// ---------------------------------------------------------------------------
// Regular shuffle: one hash-repartitioning round per binary join.
// ---------------------------------------------------------------------------
// With `resume` non-null the run continues a barrier checkpoint instead of
// starting fresh: the accumulated fragments, round index, pending
// predicates, memory account, and partial metrics are restored, and the
// base relations are recomputed (round-robin placement is deterministic).
// `allow_suspend` is false when this run is the degraded tail of another
// family (an HC fallback): a checkpoint captured there could not be resumed
// under the original strategy name, so suspend requests stay pending and
// the fallback runs to completion.
Result<StrategyResult> RunRegular(const NormalizedQuery& q, JoinKind join,
                                  const StrategyOptions& opts,
                                  const QueryCheckpoint* resume = nullptr,
                                  bool allow_suspend = true) {
  Ctx ctx;
  ctx.q = &q;
  ctx.opts = &opts;
  ctx.W = opts.num_workers;
  ctx.metrics().EnsureWorkers(static_cast<size_t>(ctx.W));
  const int W = ctx.W;

  std::vector<int> order =
      resume != nullptr ? resume->order : PickJoinOrder(q, opts);
  ctx.result.join_order_used = order;
  if (order.size() != q.atoms.size()) {
    return Status::InvalidArgument("join order must cover all atoms");
  }

  // Initial round-robin placement (bit-identical on every run, so a
  // resumed query sees the same base fragments the suspended one did).
  std::vector<DistributedRelation> base;
  base.reserve(q.atoms.size());
  for (const NormalizedAtom& atom : q.atoms) {
    base.push_back(PartitionRoundRobin(atom.relation, W));
  }

  // Coordinator-side fragment accounting: `carried_bytes` is the previous
  // round's output, released when the next round's output replaces it.
  ResourceMeter* meter = ActiveResourceMeter();
  std::vector<Predicate> pending;
  uint64_t carried_bytes = 0;
  DistributedRelation acc;
  size_t start_step = 1;
  if (resume != nullptr) {
    ctx.result.metrics = resume->metrics;
    acc = resume->acc;
    pending = resume->pending;
    carried_bytes = resume->carried_bytes;
    start_step = resume->next_step;
    if (start_step < 1 || start_step > order.size()) {
      return Status::InvalidArgument("checkpoint round index out of range");
    }
  } else {
    pending = q.predicates;
    acc = base[static_cast<size_t>(order[0])];
    // Apply predicates already decidable on the first atom.
    std::vector<Predicate> applicable, rest;
    SplitApplicablePredicates(pending, q.atoms[static_cast<size_t>(order[0])]
                                           .relation.schema(),
                              &applicable, &rest);
    if (!applicable.empty()) {
      PTP_RETURN_IF_ERROR(runtime::ParallelFor(
          static_cast<int>(acc.size()), [&](int f) {
            Relation& frag = acc[static_cast<size_t>(f)];
            frag = FilterByPredicates(frag, applicable);
            return Status::OK();
          }));
      pending = rest;
    }
  }

  for (size_t step = start_step; step < order.size(); ++step) {
    // Round barrier: the coordinator decision point for cancellation,
    // deadlines, and barrier-checkpoint suspension. The suspension check
    // runs only here (and is skipped once the query is failing), so the
    // set of capture points is identical at every thread count.
    const std::string barrier_label = StrFormat("round %zu barrier", step);
    if (ctx.FailOnControl(barrier_label)) return std::move(ctx.result);
    if (QueryLifecycle* lifecycle =
            allow_suspend ? ActiveQueryLifecycle() : nullptr) {
      if (lifecycle->ConsumeSuspend()) {
        auto cp = std::make_shared<QueryCheckpoint>();
        cp->strategy = StrategyName(ShuffleKind::kRegular, join);
        cp->next_step = step;
        cp->order = order;
        cp->acc = std::move(acc);
        cp->pending = std::move(pending);
        cp->carried_bytes = carried_bytes;
        cp->metrics = ctx.result.metrics;
        if (FaultInjector* injector = ActiveFaultInjector()) {
          cp->fault_cursor = injector->cursor();
        }
        ctx.result.checkpoint = std::move(cp);
        return std::move(ctx.result);
      }
    }

    const NormalizedAtom& atom = q.atoms[static_cast<size_t>(order[step])];
    const std::vector<std::string> shared =
        SharedVars(acc[0].schema(), atom.relation.schema());

    // Sideways information passing: build the split-block filter over the
    // accumulated side's next-stage join keys (per-fragment in parallel,
    // OR-merged — bit-identical at any --threads) and hand it to the
    // probe-side shuffle below. Built once per round, OUTSIDE the recovery
    // loop: replays reuse the same filter, so filtered counts replay
    // bit-identically. The build cost is booked as wall time plus evenly
    // spread worker time without a new stage entry, keeping the stage list
    // identical with the filter on or off.
    BloomFilter bloom_filter;
    const BloomFilter* right_bloom = nullptr;
    if (opts.bloom && !shared.empty()) {
      Timer bloom_timer;
      BloomBuildStats bloom_stats;
      bloom_filter = BuildShuffleBloomFilter(
          acc, ColumnIndices(acc[0].schema(), shared), opts.salt,
          &bloom_stats);
      right_bloom = &bloom_filter;
      const double built = bloom_timer.Seconds();
      ctx.metrics().wall_seconds += built;
      for (int w = 0; w < W; ++w) {
        ctx.metrics().worker_seconds[static_cast<size_t>(w)] += built / W;
      }
      if (CounterRegistry* reg = ActiveCounterRegistry()) {
        reg->Add("bloom.filters_built", 1);
        reg->Add("bloom.build_tuples", bloom_stats.build_tuples);
        reg->Add("bloom.filter_bytes", bloom_stats.size_bytes);
      }
    }

    DistributedRelation left, right;
    // Right side's virtual arrival map (ShuffleResult::arrival), populated
    // only when `right_bloom` filtered the exchange; the symmetric join
    // replays it so the filtered round's output order matches the
    // unfiltered round's exactly.
    std::vector<std::vector<uint32_t>> right_arrival;
    std::vector<size_t> right_virtual_rows;
    Status shuffle_status;
    std::string exchange_label;
    if (shared.empty()) {
      // Disconnected step: broadcast the (smaller) atom — degenerate case,
      // none of the paper's queries hit it but the engine supports it.
      left = std::move(acc);
      if (meter != nullptr) {
        // The carried fragments became `left` (no shuffled copy), so the
        // round's input charge below re-covers them.
        meter->Release(carried_bytes);
        carried_bytes = 0;
      }
      exchange_label = "Broadcast " + AtomLabel(atom);
      shuffle_status = ShuffleWithRecovery(
          &ctx, exchange_label,
          [&](ShuffleAttempt a) {
            return BroadcastShuffle(base[static_cast<size_t>(order[step])], W,
                                    exchange_label, a);
          },
          &right);
    } else if (opts.rs_skew_aware) {
      const std::string label =
          (step == 1 ? AtomLabel(q.atoms[static_cast<size_t>(order[0])])
                     : StrFormat("Intermediate_%zu", step)) +
          " x " + AtomLabel(atom) + " ->h" + VarsLabel(shared);
      exchange_label = label + " (left, skew-aware)";
      // The two sides of the coordinated shuffle are two exchanges, but one
      // replay unit: the right side's site registers on the first attempt
      // and both sides re-deliver together on retry.
      int right_site = -1;
      SkewAwareShuffleResult sr;
      Timer t;
      int retries = 0;
      shuffle_status = RunWithRecovery(
          SiteKind::kExchange, exchange_label, opts.recovery, &ctx.metrics(),
          &retries, [&](int site, int attempt) -> Status {
            if (right_site < 0) {
              if (FaultInjector* injector = ActiveFaultInjector()) {
                right_site = injector->RegisterExchange(
                    label + " (right, skew-aware)");
              }
            }
            Result<SkewAwareShuffleResult> r = SkewAwareJoinShuffle(
                acc, ColumnIndices(acc[0].schema(), shared),
                base[static_cast<size_t>(order[step])],
                ColumnIndices(atom.relation.schema(), shared), W, opts.salt,
                opts.skew_threshold, label, {site, attempt},
                {right_site, attempt}, right_bloom);
            if (!r.ok()) return r.status();
            sr = std::move(r).value();
            return Status::OK();
          });
      if (shuffle_status.ok()) {
        const double elapsed = t.Seconds();
        sr.left_metrics.retries = static_cast<size_t>(retries);
        sr.right_metrics.retries = static_cast<size_t>(retries);
        ctx.BookShuffle(sr.left_metrics, elapsed / 2);
        ctx.BookShuffle(sr.right_metrics, elapsed / 2);
        left = std::move(sr.left);
        right = std::move(sr.right);
        right_arrival = std::move(sr.right_arrival);
        right_virtual_rows = std::move(sr.right_unfiltered_rows);
      }
    } else {
      const std::string label_key = " ->h" + VarsLabel(shared);
      {
        const std::string label =
            (step == 1 ? AtomLabel(q.atoms[static_cast<size_t>(order[0])])
                       : StrFormat("Intermediate_%zu", step)) +
            label_key;
        exchange_label = label;
        shuffle_status = ShuffleWithRecovery(
            &ctx, label,
            [&](ShuffleAttempt a) {
              return HashShuffle(acc, ColumnIndices(acc[0].schema(), shared),
                                 W, opts.salt, label, a);
            },
            &left);
      }
      if (shuffle_status.ok()) {
        const std::string label = AtomLabel(atom) + label_key;
        exchange_label = label;
        shuffle_status = ShuffleWithRecovery(
            &ctx, label,
            [&](ShuffleAttempt a) {
              return HashShuffle(base[static_cast<size_t>(order[step])],
                                 ColumnIndices(atom.relation.schema(), shared),
                                 W, opts.salt, label, a, right_bloom);
            },
            &right, &right_arrival, &right_virtual_rows);
      }
    }
    if (!shuffle_status.ok()) {
      // A cancel/deadline surfaced through the exchange recovery loop
      // stops the query gracefully before anything else is considered.
      if (FailOnControlStatus(&ctx, shuffle_status)) {
        return std::move(ctx.result);
      }
      // A lost exchange with no cheaper plan to fall back to: FAIL the
      // query gracefully (a data point, not an abort).
      if (!IsRetryableFailure(shuffle_status)) return shuffle_status;
      ctx.Fail(StrFormat("exchange '%s' failed after %d retries: %s",
                         exchange_label.c_str(), opts.recovery.max_retries,
                         shuffle_status.ToString().c_str()));
      return std::move(ctx.result);
    }

    uint64_t in_bytes = 0;
    if (meter != nullptr) {
      in_bytes = DistBytes(left) + DistBytes(right);
      meter->Charge(MemCategory::kIntermediate, in_bytes);
      if (ctx.FailOnControl(exchange_label)) return std::move(ctx.result);
    }

    // A Tributary round must sort its intermediate input in memory; the
    // pipelined hash join streams it. FAIL if the sort buffer won't fit.
    if (join == JoinKind::kTributary && step >= 2) {
      const size_t sort_budget = opts.sort_budget > 0
                                     ? opts.sort_budget
                                     : opts.intermediate_budget / 4;
      const size_t to_sort = TotalTuples(left);
      if (to_sort > sort_budget) {
        ctx.Fail(StrFormat("Tributary sort buffer needs %zu tuples, memory "
                           "budget is %zu (out of memory)",
                           to_sort, sort_budget),
                 StatusCode::kResourceExhausted);
        return std::move(ctx.result);
      }
    }

    // Local binary join on every worker.
    std::vector<Predicate> applicable;
    {
      // Determine the post-join schema to split predicates.
      std::vector<std::string> joined_vars = left[0].schema().names();
      for (const std::string& v : right[0].schema().names()) {
        if (std::find(joined_vars.begin(), joined_vars.end(), v) ==
            joined_vars.end()) {
          joined_vars.push_back(v);
        }
      }
      std::vector<Predicate> rest;
      SplitApplicablePredicates(pending, Schema(joined_vars), &applicable,
                                &rest);
      pending = rest;
    }

    // The Tributary variable order is shared by all workers; build it once.
    std::vector<std::string> var_order;
    if (join != JoinKind::kHashJoin) {
      // Binary Tributary join == sort-merge join (Sec. 3 "for
      // completeness"): shared variables first in the order.
      var_order = shared;
      for (const std::string& v : left[0].schema().names()) {
        if (std::find(var_order.begin(), var_order.end(), v) ==
            var_order.end()) {
          var_order.push_back(v);
        }
      }
      for (const std::string& v : right[0].schema().names()) {
        if (std::find(var_order.begin(), var_order.end(), v) ==
            var_order.end()) {
          var_order.push_back(v);
        }
      }
    }

    // All W workers run on the runtime pool, each writing only its own
    // slots; no early exit, so the round behaves identically at every
    // thread count. Failure decisions happen after the barrier, in worker
    // index order (first error wins, exactly like the old serial loop).
    //
    // The shuffled inputs (left/right) are immutable, so the barrier is a
    // replayable unit: a transient worker fault reruns the whole round
    // (lineage replay), accumulating the wasted attempts' CPU.
    DistributedRelation joined(static_cast<size_t>(W));
    std::vector<double> elapsed(static_cast<size_t>(W), 0.0);
    std::vector<double> sort_s(static_cast<size_t>(W), 0.0);
    std::vector<double> join_s(static_cast<size_t>(W), 0.0);
    std::vector<Status> worker_status(static_cast<size_t>(W));
    std::vector<MemStats> worker_mem(static_cast<size_t>(W));
    std::vector<double> worker_delay(static_cast<size_t>(W), 1.0);
    double region_total = 0.0;
    const std::string stage_label = StrFormat("join_%zu", step);

    auto round_attempt = [&](JoinKind round_join, const std::string& label,
                             int site, int attempt) -> Status {
      for (int w = 0; w < W; ++w) {
        joined[static_cast<size_t>(w)] = Relation();
        worker_status[static_cast<size_t>(w)] = Status::OK();
        // Per-attempt reset: only the attempt that succeeds is booked, so
        // recovered runs account exactly like clean ones.
        worker_mem[static_cast<size_t>(w)].Reset();
        worker_delay[static_cast<size_t>(w)] = 1.0;
      }
      Timer stage_timer;
      PTP_RETURN_IF_ERROR(runtime::ParallelFor(W, [&](int w) {
        const size_t wi = static_cast<size_t>(w);
        const StageFault fault = ProbeStageFault(site, label, w, attempt);
        if (fault.crash_before) {
          worker_status[wi] = InjectedCrash("before", w, label);
          return Status::OK();
        }
        Span worker_span(label, WorkerTrack(w));
        Timer t;
        WorkerMemScope mem_scope(meter != nullptr ? &worker_mem[wi]
                                                  : nullptr);
        if (round_join == JoinKind::kHashJoin) {
          Timer jt;
          const std::vector<uint32_t>* arrival =
              right_arrival.empty() ? nullptr : &right_arrival[wi];
          Relation r = SymmetricHashJoinLocal(
              left[wi], right[wi], StrFormat("int_%zu", step), arrival,
              arrival != nullptr ? right_virtual_rows[wi] : 0);
          r = FilterByPredicates(r, applicable);
          join_s[wi] += jt.Seconds() * fault.delay_factor;
          joined[wi] = std::move(r);
        } else {
          TJOptions tj_opts;
          tj_opts.max_output_rows = opts.intermediate_budget;
          TJMetrics tj_metrics;
          std::vector<const Relation*> inputs = {&left[wi], &right[wi]};
          Result<Relation> r = TributaryJoin(inputs, var_order, applicable,
                                             tj_opts, &tj_metrics);
          sort_s[wi] += tj_metrics.sort_seconds * fault.delay_factor;
          join_s[wi] += tj_metrics.join_seconds * fault.delay_factor;
          if (!r.ok()) {
            worker_status[wi] = r.status();
          } else {
            joined[wi] = std::move(r).value();
            joined[wi].set_name(StrFormat("int_%zu", step));
          }
        }
        elapsed[wi] += t.Seconds() * fault.delay_factor;
        worker_delay[wi] = fault.delay_factor;
        if (fault.crash_during) {
          // Work done, output lost: the fragment dies with the worker.
          joined[wi] = Relation();
          worker_status[wi] = InjectedCrash("during", w, label);
        } else if (fault.operator_error && worker_status[wi].ok()) {
          worker_status[wi] = Status::Unavailable(StrFormat(
              "injected transient operator error on worker %d in '%s'", w,
              label.c_str()));
        }
        return Status::OK();
      }));
      region_total += stage_timer.Seconds();
      ApplyWatchdog(opts, label, worker_delay, &worker_status);
      // First error wins, in worker index order (the serial decision
      // sequence — identical at every thread count).
      for (int w = 0; w < W; ++w) {
        const Status& st = worker_status[static_cast<size_t>(w)];
        if (!st.ok()) return st;
      }
      return Status::OK();
    };

    int stage_retries = 0;
    Status round_status = RunWithRecovery(
        SiteKind::kStage, stage_label, opts.recovery, &ctx.metrics(),
        &stage_retries, [&](int site, int attempt) {
          return round_attempt(join, stage_label, site, attempt);
        });

    std::string final_label = stage_label;
    if (!round_status.ok() && IsRetryableFailure(round_status) &&
        join == JoinKind::kTributary && opts.recovery.allow_degradation) {
      // The Tributary round exhausted its retries: book the abandoned stage
      // (its wasted attempts stay on the bill) and degrade to the symmetric
      // hash join over the same immutable shuffled inputs. The fallback is
      // a fresh fault site with a new label, so only faults that also match
      // it (e.g. wildcard-everything persistent specs) can kill it too.
      ctx.BookStage(stage_label, region_total, elapsed, sort_s, join_s,
                    /*output_tuples=*/0, /*stage_failed=*/false,
                    static_cast<size_t>(stage_retries), /*degraded=*/true,
                    &worker_mem);
      BookDegradation(&ctx, stage_label + ": tributary join -> hash join");
      std::fill(elapsed.begin(), elapsed.end(), 0.0);
      std::fill(sort_s.begin(), sort_s.end(), 0.0);
      std::fill(join_s.begin(), join_s.end(), 0.0);
      region_total = 0.0;
      final_label = stage_label + " (degraded to HJ)";
      stage_retries = 0;
      round_status = RunWithRecovery(
          SiteKind::kStage, final_label, opts.recovery, &ctx.metrics(),
          &stage_retries, [&](int site, int attempt) {
            return round_attempt(JoinKind::kHashJoin, final_label, site,
                                 attempt);
          });
    }

    // A cancel/deadline from the stage recovery loop's poll (original or
    // degraded attempt): stop now, gracefully, without booking the
    // abandoned attempt as a stage.
    if (FailOnControlStatus(&ctx, round_status)) {
      return std::move(ctx.result);
    }

    size_t round_output = 0;
    bool failed = false;
    if (!round_status.ok() && !IsRetryableFailure(round_status) &&
        round_status.code() != StatusCode::kResourceExhausted) {
      return round_status;
    }
    for (int w = 0; w < W && !failed; ++w) {
      const size_t wi = static_cast<size_t>(w);
      const Status& st = worker_status[wi];
      if (!st.ok()) {
        if (st.code() == StatusCode::kResourceExhausted) {
          ctx.Fail(st.message(), StatusCode::kResourceExhausted);
          failed = true;
        } else if (IsRetryableFailure(st)) {
          // Retries exhausted with no fallback left: graceful FAIL.
          ctx.Fail(StrFormat("stage '%s' failed after %d retries: %s",
                             final_label.c_str(), opts.recovery.max_retries,
                             st.ToString().c_str()));
          failed = true;
        } else {
          return st;
        }
      }
      round_output += joined[wi].NumTuples();
      if (round_output > opts.intermediate_budget) {
        ctx.Fail(StrFormat("round %zu intermediate exceeded budget of %zu "
                           "tuples",
                           step, opts.intermediate_budget),
                 StatusCode::kResourceExhausted);
        failed = true;
      }
    }
    ctx.BookStage(final_label, region_total, elapsed, sort_s, join_s,
                  round_output, failed, static_cast<size_t>(stage_retries),
                  /*degraded=*/false, &worker_mem);
    if (failed || ctx.FailOnControl(final_label)) {
      return std::move(ctx.result);
    }
    if (step + 1 < order.size()) ctx.TrackIntermediate(round_output);
    if (meter != nullptr) {
      // The round's output overlaps its inputs briefly (charge first for an
      // honest peak); the shuffled copies and the previous round's output
      // then go away.
      const uint64_t joined_bytes = DistBytes(joined);
      meter->Charge(MemCategory::kIntermediate, joined_bytes);
      meter->Release(in_bytes + carried_bytes);
      carried_bytes = joined_bytes;
    }
    acc = std::move(joined);
  }

  // Final barrier: last deterministic decision point before the gather.
  if (ctx.FailOnControl("final gather")) return std::move(ctx.result);
  if (!pending.empty()) {
    PTP_RETURN_IF_ERROR(runtime::ParallelFor(
        static_cast<int>(acc.size()), [&](int f) {
          Relation& frag = acc[static_cast<size_t>(f)];
          frag = FilterByPredicates(frag, pending);
          return Status::OK();
        }));
  }
  FinishOutput(&ctx, std::move(acc));
  if (meter != nullptr) meter->Release(carried_bytes);
  return std::move(ctx.result);
}

// ---------------------------------------------------------------------------
// Local one-round phase shared by broadcast and HyperCube plans.
// ---------------------------------------------------------------------------
// `var_order` is the Tributary join's order (unused for the hash join).
Status RunLocalPhase(Ctx* ctx, JoinKind join,
                     const std::vector<DistributedRelation>& shuffled,
                     const std::vector<std::string>& var_order) {
  const NormalizedQuery& q = *ctx->q;
  const StrategyOptions& opts = *ctx->opts;
  const int W = ctx->W;

  DistributedRelation out(static_cast<size_t>(W));
  std::vector<double> elapsed(static_cast<size_t>(W), 0.0);
  std::vector<double> sort_s(static_cast<size_t>(W), 0.0);
  std::vector<double> join_s(static_cast<size_t>(W), 0.0);
  std::vector<Status> worker_status(static_cast<size_t>(W));
  std::vector<PipelineStats> worker_pipeline(static_cast<size_t>(W));
  std::vector<MemStats> worker_mem(static_cast<size_t>(W));
  std::vector<double> worker_delay(static_cast<size_t>(W), 1.0);
  double region_total = 0.0;
  // The callers charged each shuffled input as it materialized; remember
  // the total so the phase releases it on completion.
  ResourceMeter* meter = ActiveResourceMeter();
  uint64_t in_bytes = 0;
  if (meter != nullptr) {
    for (const DistributedRelation& dist : shuffled) {
      in_bytes += DistBytes(dist);
    }
  }

  std::vector<int> join_order;
  if (join == JoinKind::kHashJoin) {
    join_order = PickJoinOrder(q, opts);
    ctx->result.join_order_used = join_order;
  } else {
    ctx->result.var_order_used = var_order;
  }

  // One barrier over the W logical workers on the runtime pool; every
  // worker runs to completion and failures are resolved afterwards in
  // index order (first error wins), matching the serial schedule. The
  // shuffled inputs are immutable, so the whole phase is a replayable
  // recovery unit.
  const std::string stage_label =
      join == JoinKind::kHashJoin ? "local HJ pipeline" : "local TJ";

  auto phase_attempt = [&](JoinKind phase_join, const std::string& label,
                           int site, int attempt) -> Status {
    for (int w = 0; w < W; ++w) {
      const size_t wi = static_cast<size_t>(w);
      out[wi] = Relation();
      worker_status[wi] = Status::OK();
      worker_pipeline[wi] = PipelineStats();
      // Per-attempt reset so only the successful attempt is booked.
      worker_mem[wi].Reset();
      worker_delay[wi] = 1.0;
    }
    Timer stage_timer;
    PTP_RETURN_IF_ERROR(runtime::ParallelFor(W, [&](int w) {
      const size_t wi = static_cast<size_t>(w);
      const StageFault fault = ProbeStageFault(site, label, w, attempt);
      if (fault.crash_before) {
        worker_status[wi] = InjectedCrash("before", w, label);
        return Status::OK();
      }
      std::vector<const Relation*> inputs;
      inputs.reserve(q.atoms.size());
      for (const DistributedRelation& dist : shuffled) {
        inputs.push_back(&dist[wi]);
      }
      Span worker_span(label, WorkerTrack(w));
      Timer t;
      WorkerMemScope mem_scope(meter != nullptr ? &worker_mem[wi] : nullptr);
      if (phase_join == JoinKind::kHashJoin) {
        Timer jt;
        Result<Relation> r =
            LeftDeepJoinLocal(inputs, join_order, q.predicates,
                              opts.intermediate_budget, &worker_pipeline[wi]);
        join_s[wi] += jt.Seconds() * fault.delay_factor;
        if (!r.ok()) {
          worker_status[wi] = r.status();
        } else {
          out[wi] = std::move(r).value();
        }
      } else {
        TJOptions tj_opts;
        tj_opts.max_output_rows = opts.intermediate_budget;
        TJMetrics tj_metrics;
        Result<Relation> r =
            TributaryJoin(inputs, var_order, q.predicates, tj_opts,
                          &tj_metrics);
        sort_s[wi] += tj_metrics.sort_seconds * fault.delay_factor;
        join_s[wi] += tj_metrics.join_seconds * fault.delay_factor;
        if (!r.ok()) {
          worker_status[wi] = r.status();
        } else {
          out[wi] = std::move(r).value();
        }
      }
      elapsed[wi] += t.Seconds() * fault.delay_factor;
      worker_delay[wi] = fault.delay_factor;
      if (fault.crash_during) {
        out[wi] = Relation();
        worker_pipeline[wi] = PipelineStats();
        worker_status[wi] = InjectedCrash("during", w, label);
      } else if (fault.operator_error && worker_status[wi].ok()) {
        worker_status[wi] = Status::Unavailable(StrFormat(
            "injected transient operator error on worker %d in '%s'", w,
            label.c_str()));
      }
      return Status::OK();
    }));
    region_total += stage_timer.Seconds();
    ApplyWatchdog(opts, label, worker_delay, &worker_status);
    for (int w = 0; w < W; ++w) {
      const Status& st = worker_status[static_cast<size_t>(w)];
      if (!st.ok()) return st;
    }
    return Status::OK();
  };

  int stage_retries = 0;
  Status phase_status = RunWithRecovery(
      SiteKind::kStage, stage_label, opts.recovery, &ctx->metrics(),
      &stage_retries, [&](int site, int attempt) {
        return phase_attempt(join, stage_label, site, attempt);
      });

  JoinKind final_join = join;
  std::string final_label = stage_label;
  if (!phase_status.ok() && IsRetryableFailure(phase_status) &&
      join == JoinKind::kTributary && opts.recovery.allow_degradation) {
    // Tributary phase exhausted its retries: degrade to the pipelined hash
    // join over the same shuffled inputs (fresh fault site, new label).
    ctx->BookStage(stage_label, region_total, elapsed, sort_s, join_s,
                   /*output_tuples=*/0, /*stage_failed=*/false,
                   static_cast<size_t>(stage_retries), /*degraded=*/true,
                   &worker_mem);
    BookDegradation(ctx, "local phase: tributary join -> hash join");
    std::fill(elapsed.begin(), elapsed.end(), 0.0);
    std::fill(sort_s.begin(), sort_s.end(), 0.0);
    std::fill(join_s.begin(), join_s.end(), 0.0);
    region_total = 0.0;
    join_order = PickJoinOrder(q, opts);
    ctx->result.join_order_used = join_order;
    final_join = JoinKind::kHashJoin;
    final_label = "local TJ (degraded to HJ)";
    stage_retries = 0;
    phase_status = RunWithRecovery(
        SiteKind::kStage, final_label, opts.recovery, &ctx->metrics(),
        &stage_retries, [&](int site, int attempt) {
          return phase_attempt(JoinKind::kHashJoin, final_label, site,
                               attempt);
        });
  }

  // A cancel/deadline from the phase recovery loop's poll: graceful FAIL
  // (the caller keeps the partial metrics), not a hard error.
  if (FailOnControlStatus(ctx, phase_status)) {
    if (meter != nullptr) meter->Release(in_bytes);
    return Status::OK();
  }

  if (!phase_status.ok() && !IsRetryableFailure(phase_status) &&
      phase_status.code() != StatusCode::kResourceExhausted) {
    return phase_status;
  }

  size_t total_output = 0;
  PipelineStats pipeline_stats;
  bool failed = false;
  for (int w = 0; w < W && !failed; ++w) {
    const size_t wi = static_cast<size_t>(w);
    if (final_join == JoinKind::kHashJoin) {
      pipeline_stats.Merge(worker_pipeline[wi]);
      ctx->TrackIntermediate(worker_pipeline[wi].max_intermediate);
    }
    const Status& st = worker_status[wi];
    if (!st.ok()) {
      if (st.code() == StatusCode::kResourceExhausted) {
        ctx->Fail(st.message(), StatusCode::kResourceExhausted);
        failed = true;
      } else if (IsRetryableFailure(st)) {
        ctx->Fail(StrFormat("stage '%s' failed after %d retries: %s",
                            final_label.c_str(), opts.recovery.max_retries,
                            st.ToString().c_str()));
        failed = true;
      } else {
        return st;
      }
    }
    total_output += out[wi].NumTuples();
  }
  ctx->BookStage(final_label, region_total, elapsed, sort_s, join_s,
                 total_output, failed, static_cast<size_t>(stage_retries),
                 /*degraded=*/false, &worker_mem);
  if (!failed && ctx->FailOnControl(final_label)) failed = true;

  // Per-join breakdown of the local pipeline (Table 5).
  for (size_t i = 0; i < pipeline_stats.join_outputs.size(); ++i) {
    StageMetrics stage;
    stage.label = StrFormat("pipeline join %zu", i + 1);
    stage.cpu_seconds = pipeline_stats.join_seconds[i];
    stage.output_tuples = pipeline_stats.join_outputs[i];
    // wall already accounted in the enclosing stage; report 0 to avoid
    // double counting.
    ctx->metrics().stages.push_back(stage);
  }

  if (failed) {
    if (meter != nullptr) meter->Release(in_bytes);
    return Status::OK();
  }
  FinishOutput(ctx, std::move(out));
  if (meter != nullptr) meter->Release(in_bytes);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Broadcast: keep the largest relation partitioned, broadcast the others.
// ---------------------------------------------------------------------------
Result<StrategyResult> RunBroadcast(const NormalizedQuery& q, JoinKind join,
                                    const StrategyOptions& opts) {
  Ctx ctx;
  ctx.q = &q;
  ctx.opts = &opts;
  ctx.W = opts.num_workers;
  ctx.metrics().EnsureWorkers(static_cast<size_t>(ctx.W));
  const int W = ctx.W;

  size_t largest = 0;
  for (size_t i = 1; i < q.atoms.size(); ++i) {
    if (q.atoms[i].relation.NumTuples() >
        q.atoms[largest].relation.NumTuples()) {
      largest = i;
    }
  }

  ResourceMeter* meter = ActiveResourceMeter();
  std::vector<DistributedRelation> shuffled(q.atoms.size());
  for (size_t i = 0; i < q.atoms.size(); ++i) {
    DistributedRelation base = PartitionRoundRobin(q.atoms[i].relation, W);
    if (i == largest) {
      // Stays in place — nothing crosses the network, no fault site.
      Timer t;
      ShuffleResult sr =
          KeepInPlace(base, AtomLabel(q.atoms[i]) + " (in place)");
      ctx.BookShuffle(sr.metrics, t.Seconds());
      shuffled[i] = std::move(sr.data);
      if (meter != nullptr) {
        meter->Charge(MemCategory::kIntermediate, DistBytes(shuffled[i]));
        if (ctx.FailOnControl(AtomLabel(q.atoms[i]))) {
          return std::move(ctx.result);
        }
      }
      continue;
    }
    const std::string label = "Broadcast " + AtomLabel(q.atoms[i]);
    Status st = ShuffleWithRecovery(
        &ctx, label,
        [&](ShuffleAttempt a) {
          return BroadcastShuffle(base, W, label, a);
        },
        &shuffled[i]);
    if (!st.ok()) {
      if (FailOnControlStatus(&ctx, st)) return std::move(ctx.result);
      // A broadcast plan has no cheaper shuffle to fall back to.
      if (!IsRetryableFailure(st)) return st;
      ctx.Fail(StrFormat("exchange '%s' failed after %d retries: %s",
                         label.c_str(), opts.recovery.max_retries,
                         st.ToString().c_str()));
      return std::move(ctx.result);
    }
    if (meter != nullptr) {
      meter->Charge(MemCategory::kIntermediate, DistBytes(shuffled[i]));
      if (ctx.FailOnControl(label)) return std::move(ctx.result);
    }
  }

  // Every worker joins full broadcast copies and a 1/W slice of the
  // in-place atom, so the order is costed on those inputs, not on the global
  // relations: starting on the sliced atom stops each worker enumerating
  // the broadcast atoms' full value space. Round robin gives worker 0 the
  // most in-place rows, so its fragments set the barrier. The inputs are
  // immutable, so the order is the same at any thread count and on replay.
  std::vector<std::string> var_order;
  if (join == JoinKind::kTributary) {
    var_order = opts.var_order;
    if (var_order.empty()) {
      std::vector<const Relation*> worker0;
      for (const DistributedRelation& dist : shuffled) {
        worker0.push_back(&dist[0]);
      }
      var_order = OptimizeVariableOrder(worker0).order;
    }
  }
  PTP_RETURN_IF_ERROR(RunLocalPhase(&ctx, join, shuffled, var_order));
  return std::move(ctx.result);
}

// ---------------------------------------------------------------------------
// HyperCube: single-round shuffle into an Algorithm-1 configuration.
// ---------------------------------------------------------------------------
Result<StrategyResult> RunHypercube(const NormalizedQuery& q, JoinKind join,
                                    const StrategyOptions& opts) {
  Ctx ctx;
  ctx.q = &q;
  ctx.opts = &opts;
  ctx.W = opts.num_workers;
  ctx.metrics().EnsureWorkers(static_cast<size_t>(ctx.W));
  const int W = ctx.W;

  ShareProblem problem = MakeShareProblem(q);
  ConfigChoice choice;
  if (opts.hc_round_down) {
    PTP_ASSIGN_OR_RETURN(choice, RoundDownShares(problem, W));
  } else {
    choice = OptimizeShares(problem, W, opts.hc_options);
  }
  choice.config.salt = opts.salt;
  ctx.result.hc_config = choice.config;
  const std::vector<int> cell_map = IdentityCellMap(choice.config);

  ResourceMeter* meter = ActiveResourceMeter();
  std::vector<DistributedRelation> shuffled(q.atoms.size());
  for (size_t i = 0; i < q.atoms.size(); ++i) {
    DistributedRelation base = PartitionRoundRobin(q.atoms[i].relation, W);
    const std::string label = "HCS " + AtomLabel(q.atoms[i]);
    Status st = ShuffleWithRecovery(
        &ctx, label,
        [&](ShuffleAttempt a) {
          return HypercubeShuffle(base, q.atoms[i].variables, choice.config,
                                  cell_map, W, label, a);
        },
        &shuffled[i]);
    if (!st.ok()) {
      if (FailOnControlStatus(&ctx, st)) return std::move(ctx.result);
      if (IsRetryableFailure(st) && opts.recovery.allow_degradation) {
        // The HyperCube exchange keeps failing: degrade the whole plan to
        // regular hash shuffles. The partial HC accounting (booked
        // shuffles, wasted wall clock, backoff) stays on the bill, and the
        // fallback registers fresh fault sites under its own labels.
        BookDegradation(&ctx, StrFormat(
                                  "'%s': hypercube shuffle -> regular hash "
                                  "shuffle",
                                  label.c_str()));
        Result<StrategyResult> fallback = RunRegular(
            q, join, opts, /*resume=*/nullptr, /*allow_suspend=*/false);
        if (!fallback.ok()) return fallback.status();
        StrategyResult degraded = std::move(fallback).value();
        QueryMetrics combined = std::move(ctx.metrics());
        combined.Absorb(degraded.metrics);
        degraded.metrics = std::move(combined);
        degraded.hc_config = ctx.result.hc_config;
        return degraded;
      }
      if (!IsRetryableFailure(st)) return st;
      ctx.Fail(StrFormat("exchange '%s' failed after %d retries: %s",
                         label.c_str(), opts.recovery.max_retries,
                         st.ToString().c_str()));
      return std::move(ctx.result);
    }
    if (meter != nullptr) {
      meter->Charge(MemCategory::kIntermediate, DistBytes(shuffled[i]));
      if (ctx.FailOnControl(label)) return std::move(ctx.result);
    }
  }

  // Every atom is hashed into cells, so each worker holds a slice of every
  // relation and the order stays costed on the global relations. (Costing
  // one cell's inputs instead was measured mixed on the served mix.)
  const std::vector<std::string> var_order =
      join == JoinKind::kTributary ? PickVarOrder(q, opts)
                                   : std::vector<std::string>();
  PTP_RETURN_IF_ERROR(RunLocalPhase(&ctx, join, shuffled, var_order));
  return std::move(ctx.result);
}

}  // namespace

const char* StrategyName(ShuffleKind shuffle, JoinKind join) {
  switch (shuffle) {
    case ShuffleKind::kRegular:
      return join == JoinKind::kHashJoin ? "RS_HJ" : "RS_TJ";
    case ShuffleKind::kBroadcast:
      return join == JoinKind::kHashJoin ? "BR_HJ" : "BR_TJ";
    case ShuffleKind::kHypercube:
      return join == JoinKind::kHashJoin ? "HC_HJ" : "HC_TJ";
  }
  return "?";
}

Result<StrategyResult> RunStrategy(const NormalizedQuery& query,
                                   ShuffleKind shuffle, JoinKind join,
                                   const StrategyOptions& options) {
  if (query.atoms.empty()) {
    return Status::InvalidArgument("query has no atoms");
  }
  if (options.num_workers < 1) {
    return Status::InvalidArgument("need at least one worker");
  }
  // Restart fault-site numbering: a schedule means the same thing for every
  // strategy run (site ordinals count from the strategy's first barrier).
  if (FaultInjector* injector = ActiveFaultInjector()) injector->Reset();
  // Open a fresh profile section; everything recorded until the next
  // RunStrategy (shuffles, stage timelines, retry epochs — including those
  // of an in-flight plan degradation) lands under this strategy's name.
  if (QueryProfile* profile = ActiveQueryProfile()) {
    profile->BeginStrategy(StrategyName(shuffle, join));
  }
  // The memory meter opens a section per strategy run, like the profiler.
  ResourceMeter* meter = ActiveResourceMeter();
  if (meter != nullptr) meter->BeginQuery(StrategyName(shuffle, join));
  Span strategy_span(StrategyName(shuffle, join), kCoordinatorTrack);
  auto run = [&]() -> Result<StrategyResult> {
    if (query.atoms.size() == 1) {
      // Single-atom query: no join; evaluate locally.
      Ctx ctx;
      ctx.q = &query;
      ctx.opts = &options;
      ctx.W = options.num_workers;
      ctx.metrics().EnsureWorkers(static_cast<size_t>(ctx.W));
      if (ctx.FailOnControl("single-atom scan")) {
        return std::move(ctx.result);
      }
      DistributedRelation frags =
          PartitionRoundRobin(query.atoms[0].relation, ctx.W);
      PTP_RETURN_IF_ERROR(runtime::ParallelFor(
          static_cast<int>(frags.size()), [&](int f) {
            Relation& frag = frags[static_cast<size_t>(f)];
            frag = FilterByPredicates(frag, query.predicates);
            return Status::OK();
          }));
      FinishOutput(&ctx, std::move(frags));
      return std::move(ctx.result);
    }
    switch (shuffle) {
      case ShuffleKind::kRegular:
        return RunRegular(query, join, options);
      case ShuffleKind::kBroadcast:
        return RunBroadcast(query, join, options);
      case ShuffleKind::kHypercube:
        return RunHypercube(query, join, options);
    }
    return Status::InvalidArgument("unknown shuffle kind");
  };
  Result<StrategyResult> result = run();
  if (meter != nullptr && result.ok() && result->checkpoint == nullptr) {
    // Close the section after any degradation Absorb so the metrics carry
    // the whole run's account (HC fallbacks book into the same section).
    // A suspended run leaves its section open: the same meter object stays
    // installed across the suspension and ResumeStrategy closes it, so the
    // final peak/charged figures match an uninterrupted run exactly.
    uint64_t peak = 0;
    uint64_t charged = 0;
    meter->FinishQuery(&peak, &charged);
    result->metrics.peak_bytes = static_cast<size_t>(peak);
    result->metrics.charged_bytes = static_cast<size_t>(charged);
  }
  return result;
}

Result<StrategyResult> ResumeStrategy(const NormalizedQuery& query,
                                      ShuffleKind shuffle, JoinKind join,
                                      const StrategyOptions& options,
                                      const QueryCheckpoint& checkpoint) {
  if (shuffle != ShuffleKind::kRegular) {
    return Status::InvalidArgument(
        "only regular-shuffle runs have barrier suspension points");
  }
  if (checkpoint.strategy != StrategyName(shuffle, join)) {
    return Status::InvalidArgument(
        StrFormat("checkpoint was captured by %s, resume asked for %s",
                  checkpoint.strategy.c_str(), StrategyName(shuffle, join)));
  }
  // Restore the fault-site cursor (Reset() would renumber remaining sites
  // differently from an uninterrupted run). No BeginQuery: the suspended
  // run's meter/profile sections are still open.
  if (FaultInjector* injector = ActiveFaultInjector()) {
    injector->set_cursor(checkpoint.fault_cursor);
  }
  if (QueryLifecycle* lifecycle = ActiveQueryLifecycle()) {
    lifecycle->BookResume();
  }
  Span strategy_span(StrategyName(shuffle, join), kCoordinatorTrack);
  Result<StrategyResult> result =
      RunRegular(query, join, options, &checkpoint);
  ResourceMeter* meter = ActiveResourceMeter();
  if (meter != nullptr && result.ok() && result->checkpoint == nullptr) {
    uint64_t peak = 0;
    uint64_t charged = 0;
    meter->FinishQuery(&peak, &charged);
    result->metrics.peak_bytes = static_cast<size_t>(peak);
    result->metrics.charged_bytes = static_cast<size_t>(charged);
  }
  return result;
}

std::vector<std::pair<ShuffleKind, JoinKind>> AllStrategies() {
  return {
      {ShuffleKind::kRegular, JoinKind::kHashJoin},
      {ShuffleKind::kRegular, JoinKind::kTributary},
      {ShuffleKind::kBroadcast, JoinKind::kHashJoin},
      {ShuffleKind::kBroadcast, JoinKind::kTributary},
      {ShuffleKind::kHypercube, JoinKind::kHashJoin},
      {ShuffleKind::kHypercube, JoinKind::kTributary},
  };
}

Result<std::vector<StrategyResult>> RunAllStrategies(
    const NormalizedQuery& query, const StrategyOptions& options) {
  std::vector<StrategyResult> results;
  for (const auto& [shuffle, join] : AllStrategies()) {
    Result<StrategyResult> r = RunStrategy(query, shuffle, join, options);
    if (!r.ok()) {
      return Status(r.status().code(),
                    StrFormat("strategy %s: %s", StrategyName(shuffle, join),
                              r.status().message().c_str()));
    }
    results.push_back(std::move(r).value());
  }
  return results;
}

}  // namespace ptp
