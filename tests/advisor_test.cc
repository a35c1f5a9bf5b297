#include "plan/advisor.h"

#include "common/str_util.h"
#include "data/workloads.h"
#include "gtest/gtest.h"
#include "query/parser.h"
#include "test_util.h"

namespace ptp {
namespace {

WorkloadScale SmallScale() {
  WorkloadScale scale;
  scale.twitter.num_nodes = 1500;
  scale.twitter.num_edges = 9000;
  scale.twitter.zipf_exponent = 0.7;
  scale.freebase_scale = 0.2;
  scale.seed = 5;
  return scale;
}

TEST(AdvisorTest, TrianglesOnSkewedGraphGetHypercube) {
  WorkloadFactory factory(SmallScale());
  auto wl = factory.Make(1);
  ASSERT_TRUE(wl.ok());
  StrategyAdvice advice = AdviseStrategy(wl->normalized, 64);
  EXPECT_EQ(advice.shuffle, ShuffleKind::kHypercube);
  EXPECT_EQ(advice.join, JoinKind::kTributary);
  // The exact first-join size must dominate the naive estimate.
  EXPECT_GT(advice.est_max_intermediate, 2.0 * 27000);
}

TEST(AdvisorTest, SelectiveAcyclicQueryGetsRegularShuffle) {
  WorkloadFactory factory(SmallScale());
  auto wl = factory.Make(3);
  ASSERT_TRUE(wl.ok());
  StrategyAdvice advice = AdviseStrategy(wl->normalized, 64);
  EXPECT_EQ(advice.shuffle, ShuffleKind::kRegular);
}

TEST(AdvisorTest, EstimatesArePopulatedAndOrdered) {
  WorkloadFactory factory(SmallScale());
  auto wl = factory.Make(1);
  ASSERT_TRUE(wl.ok());
  StrategyAdvice advice = AdviseStrategy(wl->normalized, 64);
  EXPECT_GT(advice.est_rs_tuples, 0);
  EXPECT_GT(advice.est_br_tuples, 0);
  EXPECT_GT(advice.est_hc_tuples, 0);
  // Triangle on 64 workers: HC replicates 4x, broadcast ~42x inputs.
  EXPECT_LT(advice.est_hc_tuples, advice.est_br_tuples);
  EXPECT_FALSE(advice.rationale.empty());
}

TEST(AdvisorTest, BroadcastWhenCubeIsHighDimensional) {
  // A long cyclic chain with many join variables on few workers forces a
  // high replication factor; a tiny non-largest side makes broadcast cheap.
  Rng rng(8);
  Catalog catalog;
  // 8-cycle over tiny relations except one big one.
  const char* names[] = {"R0", "R1", "R2", "R3", "R4", "R5", "R6", "R7"};
  const char* vars[] = {"a", "b", "c", "d", "e", "f", "g", "h", "a"};
  for (int i = 0; i < 8; ++i) {
    catalog.Put(test::RandomBinaryRelation(
        names[i], {vars[i], vars[i + 1]}, i == 0 ? 4000 : 40, 30, &rng));
  }
  auto parsed = ParseDatalog(
      "Q(a) :- R0(a,b), R1(b,c), R2(c,d), R3(d,e), R4(e,f), R5(f,g), "
      "R6(g,h), R7(h,a).",
      nullptr);
  ASSERT_TRUE(parsed.ok());
  auto nq = Normalize(*parsed, catalog);
  ASSERT_TRUE(nq.ok());
  StrategyAdvice advice = AdviseStrategy(*nq, 64);
  // Whatever wins, the estimates must reflect the 8-D cube's replication
  // burden relative to input size.
  EXPECT_GT(advice.est_hc_tuples, 4000 + 7 * 40);
}

// Every field of two advices, compared exactly: the split path must be
// bit-identical to the one-shot advisor, not merely close.
void ExpectSameAdvice(const StrategyAdvice& a, const StrategyAdvice& b,
                      const std::string& what) {
  EXPECT_EQ(a.shuffle, b.shuffle) << what;
  EXPECT_EQ(a.join, b.join) << what;
  EXPECT_EQ(a.est_rs_tuples, b.est_rs_tuples) << what;
  EXPECT_EQ(a.est_br_tuples, b.est_br_tuples) << what;
  EXPECT_EQ(a.est_hc_tuples, b.est_hc_tuples) << what;
  EXPECT_EQ(a.est_max_intermediate, b.est_max_intermediate) << what;
  EXPECT_EQ(a.est_rs_skew, b.est_rs_skew) << what;
  EXPECT_EQ(a.hc_config.config.join_vars, b.hc_config.config.join_vars)
      << what;
  EXPECT_EQ(a.hc_config.config.dims, b.hc_config.config.dims) << what;
  EXPECT_EQ(a.hc_config.config.salt, b.hc_config.config.salt) << what;
  EXPECT_EQ(a.hc_config.expected_load, b.hc_config.expected_load) << what;
  EXPECT_EQ(a.hc_config.cells_used, b.hc_config.cells_used) << what;
  EXPECT_EQ(a.est_bloom_reduction, b.est_bloom_reduction) << what;
  EXPECT_EQ(a.use_bloom, b.use_bloom) << what;
  EXPECT_EQ(a.used_feedback, b.used_feedback) << what;
  EXPECT_EQ(a.blind_max_qerror, b.blind_max_qerror) << what;
  EXPECT_EQ(a.feedback_max_qerror, b.feedback_max_qerror) << what;
  EXPECT_EQ(a.rationale, b.rationale) << what;
}

// The blind estimates are computed once per prepared plan and every later
// refresh only overlays feedback on them. For all eight paper queries and
// every feedback input — none, or the measured run of each one of the six
// strategies (bloom on, so regular-shuffle runs carry a measured
// selectivity), under a normal and a FAIL-provoking budget — the overlay
// on the one shared BlindEstimates equals a fresh AdviseStrategy.
TEST(AdvisorTest, FeedbackOverlayOnBlindEstimatesEqualsAdviseStrategy) {
  WorkloadScale scale;
  scale.twitter.num_nodes = 400;
  scale.twitter.num_edges = 2500;
  scale.twitter.zipf_exponent = 0.7;
  scale.freebase_scale = 0.08;
  scale.seed = 99;
  WorkloadFactory factory(scale);
  constexpr int kWorkers = 8;
  size_t failed_runs = 0;
  for (int q : WorkloadFactory::AllQueries()) {
    auto wl = factory.Make(q);
    ASSERT_TRUE(wl.ok()) << wl.status().ToString();
    const NormalizedQuery& nq = wl->normalized;
    const BlindEstimates blind = ComputeBlindEstimates(nq, kWorkers);
    ExpectSameAdvice(AdviseFromEstimates(blind, nullptr),
                     AdviseStrategy(nq, kWorkers), wl->id + " blind");

    for (size_t budget : {size_t{20'000'000}, size_t{200}}) {
      StrategyOptions opts;
      opts.num_workers = kWorkers;
      opts.bloom = true;
      opts.intermediate_budget = budget;
      auto runs = RunAllStrategies(nq, opts);
      ASSERT_TRUE(runs.ok()) << runs.status().ToString();
      const auto strategies = AllStrategies();
      ASSERT_EQ(runs->size(), strategies.size());
      for (size_t i = 0; i < strategies.size(); ++i) {
        const std::string name =
            StrategyName(strategies[i].first, strategies[i].second);
        QueryFeedback feedback;
        feedback.query_key = wl->id;
        feedback.workers = kWorkers;
        feedback.strategies.push_back(
            CollectStrategyFeedback(nq, name, (*runs)[i]));
        failed_runs += feedback.strategies.back().failed ? 1 : 0;
        ExpectSameAdvice(AdviseFromEstimates(blind, &feedback),
                         AdviseStrategy(nq, kWorkers, &feedback),
                         StrFormat("%s budget %zu after %s", wl->id.c_str(),
                                   budget, name.c_str()));
      }
    }
  }
  // The small budget must actually have exercised the FAIL branches.
  EXPECT_GT(failed_runs, 0u);
}

TEST(AdvisorTest, AdvisedPlanProducesCorrectResult) {
  WorkloadFactory factory(SmallScale());
  for (int q : {1, 3, 7}) {
    auto wl = factory.Make(q);
    ASSERT_TRUE(wl.ok());
    StrategyOptions opts;
    opts.num_workers = 8;
    StrategyAdvice advice = AdviseStrategy(wl->normalized, opts.num_workers);
    auto advised = RunStrategy(wl->normalized, advice.shuffle, advice.join,
                               opts);
    auto reference = RunStrategy(wl->normalized, ShuffleKind::kHypercube,
                                 JoinKind::kTributary, opts);
    ASSERT_TRUE(advised.ok() && reference.ok());
    EXPECT_TRUE(advised->output.EqualsUnordered(reference->output))
        << wl->id;
  }
}

}  // namespace
}  // namespace ptp
