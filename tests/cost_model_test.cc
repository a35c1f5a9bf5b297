#include "tj/cost_model.h"

#include <algorithm>

#include "data/workloads.h"
#include "exec/cluster.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "tj/order_optimizer.h"
#include "tj/tributary_join.h"

namespace ptp {
namespace {

TEST(FoldStepCostTest, MatchesEquation4) {
  // Cost = S1 + S1*(S2 + S2*(S3)) for S = (2, 3, 4):
  // inner = 4; mid = 3 + 3*4 = 15; outer = 2 + 2*15 = 32.
  EXPECT_DOUBLE_EQ(FoldStepCost({2, 3, 4}), 32.0);
  EXPECT_DOUBLE_EQ(FoldStepCost({5}), 5.0);
  EXPECT_DOUBLE_EQ(FoldStepCost({}), 0.0);
  EXPECT_DOUBLE_EQ(FoldStepCost({0, 100}), 0.0);  // empty first step
}

TEST(CostModelTest, StepOneIsMinDistinctOfFirstVariable) {
  // R(x,y) with 3 distinct x; S(x,z) with 2 distinct x.
  Relation r("R", Schema{"x", "y"});
  r.AddTuple({1, 1});
  r.AddTuple({2, 1});
  r.AddTuple({3, 1});
  Relation s("S", Schema{"x", "z"});
  s.AddTuple({1, 5});
  s.AddTuple({2, 6});
  TJCostModel model({&r, &s});
  std::vector<double> steps = model.StepSizes({"x", "y", "z"});
  EXPECT_DOUBLE_EQ(steps[0], 2.0);  // min(V(R,x)=3, V(S,x)=2)
}

TEST(CostModelTest, ResidualStepUsesPrefixRatio) {
  // R(x,y): V(x)=2, V(x,y)=6 -> residual y-per-x = 3.
  Relation r("R", Schema{"x", "y"});
  for (Value x = 0; x < 2; ++x) {
    for (Value y = 0; y < 3; ++y) r.AddTuple({x, y});
  }
  TJCostModel model({&r});
  std::vector<double> steps = model.StepSizes({"x", "y"});
  EXPECT_DOUBLE_EQ(steps[0], 2.0);
  EXPECT_DOUBLE_EQ(steps[1], 3.0);
  EXPECT_DOUBLE_EQ(model.EstimateCost({"x", "y"}), 2.0 + 2.0 * 3.0);
}

TEST(CostModelTest, PrefersSelectiveVariableFirst) {
  // Selective relation Tiny(s) with 1 value joins R(s, t); starting with s
  // must be estimated cheaper than starting with t.
  Relation tiny("Tiny", Schema{"s"});
  tiny.AddTuple({3});
  Relation r("R", Schema{"s", "t"});
  for (Value s = 0; s < 50; ++s) {
    for (Value t = 0; t < 4; ++t) r.AddTuple({s, t * 100 + s});
  }
  TJCostModel model({&tiny, &r});
  EXPECT_LT(model.EstimateCost({"s", "t"}), model.EstimateCost({"t", "s"}));
}

TEST(CostModelTest, MemoizationGivesIdenticalRepeatedEstimates) {
  Rng rng(4);
  Relation r = test::RandomBinaryRelation("R", {"x", "y"}, 100, 20, &rng);
  Relation s = test::RandomBinaryRelation("S", {"y", "z"}, 100, 20, &rng);
  TJCostModel model({&r, &s});
  const double a = model.EstimateCost({"x", "y", "z"});
  const double b = model.EstimateCost({"x", "y", "z"});
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(OrderOptimizerTest, CoversAllVariables) {
  Rng rng(6);
  NormalizedQuery q;
  q.atoms.push_back(
      {{"x", "y"}, test::RandomBinaryRelation("R", {"x", "y"}, 60, 10, &rng)});
  q.atoms.push_back(
      {{"y", "z"}, test::RandomBinaryRelation("S", {"y", "z"}, 60, 10, &rng)});
  q.atoms.push_back(
      {{"z", "w"}, test::RandomBinaryRelation("T", {"z", "w"}, 60, 10, &rng)});
  q.head_vars = {"x", "w"};
  OrderChoice choice = OptimizeVariableOrder(q);
  EXPECT_EQ(choice.order.size(), 4u);
  for (const char* v : {"x", "y", "z", "w"}) {
    EXPECT_NE(std::find(choice.order.begin(), choice.order.end(), v),
              choice.order.end())
        << v;
  }
  EXPECT_GT(choice.estimated_cost, 0.0);
}

TEST(OrderOptimizerTest, ChosenOrderIsCostMinimalAmongEnumerated) {
  Rng rng(8);
  NormalizedQuery q;
  q.atoms.push_back(
      {{"x", "y"}, test::RandomBinaryRelation("R", {"x", "y"}, 80, 12, &rng)});
  q.atoms.push_back(
      {{"y", "z"}, test::RandomBinaryRelation("S", {"y", "z"}, 80, 12, &rng)});
  q.atoms.push_back(
      {{"z", "x"}, test::RandomBinaryRelation("T", {"z", "x"}, 80, 12, &rng)});
  q.head_vars = {"x", "y", "z"};
  OrderChoice best = OptimizeVariableOrder(q);
  for (const OrderChoice& c : EnumerateOrders(q, 1000)) {
    EXPECT_LE(best.estimated_cost, c.estimated_cost + 1e-9);
  }
}

TEST(OrderOptimizerTest, GreedyFallbackProducesValidOrder) {
  // 9 join variables exceeds the exhaustive limit of 8.
  Rng rng(10);
  NormalizedQuery q;
  const char* vars[] = {"a", "b", "c", "d", "e", "f", "g", "h", "i", "a"};
  for (int i = 0; i < 9; ++i) {
    q.atoms.push_back({{vars[i], vars[i + 1]},
                       test::RandomBinaryRelation(
                           "R" + std::to_string(i), {vars[i], vars[i + 1]},
                           30, 6, &rng)});
  }
  q.head_vars = {"a"};
  OrderOptimizerOptions opts;
  opts.exhaustive_limit = 4;
  OrderChoice choice = OptimizeVariableOrder(q, opts);
  EXPECT_EQ(choice.order.size(), 9u);
}

TEST(OrderOptimizerTest, EstimatedCostCorrelatesWithSeeks) {
  // Weak-form validation of Sec. 5.2: across all orders of a skewed
  // triangle, the order with the best estimate should not be among the
  // worst actual seek counts. (Pearson r on the paper's queries ranges
  // 0.216..1.0, so demand only a positive relationship.)
  Rng rng(12);
  NormalizedQuery q;
  q.atoms.push_back(
      {{"x", "y"}, test::RandomBinaryRelation("R", {"x", "y"}, 300, 60, &rng)});
  q.atoms.push_back(
      {{"y", "z"}, test::RandomBinaryRelation("S", {"y", "z"}, 40, 60, &rng)});
  q.atoms.push_back(
      {{"z", "x"}, test::RandomBinaryRelation("T", {"z", "x"}, 300, 60, &rng)});
  q.head_vars = {"x", "y", "z"};

  std::vector<OrderChoice> orders = EnumerateOrders(q, 6);
  double best_est = 1e300, best_seeks = 0, worst_seeks = 0;
  for (const OrderChoice& c : orders) {
    TJMetrics m;
    auto r = TributaryJoinQuery(q, c.order, {}, &m);
    ASSERT_TRUE(r.ok());
    if (c.estimated_cost < best_est) {
      best_est = c.estimated_cost;
      best_seeks = static_cast<double>(m.seeks);
    }
    worst_seeks = std::max(worst_seeks, static_cast<double>(m.seeks));
  }
  EXPECT_LE(best_seeks, worst_seeks);
}

// Q6 (two back-to-back triangles) on a small skewed Twitter graph.
NormalizedQuery TwoRings() {
  WorkloadScale scale;
  scale.twitter.num_nodes = 400;
  scale.twitter.num_edges = 2500;
  scale.twitter.zipf_exponent = 0.8;
  scale.seed = 7;
  WorkloadFactory factory(scale);
  auto wl = factory.Make(6);
  PTP_CHECK(wl.ok()) << wl.status().ToString();
  return std::move(wl).value().normalized;
}

std::vector<const Relation*> AtomRelations(const NormalizedQuery& q) {
  std::vector<const Relation*> inputs;
  for (const NormalizedAtom& atom : q.atoms) inputs.push_back(&atom.relation);
  return inputs;
}

TEST(OrderOptimizerTest, InputLevelCallOnAtomsMatchesQueryLevelCall) {
  Rng rng(14);
  NormalizedQuery triangle;
  triangle.atoms.push_back(
      {{"x", "y"}, test::RandomBinaryRelation("R", {"x", "y"}, 200, 30, &rng)});
  triangle.atoms.push_back(
      {{"y", "z"}, test::RandomBinaryRelation("S", {"y", "z"}, 50, 30, &rng)});
  triangle.atoms.push_back(
      {{"z", "x"}, test::RandomBinaryRelation("T", {"z", "x"}, 200, 30, &rng)});
  triangle.atoms.push_back(
      {{"x", "w"}, test::RandomBinaryRelation("L", {"x", "w"}, 20, 30, &rng)});
  for (const NormalizedQuery& q : {triangle, TwoRings()}) {
    const OrderChoice by_query = OptimizeVariableOrder(q);
    const OrderChoice by_inputs = OptimizeVariableOrder(AtomRelations(q));
    EXPECT_EQ(by_inputs.order, by_query.order);
    EXPECT_DOUBLE_EQ(by_inputs.estimated_cost, by_query.estimated_cost);
  }
}

TEST(OrderOptimizerTest, BroadcastShapedInputsStartOnTheSlicedAtom) {
  // One broadcast worker's inputs: full copies of every atom but one, and
  // a 1/W round-robin slice of that one (the in-place atom).
  const NormalizedQuery q = TwoRings();
  constexpr int kWorkers = 16;
  const size_t sliced = 0;
  const Relation slice =
      PartitionRoundRobin(q.atoms[sliced].relation, kWorkers)[0];
  std::vector<const Relation*> inputs = AtomRelations(q);
  inputs[sliced] = &slice;

  const std::vector<std::string>& vars = q.atoms[sliced].variables;
  const auto starts_sliced = [&](const std::vector<std::string>& order) {
    return std::find(vars.begin(), vars.end(), order[0]) != vars.end();
  };
  // On the global relations the model starts elsewhere ...
  EXPECT_FALSE(starts_sliced(OptimizeVariableOrder(q).order));
  // ... but one worker's inputs make the sliced atom the cheap start.
  const OrderChoice worker = OptimizeVariableOrder(inputs);
  EXPECT_TRUE(starts_sliced(worker.order)) << worker.order[0];
  EXPECT_EQ(worker.order.size(), q.Variables().size());
}

}  // namespace
}  // namespace ptp
