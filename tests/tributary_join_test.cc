#include "tj/tributary_join.h"

#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "test_util.h"

namespace ptp {
namespace {

TEST(TributaryJoinTest, PaperFigure2Example) {
  // Q(x,y,z) :- R(x,y), S(y,z), T(x,z)  on the Figure 2 data.
  Relation r("R", Schema{"x", "y"});
  for (auto [a, b] : std::vector<std::pair<Value, Value>>{
           {0, 1}, {2, 0}, {2, 3}, {2, 5}, {3, 4}, {4, 2}, {5, 6}}) {
    r.AddTuple({a, b});
  }
  Relation s("S", Schema{"y", "z"});
  for (auto [a, b] : std::vector<std::pair<Value, Value>>{
           {0, 1}, {2, 0}, {2, 3}, {2, 5}, {3, 4}, {4, 2}, {5, 6}}) {
    s.AddTuple({a, b});
  }
  Relation t("T", Schema{"x", "z"});
  for (auto [a, b] : std::vector<std::pair<Value, Value>>{
           {0, 2}, {1, 0}, {2, 4}, {3, 2}, {4, 3}, {5, 2}, {6, 5}}) {
    t.AddTuple({a, b});
  }
  TJMetrics metrics;
  auto result = TributaryJoin({&r, &s, &t}, {"x", "y", "z"}, {}, {}, &metrics);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The paper walks the algorithm to its first output (2, 3, 4).
  ASSERT_GE(result->NumTuples(), 1u);
  EXPECT_EQ(result->GetTuple(0), (Tuple{2, 3, 4}));
  EXPECT_GT(metrics.seeks, 0u);
  EXPECT_EQ(metrics.output_tuples, result->NumTuples());
}

TEST(TributaryJoinTest, MatchesBruteForceOnTriangles) {
  Rng rng(11);
  NormalizedQuery q;
  q.atoms.push_back(
      {{"x", "y"}, test::RandomBinaryRelation("R", {"x", "y"}, 60, 12, &rng)});
  q.atoms.push_back(
      {{"y", "z"}, test::RandomBinaryRelation("S", {"y", "z"}, 60, 12, &rng)});
  q.atoms.push_back(
      {{"z", "x"}, test::RandomBinaryRelation("T", {"z", "x"}, 60, 12, &rng)});
  q.head_vars = {"x", "y", "z"};
  Relation expected = test::BruteForceJoin(q);
  auto result = TributaryJoinQuery(q, {"x", "y", "z"});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->EqualsUnordered(expected));
}

TEST(TributaryJoinTest, ResultIndependentOfVariableOrder) {
  Rng rng(13);
  NormalizedQuery q;
  q.atoms.push_back(
      {{"x", "y"}, test::RandomBinaryRelation("R", {"x", "y"}, 80, 10, &rng)});
  q.atoms.push_back(
      {{"y", "z"}, test::RandomBinaryRelation("S", {"y", "z"}, 80, 10, &rng)});
  q.atoms.push_back(
      {{"z", "x"}, test::RandomBinaryRelation("T", {"z", "x"}, 80, 10, &rng)});
  q.head_vars = {"x", "y", "z"};

  std::vector<std::vector<std::string>> orders = {
      {"x", "y", "z"}, {"x", "z", "y"}, {"y", "x", "z"},
      {"y", "z", "x"}, {"z", "x", "y"}, {"z", "y", "x"}};
  auto first = TributaryJoinQuery(q, orders[0]);
  ASSERT_TRUE(first.ok());
  for (size_t i = 1; i < orders.size(); ++i) {
    auto other = TributaryJoinQuery(q, orders[i]);
    ASSERT_TRUE(other.ok());
    EXPECT_TRUE(first->EqualsUnordered(*other)) << "order #" << i;
  }
}

TEST(TributaryJoinTest, BinaryJoinIsMergeJoin) {
  Rng rng(17);
  NormalizedQuery q;
  q.atoms.push_back(
      {{"a", "b"}, test::RandomBinaryRelation("R", {"a", "b"}, 50, 8, &rng)});
  q.atoms.push_back(
      {{"b", "c"}, test::RandomBinaryRelation("S", {"b", "c"}, 50, 8, &rng)});
  q.head_vars = {"a", "b", "c"};
  Relation expected = test::BruteForceJoin(q);
  // head (a,b,c) != order (b,a,c), so the result is projected back to head.
  auto result = TributaryJoinQuery(q, {"b", "a", "c"});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->EqualsUnordered(expected));
}

TEST(TributaryJoinTest, PredicatesPruneDuringJoin) {
  Rng rng(19);
  NormalizedQuery q;
  q.atoms.push_back(
      {{"x", "y"}, test::RandomBinaryRelation("R", {"x", "y"}, 70, 9, &rng)});
  q.atoms.push_back(
      {{"y", "z"}, test::RandomBinaryRelation("S", {"y", "z"}, 70, 9, &rng)});
  q.head_vars = {"x", "y", "z"};
  q.predicates.push_back(
      Predicate{Term::Var("x"), CmpOp::kLt, Term::Var("z")});
  q.predicates.push_back(Predicate{Term::Var("y"), CmpOp::kGe,
                                   Term::Const(3)});
  Relation expected = test::BruteForceJoin(q);
  auto result = TributaryJoinQuery(q, {"x", "y", "z"});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->EqualsUnordered(expected));
}

TEST(TributaryJoinTest, ProjectionDeduplicates) {
  Relation r("R", Schema{"x", "y"});
  r.AddTuple({1, 10});
  r.AddTuple({1, 20});
  r.AddTuple({2, 10});
  Relation s("S", Schema{"y", "z"});
  s.AddTuple({10, 5});
  s.AddTuple({20, 5});
  NormalizedQuery q;
  q.atoms.push_back({{"x", "y"}, r});
  q.atoms.push_back({{"y", "z"}, s});
  q.head_vars = {"z"};
  auto result = TributaryJoinQuery(q, {"x", "y", "z"});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->NumTuples(), 1u);  // z=5 once (set semantics)
}

TEST(TributaryJoinTest, EmptyInputYieldsEmptyResult) {
  Relation r("R", Schema{"x", "y"});
  Relation s("S", Schema{"y", "z"});
  s.AddTuple({1, 2});
  auto result = TributaryJoin({&r, &s}, {"x", "y", "z"}, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->NumTuples(), 0u);
}

TEST(TributaryJoinTest, OutputBudgetTriggersResourceExhausted) {
  // Cross-product-ish heavy query via a shared variable with one value.
  Relation r("R", Schema{"k", "a"});
  Relation s("S", Schema{"k", "b"});
  for (Value i = 0; i < 100; ++i) {
    r.AddTuple({0, i});
    s.AddTuple({0, i});
  }
  TJOptions opts;
  opts.max_output_rows = 50;
  auto result = TributaryJoin({&r, &s}, {"k", "a", "b"}, {}, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(TributaryJoinTest, SeekBudgetTriggersResourceExhausted) {
  Rng rng(23);
  Relation r = test::RandomBinaryRelation("R", {"x", "y"}, 200, 40, &rng);
  Relation s = test::RandomBinaryRelation("S", {"y", "z"}, 200, 40, &rng);
  TJOptions opts;
  opts.max_seeks = 10;
  auto result = TributaryJoin({&r, &s}, {"x", "y", "z"}, {}, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// The max_seeks budget compares a running count that must equal the seeks
// the cursors count (TJMetrics::seeks): at exactly that many seeks the join
// completes with the same output, one fewer fails. The largest x is the
// largest Value, so the last top-level Next() finds the end without a seek
// on either backend (the B-tree cursor otherwise counts a Next() as a
// seek), and every seek precedes the last budget check.
class TJSeekBudget : public ::testing::TestWithParam<TJBackend> {};

TEST_P(TJSeekBudget, TripsExactlyAtTheCursorSeekCount) {
  Rng rng(29);
  Relation r = test::RandomBinaryRelation("R", {"x", "y"}, 150, 20, &rng);
  Relation s = test::RandomBinaryRelation("S", {"y", "z"}, 150, 20, &rng);
  Relation t = test::RandomBinaryRelation("T", {"z", "x"}, 150, 20, &rng);
  constexpr Value kMax = std::numeric_limits<Value>::max();
  r.AddTuple({kMax, 0});
  t.AddTuple({0, kMax});
  const std::vector<const Relation*> inputs = {&r, &s, &t};
  const std::vector<std::string> order = {"x", "y", "z"};
  TJOptions opts;
  opts.backend = GetParam();
  TJMetrics unbounded;
  auto full = TributaryJoin(inputs, order, {}, opts, &unbounded);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_GT(full->NumTuples(), 0u);
  const size_t seeks = unbounded.seeks;
  ASSERT_GT(seeks, 0u);

  opts.max_seeks = seeks;
  TJMetrics at_budget;
  auto exact = TributaryJoin(inputs, order, {}, opts, &at_budget);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(exact->data(), full->data());
  EXPECT_EQ(at_budget.seeks, seeks);

  opts.max_seeks = seeks - 1;
  auto over = TributaryJoin(inputs, order, {}, opts);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, TJSeekBudget,
    ::testing::Values(TJBackend::kSortedArray, TJBackend::kBTree),
    [](const ::testing::TestParamInfo<TJBackend>& info) {
      return std::string(info.param == TJBackend::kSortedArray ? "Array"
                                                               : "BTree");
    });

TEST(TributaryJoinTest, MissingVariableInOrderIsInvalid) {
  Relation r("R", Schema{"x", "y"});
  r.AddTuple({1, 2});
  auto result = TributaryJoin({&r}, {"x"}, {});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TributaryJoinTest, VariableInNoInputIsInvalid) {
  Relation r("R", Schema{"x"});
  r.AddTuple({1});
  auto result = TributaryJoin({&r}, {"x", "ghost"}, {});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// Property sweep: random 4-cycle queries across seeds match brute force.
class TJRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(TJRandomSweep, FourCycleMatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  NormalizedQuery q;
  q.atoms.push_back(
      {{"x", "y"}, test::RandomBinaryRelation("R", {"x", "y"}, 40, 8, &rng)});
  q.atoms.push_back(
      {{"y", "z"}, test::RandomBinaryRelation("S", {"y", "z"}, 40, 8, &rng)});
  q.atoms.push_back(
      {{"z", "p"}, test::RandomBinaryRelation("T", {"z", "p"}, 40, 8, &rng)});
  q.atoms.push_back(
      {{"p", "x"}, test::RandomBinaryRelation("K", {"p", "x"}, 40, 8, &rng)});
  q.head_vars = {"x", "y", "z", "p"};
  Relation expected = test::BruteForceJoin(q);
  auto result = TributaryJoinQuery(q, {"x", "y", "z", "p"});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->EqualsUnordered(expected));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TJRandomSweep, ::testing::Range(0, 12));

}  // namespace
}  // namespace ptp
