// Backend-conformance suite: both TrieCursor implementations (sorted-array
// TrieIterator and B+-tree BTreeTrieIterator) must expose identical trie
// semantics. Parameterized over backend and data seed.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "test_util.h"
#include "tj/btree.h"
#include "tj/btree_trie.h"
#include "tj/trie_iterator.h"
#include "tj/tributary_join.h"

namespace ptp {
namespace {

enum class Backend { kArray, kBTree };

struct CursorFixture {
  // Keep the storage alive alongside the cursor.
  Relation sorted;
  std::unique_ptr<BPlusTree> tree;
  std::unique_ptr<TrieCursor> cursor;
};

CursorFixture MakeCursor(Backend backend, const Relation& rel) {
  CursorFixture fx;
  if (backend == Backend::kArray) {
    fx.sorted = rel;
    fx.sorted.SortLex();
    fx.cursor = std::make_unique<TrieIterator>(&fx.sorted);
  } else {
    fx.tree = std::make_unique<BPlusTree>(rel.arity());
    fx.tree->InsertAll(rel);
    fx.cursor = std::make_unique<BTreeTrieIterator>(fx.tree.get());
  }
  return fx;
}

class TrieConformance
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  Backend backend() const {
    return std::get<0>(GetParam()) == 0 ? Backend::kArray : Backend::kBTree;
  }
  uint64_t seed() const {
    return static_cast<uint64_t>(std::get<1>(GetParam()));
  }
};

TEST_P(TrieConformance, FullWalkEnumeratesDistinctTrie) {
  Rng rng(seed());
  Relation rel = test::RandomBinaryRelation("R", {"a", "b"}, 150, 12, &rng);
  CursorFixture fx = MakeCursor(backend(), rel);
  TrieCursor& it = *fx.cursor;

  // Reference: distinct (a) keys and per-a distinct b keys from a sorted
  // dedup'd copy.
  Relation ref = rel;
  ref.SortAndDedup();

  it.Open();
  size_t row = 0;
  while (!it.AtEnd()) {
    ASSERT_LT(row, ref.NumTuples());
    EXPECT_EQ(it.Key(), ref.At(row, 0));
    it.Open();
    while (!it.AtEnd()) {
      ASSERT_LT(row, ref.NumTuples());
      EXPECT_EQ(it.Key(), ref.At(row, 1));
      ++row;
      it.Next();
    }
    it.Up();
    it.Next();
  }
  EXPECT_EQ(row, ref.NumTuples());
}

TEST_P(TrieConformance, SeekSemantics) {
  Relation rel("R", Schema{"a", "b"});
  for (Value a : {2, 5, 9}) {
    for (Value b : {10, 20, 30}) rel.AddTuple({a, b + a});
  }
  CursorFixture fx = MakeCursor(backend(), rel);
  TrieCursor& it = *fx.cursor;
  it.Open();
  it.Seek(3);
  EXPECT_EQ(it.Key(), 5);
  it.Seek(5);  // seek to current: no move
  EXPECT_EQ(it.Key(), 5);
  it.Open();
  EXPECT_EQ(it.Key(), 15);
  it.Seek(24);
  EXPECT_EQ(it.Key(), 25);
  it.Seek(36);  // past the a=5 block
  EXPECT_TRUE(it.AtEnd());
  it.Up();
  EXPECT_EQ(it.Key(), 5);
  it.Next();
  EXPECT_EQ(it.Key(), 9);
}

TEST_P(TrieConformance, SeekCountsTracked) {
  Rng rng(seed() + 100);
  Relation rel = test::RandomBinaryRelation("R", {"a", "b"}, 80, 40, &rng);
  CursorFixture fx = MakeCursor(backend(), rel);
  TrieCursor& it = *fx.cursor;
  it.Open();
  const size_t before = it.num_seeks();
  it.Seek(it.Key() + 1);
  EXPECT_GT(it.num_seeks(), before);
}

TEST_P(TrieConformance, EmptyRelationReported) {
  Relation empty("R", Schema{"a", "b"});
  CursorFixture fx = MakeCursor(backend(), empty);
  EXPECT_TRUE(fx.cursor->EmptyRelation());
}

// Brute-force reference cursor over a sorted relation: every operation is
// a linear scan, and a key block ends where the row's prefix up to and
// including this level changes.
class ScanCursor final : public TrieCursor {
 public:
  explicit ScanCursor(const Relation* sorted) : rel_(sorted) {}

  int depth() const override { return static_cast<int>(levels_.size()) - 1; }
  bool AtEnd() const override {
    return levels_.back().pos == levels_.back().hi;
  }
  Value Key() const override {
    return rel_->At(levels_.back().pos, levels_.size() - 1);
  }
  void Open() override {
    size_t lo = 0, hi = rel_->NumTuples();
    if (!levels_.empty()) {
      lo = levels_.back().pos;
      hi = BlockEnd();
    }
    levels_.push_back(Level{lo, hi});
  }
  void Up() override { levels_.pop_back(); }
  void Next() override { levels_.back().pos = BlockEnd(); }
  void Seek(Value v) override {
    ++num_seeks_;
    while (!AtEnd() && Key() < v) ++levels_.back().pos;
  }
  bool EmptyRelation() const override { return rel_->NumTuples() == 0; }
  size_t num_seeks() const override { return num_seeks_; }

 private:
  struct Level {
    size_t pos;  // first row of the current key block
    size_t hi;   // one past the last row with the current prefix
  };

  size_t BlockEnd() const {
    const Level& level = levels_.back();
    size_t end = level.pos;
    while (end < level.hi &&
           CompareRows(rel_->Row(end), rel_->Row(level.pos),
                       levels_.size()) == 0) {
      ++end;
    }
    return end;
  }

  const Relation* rel_;
  std::vector<Level> levels_;
  size_t num_seeks_ = 0;
};

// Block lengths on both sides of the galloping windows (1, 2, 4, ...):
// 1, 2, 3 and 2^k - 1, 2^k, 2^k + 1.
const std::vector<Value> kBlockLengths = {1, 2,  3,  4,  5,  7,  8,
                                          9, 15, 16, 17, 31, 32, 33};

// R(a, b, c) whose key blocks take every length in kBlockLengths at each
// level. The last block of every range runs to its end; the last a-block
// (one b, c-blocks of duplicate rows) does so at all three levels.
Relation BlockLengthRelation() {
  Relation rel("R", Schema{"a", "b", "c"});
  const Value n = static_cast<Value>(kBlockLengths.size());
  // a-blocks of each length: one b whose c values are distinct.
  for (Value i = 0; i < n; ++i) {
    for (Value c = 0; c < kBlockLengths[i]; ++c) rel.AddTuple({10 * i, 5, c});
  }
  // One a-block with b-blocks of each length.
  for (Value j = 0; j < n; ++j) {
    for (Value c = 0; c < kBlockLengths[j]; ++c) {
      rel.AddTuple({1000, 3 * j, c});
    }
  }
  // One a-block, one b, and c-blocks of each length made of duplicate rows.
  for (Value j = 0; j < n; ++j) {
    for (Value dup = 0; dup < kBlockLengths[j]; ++dup) {
      rel.AddTuple({2000, 0, 2 * j});
    }
  }
  return rel;
}

// Records the cursor's position: depth, and the key or end at that depth.
std::string Position(const TrieCursor& it) {
  if (it.depth() < 0) return "root";
  return std::to_string(it.depth()) + ":" +
         (it.AtEnd() ? std::string("end") : std::to_string(it.Key()));
}

// Full walk of the trie, stepping with Next() (or with Seek(key + 1) when
// `by_seek`), recording every position visited.
void Walk(TrieCursor& it, int arity, bool by_seek,
          std::vector<std::string>* trace) {
  it.Open();
  while (!it.AtEnd()) {
    trace->push_back(Position(it));
    if (it.depth() + 1 < arity) {
      Walk(it, arity, by_seek, trace);
      it.Up();
    }
    if (by_seek) {
      it.Seek(it.Key() + 1);
    } else {
      it.Next();
    }
  }
  trace->push_back(Position(it));
}

enum class Op { kOpen, kUp, kNext, kSeek };
struct Step {
  Op op;
  Value target;  // kSeek only
};

// Whether `step` is legal at the cursor's position (arity-3 trie).
bool Legal(const TrieCursor& it, const Step& step) {
  const bool on_key = it.depth() >= 0 && !it.AtEnd();
  switch (step.op) {
    case Op::kOpen:
      return it.depth() < 0 || (on_key && it.depth() < 2);
    case Op::kUp:
      return it.depth() >= 0;
    case Op::kNext:
    case Op::kSeek:
      return on_key;
  }
  return false;
}

// A fixed random Open/Next/Seek/Up script, drawn while walking the
// reference cursor so that every step is legal there.
std::vector<Step> MakeScript(const Relation& sorted, uint64_t seed) {
  ScanCursor ref(&sorted);
  Rng rng(seed);
  const Value kSeekDeltas[] = {0, 1, 2, 3, 4, 7, 8, 9, 16, 33, 500};
  std::vector<Step> script;
  while (script.size() < 600) {
    Step step{static_cast<Op>(rng.Uniform(4)), 0};
    if (step.op == Op::kSeek && ref.depth() >= 0 && !ref.AtEnd()) {
      step.target = ref.Key() + kSeekDeltas[rng.Uniform(11)];
    }
    if (!Legal(ref, step)) continue;
    switch (step.op) {
      case Op::kOpen: ref.Open(); break;
      case Op::kUp: ref.Up(); break;
      case Op::kNext: ref.Next(); break;
      case Op::kSeek: ref.Seek(step.target); break;
    }
    script.push_back(step);
  }
  return script;
}

// Replays `script`, recording the position after each step; stops at the
// first step the cursor's position makes illegal.
std::vector<std::string> Replay(TrieCursor& it,
                                const std::vector<Step>& script) {
  std::vector<std::string> trace;
  for (const Step& step : script) {
    if (!Legal(it, step)) {
      trace.push_back("illegal");
      break;
    }
    switch (step.op) {
      case Op::kOpen: it.Open(); break;
      case Op::kUp: it.Up(); break;
      case Op::kNext: it.Next(); break;
      case Op::kSeek: it.Seek(step.target); break;
    }
    trace.push_back(Position(it));
  }
  return trace;
}

TEST_P(TrieConformance, KeyBlockBoundariesMatchReference) {
  Relation rel = BlockLengthRelation();
  Relation sorted = rel;
  sorted.SortLex();
  for (bool by_seek : {false, true}) {
    std::vector<std::string> expected, actual;
    ScanCursor ref(&sorted);
    Walk(ref, 3, by_seek, &expected);
    CursorFixture walked = MakeCursor(backend(), rel);
    Walk(*walked.cursor, 3, by_seek, &actual);
    EXPECT_EQ(actual, expected) << (by_seek ? "seek walk" : "next walk");
  }
  const std::vector<Step> script = MakeScript(sorted, seed());
  ScanCursor ref(&sorted);
  CursorFixture fx = MakeCursor(backend(), rel);
  EXPECT_EQ(Replay(*fx.cursor, script), Replay(ref, script));
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndSeeds, TrieConformance,
    ::testing::Combine(::testing::Values(0, 1), ::testing::Range(0, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return std::string(std::get<0>(info.param) == 0 ? "Array" : "BTree") +
             "_seed" + std::to_string(std::get<1>(info.param));
    });

TEST(TributaryCountTest, MatchesMaterializedJoin) {
  Rng rng(91);
  NormalizedQuery q;
  q.atoms.push_back(
      {{"x", "y"}, test::RandomBinaryRelation("R", {"x", "y"}, 120, 14, &rng)});
  q.atoms.push_back(
      {{"y", "z"}, test::RandomBinaryRelation("S", {"y", "z"}, 120, 14, &rng)});
  q.atoms.push_back(
      {{"z", "x"}, test::RandomBinaryRelation("T", {"z", "x"}, 120, 14, &rng)});
  q.head_vars = {"x", "y", "z"};
  std::vector<const Relation*> inputs = {&q.atoms[0].relation,
                                         &q.atoms[1].relation,
                                         &q.atoms[2].relation};
  auto materialized = TributaryJoin(inputs, {"x", "y", "z"}, {});
  ASSERT_TRUE(materialized.ok());
  TJMetrics metrics;
  auto count = TributaryCount(inputs, {"x", "y", "z"}, {}, {}, &metrics);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, materialized->NumTuples());
  EXPECT_EQ(metrics.output_tuples, *count);
}

TEST(TributaryCountTest, PredicatesAndBudgets) {
  Relation r("R", Schema{"k", "a"});
  Relation s("S", Schema{"k", "b"});
  for (Value i = 0; i < 50; ++i) {
    r.AddTuple({0, i});
    s.AddTuple({0, i});
  }
  std::vector<Predicate> preds = {
      {Term::Var("a"), CmpOp::kLt, Term::Var("b")}};
  auto count = TributaryCount({&r, &s}, {"k", "a", "b"}, preds);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 50u * 49u / 2);  // pairs with a < b

  TJOptions opts;
  opts.max_output_rows = 100;
  auto capped = TributaryCount({&r, &s}, {"k", "a", "b"}, {}, opts);
  EXPECT_EQ(capped.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace ptp
