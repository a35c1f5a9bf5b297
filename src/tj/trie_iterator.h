#ifndef PTP_TJ_TRIE_ITERATOR_H_
#define PTP_TJ_TRIE_ITERATOR_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/logging.h"
#include "storage/relation.h"
#include "tj/trie_cursor.h"

namespace ptp {

/// Presents a lexicographically sorted relation as a trie, implementing the
/// LFTJ iterator API (Veldhuizen '14) over a flat array instead of a B-tree:
///
///   Open()  — descend to the first key of the next attribute level
///   Up()    — return to the parent level
///   Next()  — advance to the next distinct key at this level
///   Seek(v) — least key >= v at this level (binary search, O(log n);
///             the paper's Sec. 2.2 trade-off vs. LogicBlox's O(1) B-tree)
///   Key() / AtEnd()
///
/// A level's keys are the distinct values of column `depth` among the rows
/// that share the current prefix; those rows are a contiguous sub-array, so
/// state per level is just a [lo, hi) range plus the current key block.
///
/// The class is final and its hot methods are defined here, so code
/// templated on TrieIterator (the array instantiation of the leapfrog join)
/// calls them directly and inlines them; see docs/KERNELS.md.
class TrieIterator final : public TrieCursor {
 public:
  /// `rel` must outlive the iterator, be sorted with SortLex(), and not be
  /// modified while the iterator is in use.
  explicit TrieIterator(const Relation* rel)
      : rel_(rel),
        data_(rel->data().data()),
        arity_(rel->arity()),
        num_rows_(rel->NumTuples()) {
    PTP_DCHECK(rel_->IsSortedLex());
    levels_.reserve(arity_);
  }

  /// Current level; -1 before the first Open().
  int depth() const override { return static_cast<int>(levels_.size()) - 1; }

  /// True if positioned past the last key of the current level.
  bool AtEnd() const override { return levels_.back().at_end; }

  /// Current key; requires !AtEnd() and depth() >= 0.
  Value Key() const override {
    PTP_DCHECK(depth() >= 0 && !AtEnd());
    return data_[levels_.back().pos * arity_ + levels_.size() - 1];
  }

  /// Descends to the first key one level deeper. Requires !AtEnd() (or
  /// depth() == -1 and a nonempty relation).
  void Open() override {
    size_t lo, hi;
    if (levels_.empty()) {
      lo = 0;
      hi = num_rows_;
    } else {
      PTP_DCHECK(!AtEnd());
      lo = levels_.back().pos;
      hi = levels_.back().block_end;
    }
    PTP_DCHECK(lo < hi);
    PTP_CHECK_LT(levels_.size(), arity_);
    ++num_opens_;
    levels_.push_back(Level{lo, hi, lo, lo, false});
    FindBlockEnd();
  }

  /// Ascends one level. Requires depth() >= 0.
  void Up() override {
    PTP_DCHECK(!levels_.empty());
    ++num_ups_;
    levels_.pop_back();
  }

  /// Advances to the next distinct key at this level.
  void Next() override {
    Level& level = levels_.back();
    PTP_DCHECK(!level.at_end);
    ++num_nexts_;
    level.pos = level.block_end;
    if (level.pos >= level.hi) {
      level.at_end = true;
      return;
    }
    FindBlockEnd();
  }

  /// Positions at the least key >= v at this level, or AtEnd().
  void Seek(Value v) override {
    Level& level = levels_.back();
    PTP_DCHECK(!level.at_end);
    ++num_seeks_;
    const size_t col = levels_.size() - 1;
    if (data_[level.pos * arity_ + col] >= v) {
      return;  // already positioned
    }
    // The target is the first row with column value >= v within
    // [block_end, hi) — rows before block_end share the current (smaller)
    // key. LFTJ seeks advance monotonically and the leapfrog intersection
    // usually lands close by, so gallop from the current position first:
    // probe block_end + 1, +2, +4, ... to bracket the target in
    // O(log distance) steps, then binary-search only inside that bracket.
    const size_t base = level.block_end;
    size_t bound = 1;
    while (base + bound < level.hi &&
           data_[(base + bound) * arity_ + col] < v) {
      bound <<= 1;
      ++num_gallop_steps_;
    }
    // Rows at or before base + bound/2 are known < v (bound/2 was the last
    // successful probe; bound/2 == 0 brackets [base, base + 1)).
    size_t lo = base + bound / 2;
    size_t hi = std::min(base + bound, level.hi);
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (data_[mid * arity_ + col] < v) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    level.pos = lo;
    if (level.pos >= level.hi) {
      level.at_end = true;
      return;
    }
    FindBlockEnd();
  }

  bool EmptyRelation() const override { return num_rows_ == 0; }

  /// Number of Seek() calls performed (cost-model instrumentation).
  size_t num_seeks() const override { return num_seeks_; }
  /// Number of Next() calls performed.
  size_t num_nexts() const override { return num_nexts_; }
  size_t num_opens() const override { return num_opens_; }
  size_t num_ups() const override { return num_ups_; }
  /// Galloping probe steps spent bracketing Seek() targets before the
  /// bounded binary search (the key-block scan's probes are not counted).
  size_t num_gallop_steps() const override { return num_gallop_steps_; }

  const Relation& relation() const { return *rel_; }

 private:
  struct Level {
    size_t lo;         // first row with the current prefix
    size_t hi;         // one past the last row with the current prefix
    size_t pos;        // first row of the current key block
    size_t block_end;  // one past the last row of the current key block
    bool at_end;
  };

  /// Recomputes block_end for the key at `pos` of the top level.
  ///
  /// The rows in [lo, hi) share the first depth() columns, so column
  /// depth() alone is sorted there and the key block ends at the first row
  /// whose value in that column exceeds the key. Blocks are usually short,
  /// so gallop from pos (probe pos + 1, +2, +4, ...) and bisect only the
  /// last window, as Seek() does.
  void FindBlockEnd() {
    Level& level = levels_.back();
    const size_t col = levels_.size() - 1;
    const size_t pos = level.pos;
    const Value key = data_[pos * arity_ + col];
    size_t bound = 1;
    while (pos + bound < level.hi &&
           data_[(pos + bound) * arity_ + col] <= key) {
      bound <<= 1;
    }
    // Rows up to pos + bound/2 hold the key (pos itself when bound == 1);
    // pos + bound, when inside the range, holds a larger value.
    size_t lo = pos + bound / 2 + 1;
    size_t hi = std::min(pos + bound, level.hi);
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (data_[mid * arity_ + col] <= key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    level.block_end = lo;
  }

  const Relation* rel_;
  const Value* data_;  // rel_'s row-major values
  size_t arity_;
  size_t num_rows_;
  std::vector<Level> levels_;
  size_t num_seeks_ = 0;
  size_t num_nexts_ = 0;
  size_t num_opens_ = 0;
  size_t num_ups_ = 0;
  size_t num_gallop_steps_ = 0;
};

}  // namespace ptp

#endif  // PTP_TJ_TRIE_ITERATOR_H_
