#ifndef PTP_TJ_LEAPFROG_H_
#define PTP_TJ_LEAPFROG_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "tj/trie_cursor.h"

namespace ptp {

/// Counters for the leapfrog work done at one trie level; the Tributary
/// join keeps one per variable, which is exactly the per-variable seek
/// attribution the Sec. 5 cost model predicts (and the obs counter
/// registry exports as "tj.seeks.<var>").
struct LeapfrogStats {
  size_t seeks = 0;   // TrieCursor::Seek calls issued by the leapfrog
  size_t nexts = 0;   // TrieCursor::Next calls issued by the leapfrog
  size_t keys = 0;    // common keys found (intersection output size)
};

/// Leapfrog intersection of k trie iterators positioned at the same level
/// (Veldhuizen '14, Algorithm "leapfrog-join"): enumerates the values common
/// to all iterators in ascending order by repeatedly seeking the smallest
/// iterator past the largest key.
///
/// `Cursor` is TrieCursor (virtual calls; any backend) or a final cursor
/// class such as TrieIterator, whose calls the compiler then inlines. An
/// instance can be reused: refill cursors() and call Init() again, which
/// allocates nothing once the vector has grown to its largest size.
template <typename Cursor>
class LeapfrogJoinT {
 public:
  /// An idle instance; fill cursors() and call Init() before use.
  LeapfrogJoinT() = default;

  /// All iterators must already be Open()ed at the level to intersect.
  /// `stats`, when given, accumulates across this instance's lifetime (it
  /// may be shared by many instances, e.g. one per recursion depth).
  explicit LeapfrogJoinT(std::vector<Cursor*> iters,
                         LeapfrogStats* stats = nullptr)
      : iters_(std::move(iters)) {
    Init(stats);
  }

  /// The cursors to intersect; Init() reorders them by key.
  std::vector<Cursor*>& cursors() { return iters_; }

  /// Starts the intersection over cursors(), which must all be Open()ed at
  /// the level to intersect. `stats`, when given, accumulates the leapfrog
  /// work; `cursor_seeks`, when given, accumulates the seeks the cursors
  /// themselves count for the Seek()/Next() calls issued here (equal to
  /// stats->seeks on the array backend; the B-tree cursor also counts each
  /// Next() as a seek and skips seeks that do not move).
  void Init(LeapfrogStats* stats = nullptr, size_t* cursor_seeks = nullptr) {
    PTP_CHECK(!iters_.empty());
    stats_ = stats;
    cursor_seeks_ = cursor_seeks;
    p_ = 0;
    key_ = 0;
    at_end_ = false;
    for (Cursor* it : iters_) {
      if (it->AtEnd()) {
        at_end_ = true;
        return;
      }
    }
    // Sort by current key so iters_[p] is the smallest and the predecessor
    // (cyclically) holds the largest key.
    std::sort(iters_.begin(), iters_.end(),
              [](const Cursor* a, const Cursor* b) {
                return a->Key() < b->Key();
              });
    Search();
  }

  bool AtEnd() const { return at_end_; }
  /// Current common key; requires !AtEnd().
  Value Key() const { return key_; }

  /// Advances to the next common key.
  void Next() {
    PTP_DCHECK(!at_end_);
    Cursor* it = iters_[p_];
    if (stats_ != nullptr) ++stats_->nexts;
    const size_t seeks_before = it->num_seeks();
    it->Next();
    CountCursorSeeks(*it, seeks_before);
    if (it->AtEnd()) {
      at_end_ = true;
      return;
    }
    Advance();
    Search();
  }

  /// Positions at the least common key >= v.
  void Seek(Value v) {
    PTP_DCHECK(!at_end_);
    if (key_ >= v) return;
    Cursor* it = iters_[p_];
    SeekCursor(it, v);
    if (it->AtEnd()) {
      at_end_ = true;
      return;
    }
    Advance();
    Search();
  }

 private:
  /// Core search loop: leapfrogs until all iterators agree on one key.
  void Search() {
    // Invariant: iters_ is cyclically ordered by key starting at p_; the
    // max key is held by the predecessor of p_.
    Value max_key = iters_[p_ == 0 ? iters_.size() - 1 : p_ - 1]->Key();
    while (true) {
      Cursor* it = iters_[p_];
      if (it->Key() == max_key) {
        key_ = max_key;
        if (stats_ != nullptr) ++stats_->keys;
        return;  // all k iterators agree
      }
      SeekCursor(it, max_key);
      if (it->AtEnd()) {
        at_end_ = true;
        return;
      }
      max_key = it->Key();
      Advance();
    }
  }

  void SeekCursor(Cursor* it, Value v) {
    if (stats_ != nullptr) ++stats_->seeks;
    const size_t seeks_before = it->num_seeks();
    it->Seek(v);
    CountCursorSeeks(*it, seeks_before);
  }

  void CountCursorSeeks(const Cursor& it, size_t seeks_before) {
    if (cursor_seeks_ != nullptr) {
      *cursor_seeks_ += it.num_seeks() - seeks_before;
    }
  }

  /// Moves p_ to the next cursor, cyclically.
  void Advance() {
    if (++p_ == iters_.size()) p_ = 0;
  }

  std::vector<Cursor*> iters_;
  LeapfrogStats* stats_ = nullptr;  // not owned; may be null
  size_t* cursor_seeks_ = nullptr;  // not owned; may be null
  size_t p_ = 0;                    // index of the iterator to move next
  Value key_ = 0;
  bool at_end_ = false;
};

/// The leapfrog over the TrieCursor interface (any backend, virtual calls).
using LeapfrogJoin = LeapfrogJoinT<TrieCursor>;

}  // namespace ptp

#endif  // PTP_TJ_LEAPFROG_H_
