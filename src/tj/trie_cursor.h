#ifndef PTP_TJ_TRIE_CURSOR_H_
#define PTP_TJ_TRIE_CURSOR_H_

#include <cstddef>

#include "storage/value.h"

namespace ptp {

/// The LFTJ trie-iterator API (Veldhuizen '14) as an abstract interface, so
/// the leapfrog machinery runs over either storage backend:
///  * TrieIterator      — sorted flat arrays (the paper's Tributary join)
///  * BTreeTrieIterator — a B+-tree built on the fly (the LogicBlox layout
///    the paper argues against when preprocessing is impossible)
class TrieCursor {
 public:
  virtual ~TrieCursor() = default;

  /// Current trie level; -1 before the first Open().
  virtual int depth() const = 0;
  /// True if positioned past the last key of the current level.
  virtual bool AtEnd() const = 0;
  /// Current key at this level; requires !AtEnd().
  virtual Value Key() const = 0;
  /// Descends to the first key one level deeper.
  virtual void Open() = 0;
  /// Ascends one level, restoring the parent position.
  virtual void Up() = 0;
  /// Advances to the next distinct key at this level.
  virtual void Next() = 0;
  /// Positions at the least key >= v at this level, or AtEnd().
  virtual void Seek(Value v) = 0;

  /// True if the underlying relation has no rows at all.
  virtual bool EmptyRelation() const = 0;
  /// Number of Seek() operations performed (cost-model instrumentation).
  virtual size_t num_seeks() const = 0;
  /// Further operation counts backing the obs counter registry; backends
  /// that do not track one return 0.
  virtual size_t num_nexts() const { return 0; }
  virtual size_t num_opens() const { return 0; }
  virtual size_t num_ups() const { return 0; }
  /// Exponential-search (galloping) probe steps performed inside Seek(),
  /// for backends that gallop before binary-searching (tj.gallop_steps).
  virtual size_t num_gallop_steps() const { return 0; }
};

}  // namespace ptp

#endif  // PTP_TJ_TRIE_CURSOR_H_
