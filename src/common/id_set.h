// Id-ordered set of dense typed ids.
//
// The host pool keeps its per-market indexes (every spot host, the ones
// with a free slot, the joinable launches) as sets of InstanceIds that it
// walks in ascending id order. A std::set pays a heap node and a
// pointer-chasing tree walk per member; IdSet<Tag> is one bit per id value
// instead (TypedIds are allocated monotonically from 1, so the bitset is
// compact):
//
//   - Insert, Erase and Contains are O(1);
//   - Min and the ascending walks start at a low-word hint (no member lies
//     in a word below it), so a set whose small ids have all left does not
//     rescan their empty words;
//   - a walk stops after size() members, so a sparse tail costs nothing.
//
// Memory grows with the largest id ever inserted, not with the member
// count: 1M ids take 125 KB.

#ifndef SRC_COMMON_ID_SET_H_
#define SRC_COMMON_ID_SET_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/ids.h"

namespace spotcheck {

template <typename Tag>
class IdSet {
 public:
  using Id = TypedId<Tag>;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool Contains(Id id) const {
    const uint64_t word = id.value() / 64;
    return word < words_.size() && (words_[word] & Bit(id)) != 0;
  }

  // Returns false when the id was already a member.
  bool Insert(Id id) {
    const uint64_t word = id.value() / 64;
    if (word >= words_.size()) {
      words_.resize(word + 1, 0);
    }
    if ((words_[word] & Bit(id)) != 0) {
      return false;
    }
    words_[word] |= Bit(id);
    ++size_;
    if (word < low_word_) {
      low_word_ = word;
    }
    return true;
  }

  // Returns false when the id was not a member.
  bool Erase(Id id) {
    if (!Contains(id)) {
      return false;
    }
    words_[id.value() / 64] &= ~Bit(id);
    --size_;
    return true;
  }

  // The smallest member; the invalid id when empty.
  Id Min() const {
    return FindFirst([](Id) { return true; });
  }

  // The first member, in ascending id order, for which `pred(Id)` holds;
  // the invalid id when none does.
  template <typename Pred>
  Id FindFirst(Pred&& pred) const {
    size_t seen = 0;
    for (uint64_t word = low_word_; seen < size_; ++word) {
      uint64_t bits = words_[word];
      if (seen == 0) {
        if (bits == 0) {
          continue;
        }
        low_word_ = word;  // every word before the first member is empty
      }
      for (; bits != 0; bits &= bits - 1) {
        const Id id(word * 64 + static_cast<uint64_t>(std::countr_zero(bits)));
        if (pred(id)) {
          return id;
        }
        ++seen;
      }
    }
    return Id();
  }

  // Visits every member in ascending id order. `fn(Id)` must not insert
  // or erase members.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    FindFirst([&](Id id) {
      fn(id);
      return false;
    });
  }

 private:
  static uint64_t Bit(Id id) { return uint64_t{1} << (id.value() % 64); }

  std::vector<uint64_t> words_;
  size_t size_ = 0;
  // No member lies in a word below this one. Insert lowers it; the walks
  // raise it past the empty words they skip.
  mutable uint64_t low_word_ = 0;
};

}  // namespace spotcheck

#endif  // SRC_COMMON_ID_SET_H_
