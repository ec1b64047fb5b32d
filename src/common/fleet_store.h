// Fleet-scale entity storage.
//
// Simulating 100k-1M concurrent nested VMs makes the per-entity node maps
// (std::map<Id, std::unique_ptr<T>>) the dominant cost: two heap
// allocations per entity, pointer-chasing tree walks on every lookup, and
// ~80 bytes of node/indirection overhead per record. FleetTable<Tag, T>
// replaces them with struct-of-arrays-style arena storage:
//
//   - records live in chunked blocks (placement-new, never moved), so
//     references handed out -- including `T&` captured by in-flight
//     simulator event lambdas -- stay valid for the record's lifetime;
//   - a dense id -> slot vector gives O(1) find/emplace/erase (TypedIds
//     are allocated monotonically from 1, so the vector is compact);
//   - erased slots go on a free list and are recycled by later emplaces;
//   - iteration visits live records in ascending id order, matching the
//     std::map iteration order the deterministic-replay contract pins.
//
// The table is deliberately NOT a drop-in std::map: there are no
// iterators (use ForEach), no copy/move (pointer stability is the point),
// and emplacing an id that is already live is a programmer error.

#ifndef SRC_COMMON_FLEET_STORE_H_
#define SRC_COMMON_FLEET_STORE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "src/common/ids.h"

namespace spotcheck {

template <typename Tag, typename T, size_t kBlockSlots = 1024>
class FleetTable {
 public:
  using Id = TypedId<Tag>;

  FleetTable() = default;
  FleetTable(const FleetTable&) = delete;
  FleetTable& operator=(const FleetTable&) = delete;
  ~FleetTable() { clear(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool Contains(Id id) const { return SlotOf(id) != kNoSlot; }

  T* Find(Id id) {
    const uint32_t slot = SlotOf(id);
    return slot == kNoSlot ? nullptr : Ptr(slot);
  }
  const T* Find(Id id) const {
    const uint32_t slot = SlotOf(id);
    return slot == kNoSlot ? nullptr : Ptr(slot);
  }

  // Precondition: Contains(id). The reference is stable until Erase(id).
  T& At(Id id) {
    T* value = Find(id);
    assert(value != nullptr && "FleetTable::At on a dead id");
    return *value;
  }
  const T& At(Id id) const {
    const T* value = Find(id);
    assert(value != nullptr && "FleetTable::At on a dead id");
    return *value;
  }

  // Precondition: !Contains(id) (TypedIds are never reissued, so callers
  // emplace each id at most once per lifetime). Returns a stable reference.
  template <typename... Args>
  T& Emplace(Id id, Args&&... args) {
    assert(id.valid() && "FleetTable::Emplace on the invalid id");
    assert(!Contains(id) && "FleetTable::Emplace on a live id");
    uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = slots_used_;
      if (slot / kBlockSlots >= blocks_.size()) {
        blocks_.push_back(std::make_unique<Block>());
      }
      ++slots_used_;
    }
    if (id.value() >= slot_of_.size()) {
      slot_of_.resize(id.value() + 1, kNoSlot);
    }
    T* value = new (RawPtr(slot)) T(std::forward<Args>(args)...);
    slot_of_[id.value()] = slot;
    ++size_;
    return *value;
  }

  // std::map::operator[]: the live record for `id`, or a value-initialized
  // one emplaced for it. A live record keeps its fields.
  T& FindOrEmplace(Id id) {
    T* value = Find(id);
    return value != nullptr ? *value : Emplace(id);
  }

  // Returns false when the id was not live. O(1); the slot is recycled.
  bool Erase(Id id) {
    const uint32_t slot = SlotOf(id);
    if (slot == kNoSlot) {
      return false;
    }
    Ptr(slot)->~T();
    slot_of_[id.value()] = kNoSlot;
    free_.push_back(slot);
    --size_;
    return true;
  }

  void clear() {
    for (uint64_t value = 0; value < slot_of_.size(); ++value) {
      const uint32_t slot = slot_of_[value];
      if (slot != kNoSlot) {
        Ptr(slot)->~T();
        slot_of_[value] = kNoSlot;
      }
    }
    free_.clear();
    size_ = 0;
    slots_used_ = 0;
    blocks_.clear();
  }

  // Visits live records in ascending id order (the std::map order the
  // replay contract pins). `fn(Id, T&)`. The callback must not insert or
  // erase table entries.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (uint64_t value = 1; value < slot_of_.size(); ++value) {
      const uint32_t slot = slot_of_[value];
      if (slot != kNoSlot) {
        fn(Id(value), *Ptr(slot));
      }
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint64_t value = 1; value < slot_of_.size(); ++value) {
      const uint32_t slot = slot_of_[value];
      if (slot != kNoSlot) {
        fn(Id(value), *Ptr(slot));
      }
    }
  }

  // Structural memory footprint (blocks + index + free list), for the
  // fleet-scale bytes/VM accounting. Excludes memory owned by the records
  // themselves (e.g. strings or vectors inside T).
  size_t bytes_allocated() const {
    return blocks_.size() * sizeof(Block) +
           blocks_.capacity() * sizeof(blocks_[0]) +
           slot_of_.capacity() * sizeof(uint32_t) +
           free_.capacity() * sizeof(uint32_t);
  }

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  struct Block {
    alignas(alignof(T)) unsigned char bytes[kBlockSlots * sizeof(T)];
  };

  uint32_t SlotOf(Id id) const {
    const uint64_t value = id.value();
    return value < slot_of_.size() ? slot_of_[value] : kNoSlot;
  }
  void* RawPtr(uint32_t slot) {
    return blocks_[slot / kBlockSlots]->bytes + (slot % kBlockSlots) * sizeof(T);
  }
  T* Ptr(uint32_t slot) {
    return std::launder(reinterpret_cast<T*>(
        blocks_[slot / kBlockSlots]->bytes + (slot % kBlockSlots) * sizeof(T)));
  }
  const T* Ptr(uint32_t slot) const {
    return std::launder(reinterpret_cast<const T*>(
        blocks_[slot / kBlockSlots]->bytes +
        (slot % kBlockSlots) * sizeof(T)));
  }

  std::vector<uint32_t> slot_of_;  // id.value() -> slot, kNoSlot when dead
  std::vector<std::unique_ptr<Block>> blocks_;
  std::vector<uint32_t> free_;
  uint32_t slots_used_ = 0;  // high-water slot count across all blocks
  size_t size_ = 0;
};

}  // namespace spotcheck

#endif  // SRC_COMMON_FLEET_STORE_H_
