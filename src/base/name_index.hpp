// Open-addressing index from names to dense ids.
//
// The netlist and the .bench reader each keep their names in a table of
// their own (a Signal's name, a view into the deck); this index keeps only
// (hash, id) slots and asks the owner for an id's name when two hashes
// agree.  Compared with std::unordered_map<std::string, Id> it allocates no
// node and stores no second copy per name, and an insert that finds the
// name already present costs the same single probe sequence as a lookup.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace halotis {

class NameIndex {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// Room for `count` names without rehashing.
  void reserve(std::size_t count) {
    if (count * 2 > slots_.size()) rehash(capacity_for(count));
  }

  /// The id stored under `name`, or kNone.  `name_of(id)` must return the
  /// name `id` was inserted under.
  template <class NameOf>
  [[nodiscard]] std::uint32_t find(std::string_view name, const NameOf& name_of) const {
    if (slots_.empty()) return kNone;
    const std::uint32_t h = hash(name);
    for (std::size_t i = h & mask(); slots_[i].id != kNone; i = (i + 1) & mask()) {
      if (slots_[i].hash == h && name_of(slots_[i].id) == name) return slots_[i].id;
    }
    return kNone;
  }

  /// Stores `id` under `name` unless the name is present.  Returns the id
  /// stored under `name` afterwards: `id` itself, or the earlier one.
  template <class NameOf>
  std::uint32_t insert(std::string_view name, std::uint32_t id, const NameOf& name_of) {
    if ((size_ + 1) * 2 > slots_.size()) rehash(capacity_for(size_ + 1));
    const std::uint32_t h = hash(name);
    std::size_t i = h & mask();
    for (; slots_[i].id != kNone; i = (i + 1) & mask()) {
      if (slots_[i].hash == h && name_of(slots_[i].id) == name) return slots_[i].id;
    }
    slots_[i] = Slot{h, id};
    ++size_;
    return id;
  }

 private:
  struct Slot {
    std::uint32_t hash = 0;
    std::uint32_t id = kNone;
  };

  static std::uint32_t hash(std::string_view name) {
    const std::uint64_t h = std::hash<std::string_view>{}(name);
    return static_cast<std::uint32_t>(h ^ (h >> 32));
  }
  /// Power of two, at least twice `count` (load factor <= 1/2).
  static std::size_t capacity_for(std::size_t count) {
    std::size_t capacity = 16;
    while (capacity < count * 2) capacity *= 2;
    return capacity;
  }
  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.id == kNone) continue;
      std::size_t i = slot.hash & mask();
      while (slots_[i].id != kNone) i = (i + 1) & mask();
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace halotis
