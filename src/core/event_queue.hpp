// The HALOTIS event queue: per-input pending lists under a heads-only heap.
//
// Events are threshold crossings at specific gate inputs (paper Fig. 3).
// Each gate input keeps its pending events in time order, and the inertial
// treatment erases a pending event Ej-1 whenever the following transition's
// crossing Ej on the same input does not come after it (paper Fig. 4).  The
// queue owns the whole structure: an event arena whose records thread one
// doubly-linked, (time, id)-ordered pending list per input, and a 4-ary
// min-heap that holds exactly the head of each non-empty list.  The heap
// arbitrates one event per active input, so mid-list events never pay heap
// maintenance.  Appending to an empty list schedules the event; a popped or
// cancelled head, or a head displaced by a sorted insert, hands its heap
// slot to its successor or displacer in place.  Every operation leaves the
// heap holding exactly the non-empty lists' heads, so pops follow the
// (time, id) order of all pending events.
//
// Hot-path layout: each 16-byte heap slot holds its sort key inline -- the
// event time as an order-preserving 64-bit integer plus the event id -- so
// sift operations compare contiguous slots instead of chasing the event
// arena (the seed kernel's dominant cost -- 43 % of run time was sift_down
// cache misses), and a comparison is integer flag arithmetic with no
// data-dependent branch.  The id doubles as the FIFO tie-break: ids are
// assigned in creation order, so (time, id) ordering is identical to the
// paper's (time, seq) ordering.
//
// The heap is 4-ary: a shallower tree than a binary heap, and the four
// children of a node share one cache line.  A pop whose list empties is
// bottom-up: the hole left at the root walks down to a leaf along the
// smaller children and the heap's last slot, which almost always belongs
// near the bottom, sifts up from there.  Pop order is a deterministic total
// order on (time, id).
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/base/check.hpp"
#include "src/base/ids.hpp"
#include "src/base/units.hpp"
#include "src/netlist/netlist.hpp"

namespace halotis {

/// One threshold-crossing event at a gate input.  Ids are assigned in
/// creation order, so the id doubles as the FIFO tie-break for equal times
/// (the paper's seq ordering) -- no separate sequence field needed.
struct Event {
  TimeNs time = 0.0;
  TransitionId transition;   ///< the transition that produced the event
  PinRef target;             ///< receiving gate input
  std::uint32_t input = 0;   ///< pending list (flat input index of `target`; fills padding)
};

enum class EventState : std::uint8_t { kPending, kFired, kCancelled };

class EventQueue {
 public:
  /// An empty queue over `num_inputs` pending lists.
  explicit EventQueue(std::size_t num_inputs = 0) : lists_(num_inputs) {}

  /// Drops every event, leaves `num_inputs` empty pending lists and resets
  /// the heap high-water mark, keeping the arena and heap capacity -- the
  /// Simulator::reset() re-arm path recycles the queue instead of
  /// reallocating it.
  void clear(std::size_t num_inputs) {
    nodes_.clear();
    heap_.clear();
    lists_.assign(num_inputs, ListEnds{});
    peak_size_ = 0;
  }

  /// Pre-sizes the event arena for `expected_events` creations.  The heap
  /// is not reserved: it holds one event per active input, grows to its
  /// high-water mark once and keeps that capacity across clear().
  void reserve(std::size_t expected_events) { nodes_.reserve(expected_events); }

  /// Creates an event at the tail of `input`'s pending list.  Requires a
  /// time no earlier than the tail's (ids grow with creation, so the event
  /// then comes after it) and not NaN.  An event appended to an empty list
  /// is scheduled.
  EventId append(std::uint32_t input, TimeNs time, TransitionId transition, PinRef target);

  /// Creates an event and links it into `input`'s pending list in (time, id)
  /// order, scanning from the tail (O(k); resurrection).  A new head takes
  /// over the displaced head's heap slot.
  EventId insert_sorted(std::uint32_t input, TimeNs time, TransitionId transition,
                        PinRef target);

  /// Cancels a pending event and unlinks it from its list.  Returns whether
  /// it was the list's head (the scheduled one); a cancelled head hands its
  /// heap slot to its successor.  Requires state(id) == kPending.
  bool cancel(EventId id);

  /// Earliest scheduled event without removing it.  Requires !empty().
  [[nodiscard]] EventId peek() const;

  /// Removes the earliest event, marks it fired and returns it.  Its
  /// successor on the same list takes over the vacated root in one sift.
  EventId pop();

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  /// Scheduled events: one per non-empty pending list.
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  /// Most events ever scheduled at once since the last clear().
  [[nodiscard]] std::size_t peak_size() const { return peak_size_; }
  [[nodiscard]] std::size_t num_inputs() const { return lists_.size(); }

  /// Pending-list ends and links, earliest first; the invalid id past
  /// either end.  A fired or cancelled event has no neighbours.
  [[nodiscard]] EventId head(std::uint32_t input) const { return EventId{lists_[input].head}; }
  [[nodiscard]] EventId tail(std::uint32_t input) const { return EventId{lists_[input].tail}; }
  [[nodiscard]] EventId prev(EventId id) const { return EventId{node(id).prev}; }
  [[nodiscard]] EventId next(EventId id) const { return EventId{node(id).next}; }

  [[nodiscard]] const Event& event(EventId id) const { return node(id).ev; }
  [[nodiscard]] EventState state(EventId id) const { return node(id).state; }

  [[nodiscard]] std::uint64_t created_count() const { return nodes_.size(); }

  /// Approximate byte footprint of the event arena and heap (capacity).
  [[nodiscard]] std::uint64_t arena_bytes() const {
    return nodes_.capacity() * sizeof(Node) + heap_.capacity() * sizeof(HeapSlot);
  }

 private:
  static constexpr std::size_t kArity = 4;
  static constexpr std::uint32_t kNil = EventId::kInvalid;

  /// Heap node: the sort key, stored inline so comparisons stay in-cache.
  struct HeapSlot {
    std::uint64_t key;  ///< time_key(event time)
    std::uint32_t id;
  };
  /// One event record: POD event + pending-list links + heap bookkeeping.
  struct Node {
    Event ev;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    std::uint32_t heap_pos = kNil;
    EventState state = EventState::kPending;
  };
  static_assert(sizeof(HeapSlot) == 16, "heap slot: 64-bit key + id");
  static_assert(sizeof(Node) == 40, "event record: Event.input must fit its padding");

  struct ListEnds {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  /// Order-preserving integer image of a non-NaN time: unsigned comparison
  /// of keys is the double comparison.  `+ 0.0` folds -0.0 onto +0.0 (they
  /// compare equal as doubles); a negative time's bits are all inverted,
  /// any other time gets its sign bit set.
  [[nodiscard]] static std::uint64_t time_key(TimeNs time) {
    const auto bits = std::bit_cast<std::uint64_t>(time + 0.0);
    const std::uint64_t flip = (std::uint64_t{0} - (bits >> 63)) | (std::uint64_t{1} << 63);
    return bits ^ flip;
  }
  /// (key, id) lexicographic order -- id is creation order, identical to
  /// seq ordering -- as one compare with the id order as a carry, so it
  /// compiles to flag arithmetic with no branch.  The largest non-NaN key
  /// (+infinity's) is far below 2^64 - 1, so the carry never wraps.
  [[nodiscard]] static bool before(const HeapSlot& a, const HeapSlot& b) {
    return a.key < b.key + static_cast<std::uint64_t>(a.id < b.id);
  }
  [[nodiscard]] HeapSlot slot_of(std::uint32_t raw) const {
    return HeapSlot{time_key(nodes_[raw].ev.time), raw};
  }
  [[nodiscard]] const Node& node(EventId id) const {
    debug_ensure(id.value() < nodes_.size(), "EventQueue: invalid event id");
    return nodes_[id.value()];
  }
  /// Appends an unlinked, unscheduled event record; returns its id.
  std::uint32_t new_node(std::uint32_t input, TimeNs time, TransitionId transition,
                         PinRef target);
  /// Schedules `raw` into a new heap slot.
  void schedule(std::uint32_t raw);
  /// Index of the earliest of the children [first, min(first + kArity, n)).
  [[nodiscard]] std::size_t min_child(std::size_t first, std::size_t n) const;
  void sift_up(std::size_t index);
  void sift_down(std::size_t index);
  /// Removes the heap entry at `pos`.
  void remove_at(std::size_t pos);
  void place(std::size_t index, HeapSlot slot) {
    heap_[index] = slot;
    nodes_[slot.id].heap_pos = static_cast<std::uint32_t>(index);
  }

  std::vector<Node> nodes_;      // arena, indexed by EventId
  std::vector<ListEnds> lists_;  // per-input pending-list ends
  std::vector<HeapSlot> heap_;   // 4-ary min-heap of the lists' heads
  std::size_t peak_size_ = 0;    // heap high-water mark
};

// ---- implementation ---------------------------------------------------------
// Defined in the header so the simulator's event loop can inline the queue
// operations (they sit between every pair of kernel steps; an out-of-line
// call per append/pop costs measurable throughput).

inline std::uint32_t EventQueue::new_node(std::uint32_t input, TimeNs time,
                                          TransitionId transition, PinRef target) {
  debug_ensure(!std::isnan(time), "EventQueue: event time is NaN");
  debug_ensure(input < lists_.size(), "EventQueue: input out of range");
  const auto raw = static_cast<std::uint32_t>(nodes_.size());
  Node node;
  node.ev.time = time;
  node.ev.transition = transition;
  node.ev.target = target;
  node.ev.input = input;
  nodes_.push_back(node);
  return raw;
}

inline void EventQueue::schedule(std::uint32_t raw) {
  heap_.push_back(slot_of(raw));
  if (heap_.size() > peak_size_) peak_size_ = heap_.size();
  sift_up(heap_.size() - 1);
}

inline EventId EventQueue::append(std::uint32_t input, TimeNs time, TransitionId transition,
                                  PinRef target) {
  const std::uint32_t raw = new_node(input, time, transition, target);
  ListEnds& list = lists_[input];
  if (list.tail == kNil) {
    list.head = raw;
    schedule(raw);
  } else {
    debug_ensure(!(time < nodes_[list.tail].ev.time),
                 "EventQueue::append(): event precedes its list's tail");
    nodes_[raw].prev = list.tail;
    nodes_[list.tail].next = raw;
  }
  list.tail = raw;
  return EventId{raw};
}

inline EventId EventQueue::insert_sorted(std::uint32_t input, TimeNs time,
                                         TransitionId transition, PinRef target) {
  const std::uint32_t raw = new_node(input, time, transition, target);
  ListEnds& list = lists_[input];
  // The new id is the newest, so it goes after every event not later.
  std::uint32_t after = list.tail;
  while (after != kNil && time < nodes_[after].ev.time) after = nodes_[after].prev;
  const std::uint32_t next = after == kNil ? list.head : nodes_[after].next;
  nodes_[raw].prev = after;
  nodes_[raw].next = next;
  if (next == kNil) {
    list.tail = raw;
  } else {
    nodes_[next].prev = raw;
  }
  if (after != kNil) {
    nodes_[after].next = raw;
    return EventId{raw};
  }
  list.head = raw;
  if (next == kNil) {
    schedule(raw);
  } else {
    // It precedes the head it displaces, whose children all come after
    // that head: only the way up can be out of order.
    const std::uint32_t pos = nodes_[next].heap_pos;
    nodes_[next].heap_pos = kNil;
    heap_[pos] = slot_of(raw);
    sift_up(pos);
  }
  return EventId{raw};
}

inline EventId EventQueue::peek() const {
  require(!heap_.empty(), "EventQueue::peek(): queue is empty");
  return EventId{heap_.front().id};
}

inline EventId EventQueue::pop() {
  require(!heap_.empty(), "EventQueue::pop(): queue is empty");
  const std::uint32_t raw = heap_.front().id;
  Node& fired = nodes_[raw];
  debug_ensure(fired.prev == kNil && lists_[fired.ev.input].head == raw,
               "EventQueue::pop(): scheduled event is not its list's head");
  fired.heap_pos = kNil;
  fired.state = EventState::kFired;
  const std::uint32_t next = fired.next;
  fired.next = kNil;
  ListEnds& list = lists_[fired.ev.input];
  list.head = next;
  if (next != kNil) {
    // The successor is usually close to the minimum: one top-down sift from
    // the root instead of a full pop plus a sift back up.
    nodes_[next].prev = kNil;
    heap_[0] = slot_of(next);
    sift_down(0);
    return EventId{raw};
  }
  list.tail = kNil;
  const HeapSlot last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n != 0) {
    // Bottom-up: move the smaller child into the hole level by level until
    // the hole is a leaf (no comparison against `last` on the way down),
    // then sift `last` up from there.
    std::size_t hole = 0;
    for (std::size_t first = 1; first < n; first = kArity * hole + 1) {
      const std::size_t child = min_child(first, n);
      place(hole, heap_[child]);
      hole = child;
    }
    heap_[hole] = last;
    sift_up(hole);
  }
  return EventId{raw};
}

inline bool EventQueue::cancel(EventId id) {
  require(id.valid() && id.value() < nodes_.size(), "EventQueue::cancel(): invalid id");
  const std::uint32_t raw = id.value();
  Node& gone = nodes_[raw];
  require(gone.state == EventState::kPending, "EventQueue::cancel(): event is not pending");
  gone.state = EventState::kCancelled;
  const std::uint32_t prev = gone.prev;
  const std::uint32_t next = gone.next;
  gone.prev = gone.next = kNil;
  ListEnds& list = lists_[gone.ev.input];
  if (next == kNil) {
    list.tail = prev;
  } else {
    nodes_[next].prev = prev;
  }
  if (prev != kNil) {
    nodes_[prev].next = next;
    return false;
  }
  list.head = next;
  const std::uint32_t pos = gone.heap_pos;
  ensure(pos < heap_.size() && heap_[pos].id == raw,
         "EventQueue::cancel(): heap position corrupt");
  gone.heap_pos = kNil;
  if (next == kNil) {
    remove_at(pos);
  } else {
    // The successor comes after the head it replaces, whose parent comes
    // before it: only the way down can be out of order.
    heap_[pos] = slot_of(next);
    sift_down(pos);
  }
  return true;
}

inline void EventQueue::remove_at(std::size_t pos) {
  const HeapSlot last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    place(pos, last);
    // The replacement may need to move either direction.
    sift_down(pos);
    sift_up(nodes_[last.id].heap_pos);
  }
}

inline void EventQueue::sift_up(std::size_t index) {
  const HeapSlot moving = heap_[index];
  while (index > 0) {
    const std::size_t parent = (index - 1) / kArity;
    if (!before(moving, heap_[parent])) break;
    place(index, heap_[parent]);
    index = parent;
  }
  place(index, moving);
}

inline std::size_t EventQueue::min_child(std::size_t first, std::size_t n) const {
  if (first + kArity <= n) {
    // Full node: pairwise min tree -- the first two comparisons are
    // independent, halving the dependency chain of the sequential scan,
    // and each picks its index arithmetically.
    const std::size_t a = first + (before(heap_[first + 1], heap_[first]) ? 1 : 0);
    const std::size_t b = first + 2 + (before(heap_[first + 3], heap_[first + 2]) ? 1 : 0);
    return before(heap_[b], heap_[a]) ? b : a;
  }
  std::size_t smallest = first;
  for (std::size_t child = first + 1; child < n; ++child) {
    if (before(heap_[child], heap_[smallest])) smallest = child;
  }
  return smallest;
}

inline void EventQueue::sift_down(std::size_t index) {
  const std::size_t n = heap_.size();
  const HeapSlot moving = heap_[index];
  for (std::size_t first = kArity * index + 1; first < n; first = kArity * index + 1) {
    const std::size_t smallest = min_child(first, n);
    if (!before(heap_[smallest], moving)) break;
    place(index, heap_[smallest]);
    index = smallest;
  }
  place(index, moving);
}

}  // namespace halotis
