// The HALOTIS event queue.
//
// Events are threshold crossings at specific gate inputs (paper Fig. 3).
// The queue must support, besides the usual push / pop-earliest, *erasure*
// of pending events: the inertial treatment cancels a pending event Ej-1
// whenever the following transition's crossing Ej on the same input does
// not come after it (paper Fig. 4).  The implementation is a 4-ary
// min-heap over an event arena with position tracking, giving O(log n)
// push / pop / erase and stable FIFO ordering of simultaneous events.
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
// children of a node share one cache line.  pop() is bottom-up: the hole
// left at the root walks down to a leaf along the smaller children and the
// heap's last slot, which almost always belongs near the bottom, sifts up
// from there.  Pop order is a deterministic total order on (time, id).
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
  std::uint32_t input = 0;   ///< the owner's flat index of `target` (fills padding)
};

enum class EventState : std::uint8_t { kPending, kFired, kCancelled };

class EventQueue {
 public:
  /// Creates and enqueues an event.  Returns its id.
  EventId push(TimeNs time, TransitionId transition, PinRef target,
               std::uint32_t input = 0);

  /// Creates an event in the arena *without* scheduling it (pending, not in
  /// the heap).  The simulator's per-input pending lists are time-ordered,
  /// so only each list's head competes in the heap; the rest of the list
  /// never pays heap maintenance (enqueue()d when promoted to head).
  /// `time` must not be NaN (it has no place in the order).
  EventId create(TimeNs time, TransitionId transition, PinRef target,
                 std::uint32_t input = 0);

  /// Schedules a created (or previously dequeue()d) pending event into the
  /// heap.  Requires the event is pending and not already scheduled.
  void enqueue(EventId id);

  /// Removes a pending event from the heap without cancelling it -- the
  /// event stopped being its input's earliest (a resurrection displaced it)
  /// and may be enqueue()d again later.
  void dequeue(EventId id);

  /// Pre-sizes the event arena for `expected_events` creations.  The heap
  /// is not reserved: it holds only scheduled events (one per active input
  /// in the simulator), grows to its high-water mark once and keeps that
  /// capacity across clear().
  void reserve(std::size_t expected_events) { nodes_.reserve(expected_events); }

  /// Drops every event and resets the heap high-water mark while keeping
  /// the arena and heap capacity -- the Simulator::reset() re-arm path
  /// recycles the queue instead of reallocating it.
  void clear() {
    nodes_.clear();
    heap_.clear();
    peak_size_ = 0;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  /// Most events ever scheduled at once since construction or clear().
  [[nodiscard]] std::size_t peak_size() const { return peak_size_; }

  /// Earliest event id without removing it.  Requires !empty().
  [[nodiscard]] EventId peek() const;

  /// Removes and returns the earliest event; marks it fired.
  EventId pop();

  /// Pops the earliest event and schedules `next` into the vacated root in
  /// one sift -- the fired head's successor on the same pending list
  /// (usually close to the minimum, so pop + enqueue would pay a full
  /// sift_down plus a sift_up back toward the root).  Equivalent to
  /// `pop(); enqueue(next);`: same heap membership, same pop order.
  EventId pop_replacing(EventId next);

  /// Cancels a pending event, removing it from the heap if scheduled.
  /// Requires state(id) == kPending.
  void cancel(EventId id);

  /// Owner-managed intrusive list links stored alongside each event: the
  /// simulator threads its per-input pending lists through these so the
  /// event, its lifecycle state and its links share one ~40-byte record
  /// (one cache line touch, one arena append) instead of three parallel
  /// arrays.  The queue itself never reads or writes them after create().
  struct EventLinks {
    std::uint32_t prev = 0xFFFFFFFFu;
    std::uint32_t next = 0xFFFFFFFFu;
  };
  [[nodiscard]] EventLinks& links(EventId id) { return nodes_[id.value()].links; }
  [[nodiscard]] const EventLinks& links(EventId id) const {
    return nodes_[id.value()].links;
  }

  [[nodiscard]] const Event& event(EventId id) const;
  [[nodiscard]] EventState state(EventId id) const;

  /// Unchecked accessors for the simulation engine's inner loop, where the
  /// id provably came from this queue.  The checked variants above are the
  /// public face.
  [[nodiscard]] const Event& event_unchecked(EventId id) const {
    return nodes_[id.value()].ev;
  }
  [[nodiscard]] EventState state_unchecked(EventId id) const {
    return nodes_[id.value()].state;
  }

  [[nodiscard]] std::uint64_t created_count() const { return nodes_.size(); }

  /// Approximate byte footprint of the event arena and heap (capacity).
  [[nodiscard]] std::uint64_t arena_bytes() const {
    return nodes_.capacity() * sizeof(Node) + heap_.capacity() * sizeof(HeapSlot);
  }

 private:
  static constexpr std::size_t kArity = 4;

  /// Heap node: the sort key, stored inline so comparisons stay in-cache.
  struct HeapSlot {
    std::uint64_t key;  ///< time_key(event time)
    std::uint32_t id;
  };
  /// One event record: POD event + owner links + heap bookkeeping.
  struct Node {
    Event ev;
    EventLinks links;
    std::uint32_t heap_pos = 0xFFFFFFFFu;
    EventState state = EventState::kPending;
  };
  static_assert(sizeof(HeapSlot) == 16, "heap slot: 64-bit key + id");
  static_assert(sizeof(Node) == 40, "event record: Event.input must fit its padding");

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
  /// Index of the earliest of the children [first, min(first + kArity, n)).
  [[nodiscard]] std::size_t min_child(std::size_t first, std::size_t n) const;
  void sift_up(std::size_t index);
  void sift_down(std::size_t index);
  /// Removes the heap entry at `pos` (event already known pending).
  void remove_at(std::size_t pos);
  void place(std::size_t index, HeapSlot slot) {
    heap_[index] = slot;
    nodes_[slot.id].heap_pos = static_cast<std::uint32_t>(index);
  }

  std::vector<Node> nodes_;      // arena, indexed by EventId
  std::vector<HeapSlot> heap_;   // 4-ary min-heap of scheduled pending events
  std::size_t peak_size_ = 0;    // heap high-water mark
};

// ---- implementation ---------------------------------------------------------
// Defined in the header so the simulator's event loop can inline the queue
// operations (they sit between every pair of kernel steps; an out-of-line
// call per push/pop costs measurable throughput).

namespace detail {
constexpr std::uint32_t kNoHeapPos = 0xFFFFFFFFu;
}

inline EventId EventQueue::push(TimeNs time, TransitionId transition, PinRef target,
                                std::uint32_t input) {
  const EventId id = create(time, transition, target, input);
  enqueue(id);
  return id;
}

inline EventId EventQueue::create(TimeNs time, TransitionId transition, PinRef target,
                                  std::uint32_t input) {
  debug_ensure(!std::isnan(time), "EventQueue::create(): event time is NaN");
  const auto raw = static_cast<EventId::underlying_type>(nodes_.size());
  Node node;
  node.ev.time = time;
  node.ev.transition = transition;
  node.ev.target = target;
  node.ev.input = input;
  nodes_.push_back(node);
  return EventId{raw};
}

inline void EventQueue::enqueue(EventId id) {
  const std::uint32_t raw = id.value();
  Node& node = nodes_[raw];
  debug_ensure(node.state == EventState::kPending && node.heap_pos == detail::kNoHeapPos,
               "EventQueue::enqueue(): event not pending or already scheduled");
  heap_.push_back(HeapSlot{time_key(node.ev.time), raw});
  if (heap_.size() > peak_size_) peak_size_ = heap_.size();
  sift_up(heap_.size() - 1);
}

inline void EventQueue::dequeue(EventId id) {
  const std::uint32_t raw = id.value();
  Node& node = nodes_[raw];
  debug_ensure(node.state == EventState::kPending, "EventQueue::dequeue(): not pending");
  const std::uint32_t pos = node.heap_pos;
  debug_ensure(pos != detail::kNoHeapPos && pos < heap_.size() && heap_[pos].id == raw,
               "EventQueue::dequeue(): event not scheduled");
  node.heap_pos = detail::kNoHeapPos;
  remove_at(pos);
}

inline EventId EventQueue::peek() const {
  require(!heap_.empty(), "EventQueue::peek(): queue is empty");
  return EventId{heap_.front().id};
}

inline EventId EventQueue::pop() {
  require(!heap_.empty(), "EventQueue::pop(): queue is empty");
  const std::uint32_t raw = heap_.front().id;
  const HeapSlot last = heap_.back();
  heap_.pop_back();
  nodes_[raw].heap_pos = detail::kNoHeapPos;
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
  nodes_[raw].state = EventState::kFired;
  return EventId{raw};
}

inline EventId EventQueue::pop_replacing(EventId next) {
  require(!heap_.empty(), "EventQueue::pop_replacing(): queue is empty");
  const std::uint32_t raw = heap_.front().id;
  nodes_[raw].heap_pos = detail::kNoHeapPos;
  nodes_[raw].state = EventState::kFired;
  const std::uint32_t nraw = next.value();
  Node& node = nodes_[nraw];
  debug_ensure(node.state == EventState::kPending && node.heap_pos == detail::kNoHeapPos,
               "EventQueue::pop_replacing(): replacement not pending or already scheduled");
  place(0, HeapSlot{time_key(node.ev.time), nraw});
  sift_down(0);
  return EventId{raw};
}

inline void EventQueue::cancel(EventId id) {
  require(id.valid() && id.value() < nodes_.size(), "EventQueue::cancel(): invalid id");
  Node& node = nodes_[id.value()];
  require(node.state == EventState::kPending,
          "EventQueue::cancel(): event is not pending");
  const std::uint32_t pos = node.heap_pos;
  if (pos != detail::kNoHeapPos) {
    // Scheduled (a pending-list head): remove the heap entry too.
    ensure(pos < heap_.size() && heap_[pos].id == id.value(),
           "EventQueue::cancel(): heap position corrupt");
    node.heap_pos = detail::kNoHeapPos;
    remove_at(pos);
  }
  node.state = EventState::kCancelled;
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

inline const Event& EventQueue::event(EventId id) const {
  require(id.valid() && id.value() < nodes_.size(), "EventQueue::event(): invalid id");
  return nodes_[id.value()].ev;
}

inline EventState EventQueue::state(EventId id) const {
  require(id.valid() && id.value() < nodes_.size(), "EventQueue::state(): invalid id");
  return nodes_[id.value()].state;
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
