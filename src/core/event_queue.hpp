// The HALOTIS event queue: per-input pending lists under a heads-only heap.
//
// Events are threshold crossings at specific gate inputs (paper Fig. 3).
// Each gate input keeps its pending events in time order, and the inertial
// treatment erases a pending event Ej-1 whenever the following transition's
// crossing Ej on the same input does not come after it (paper Fig. 4).  The
// queue owns the whole structure: an event arena whose records thread one
// doubly-linked, (time, seq)-ordered pending list per input, and a 4-ary
// min-heap that holds exactly the head of each non-empty list.  The queue
// does not interpret list numbers; the simulator numbers an input's list by
// the input's slot in its flattened fanout table, so the lists one
// transition appends to are adjacent and prefetch_list() can warm them.
// The heap arbitrates one event per active input, so mid-list events never
// pay heap maintenance.  Appending to an empty list schedules the event; a popped or
// cancelled head, or a head displaced by a sorted insert, hands its heap
// slot to its successor or displacer in place.  Every operation leaves the
// heap holding exactly the non-empty lists' heads, so pops follow the
// (time, seq) order of all pending events.
//
// Events are short-lived: each is read once when it fires or erased by the
// pair rule or an annihilation.  A popped or cancelled event's record goes
// onto a LIFO free list at once, and the next creation reuses it -- usually
// the slot the loop just popped, still in cache -- so the arena holds the
// pending high-water mark, not every event ever created.  An EventId is
// therefore a handle to a *pending* event that is recycled once the event
// is gone; the event's identity for all time is its creation sequence, a
// 32-bit counter (0, 1, 2, ... since the last clear()) that is never reused.
// It is the paper's (time, seq) tie-break and the replay trace's event id.
// The queue creates at most 2^32 - 1 events per run (2^32 - 1 itself is the
// trace's "no event"); the next creation throws RunError(kBudgetExceeded)
// rather than wrap the order.
//
// Hot-path layout: each 16-byte heap slot holds its sort key inline -- the
// event time as an order-preserving 64-bit integer and the creation
// sequence, beside the slot id -- so sift operations compare contiguous
// slots instead of chasing the event arena (the seed kernel's dominant
// cost -- 43 % of run time was sift_down cache misses), and a comparison
// is integer flag arithmetic with no data-dependent branch.
//
// The heap is 4-ary: a shallower tree than a binary heap, and the four
// children of a node share one cache line.  A pop whose list empties is
// bottom-up: the hole left at the root walks down to a leaf along the
// smaller children and the heap's last slot, which almost always belongs
// near the bottom, sifts up from there.  Pop order is a deterministic total
// order on (time, seq).
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/base/check.hpp"
#include "src/base/ids.hpp"
#include "src/base/supervision.hpp"
#include "src/base/units.hpp"
#include "src/netlist/netlist.hpp"

namespace halotis {

/// One threshold-crossing event at a gate input.
struct Event {
  TimeNs time = 0.0;
  TransitionId transition;   ///< the transition that produced the event
  PinRef target;             ///< receiving gate input
  std::uint32_t input = 0;   ///< pending list (the fanout slot of `target`; fills padding)
};

/// An event's creation sequence: its ordinal among the events created since
/// the last EventQueue::clear().  Never reused, unlike the EventId slot.
using EventSeq = std::uint32_t;

class EventQueue {
 public:
  /// Most events one run may create: sequences 0 .. kMaxEvents - 1.
  static constexpr std::uint64_t kMaxEvents = EventId::kInvalid;

  /// An empty queue over `num_inputs` pending lists.
  explicit EventQueue(std::size_t num_inputs = 0) : lists_(num_inputs) {}

  /// Drops every event, restarts the creation sequence at 0, leaves
  /// `num_inputs` empty pending lists and resets the heap high-water mark,
  /// keeping the arena and heap capacity -- the Simulator::reset() re-arm
  /// path recycles the queue instead of reallocating it.
  void clear(std::size_t num_inputs) {
    nodes_.clear();
    free_ = kNil;
    next_seq_ = 0;
    heap_.clear();
    lists_.assign(num_inputs, ListEnds{});
    peak_size_ = 0;
  }

  /// Creates an event at the tail of `input`'s pending list.  Requires a
  /// time no earlier than the tail's (the new sequence is the newest, so
  /// the event then comes after it) and not NaN.  An event appended to an
  /// empty list is scheduled.  Throws RunError(kBudgetExceeded) when the
  /// run has already created kMaxEvents events.
  EventId append(std::uint32_t input, TimeNs time, TransitionId transition, PinRef target);

  /// Creates an event and links it into `input`'s pending list in
  /// (time, seq) order, scanning from the tail (O(k); resurrection).  A new
  /// head takes over the displaced head's heap slot.  Throws as append().
  EventId insert_sorted(std::uint32_t input, TimeNs time, TransitionId transition,
                        PinRef target);

  /// Cancels a pending event, unlinks it from its list and recycles its
  /// slot.  Returns whether it was the list's head (the scheduled one); a
  /// cancelled head hands its heap slot to its successor.  Requires
  /// pending(id).
  bool cancel(EventId id);

  /// Earliest scheduled event without removing it.  Requires !empty().
  [[nodiscard]] EventId peek() const;

  /// Removes the earliest event, recycles its slot and returns its creation
  /// sequence (the slot's EventId no longer names it).  Its successor on
  /// the same list takes over the vacated root in one sift.
  EventSeq pop();

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  /// Scheduled events: one per non-empty pending list.
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  /// Most events ever scheduled at once since the last clear().
  [[nodiscard]] std::size_t peak_size() const { return peak_size_; }
  [[nodiscard]] std::size_t num_inputs() const { return lists_.size(); }

  /// Whether `id` names a pending event: false once it fired or was
  /// cancelled, until a later creation reuses the slot.
  [[nodiscard]] bool pending(EventId id) const {
    return id.valid() && id.value() < nodes_.size() && nodes_[id.value()].seq != kNil;
  }

  /// Hints that `input`'s list ends are about to be read and written (an
  /// append is coming): one cache line holds eight lists' ends.
  void prefetch_list(std::uint32_t input) const { __builtin_prefetch(lists_.data() + input, 1); }

  /// Pending-list ends and links, earliest first; the invalid id past
  /// either end.  prev(), next(), event() and seq() take pending events.
  [[nodiscard]] EventId head(std::uint32_t input) const { return EventId{lists_[input].head}; }
  [[nodiscard]] EventId tail(std::uint32_t input) const { return EventId{lists_[input].tail}; }
  [[nodiscard]] EventId prev(EventId id) const { return EventId{node(id).prev}; }
  [[nodiscard]] EventId next(EventId id) const { return EventId{node(id).next}; }

  [[nodiscard]] const Event& event(EventId id) const { return node(id).ev; }
  /// Creation sequence of a pending event; the invalid id maps to
  /// 2^32 - 1, which no event ever gets (the trace's "no event").
  [[nodiscard]] EventSeq seq(EventId id) const { return id.valid() ? node(id).seq : kNil; }

  /// Events created since the last clear(): the next creation sequence.
  [[nodiscard]] std::uint64_t created_count() const { return next_seq_; }

  /// Byte footprint of the event arena and heap at their high-water marks
  /// since the last clear() -- the slots this run has used, not the
  /// capacity an earlier run left behind: bounded by the most events
  /// pending at once, not by events created.
  [[nodiscard]] std::uint64_t arena_bytes() const {
    return nodes_.size() * sizeof(Node) + peak_size_ * sizeof(HeapSlot);
  }

 private:
  friend struct EventQueueTestPeer;  // seeds the sequence near its limit

  static constexpr std::size_t kArity = 4;
  static constexpr std::uint32_t kNil = EventId::kInvalid;

  /// Heap node: the sort key, stored inline so comparisons stay in-cache.
  struct HeapSlot {
    std::uint64_t key;  ///< time_key(event time)
    EventSeq seq;       ///< tie-break: creation order
    std::uint32_t id;   ///< the event's slot
  };
  /// One event record: POD event + pending-list links + heap bookkeeping.
  /// A recycled slot has seq == kNil and threads the free list via `next`.
  struct Node {
    Event ev;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    std::uint32_t heap_pos = kNil;
    EventSeq seq = kNil;
  };
  static_assert(sizeof(HeapSlot) == 16, "heap slot: 64-bit key + sequence + slot id");
  static_assert(sizeof(Node) <= 40, "event record: Event.input must fit its padding");

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
  /// (key, seq) lexicographic order as one compare with the sequence order
  /// as a carry, so it compiles to flag arithmetic with no branch.  The
  /// largest non-NaN key (+infinity's) is far below 2^64 - 1, so the carry
  /// never wraps.
  [[nodiscard]] static bool before(const HeapSlot& a, const HeapSlot& b) {
    return a.key < b.key + static_cast<std::uint64_t>(a.seq < b.seq);
  }
  [[nodiscard]] HeapSlot slot_of(std::uint32_t raw) const {
    const Node& n = nodes_[raw];
    return HeapSlot{time_key(n.ev.time), n.seq, raw};
  }
  [[nodiscard]] const Node& node(EventId id) const {
    debug_ensure(pending(id), "EventQueue: id does not name a pending event");
    return nodes_[id.value()];
  }
  /// Takes a free slot (or grows the arena) for an unlinked, unscheduled
  /// event with the next creation sequence; returns the slot.
  std::uint32_t new_node(std::uint32_t input, TimeNs time, TransitionId transition,
                         PinRef target);
  /// Pushes an unlinked, unscheduled slot onto the free list.
  void release(std::uint32_t raw) {
    Node& gone = nodes_[raw];
    gone.seq = kNil;
    gone.next = free_;
    free_ = raw;
  }
  /// Schedules `raw` into a new heap slot.
  void schedule(std::uint32_t raw);
  /// Index of the earliest of the children [first, min(first + kArity, n)).
  [[nodiscard]] std::size_t min_child(std::size_t first, std::size_t n) const;
  /// Moves `moving` from the hole at `index` toward the root (sift_up) or
  /// the leaves (sift_down) and places it.  The slot is passed in, not
  /// read back from the hole: a slot stored and reloaded at once stalls on
  /// store forwarding.
  void sift_up(std::size_t index, HeapSlot moving);
  void sift_down(std::size_t index, HeapSlot moving);
  /// Removes the heap entry at `pos`.
  void remove_at(std::size_t pos);
  void place(std::size_t index, HeapSlot slot) {
    heap_[index] = slot;
    nodes_[slot.id].heap_pos = static_cast<std::uint32_t>(index);
  }

  std::vector<Node> nodes_;      // arena of pending events and free slots
  std::uint32_t free_ = kNil;    // LIFO free list through Node::next
  EventSeq next_seq_ = 0;        // creation sequence of the next event
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
  if (next_seq_ == kMaxEvents) [[unlikely]] {
    throw RunError(RunErrorKind::kBudgetExceeded,
                   "simulator: event creation sequence exhausted (4294967295 events)");
  }
  std::uint32_t raw = free_;
  if (raw != kNil) {
    free_ = nodes_[raw].next;
  } else {
    raw = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  Node& node = nodes_[raw];
  node.ev.time = time;
  node.ev.transition = transition;
  node.ev.target = target;
  node.ev.input = input;
  node.prev = kNil;
  node.next = kNil;
  node.heap_pos = kNil;
  node.seq = next_seq_++;
  return raw;
}

inline void EventQueue::schedule(std::uint32_t raw) {
  heap_.emplace_back();
  if (heap_.size() > peak_size_) peak_size_ = heap_.size();
  sift_up(heap_.size() - 1, slot_of(raw));
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
  // The new sequence is the newest, so it goes after every event not later.
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
    sift_up(pos, slot_of(raw));
  }
  return EventId{raw};
}

inline EventId EventQueue::peek() const {
  require(!heap_.empty(), "EventQueue::peek(): queue is empty");
  return EventId{heap_.front().id};
}

inline EventSeq EventQueue::pop() {
  require(!heap_.empty(), "EventQueue::pop(): queue is empty");
  const HeapSlot top = heap_.front();
  Node& fired = nodes_[top.id];
  debug_ensure(fired.prev == kNil && lists_[fired.ev.input].head == top.id,
               "EventQueue::pop(): scheduled event is not its list's head");
  const std::uint32_t next = fired.next;
  ListEnds& list = lists_[fired.ev.input];
  fired.heap_pos = kNil;
  release(top.id);
  list.head = next;
  if (next != kNil) {
    // The successor is usually close to the minimum: one top-down sift from
    // the root instead of a full pop plus a sift back up.
    nodes_[next].prev = kNil;
    sift_down(0, slot_of(next));
    return top.seq;
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
    sift_up(hole, last);
  }
  return top.seq;
}

inline bool EventQueue::cancel(EventId id) {
  require(pending(id), "EventQueue::cancel(): event is not pending");
  const std::uint32_t raw = id.value();
  Node& gone = nodes_[raw];
  const std::uint32_t prev = gone.prev;
  const std::uint32_t next = gone.next;
  const std::uint32_t pos = gone.heap_pos;
  ListEnds& list = lists_[gone.ev.input];
  gone.prev = gone.heap_pos = kNil;
  release(raw);
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
  ensure(pos < heap_.size() && heap_[pos].id == raw,
         "EventQueue::cancel(): heap position corrupt");
  if (next == kNil) {
    remove_at(pos);
  } else {
    // The successor comes after the head it replaces, whose parent comes
    // before it: only the way down can be out of order.
    sift_down(pos, slot_of(next));
  }
  return true;
}

inline void EventQueue::remove_at(std::size_t pos) {
  const HeapSlot last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    // The replacement may need to move either direction.
    sift_down(pos, last);
    const std::size_t at = nodes_[last.id].heap_pos;
    sift_up(at, last);
  }
}

inline void EventQueue::sift_up(std::size_t index, HeapSlot moving) {
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

inline void EventQueue::sift_down(std::size_t index, HeapSlot moving) {
  const std::size_t n = heap_.size();
  for (std::size_t first = kArity * index + 1; first < n; first = kArity * index + 1) {
    const std::size_t smallest = min_child(first, n);
    if (!before(heap_[smallest], moving)) break;
    place(index, heap_[smallest]);
    index = smallest;
  }
  place(index, moving);
}

}  // namespace halotis
