// Tests for the event queue: per-input pending lists under a heads-only
// heap with recycled event slots, including randomized differential tests
// against a multiset oracle keyed on (time, creation sequence).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <iterator>
#include <set>
#include <utility>
#include <vector>

#include "src/base/rng.hpp"
#include "src/core/event_queue.hpp"

namespace halotis {

/// The test-only hook EventQueue befriends: starts the creation sequence
/// near its limit without creating four billion events.
struct EventQueueTestPeer {
  static void seed_sequence(EventQueue& q, EventSeq next) { q.next_seq_ = next; }
};

namespace {

PinRef pin(unsigned gate, int p = 0) { return PinRef{GateId{gate}, p}; }

using Key = std::pair<double, EventSeq>;  // (time, creation sequence)
using Lists = std::vector<std::vector<EventId>>;

Key key_of(const EventQueue& q, EventId id) { return Key{q.event(id).time, q.seq(id)}; }

/// Pops the earliest event; returns its (time, seq) key.
Key pop_key(EventQueue& q) {
  const double time = q.event(q.peek()).time;
  return Key{time, q.pop()};
}

/// Checks the queue against a model of its pending lists: the list ends
/// and links match, and the heap holds exactly the non-empty lists' heads.
/// Exact membership: the heap has one slot per non-empty list, and
/// draining a copy pops every pending event in (time, seq) order -- a head
/// missing from the heap could never pop, since nothing precedes it.
void expect_heads_only(const EventQueue& q, const Lists& lists) {
  std::size_t non_empty = 0;
  std::vector<Key> pending;
  for (std::uint32_t in = 0; in < lists.size(); ++in) {
    const std::vector<EventId>& list = lists[in];
    ASSERT_EQ(q.head(in), list.empty() ? EventId{} : list.front()) << "input " << in;
    ASSERT_EQ(q.tail(in), list.empty() ? EventId{} : list.back()) << "input " << in;
    for (std::size_t i = 0; i < list.size(); ++i) {
      ASSERT_TRUE(q.pending(list[i]));
      ASSERT_EQ(q.prev(list[i]), i == 0 ? EventId{} : list[i - 1]);
      ASSERT_EQ(q.next(list[i]), i + 1 == list.size() ? EventId{} : list[i + 1]);
      pending.push_back(key_of(q, list[i]));
    }
    non_empty += list.empty() ? 0 : 1;
  }
  ASSERT_EQ(q.size(), non_empty);
  std::sort(pending.begin(), pending.end());
  EventQueue drain = q;
  for (const Key& expected : pending) {
    ASSERT_FALSE(drain.empty());
    ASSERT_EQ(drain.pop(), expected.second);
  }
  ASSERT_TRUE(drain.empty());
}

/// Inserts `id` into its model list at its (time, seq) position; returns
/// whether it became the head.
bool model_insert(const EventQueue& q, std::vector<EventId>& list, EventId id) {
  const Key key = key_of(q, id);
  const auto at = std::upper_bound(list.begin(), list.end(), key,
                                   [&](const Key& k, EventId e) { return k < key_of(q, e); });
  const bool head = at == list.begin();
  list.insert(at, id);
  return head;
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q(3);
  (void)q.append(0, 3.0, TransitionId{0}, pin(0));
  (void)q.append(1, 1.0, TransitionId{1}, pin(1));
  (void)q.append(2, 2.0, TransitionId{2}, pin(2));

  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(pop_key(q), Key(1.0, 1u));
  EXPECT_EQ(pop_key(q), Key(2.0, 2u));
  EXPECT_EQ(pop_key(q), Key(3.0, 0u));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SimultaneousEventsFifoByCreation) {
  EventQueue q(3);
  const EventId a = q.append(2, 5.0, TransitionId{0}, pin(2));
  const EventId b = q.append(0, 5.0, TransitionId{1}, pin(0));
  const EventId c = q.append(2, 5.0, TransitionId{2}, pin(2));
  const EventId d = q.insert_sorted(0, 5.0, TransitionId{3}, pin(0));
  EXPECT_EQ(q.next(b), d);  // a sorted insert goes after every equal time
  const std::array<EventSeq, 4> order = {q.seq(a), q.seq(b), q.seq(c), q.seq(d)};
  EXPECT_EQ(order, (std::array<EventSeq, 4>{0, 1, 2, 3}));
  for (const EventSeq expected : order) EXPECT_EQ(q.pop(), expected);
  EXPECT_EQ(q.created_count(), 4u);
}

TEST(EventQueue, OnlyListHeadsAreScheduled) {
  EventQueue q(2);
  const EventId a = q.append(0, 1.0, TransitionId{0}, pin(0));
  const EventId b = q.append(0, 2.0, TransitionId{1}, pin(0));
  const EventId c = q.append(1, 1.5, TransitionId{2}, pin(1));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.head(0), a);
  EXPECT_EQ(q.tail(0), b);
  EXPECT_EQ(q.next(a), b);
  EXPECT_EQ(q.prev(b), a);
  EXPECT_FALSE(q.prev(a).valid());
  EXPECT_FALSE(q.next(b).valid());

  EXPECT_EQ(q.pop(), 0u);  // a; b takes over its heap slot
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.head(0), b);
  EXPECT_FALSE(q.prev(b).valid());
  EXPECT_FALSE(q.pending(a));  // a fired event's slot is recycled
  EXPECT_EQ(q.peek(), c);
  EXPECT_EQ(q.pop(), 2u);
  EXPECT_FALSE(q.head(1).valid());
  EXPECT_FALSE(q.tail(1).valid());
  EXPECT_EQ(q.pop(), 1u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.peak_size(), 2u);
}

TEST(EventQueue, CancelScheduledHead) {
  EventQueue q(3);
  const EventId a = q.append(0, 1.0, TransitionId{0}, pin(0));
  const EventId b = q.append(1, 2.0, TransitionId{1}, pin(1));
  const EventId c = q.append(2, 3.0, TransitionId{2}, pin(2));
  EXPECT_TRUE(q.cancel(b));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_FALSE(q.pending(b));
  EXPECT_FALSE(q.head(1).valid());
  EXPECT_EQ(q.pop(), 0u);  // a
  EXPECT_EQ(q.pop(), 2u);  // c
  EXPECT_FALSE(q.pending(a));
  EXPECT_FALSE(q.pending(c));
}

TEST(EventQueue, CancelMidListEventLeavesTheHeapAlone) {
  EventQueue q(1);
  const EventId a = q.append(0, 1.0, TransitionId{0}, pin(0));
  const EventId b = q.append(0, 2.0, TransitionId{1}, pin(0));
  const EventId c = q.append(0, 3.0, TransitionId{2}, pin(0));
  EXPECT_FALSE(q.cancel(b));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next(a), c);
  EXPECT_EQ(q.prev(c), a);
  EXPECT_EQ(q.pop(), 0u);
  EXPECT_EQ(q.pop(), 2u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelHeadHandsItsSlotToTheSuccessor) {
  EventQueue q(2);
  const EventId a = q.append(0, 1.0, TransitionId{0}, pin(0));
  const EventId b = q.append(0, 4.0, TransitionId{1}, pin(0));
  const EventId d = q.append(1, 2.0, TransitionId{2}, pin(1));
  EXPECT_TRUE(q.cancel(a));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.head(0), b);
  EXPECT_EQ(q.peek(), d);
  EXPECT_EQ(q.pop(), 2u);
  EXPECT_EQ(q.pop(), 1u);  // b
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, InsertSortedInFrontDisplacesTheHead) {
  EventQueue q(2);
  const EventId a = q.append(0, 2.0, TransitionId{0}, pin(0));
  (void)q.append(1, 3.0, TransitionId{1}, pin(1));
  const EventId x = q.insert_sorted(0, 1.0, TransitionId{2}, pin(0));
  const EventId y = q.insert_sorted(0, 2.5, TransitionId{3}, pin(0));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.head(0), x);
  EXPECT_EQ(q.next(x), a);
  EXPECT_EQ(q.next(a), y);
  EXPECT_EQ(q.tail(0), y);
  EXPECT_EQ(q.pop(), 2u);  // x
  EXPECT_EQ(q.pop(), 0u);  // a
  EXPECT_EQ(q.pop(), 3u);  // y
  EXPECT_EQ(q.pop(), 1u);  // the other input's event
  EXPECT_EQ(q.peak_size(), 2u);
}

TEST(EventQueue, PendingUntilFiredOrCancelled) {
  EventQueue q(1);
  const EventId a = q.append(0, 1.0, TransitionId{0}, pin(0));
  const EventId b = q.append(0, 2.0, TransitionId{1}, pin(0));
  EXPECT_TRUE(q.pending(a));
  (void)q.pop();
  EXPECT_FALSE(q.pending(a));
  EXPECT_THROW((void)q.cancel(a), ContractViolation);  // fired events not cancellable
  EXPECT_TRUE(q.cancel(b));
  EXPECT_FALSE(q.pending(b));
  EXPECT_THROW((void)q.cancel(b), ContractViolation);
  EXPECT_THROW((void)q.cancel(EventId{}), ContractViolation);
  EXPECT_FALSE(q.pending(EventId{}));
  EXPECT_EQ(q.seq(EventId{}), EventId::kInvalid);  // the trace's "no event"
}

TEST(EventQueue, PopEmptyThrows) {
  EventQueue q(1);
  EXPECT_THROW((void)q.pop(), ContractViolation);
  EXPECT_THROW((void)q.peek(), ContractViolation);
}

TEST(EventQueue, PeekDoesNotRemove) {
  EventQueue q(1);
  const EventId a = q.append(0, 1.0, TransitionId{0}, pin(0));
  EXPECT_EQ(q.peek(), a);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop(), 0u);
}

/// A fired or cancelled event's slot goes to the front of the free list:
/// the next creation reuses it (LIFO), under a new, larger sequence.
TEST(EventQueue, PoppedOrCancelledSlotIsReusedByTheNextCreation) {
  EventQueue q(3);
  const EventId a = q.append(0, 1.0, TransitionId{0}, pin(0));
  const EventId b = q.append(1, 2.0, TransitionId{1}, pin(1));
  const EventId c = q.append(2, 3.0, TransitionId{2}, pin(2));
  EXPECT_EQ(q.pop(), 0u);
  const EventId d = q.append(0, 4.0, TransitionId{3}, pin(0));
  EXPECT_EQ(d, a);  // the slot just popped
  EXPECT_EQ(q.seq(d), 3u);

  EXPECT_TRUE(q.cancel(b));
  EXPECT_TRUE(q.cancel(c));
  const EventId e = q.insert_sorted(1, 0.5, TransitionId{4}, pin(1));
  const EventId f = q.append(2, 0.5, TransitionId{5}, pin(2));
  EXPECT_EQ(e, c);  // last freed, first reused
  EXPECT_EQ(f, b);
  EXPECT_EQ(q.seq(e), 4u);
  EXPECT_EQ(q.seq(f), 5u);
  EXPECT_EQ(q.created_count(), 6u);

  EXPECT_EQ(q.pop(), 4u);
  EXPECT_EQ(q.pop(), 5u);
  EXPECT_EQ(q.pop(), 3u);
  EXPECT_TRUE(q.empty());
}

/// The tie-break is the creation sequence, not the slot: an equal-time
/// event created later pops later even when it reuses a lower slot.
TEST(EventQueue, EqualTimesPopInCreationOrderAcrossRecycledSlots) {
  EventQueue q(3);
  (void)q.append(0, 1.0, TransitionId{0}, pin(0));                 // slot 0, seq 0
  const EventId early = q.append(1, 5.0, TransitionId{1}, pin(1));  // slot 1, seq 1
  EXPECT_EQ(q.pop(), 0u);                                          // frees slot 0
  const EventId late = q.append(2, 5.0, TransitionId{2}, pin(2));   // slot 0, seq 2
  ASSERT_LT(late.value(), early.value());
  ASSERT_GT(q.seq(late), q.seq(early));
  const EventId later = q.insert_sorted(1, 5.0, TransitionId{3}, pin(1));  // slot 2, seq 3
  EXPECT_EQ(q.next(early), later);
  EXPECT_EQ(q.pop(), 1u);
  EXPECT_EQ(q.pop(), 2u);
  EXPECT_EQ(q.pop(), 3u);
  EXPECT_TRUE(q.empty());
}

/// The arena holds the most events pending at once, not every event the
/// run created: a long run with few pending events stays small.
TEST(EventQueue, ArenaHoldsThePendingHighWaterMark) {
  constexpr std::uint32_t kInputs = 4;
  EventQueue q(kInputs);
  SplitMix64 rng(11);
  std::vector<double> last(kInputs, 0.0);
  std::size_t most_pending = 0;
  std::size_t pending = 0;
  for (int i = 0; i < 100000; ++i) {
    if (pending < 8 && (pending == 0 || rng.next_below(2) == 0)) {
      const auto in = static_cast<std::uint32_t>(rng.next_below(kInputs));
      last[in] += rng.next_double_in(0.0, 2.0);
      (void)q.append(in, last[in], TransitionId{0}, pin(in));
      most_pending = std::max(most_pending, ++pending);
    } else {
      (void)q.pop();
      --pending;
    }
  }
  EXPECT_GT(q.created_count(), 40000u);
  EXPECT_LE(most_pending, 8u);
  EXPECT_LE(q.arena_bytes(), 64u * 40u + 64u * 16u) << "arena grew with events created";
}

/// 2^32 - 1 creations are the limit: a sequence seeded just below it keeps
/// the (time, seq) order up to the limit, and the next creation throws the
/// budget error instead of wrapping to sequence 0.
TEST(EventQueue, SequenceLimitThrowsInsteadOfWrapping) {
  EventQueue q(2);
  EventQueueTestPeer::seed_sequence(q, static_cast<EventSeq>(EventQueue::kMaxEvents - 3));
  const EventId a = q.append(0, 1.0, TransitionId{0}, pin(0));
  const EventId b = q.append(1, 1.0, TransitionId{1}, pin(1));
  const EventId c = q.insert_sorted(0, 1.0, TransitionId{2}, pin(0));
  EXPECT_EQ(q.seq(a), 0xFFFFFFFCu);
  EXPECT_EQ(q.seq(b), 0xFFFFFFFDu);
  EXPECT_EQ(q.seq(c), 0xFFFFFFFEu);  // the last sequence an event can get
  EXPECT_EQ(q.created_count(), EventQueue::kMaxEvents);

  try {
    (void)q.append(1, 0.5, TransitionId{3}, pin(1));
    ADD_FAILURE() << "creation past the limit did not throw";
  } catch (const RunError& e) {
    EXPECT_EQ(e.kind(), RunErrorKind::kBudgetExceeded);
    EXPECT_EQ(e.exit_code(), 3);
  }
  EXPECT_THROW((void)q.insert_sorted(0, 0.5, TransitionId{3}, pin(0)), RunError);

  // The failed creations left the queue intact and in order.
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop(), 0xFFFFFFFCu);  // a
  EXPECT_EQ(q.pop(), 0xFFFFFFFDu);  // b
  EXPECT_EQ(q.pop(), 0xFFFFFFFEu);  // c
  EXPECT_TRUE(q.empty());
  EXPECT_THROW((void)q.append(0, 2.0, TransitionId{4}, pin(0)), RunError);

  q.clear(2);  // a new run starts the sequence over
  EXPECT_EQ(q.seq(q.append(0, 2.0, TransitionId{4}, pin(0))), 0u);
}

/// Randomized differential test: appends, sorted inserts, pops and cancels
/// anywhere in the lists must match a multiset oracle of every pending
/// event, with the heap on exactly the lists' heads throughout.
TEST(EventQueue, RandomizedMatchesMultisetOracle) {
  constexpr std::uint32_t kInputs = 16;
  SplitMix64 rng(2024);
  EventQueue q(kInputs);
  std::set<Key> oracle;
  Lists lists(kInputs);

  for (int step = 0; step < 20000; ++step) {
    const double action = rng.next_double();
    const auto in = static_cast<std::uint32_t>(rng.next_below(kInputs));
    std::vector<EventId>& list = lists[in];
    if (action < 0.5 || oracle.empty()) {
      EventId id;
      if (action < 0.3 && !list.empty()) {
        const double t = q.event(list.back()).time + rng.next_double_in(0.0, 3.0);
        id = q.append(in, t, TransitionId{0}, pin(in));
      } else {
        id = q.insert_sorted(in, rng.next_double_in(0.0, 1000.0), TransitionId{0}, pin(in));
      }
      (void)model_insert(q, list, id);
      oracle.insert(key_of(q, id));
    } else if (action < 0.8) {
      const Key expected = *oracle.begin();
      oracle.erase(oracle.begin());
      const EventId top = q.peek();
      std::vector<EventId>& fired = lists[q.event(top).input];
      ASSERT_EQ(fired.front(), top);
      EXPECT_DOUBLE_EQ(q.event(top).time, expected.first);
      ASSERT_EQ(q.pop(), expected.second);
      fired.erase(fired.begin());
    } else if (!list.empty()) {
      const auto pick = static_cast<std::ptrdiff_t>(rng.next_below(list.size()));
      const EventId victim = list[static_cast<std::size_t>(pick)];
      oracle.erase(key_of(q, victim));
      EXPECT_EQ(q.cancel(victim), pick == 0);
      list.erase(list.begin() + pick);
    }
    ASSERT_EQ(q.empty(), oracle.empty());
    if (!oracle.empty()) {
      ASSERT_EQ(key_of(q, q.peek()), *oracle.begin());
    }
    if (step % 500 == 0) {
      expect_heads_only(q, lists);
      if (HasFatalFailure()) return;
    }
  }
  expect_heads_only(q, lists);
  // Drain and verify full ordering.
  while (!oracle.empty()) {
    const Key expected = *oracle.begin();
    oracle.erase(oracle.begin());
    EXPECT_EQ(q.pop(), expected.second);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SignedZerosTieAndTheSequenceBreaksTheTie) {
  EventQueue q(6);
  (void)q.append(0, 0.0, TransitionId{0}, pin(0));                     // seq 0
  (void)q.append(1, -0.0, TransitionId{1}, pin(1));                    // seq 1
  (void)q.append(2, -2.5, TransitionId{2}, pin(2));                    // seq 2
  (void)q.append(3, std::nextafter(0.0, 1.0), TransitionId{3}, pin(3));  // seq 3
  (void)q.append(4, kNeverNs, TransitionId{4}, pin(4));                // seq 4
  (void)q.append(5, -kNeverNs, TransitionId{5}, pin(5));               // seq 5
  EXPECT_EQ(q.pop(), 5u);
  EXPECT_EQ(q.pop(), 2u);
  EXPECT_EQ(q.pop(), 0u);  // -0.0 == +0.0: creation order decides
  EXPECT_EQ(q.pop(), 1u);
  EXPECT_EQ(q.pop(), 3u);
  EXPECT_EQ(q.pop(), 4u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RejectsNanTimeInDebugBuilds) {
#ifdef NDEBUG
  GTEST_SKIP() << "debug_ensure is compiled out of release builds";
#else
  EventQueue q(1);
  EXPECT_THROW((void)q.append(0, std::nan(""), TransitionId{0}, pin(0)), ContractViolation);
  EXPECT_THROW((void)q.insert_sorted(0, std::nan(""), TransitionId{0}, pin(0)),
               ContractViolation);
#endif
}

/// The heads-only discipline on ties: times come from a small set full of
/// ties and sign/ordering edge cases, events are appended or inserted in
/// order (landing in front of a scheduled head too), and cancels hit any
/// position, including a head with a successor.  Slots are recycled
/// throughout, so slot order says nothing about creation order.  After
/// every operation the heap must hold exactly the non-empty lists' heads,
/// and every pop must match a multiset oracle in (time, seq) order, with
/// -0.0 and +0.0 equal.
TEST(EventQueue, HeadsOnlyMatchesMultisetOracleOnTies) {
  const std::array<double, 6> times = {0.0,  -0.0, -2.5, 1.0, std::nextafter(1.0, 2.0),
                                       kNeverNs};
  constexpr std::uint32_t kInputs = 6;
  SplitMix64 rng(0x7135);
  EventQueue q(kInputs);
  // std::set orders the pair through double's <: -0.0 and +0.0 are
  // equivalent and the sequence breaks the tie, exactly the queue's contract.
  std::set<Key> oracle;
  Lists lists(kInputs);

  std::size_t high_water = 0;
  std::uint64_t pops = 0;
  std::uint64_t displaced_heads = 0;
  std::uint64_t cancelled_heads_with_successor = 0;
  std::uint64_t ties_against_a_higher_slot = 0;
  for (int step = 0; step < 6000; ++step) {
    const double action = rng.next_double();
    const auto in = static_cast<std::uint32_t>(rng.next_below(kInputs));
    std::vector<EventId>& list = lists[in];
    if (action < 0.45) {
      const double t = times[rng.next_below(times.size())];
      const bool may_append = list.empty() || !(t < q.event(list.back()).time);
      const EventId id = may_append && rng.next_below(2) == 0
                             ? q.append(in, t, TransitionId{0}, pin(0, static_cast<int>(in)))
                             : q.insert_sorted(in, t, TransitionId{0},
                                               pin(0, static_cast<int>(in)));
      if (model_insert(q, list, id) && list.size() > 1) ++displaced_heads;
      const Key key = key_of(q, id);
      // An older pending event at the same time in a higher slot: slot
      // order would pop the new one first.
      for (const std::vector<EventId>& other : lists) {
        for (const EventId e : other) {
          if (e.value() > id.value() && key_of(q, e).first == key.first) {
            ++ties_against_a_higher_slot;
          }
        }
      }
      oracle.insert(key);
    } else if (action < 0.75) {
      if (oracle.empty()) continue;
      const Key expected = *oracle.begin();
      oracle.erase(oracle.begin());
      const EventId top = q.peek();
      std::vector<EventId>& fired = lists[q.event(top).input];
      ASSERT_EQ(fired.front(), top) << "popped event is not a list head";
      ASSERT_EQ(q.pop(), expected.second);
      EXPECT_FALSE(q.pending(top));
      fired.erase(fired.begin());
      ++pops;
    } else if (!list.empty()) {
      const auto pick = static_cast<std::ptrdiff_t>(rng.next_below(list.size()));
      const EventId victim = list[static_cast<std::size_t>(pick)];
      if (pick == 0 && list.size() > 1) ++cancelled_heads_with_successor;
      oracle.erase(key_of(q, victim));
      EXPECT_EQ(q.cancel(victim), pick == 0);
      EXPECT_FALSE(q.pending(victim));
      list.erase(list.begin() + pick);
    }
    expect_heads_only(q, lists);
    if (HasFatalFailure()) return;
    high_water = std::max(high_water, q.size());
  }
  while (!oracle.empty()) {
    const Key expected = *oracle.begin();
    oracle.erase(oracle.begin());
    ASSERT_EQ(q.pop(), expected.second);
    ++pops;
  }
  EXPECT_TRUE(q.empty());
  EXPECT_GT(pops, 1500u);
  EXPECT_GT(displaced_heads, 100u);
  EXPECT_GT(cancelled_heads_with_successor, 100u);
  EXPECT_GT(ties_against_a_higher_slot, 100u);
  EXPECT_EQ(q.peak_size(), high_water);
  EXPECT_LE(q.peak_size(), kInputs);
}

TEST(EventQueue, EveryEventEndsFiredOrCancelled) {
  constexpr std::uint32_t kInputs = 8;
  SplitMix64 rng(7);
  EventQueue q(kInputs);
  std::vector<EventId> ids;
  for (int i = 0; i < 500; ++i) {
    const auto in = static_cast<std::uint32_t>(rng.next_below(kInputs));
    ids.push_back(q.insert_sorted(in, rng.next_double_in(0.0, 10.0), TransitionId{0}, pin(in)));
    ASSERT_EQ(q.seq(ids.back()), static_cast<EventSeq>(i));
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) (void)q.cancel(ids[i]);
  std::vector<bool> popped(ids.size(), false);
  while (!q.empty()) {
    const EventSeq seq = q.pop();
    ASSERT_LT(seq, popped.size());
    ASSERT_FALSE(popped[seq]) << "event " << seq << " popped twice";
    popped[seq] = true;
  }
  EXPECT_EQ(q.created_count(), 500u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const bool cancelled = i % 3 == 0;
    EXPECT_FALSE(q.pending(ids[i])) << "event " << i;
    EXPECT_EQ(popped[i], !cancelled) << "event " << i;
  }

  q.clear(3);
  EXPECT_EQ(q.num_inputs(), 3u);
  EXPECT_EQ(q.created_count(), 0u);
  EXPECT_EQ(q.peak_size(), 0u);
  EXPECT_FALSE(q.head(2).valid());
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace halotis
