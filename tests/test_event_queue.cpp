// Tests for the event queue: per-input pending lists under a heads-only
// heap, including randomized differential tests against a multiset oracle.
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
namespace {

PinRef pin(unsigned gate, int p = 0) { return PinRef{GateId{gate}, p}; }

using Key = std::pair<double, std::uint32_t>;  // (time, id)
using Lists = std::vector<std::vector<EventId>>;

Key key_of(const EventQueue& q, EventId id) { return Key{q.event(id).time, id.value()}; }

/// Checks the queue against a model of its pending lists: the list ends
/// and links match, and the heap holds exactly the non-empty lists' heads.
/// Exact membership: the heap has one slot per non-empty list, and
/// draining a copy pops every pending event in (time, id) order -- a head
/// missing from the heap could never pop, since nothing precedes it.
void expect_heads_only(const EventQueue& q, const Lists& lists) {
  std::size_t non_empty = 0;
  std::vector<Key> pending;
  for (std::uint32_t in = 0; in < lists.size(); ++in) {
    const std::vector<EventId>& list = lists[in];
    ASSERT_EQ(q.head(in), list.empty() ? EventId{} : list.front()) << "input " << in;
    ASSERT_EQ(q.tail(in), list.empty() ? EventId{} : list.back()) << "input " << in;
    for (std::size_t i = 0; i < list.size(); ++i) {
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
    ASSERT_EQ(drain.pop().value(), expected.second);
  }
  ASSERT_TRUE(drain.empty());
}

/// Inserts `id` into its model list at its (time, id) position; returns
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
  EXPECT_DOUBLE_EQ(q.event(q.pop()).time, 1.0);
  EXPECT_DOUBLE_EQ(q.event(q.pop()).time, 2.0);
  EXPECT_DOUBLE_EQ(q.event(q.pop()).time, 3.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SimultaneousEventsFifoByCreation) {
  EventQueue q(3);
  const EventId a = q.append(2, 5.0, TransitionId{0}, pin(2));
  const EventId b = q.append(0, 5.0, TransitionId{1}, pin(0));
  const EventId c = q.append(2, 5.0, TransitionId{2}, pin(2));
  const EventId d = q.insert_sorted(0, 5.0, TransitionId{3}, pin(0));
  EXPECT_EQ(q.next(b), d);  // a sorted insert goes after every equal time
  EXPECT_EQ(q.pop(), a);
  EXPECT_EQ(q.pop(), b);
  EXPECT_EQ(q.pop(), c);
  EXPECT_EQ(q.pop(), d);
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

  EXPECT_EQ(q.pop(), a);  // b takes over a's heap slot
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.head(0), b);
  EXPECT_FALSE(q.prev(b).valid());
  EXPECT_FALSE(q.next(a).valid());  // a fired event has no neighbours
  EXPECT_EQ(q.pop(), c);
  EXPECT_FALSE(q.head(1).valid());
  EXPECT_FALSE(q.tail(1).valid());
  EXPECT_EQ(q.pop(), b);
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
  EXPECT_EQ(q.state(b), EventState::kCancelled);
  EXPECT_FALSE(q.head(1).valid());
  EXPECT_EQ(q.pop(), a);
  EXPECT_EQ(q.pop(), c);
  EXPECT_EQ(q.state(a), EventState::kFired);
  EXPECT_EQ(q.state(c), EventState::kFired);
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
  EXPECT_EQ(q.pop(), a);
  EXPECT_EQ(q.pop(), c);
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
  EXPECT_EQ(q.pop(), d);
  EXPECT_EQ(q.pop(), b);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, InsertSortedInFrontDisplacesTheHead) {
  EventQueue q(2);
  const EventId a = q.append(0, 2.0, TransitionId{0}, pin(0));
  const EventId d = q.append(1, 3.0, TransitionId{1}, pin(1));
  const EventId x = q.insert_sorted(0, 1.0, TransitionId{2}, pin(0));
  const EventId y = q.insert_sorted(0, 2.5, TransitionId{3}, pin(0));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.head(0), x);
  EXPECT_EQ(q.next(x), a);
  EXPECT_EQ(q.next(a), y);
  EXPECT_EQ(q.tail(0), y);
  EXPECT_EQ(q.pop(), x);
  EXPECT_EQ(q.pop(), a);
  EXPECT_EQ(q.pop(), y);
  EXPECT_EQ(q.pop(), d);
  EXPECT_EQ(q.peak_size(), 2u);
}

TEST(EventQueue, StateTransitions) {
  EventQueue q(1);
  const EventId a = q.append(0, 1.0, TransitionId{0}, pin(0));
  const EventId b = q.append(0, 2.0, TransitionId{1}, pin(0));
  EXPECT_EQ(q.state(a), EventState::kPending);
  (void)q.pop();
  EXPECT_EQ(q.state(a), EventState::kFired);
  EXPECT_THROW((void)q.cancel(a), ContractViolation);  // fired events not cancellable
  EXPECT_TRUE(q.cancel(b));
  EXPECT_THROW((void)q.cancel(b), ContractViolation);
  EXPECT_THROW((void)q.cancel(EventId{}), ContractViolation);
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
  EXPECT_EQ(q.pop(), a);
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
  std::vector<EventId> live;

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
      live.push_back(id);
    } else if (action < 0.8) {
      const Key expected = *oracle.begin();
      oracle.erase(oracle.begin());
      const EventId got = q.pop();
      ASSERT_EQ(got.value(), expected.second);
      EXPECT_DOUBLE_EQ(q.event(got).time, expected.first);
      std::vector<EventId>& fired = lists[q.event(got).input];
      ASSERT_EQ(fired.front(), got);
      fired.erase(fired.begin());
    } else {
      const EventId victim = live[rng.next_below(live.size())];
      if (q.state(victim) == EventState::kPending) {
        std::vector<EventId>& owner = lists[q.event(victim).input];
        const auto at = std::find(owner.begin(), owner.end(), victim);
        ASSERT_NE(at, owner.end());
        EXPECT_EQ(q.cancel(victim), at == owner.begin());
        owner.erase(at);
        oracle.erase(key_of(q, victim));
      }
    }
    ASSERT_EQ(q.empty(), oracle.empty());
    if (!oracle.empty()) {
      ASSERT_EQ(q.event(q.peek()).time, oracle.begin()->first);
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
    EXPECT_EQ(q.pop().value(), expected.second);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SignedZerosTieAndTheIdBreaksTheTie) {
  EventQueue q(6);
  const EventId pos_zero = q.append(0, 0.0, TransitionId{0}, pin(0));
  const EventId neg_zero = q.append(1, -0.0, TransitionId{1}, pin(1));
  const EventId negative = q.append(2, -2.5, TransitionId{2}, pin(2));
  const EventId tiny = q.append(3, std::nextafter(0.0, 1.0), TransitionId{3}, pin(3));
  const EventId never = q.append(4, kNeverNs, TransitionId{4}, pin(4));
  const EventId very_negative = q.append(5, -kNeverNs, TransitionId{5}, pin(5));
  EXPECT_EQ(q.pop(), very_negative);
  EXPECT_EQ(q.pop(), negative);
  EXPECT_EQ(q.pop(), pos_zero);  // -0.0 == +0.0: creation order decides
  EXPECT_EQ(q.pop(), neg_zero);
  EXPECT_EQ(q.pop(), tiny);
  EXPECT_EQ(q.pop(), never);
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
/// position, including a head with a successor.  After every operation the
/// heap must hold exactly the non-empty lists' heads, and every pop must
/// match a multiset oracle in (time, id) order, with -0.0 and +0.0 equal.
TEST(EventQueue, HeadsOnlyMatchesMultisetOracleOnTies) {
  const std::array<double, 6> times = {0.0,  -0.0, -2.5, 1.0, std::nextafter(1.0, 2.0),
                                       kNeverNs};
  constexpr std::uint32_t kInputs = 6;
  SplitMix64 rng(0x7135);
  EventQueue q(kInputs);
  // std::set orders the pair through double's <: -0.0 and +0.0 are
  // equivalent and the id breaks the tie, exactly the queue's contract.
  std::set<Key> oracle;
  Lists lists(kInputs);

  std::size_t high_water = 0;
  std::uint64_t pops = 0;
  std::uint64_t displaced_heads = 0;
  std::uint64_t cancelled_heads_with_successor = 0;
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
      oracle.insert(key_of(q, id));
    } else if (action < 0.75) {
      if (oracle.empty()) continue;
      const Key expected = *oracle.begin();
      oracle.erase(oracle.begin());
      const EventId got = q.pop();
      ASSERT_EQ(got.value(), expected.second);
      EXPECT_EQ(q.state(got), EventState::kFired);
      std::vector<EventId>& fired = lists[q.event(got).input];
      ASSERT_EQ(fired.front(), got) << "popped event is not a list head";
      fired.erase(fired.begin());
      ++pops;
    } else if (!list.empty()) {
      const auto pick = static_cast<std::ptrdiff_t>(rng.next_below(list.size()));
      const EventId victim = list[static_cast<std::size_t>(pick)];
      if (pick == 0 && list.size() > 1) ++cancelled_heads_with_successor;
      EXPECT_EQ(q.cancel(victim), pick == 0);
      EXPECT_EQ(q.state(victim), EventState::kCancelled);
      oracle.erase(key_of(q, victim));
      list.erase(list.begin() + pick);
    }
    expect_heads_only(q, lists);
    if (HasFatalFailure()) return;
    high_water = std::max(high_water, q.size());
  }
  while (!oracle.empty()) {
    const Key expected = *oracle.begin();
    oracle.erase(oracle.begin());
    ASSERT_EQ(q.pop().value(), expected.second);
    ++pops;
  }
  EXPECT_TRUE(q.empty());
  EXPECT_GT(pops, 1500u);
  EXPECT_GT(displaced_heads, 100u);
  EXPECT_GT(cancelled_heads_with_successor, 100u);
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
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) (void)q.cancel(ids[i]);
  std::vector<bool> popped(ids.size(), false);
  while (!q.empty()) {
    const EventId id = q.pop();
    ASSERT_FALSE(popped[id.value()]) << "event " << id.value() << " popped twice";
    popped[id.value()] = true;
  }
  EXPECT_EQ(q.created_count(), 500u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const bool cancelled = i % 3 == 0;
    EXPECT_EQ(q.state(ids[i]), cancelled ? EventState::kCancelled : EventState::kFired)
        << "event " << i;
    EXPECT_EQ(popped[ids[i].value()], !cancelled) << "event " << i;
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
