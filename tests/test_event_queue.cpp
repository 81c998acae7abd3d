// Tests for the cancellable indexed event queue, including randomized
// differential tests against a multiset oracle: one over push / pop /
// cancel, one over the heads-only API the simulator drives.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "src/base/rng.hpp"
#include "src/core/event_queue.hpp"

namespace halotis {
namespace {

PinRef pin(unsigned gate, int p = 0) { return PinRef{GateId{gate}, p}; }

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  (void)q.push(3.0, TransitionId{0}, pin(0));
  (void)q.push(1.0, TransitionId{1}, pin(1));
  (void)q.push(2.0, TransitionId{2}, pin(2));

  EXPECT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q.event(q.pop()).time, 1.0);
  EXPECT_DOUBLE_EQ(q.event(q.pop()).time, 2.0);
  EXPECT_DOUBLE_EQ(q.event(q.pop()).time, 3.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SimultaneousEventsFifoByCreation) {
  EventQueue q;
  const EventId a = q.push(5.0, TransitionId{0}, pin(0));
  const EventId b = q.push(5.0, TransitionId{1}, pin(1));
  const EventId c = q.push(5.0, TransitionId{2}, pin(2));
  EXPECT_EQ(q.pop(), a);
  EXPECT_EQ(q.pop(), b);
  EXPECT_EQ(q.pop(), c);
}

TEST(EventQueue, CancelRemovesFromHeap) {
  EventQueue q;
  const EventId a = q.push(1.0, TransitionId{0}, pin(0));
  const EventId b = q.push(2.0, TransitionId{1}, pin(1));
  const EventId c = q.push(3.0, TransitionId{2}, pin(2));
  q.cancel(b);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.state(b), EventState::kCancelled);
  EXPECT_EQ(q.pop(), a);
  EXPECT_EQ(q.pop(), c);
  EXPECT_EQ(q.state(a), EventState::kFired);
  EXPECT_EQ(q.state(c), EventState::kFired);
}

TEST(EventQueue, CancelHeadThenPop) {
  EventQueue q;
  const EventId a = q.push(1.0, TransitionId{0}, pin(0));
  const EventId b = q.push(2.0, TransitionId{1}, pin(1));
  q.cancel(a);
  EXPECT_EQ(q.pop(), b);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StateTransitions) {
  EventQueue q;
  const EventId a = q.push(1.0, TransitionId{0}, pin(0));
  EXPECT_EQ(q.state(a), EventState::kPending);
  (void)q.pop();
  EXPECT_EQ(q.state(a), EventState::kFired);
  EXPECT_THROW(q.cancel(a), ContractViolation);  // fired events not cancellable
}

TEST(EventQueue, PopEmptyThrows) {
  EventQueue q;
  EXPECT_THROW((void)q.pop(), ContractViolation);
  EXPECT_THROW((void)q.peek(), ContractViolation);
}

TEST(EventQueue, PeekDoesNotRemove) {
  EventQueue q;
  const EventId a = q.push(1.0, TransitionId{0}, pin(0));
  EXPECT_EQ(q.peek(), a);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop(), a);
}

/// Randomized differential test: heap behaviour must match a multiset-based
/// oracle under a mixed push / pop / cancel workload.
TEST(EventQueue, RandomizedMatchesMultisetOracle4Ary) {
  SplitMix64 rng(2024);
  EventQueue q;
  // Oracle: set of (time, id) for pending events (ids are creation-ordered,
  // so they double as the FIFO sequence tie-break).
  using Key = std::tuple<double, std::uint32_t>;  // time, id
  std::set<Key> oracle;
  std::vector<EventId> live;

  for (int step = 0; step < 20000; ++step) {
    const double action = rng.next_double();
    if (action < 0.5 || oracle.empty()) {
      const double t = rng.next_double_in(0.0, 1000.0);
      const EventId id = q.push(t, TransitionId{0}, pin(0));
      oracle.emplace(t, id.value());
      live.push_back(id);
    } else if (action < 0.8) {
      const auto expected = *oracle.begin();
      oracle.erase(oracle.begin());
      const EventId got = q.pop();
      EXPECT_EQ(got.value(), std::get<1>(expected));
      EXPECT_DOUBLE_EQ(q.event(got).time, std::get<0>(expected));
    } else {
      // Cancel a random pending event.
      const std::size_t pick = rng.next_below(live.size());
      const EventId victim = live[pick];
      if (q.state(victim) == EventState::kPending) {
        q.cancel(victim);
        oracle.erase({q.event(victim).time, victim.value()});
      }
    }
    ASSERT_EQ(q.size(), oracle.size());
  }
  // Drain and verify full ordering.
  while (!oracle.empty()) {
    const auto expected = *oracle.begin();
    oracle.erase(oracle.begin());
    EXPECT_EQ(q.pop().value(), std::get<1>(expected));
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SignedZerosTieAndTheIdBreaksTheTie) {
  EventQueue q;
  const EventId pos_zero = q.push(0.0, TransitionId{0}, pin(0));
  const EventId neg_zero = q.push(-0.0, TransitionId{1}, pin(1));
  const EventId negative = q.push(-2.5, TransitionId{2}, pin(2));
  const EventId tiny = q.push(std::nextafter(0.0, 1.0), TransitionId{3}, pin(3));
  const EventId never = q.push(kNeverNs, TransitionId{4}, pin(4));
  const EventId very_negative = q.push(-kNeverNs, TransitionId{5}, pin(5));
  EXPECT_EQ(q.pop(), very_negative);
  EXPECT_EQ(q.pop(), negative);
  EXPECT_EQ(q.pop(), pos_zero);  // -0.0 == +0.0: creation order decides
  EXPECT_EQ(q.pop(), neg_zero);
  EXPECT_EQ(q.pop(), tiny);
  EXPECT_EQ(q.pop(), never);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CreateRejectsNanTimeInDebugBuilds) {
#ifdef NDEBUG
  GTEST_SKIP() << "debug_ensure is compiled out of release builds";
#else
  EventQueue q;
  EXPECT_THROW((void)q.create(std::nan(""), TransitionId{0}, pin(0)), ContractViolation);
#endif
}

/// The heads-only discipline the simulator drives: each input keeps a
/// (time, id)-ordered pending list and only its head is scheduled.  A new
/// head displaces the old one (dequeue + enqueue, as a resurrection does),
/// a fired head hands its slot to its successor (pop_replacing), and a
/// cancelled head is replaced by its successor.  Times come from a small
/// set full of ties and sign/ordering edge cases; every pop must match a
/// multiset oracle of the scheduled heads in (time, id) order, with -0.0
/// and +0.0 equal.
TEST(EventQueue, HeadsOnlyApiMatchesMultisetOracleOnTies) {
  const std::array<double, 6> times = {0.0,  -0.0, -2.5, 1.0, std::nextafter(1.0, 2.0),
                                       kNeverNs};
  constexpr std::size_t kInputs = 6;
  SplitMix64 rng(0x7135);
  EventQueue q;
  // std::set orders the pair through double's <=>: -0.0 and +0.0 are
  // equivalent and the id breaks the tie, exactly the queue's contract.
  using Key = std::pair<double, std::uint32_t>;
  std::set<Key> oracle;
  std::array<std::vector<EventId>, kInputs> lists;
  const auto key_of = [&q](EventId id) { return Key{q.event(id).time, id.value()}; };
  const auto schedule_head = [&](std::size_t in) {
    if (lists[in].empty()) return;
    q.enqueue(lists[in].front());
    oracle.insert(key_of(lists[in].front()));
  };
  const auto pop_earliest = [&]() {
    const Key expected = *oracle.begin();
    const std::size_t in = q.event(EventId{expected.second}).input;
    std::vector<EventId>& list = lists[in];
    ASSERT_EQ(list.front().value(), expected.second) << "oracle head is not a list head";
    oracle.erase(oracle.begin());
    EventId got;
    if (list.size() > 1) {
      got = q.pop_replacing(list[1]);
      oracle.insert(key_of(list[1]));
    } else {
      got = q.pop();
    }
    ASSERT_EQ(got.value(), expected.second);
    EXPECT_EQ(q.state(got), EventState::kFired);
    list.erase(list.begin());
  };

  std::size_t high_water = 0;
  std::uint64_t pops = 0;
  for (int step = 0; step < 20000; ++step) {
    const double action = rng.next_double();
    const auto in = static_cast<std::size_t>(rng.next_below(kInputs));
    std::vector<EventId>& list = lists[in];
    if (action < 0.45) {
      const double t = times[rng.next_below(times.size())];
      const EventId id =
          q.create(t, TransitionId{0}, pin(0, static_cast<int>(in)),
                   static_cast<std::uint32_t>(in));
      const Key key = key_of(id);
      const auto at = std::upper_bound(list.begin(), list.end(), key,
                                       [&](const Key& k, EventId e) { return k < key_of(e); });
      if (at == list.begin() && !list.empty()) {
        q.dequeue(list.front());
        oracle.erase(key_of(list.front()));
      }
      const bool new_head = at == list.begin();
      list.insert(at, id);
      if (new_head) schedule_head(in);
    } else if (action < 0.75) {
      if (oracle.empty()) continue;
      pop_earliest();
      ++pops;
    } else if (!list.empty()) {
      const auto pick = static_cast<std::ptrdiff_t>(rng.next_below(list.size()));
      const EventId victim = list[static_cast<std::size_t>(pick)];
      if (pick == 0) oracle.erase(key_of(victim));
      q.cancel(victim);
      EXPECT_EQ(q.state(victim), EventState::kCancelled);
      list.erase(list.begin() + pick);
      if (pick == 0) schedule_head(in);
    }
    ASSERT_EQ(q.size(), oracle.size()) << "step " << step;
    high_water = std::max(high_water, oracle.size());
  }
  while (!oracle.empty()) {
    pop_earliest();
    ++pops;
  }
  EXPECT_TRUE(q.empty());
  EXPECT_GT(pops, 5000u);
  EXPECT_EQ(q.peak_size(), high_water);
  EXPECT_LE(q.peak_size(), kInputs);
}

TEST(EventQueue, EveryEventEndsFiredOrCancelled) {
  SplitMix64 rng(7);
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 500; ++i) {
    ids.push_back(q.push(rng.next_double_in(0.0, 10.0), TransitionId{0}, pin(0)));
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) q.cancel(ids[i]);
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
}

}  // namespace
}  // namespace halotis
