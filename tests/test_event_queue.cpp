// Tests for the cancellable indexed event queue, including a randomized
// differential test against a multiset oracle.
#include <gtest/gtest.h>

#include <set>
#include <tuple>
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
  EXPECT_EQ(q.cancelled_count(), 1u);
  EXPECT_EQ(q.fired_count(), 2u);
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

TEST(EventQueue, CountersConsistent) {
  SplitMix64 rng(7);
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 500; ++i) {
    ids.push_back(q.push(rng.next_double_in(0.0, 10.0), TransitionId{0}, pin(0)));
  }
  std::uint64_t cancels = 0;
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    q.cancel(ids[i]);
    ++cancels;
  }
  std::uint64_t pops = 0;
  while (!q.empty()) {
    (void)q.pop();
    ++pops;
  }
  EXPECT_EQ(q.created_count(), 500u);
  EXPECT_EQ(q.cancelled_count(), cancels);
  EXPECT_EQ(q.fired_count(), pops);
  EXPECT_EQ(pops + cancels, 500u);
}

}  // namespace
}  // namespace halotis
