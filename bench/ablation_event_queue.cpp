// Ablation (google-benchmark): the simulator's event queue -- per-input
// pending lists under a heads-only 4-ary heap -- against a
// std::multiset-based alternative, under the append / pop / cancel mix the
// simulator actually generates.  Cancellable queues are a hard requirement
// of the paper's algorithm (Fig. 4 deletes pending events); this measures
// what the lists and the position-tracked heap buy over the multiset.  Both
// pop the identical sequence; only constants differ.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "src/base/rng.hpp"
#include "src/core/event_queue.hpp"

namespace halotis {
namespace {

PinRef pin(unsigned gate) { return PinRef{GateId{gate}, 0}; }

/// Gate inputs the workload spreads its events over.
constexpr std::uint32_t kInputs = 64;

/// Reference implementation: ordered multiset + id map.
class MultisetQueue {
 public:
  using Key = std::tuple<TimeNs, std::uint64_t>;

  std::uint64_t push(TimeNs time) {
    const std::uint64_t id = next_++;
    handles_.emplace(id, entries_.emplace(time, id));
    return id;
  }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  std::uint64_t pop() {
    if (entries_.empty()) return 0;
    const auto it = entries_.begin();
    const std::uint64_t id = std::get<1>(*it);
    handles_.erase(id);
    entries_.erase(it);
    return id;
  }
  void cancel(std::uint64_t id) {
    const auto it = handles_.find(id);
    if (it == handles_.end()) return;
    entries_.erase(it->second);
    handles_.erase(it);
  }

 private:
  std::multiset<Key> entries_;
  std::map<std::uint64_t, std::multiset<Key>::iterator> handles_;
  std::uint64_t next_ = 0;
};

// Workload in both benchmarks: bursts of events (each input's crossings
// arrive in time order, like a line's transitions), ~20 % cancellations of
// the youngest pending event, pops otherwise -- the mix the simulator
// generates.

void BM_IndexedHeapQueue(benchmark::State& state) {
  for (auto _ : state) {
    EventQueue q(kInputs);
    std::vector<TimeNs> last(kInputs, 0.0);
    std::vector<EventId> live;
    SplitMix64 rng(42);
    const int ops = static_cast<int>(state.range(0));
    double t = 0.0;
    for (int i = 0; i < ops; ++i) {
      const double action = rng.next_double();
      const auto in = static_cast<std::uint32_t>(rng.next_below(kInputs));
      if (action < 0.45 || q.empty()) {
        last[in] = std::max(last[in], t + rng.next_double_in(0.0, 3.0));
        live.push_back(q.append(in, last[in], TransitionId{0}, pin(in)));
      } else if (action < 0.65 && !live.empty() && q.pending(live.back())) {
        // Slots are recycled, but a reuse is pushed after the handle it
        // reuses: a pending back() still names the youngest event.
        (void)q.cancel(live.back());
        live.pop_back();
      } else {
        const EventId id = q.peek();
        benchmark::DoNotOptimize(q.pop());
        if (!live.empty() && live.front() == id) live.erase(live.begin());
      }
      t += 0.001;
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IndexedHeapQueue)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_MultisetQueue(benchmark::State& state) {
  for (auto _ : state) {
    MultisetQueue q;
    std::vector<TimeNs> last(kInputs, 0.0);
    std::vector<std::uint64_t> live;
    SplitMix64 rng(42);
    const int ops = static_cast<int>(state.range(0));
    double t = 0.0;
    for (int i = 0; i < ops; ++i) {
      const double action = rng.next_double();
      const auto in = static_cast<std::uint32_t>(rng.next_below(kInputs));
      if (action < 0.45 || q.empty()) {
        last[in] = std::max(last[in], t + rng.next_double_in(0.0, 3.0));
        live.push_back(q.push(last[in]));
      } else if (action < 0.65 && !live.empty()) {
        q.cancel(live.back());
        live.pop_back();
      } else {
        benchmark::DoNotOptimize(q.pop());
        if (!live.empty()) live.erase(live.begin());
      }
      t += 0.001;
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MultisetQueue)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

}  // namespace
}  // namespace halotis

BENCHMARK_MAIN();
