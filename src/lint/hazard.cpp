#include "src/lint/hazard.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>
#include <queue>
#include <utility>

#include "src/lint/lint.hpp"
#include "src/netlist/cell.hpp"

namespace halotis::lint {

namespace {

constexpr int kMaxPins = 4;  // enforced by num_inputs() for every CellKind

inline bool truth_at(std::uint16_t truth, unsigned word) {
  return ((truth >> word) & 1u) != 0;
}

/// Exhaustive origin-capability search: DFS over ordered sequences of
/// distinct pin flips from every start word, looking for >= 2 output
/// toggles.  Records the first/second toggle pins of the first witness (the
/// DFS order is fixed, so the witness is deterministic).
struct CapabilitySearch {
  std::uint16_t truth;
  int k;
  bool capable = false;
  std::uint8_t first_pin = 0;
  std::uint8_t second_pin = 0;

  void walk(unsigned word, unsigned used, int toggles, std::uint8_t first) {
    if (capable) return;
    for (int p = 0; p < k; ++p) {
      if ((used >> p) & 1u) continue;
      const unsigned next = word ^ (1u << p);
      const bool toggled = truth_at(truth, word) != truth_at(truth, next);
      int next_toggles = toggles;
      std::uint8_t next_first = first;
      if (toggled) {
        ++next_toggles;
        if (next_toggles == 1) next_first = static_cast<std::uint8_t>(p);
        if (next_toggles >= 2) {
          capable = true;
          first_pin = next_first;
          second_pin = static_cast<std::uint8_t>(p);
          return;
        }
      }
      walk(next, used | (1u << p), next_toggles, next_first);
      if (capable) return;
    }
  }

  void run() {
    for (unsigned word = 0; word < (1u << k) && !capable; ++word) {
      walk(word, 0, 0, 0);
    }
  }
};

inline int pair_index(int i, int j) { return i * kMaxPins + j; }

}  // namespace

HazardAnalysis analyze_hazards(const Netlist& netlist, const TimingGraph& timing,
                               const LintOptions& options) {
  const std::size_t num_gates = netlist.num_gates();
  const std::size_t num_signals = netlist.num_signals();
  HazardAnalysis analysis;
  analysis.gates.resize(num_gates);

  // Per-pair hazard kind (first witness, ascending start word): indexed
  // [gate][i*4+j] with i < j; kDynamic doubles as "no pair hazard" and is
  // disambiguated through pair_mask.
  std::vector<std::array<HazardKind, kMaxPins * kMaxPins>> pair_kind(num_gates);

  // ---- pass 1: local truth-table analysis (capability + pair scan) ---------
  for (std::size_t gi = 0; gi < num_gates; ++gi) {
    const GateId gate{static_cast<std::uint32_t>(gi)};
    const int k = static_cast<int>(netlist.gate(gate).inputs.size());
    GateHazard& hz = analysis.gates[gi];
    if (k < 2) continue;  // single-input gates cannot multiply transitions
    const std::uint16_t truth = truth_table(netlist.cell_of(gate).kind);

    CapabilitySearch search{truth, k};
    search.run();
    if (!search.capable) continue;
    hz.origin_capable = true;
    hz.cls = HazardClass::kMic;
    hz.kind = HazardKind::kDynamic;
    hz.pin_a = std::min(search.first_pin, search.second_pin);
    hz.pin_b = std::max(search.first_pin, search.second_pin);

    // Single-input-change pair scan: a != b != c forces c == a, so every
    // witness is a static-T[w] hazard on the pair.
    for (int i = 0; i < k; ++i) {
      for (int j = 0; j < k; ++j) {
        if (i == j) continue;
        const int lo = std::min(i, j);
        const int hi = std::max(i, j);
        if ((hz.pair_mask >> pair_index(lo, hi)) & 1u) continue;
        for (unsigned w = 0; w < (1u << k); ++w) {
          const bool a = truth_at(truth, w);
          const bool b = truth_at(truth, w ^ (1u << i));
          const bool c = truth_at(truth, w ^ (1u << i) ^ (1u << j));
          if (a != b && b != c) {
            hz.pair_mask |= static_cast<std::uint16_t>(1u << pair_index(lo, hi));
            pair_kind[gi][static_cast<std::size_t>(pair_index(lo, hi))] =
                a ? HazardKind::kStatic1 : HazardKind::kStatic0;
            break;
          }
        }
      }
    }
    if (hz.pair_mask != 0) {
      // Prefer a pair witness for the representative (reconvergence can
      // refine it); the lowest set pair keeps this deterministic.
      for (int i = 0; i < k; ++i) {
        for (int j = i + 1; j < k; ++j) {
          if ((hz.pair_mask >> pair_index(i, j)) & 1u) {
            hz.pin_a = static_cast<std::uint8_t>(i);
            hz.pin_b = static_cast<std::uint8_t>(j);
            hz.kind = pair_kind[gi][static_cast<std::size_t>(pair_index(i, j))];
            i = k;
            break;
          }
        }
      }
    }
  }

  // ---- pass 2: per-gate delay precomputation -------------------------------
  // tp at the analysis slew per (gate, pin), min/max over rise/fall arcs,
  // plus the gate's DDM boundary T0 and band edge T0 + 3*tau.
  std::vector<std::uint32_t> pin_base(num_gates, 0);
  std::size_t total_pins = 0;
  for (std::size_t gi = 0; gi < num_gates; ++gi) {
    pin_base[gi] = static_cast<std::uint32_t>(total_pins);
    total_pins += netlist.gate(GateId{static_cast<std::uint32_t>(gi)}).inputs.size();
  }
  std::vector<TimeNs> tp_min(total_pins, 0.0);
  std::vector<TimeNs> tp_max(total_pins, 0.0);
  const TimeNs slew = options.input_slew;
  for (std::size_t gi = 0; gi < num_gates; ++gi) {
    const GateId gate{static_cast<std::uint32_t>(gi)};
    const Gate& g = netlist.gate(gate);
    GateHazard& hz = analysis.gates[gi];
    for (int p = 0; p < static_cast<int>(g.inputs.size()); ++p) {
      const TimingArc& rise = timing.arc(timing.arc_id(gate, p, Edge::kRise));
      const TimingArc& fall = timing.arc(timing.arc_id(gate, p, Edge::kFall));
      const TimeNs tp_r = (rise.tp_base + rise.p_slew * slew) * rise.factor;
      const TimeNs tp_f = (fall.tp_base + fall.p_slew * slew) * fall.factor;
      const std::size_t idx = pin_base[gi] + static_cast<std::size_t>(p);
      tp_min[idx] = std::min(tp_r, tp_f);
      tp_max[idx] = std::max(tp_r, tp_f);
      for (const TimingArc* arc : {&rise, &fall}) {
        const TimeNs t0 = arc->t0_slope * slew * arc->factor;
        hz.t0 = std::max(hz.t0, t0);
        hz.band_hi = std::max(hz.band_hi, t0 + 3.0 * arc->deg_tau * arc->factor);
      }
    }
  }

  // ---- pass 3: reconvergence classification --------------------------------
  // For each branch source (fanout >= 2), walk its fanout cone in
  // topological rank order propagating earliest/latest arrivals, and test
  // every hazard pair whose pins the cone reaches on both sides.
  std::vector<std::uint32_t> rank(num_gates, 0);
  {
    const std::vector<GateId> order = netlist.topological_order();
    for (std::size_t i = 0; i < order.size(); ++i) {
      rank[order[i].value()] = static_cast<std::uint32_t>(i);
    }
  }
  std::vector<std::uint32_t> sig_epoch(num_signals, 0);
  std::vector<std::uint32_t> gate_epoch(num_gates, 0);
  std::vector<TimeNs> sig_early(num_signals, 0.0);
  std::vector<TimeNs> sig_late(num_signals, 0.0);
  std::uint32_t epoch = 0;
  using HeapEntry = std::pair<std::uint32_t, std::uint32_t>;  // (rank, gate)
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
  std::size_t total_visits = 0;
  bool budget_exhausted = false;
  std::size_t polled = 0;

  for (std::size_t si = 0; si < num_signals; ++si) {
    const SignalId source{static_cast<std::uint32_t>(si)};
    const Signal& src = netlist.signal(source);
    if (src.fanout.size() < 2) continue;
    ++analysis.branch_sources;
    if (budget_exhausted) {
      ++analysis.capped_sources;
      continue;
    }
    if (options.supervisor != nullptr && (++polled & 63u) == 0) {
      options.supervisor->check_coarse("lint.hazard");
    }
    ++epoch;
    sig_epoch[si] = epoch;
    sig_early[si] = 0.0;
    sig_late[si] = 0.0;
    for (const PinRef& pin : src.fanout) {
      heap.emplace(rank[pin.gate.value()], pin.gate.value());
    }
    std::size_t visits = 0;
    bool capped = false;
    while (!heap.empty()) {
      const auto [r, gv] = heap.top();
      heap.pop();
      (void)r;
      if (gate_epoch[gv] == epoch) continue;
      gate_epoch[gv] = epoch;
      ++visits;
      ++total_visits;
      if (visits > options.reconv_cone_limit || total_visits > options.reconv_total_limit) {
        capped = true;
        break;
      }
      const GateId gate{gv};
      const Gate& g = netlist.gate(gate);
      GateHazard& hz = analysis.gates[gv];
      const int k = static_cast<int>(g.inputs.size());
      std::array<bool, kMaxPins> in_cone{};
      std::array<TimeNs, kMaxPins> pin_early{};
      std::array<TimeNs, kMaxPins> pin_late{};
      TimeNs out_early = 0.0;
      TimeNs out_late = 0.0;
      bool any = false;
      for (int p = 0; p < k; ++p) {
        const SignalId in = g.inputs[static_cast<std::size_t>(p)];
        if (sig_epoch[in.value()] != epoch) continue;
        const std::size_t idx = pin_base[gv] + static_cast<std::size_t>(p);
        const std::size_t sp = static_cast<std::size_t>(p);
        in_cone[sp] = true;
        pin_early[sp] = sig_early[in.value()] + tp_min[idx];
        pin_late[sp] = sig_late[in.value()] + tp_max[idx];
        out_early = any ? std::min(out_early, pin_early[sp]) : pin_early[sp];
        out_late = any ? std::max(out_late, pin_late[sp]) : pin_late[sp];
        any = true;
      }
      if (hz.pair_mask != 0) {
        for (int i = 0; i < k; ++i) {
          for (int j = i + 1; j < k; ++j) {
            const std::size_t si_ = static_cast<std::size_t>(i);
            const std::size_t sj = static_cast<std::size_t>(j);
            if (!in_cone[si_] || !in_cone[sj]) continue;
            if (((hz.pair_mask >> pair_index(i, j)) & 1u) == 0) continue;
            TimeNs skew_min = 0.0;
            if (pin_late[si_] < pin_early[sj]) skew_min = pin_early[sj] - pin_late[si_];
            else if (pin_late[sj] < pin_early[si_]) skew_min = pin_early[si_] - pin_late[sj];
            const TimeNs skew_max = std::max(pin_late[si_], pin_late[sj]) -
                                    std::min(pin_early[si_], pin_early[sj]);
            HazardClass cls = HazardClass::kMarginal;
            if (skew_max <= hz.t0) cls = HazardClass::kFiltered;
            else if (skew_min > hz.band_hi) cls = HazardClass::kGlitch;
            if (cls > hz.cls) {
              hz.cls = cls;
              hz.kind = pair_kind[gv][static_cast<std::size_t>(pair_index(i, j))];
              hz.pin_a = static_cast<std::uint8_t>(i);
              hz.pin_b = static_cast<std::uint8_t>(j);
              hz.source = source;
              hz.skew_min = skew_min;
              hz.skew_max = skew_max;
            }
          }
        }
      }
      if (!any) continue;  // only reachable through a combinational cycle
      const SignalId out = g.output;
      if (sig_epoch[out.value()] == epoch) continue;  // cycle back-edge
      sig_epoch[out.value()] = epoch;
      sig_early[out.value()] = out_early;
      sig_late[out.value()] = out_late;
      for (const PinRef& pin : netlist.signal(out).fanout) {
        if (gate_epoch[pin.gate.value()] != epoch) {
          heap.emplace(rank[pin.gate.value()], pin.gate.value());
        }
      }
    }
    if (capped) {
      ++analysis.capped_sources;
      if (total_visits > options.reconv_total_limit) budget_exhausted = true;
      // Drain leftovers so the next source starts from an empty heap.
    }
    while (!heap.empty()) heap.pop();
  }
  return analysis;
}

}  // namespace halotis::lint
