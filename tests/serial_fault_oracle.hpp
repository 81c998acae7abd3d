// The serial stuck-at fault simulator: the fault campaign's reference.
//
// Each fault gets a rewired copy of the netlist (every receiver of the
// faulted line reads a constant net) and a fresh Simulator that replays the
// whole stimulus: no simulator reuse, no early exit, no threads.  The
// library's CampaignEngine (src/fault/campaign.hpp) injects the same fault
// into one recycled Simulator instead and must reproduce these verdicts
// fault for fault (test_fault, test_campaign, test_cross_path).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/base/check.hpp"
#include "src/core/delay_model.hpp"
#include "src/core/simulator.hpp"
#include "src/core/stimulus.hpp"
#include "src/fault/fault.hpp"
#include "src/netlist/netlist.hpp"
#include "src/timing/timing_graph.hpp"

namespace halotis {

/// Builds the faulty machine: a copy of `netlist` where every receiver of
/// the faulted line is rewired to a constant net, and the faulted line
/// itself (if a primary output) is replaced by the constant.  The returned
/// netlist has one extra primary input named "__fault" that the fault
/// simulator ties to the stuck value.
struct FaultyMachine {
  Netlist netlist;
  SignalId fault_net;

  explicit FaultyMachine(const Library& lib) : netlist(lib) {}
};

[[nodiscard]] inline FaultyMachine apply_fault(const Netlist& netlist, const Fault& fault) {
  require(fault.signal.valid() && fault.signal.value() < netlist.num_signals(),
          "apply_fault(): invalid fault site");
  FaultyMachine machine(netlist.library());
  Netlist& out = machine.netlist;

  // Recreate signals in id order so SignalIds line up 1:1 with the good
  // machine; append the constant fault net last.
  for (std::size_t s = 0; s < netlist.num_signals(); ++s) {
    const SignalId sid{static_cast<SignalId::underlying_type>(s)};
    const Signal& sig = netlist.signal(sid);
    const SignalId copy =
        sig.is_primary_input ? out.add_primary_input(sig.name) : out.add_signal(sig.name);
    ensure(copy.value() == sid.value(), "apply_fault(): signal id mismatch");
    if (sig.wire_cap > 0.0) out.set_wire_cap(copy, sig.wire_cap);
  }
  machine.fault_net = out.add_primary_input("__fault");

  const auto redirect = [&](SignalId in) {
    return in == fault.signal ? machine.fault_net : in;
  };
  for (std::size_t g = 0; g < netlist.num_gates(); ++g) {
    const GateId gid{static_cast<GateId::underlying_type>(g)};
    const Gate& gate = netlist.gate(gid);
    std::vector<SignalId> ins;
    ins.reserve(gate.inputs.size());
    for (const SignalId in : gate.inputs) ins.push_back(redirect(in));
    (void)out.add_gate(gate.name, gate.cell, ins, gate.output);
  }
  for (const SignalId po : netlist.primary_outputs()) {
    // A faulted PO is observed as the constant itself.
    out.mark_primary_output(po == fault.signal ? machine.fault_net : po);
  }
  return machine;
}

struct FaultSimResult {
  std::size_t total = 0;
  std::size_t detected = 0;
  std::vector<Fault> undetected;

  [[nodiscard]] double coverage() const {
    return total > 0 ? static_cast<double>(detected) / static_cast<double>(total) : 0.0;
  }
};

/// Serial fault simulation of every fault in `faults` (or all, if empty)
/// under `model`.  The same `stimulus` drives good and faulty machines;
/// detection compares primary-output values at fault_sample_times().  A
/// non-zero `sigma` derates every machine's elaboration with
/// TimingGraph::vary(sigma, seed); the faulty machine keeps the good one's
/// gate ids, so each gate draws the same factor in both.
[[nodiscard]] inline FaultSimResult run_fault_simulation(const Netlist& netlist,
                                                         const Stimulus& stimulus,
                                                         const DelayModel& model,
                                                         std::vector<Fault> faults = {},
                                                         FaultSimOptions options = {},
                                                         double sigma = 0.0,
                                                         std::uint64_t seed = 0) {
  require(options.sample_period > 0.0, "run_fault_simulation(): period must be positive");
  if (faults.empty()) faults = enumerate_faults(netlist);
  const std::vector<TimeNs> times = fault_sample_times(stimulus, options);
  const auto elaborate = [&](const Netlist& machine) {
    TimingGraph graph = TimingGraph::build(machine, model.timing_policy());
    if (sigma != 0.0) graph = graph.vary(sigma, seed);
    return graph;
  };

  // Good machine reference samples.
  const TimingGraph good_graph = elaborate(netlist);
  Simulator good(netlist, model, good_graph);
  good.apply_stimulus(stimulus);
  (void)good.run();
  std::vector<std::vector<bool>> good_samples;
  for (const SignalId po : netlist.primary_outputs()) {
    std::vector<bool> row;
    for (const TimeNs t : times) row.push_back(good.value_at(po, t));
    good_samples.push_back(std::move(row));
  }

  FaultSimResult result;
  result.total = faults.size();
  for (const Fault& fault : faults) {
    const FaultyMachine machine = apply_fault(netlist, fault);

    // Same stimulus, plus the fault constant.
    Stimulus faulty_stim = stimulus;
    faulty_stim.set_initial(machine.fault_net, fault.stuck_value);

    const TimingGraph graph = elaborate(machine.netlist);
    Simulator sim(machine.netlist, model, graph);
    sim.apply_stimulus(faulty_stim);
    (void)sim.run();

    bool detected = false;
    const auto pos = machine.netlist.primary_outputs();
    for (std::size_t o = 0; o < pos.size() && !detected; ++o) {
      for (std::size_t k = 0; k < times.size(); ++k) {
        if (sim.value_at(pos[o], times[k]) != good_samples[o][k]) {
          detected = true;
          break;
        }
      }
    }
    if (detected) {
      ++result.detected;
    } else {
      result.undetected.push_back(fault);
    }
  }
  return result;
}

}  // namespace halotis
