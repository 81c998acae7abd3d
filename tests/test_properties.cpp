// Engine-wide property tests: invariances that must hold for any circuit
// and stimulus, checked over randomized instances.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/base/rng.hpp"
#include "src/circuits/generators.hpp"
#include "src/core/simulator.hpp"

namespace halotis {
namespace {

Stimulus random_stimulus(const RandomCircuit& circuit, std::uint64_t seed, TimeNs shift) {
  SplitMix64 rng(seed);
  Stimulus stim(0.4);
  std::vector<bool> value(circuit.inputs.size(), false);
  TimeNs t = 2.0;
  for (int e = 0; e < 50; ++e) {
    const std::size_t pick = rng.next_below(circuit.inputs.size());
    value[pick] = !value[pick];
    stim.add_edge(circuit.inputs[pick], t + shift, value[pick]);
    t += rng.next_double_in(0.1, 1.8);
  }
  return stim;
}

class EngineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineProperty, TimeShiftInvariance) {
  // Shifting the whole stimulus by dt shifts every transition by exactly
  // dt: the engine has no absolute-time dependence.
  const Library lib = Library::default_u6();
  const DdmDelayModel ddm;
  RandomCircuit circuit = make_random_circuit(lib, 5, 35, GetParam());
  const TimeNs dt = 13.25;

  Simulator base(circuit.netlist, ddm);
  base.apply_stimulus(random_stimulus(circuit, GetParam() * 3 + 1, 0.0));
  (void)base.run();
  Simulator shifted(circuit.netlist, ddm);
  shifted.apply_stimulus(random_stimulus(circuit, GetParam() * 3 + 1, dt));
  (void)shifted.run();

  EXPECT_EQ(base.stats().events_processed, shifted.stats().events_processed);
  EXPECT_EQ(base.stats().filtered_events(), shifted.stats().filtered_events());
  for (std::size_t s = 0; s < circuit.netlist.num_signals(); ++s) {
    const SignalId sid{static_cast<SignalId::underlying_type>(s)};
    const auto a = base.history(sid);
    const auto b = shifted.history(sid);
    ASSERT_EQ(a.size(), b.size()) << circuit.netlist.signal(sid).name;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(a[i].t50() + dt, b[i].t50(), 1e-9);
      EXPECT_EQ(a[i].edge, b[i].edge);
      EXPECT_DOUBLE_EQ(a[i].tau, b[i].tau);
    }
  }
}

TEST_P(EngineProperty, RunsAreDeterministic) {
  const Library lib = Library::default_u6();
  const DdmDelayModel ddm;
  RandomCircuit circuit = make_random_circuit(lib, 5, 35, GetParam());

  SimStats stats[2];
  for (int r = 0; r < 2; ++r) {
    Simulator sim(circuit.netlist, ddm);
    sim.apply_stimulus(random_stimulus(circuit, GetParam() + 99, 0.0));
    (void)sim.run();
    stats[r] = sim.stats();
  }
  EXPECT_EQ(stats[0].events_processed, stats[1].events_processed);
  EXPECT_EQ(stats[0].events_created, stats[1].events_created);
  EXPECT_EQ(stats[0].filtered_events(), stats[1].filtered_events());
  EXPECT_EQ(stats[0].surviving_transitions(), stats[1].surviving_transitions());
}

TEST_P(EngineProperty, StatsLedgerBalances) {
  const Library lib = Library::default_u6();
  const CdmDelayModel cdm;
  RandomCircuit circuit = make_random_circuit(lib, 5, 35, GetParam());
  Simulator sim(circuit.netlist, cdm);
  sim.apply_stimulus(random_stimulus(circuit, GetParam() + 7, 0.0));
  const RunResult result = sim.run();
  ASSERT_EQ(result.reason, StopReason::kQueueExhausted);
  const SimStats& s = sim.stats();
  EXPECT_EQ(s.events_created, s.events_processed + s.events_cancelled);
  std::uint64_t toggles = 0;
  for (std::uint32_t sig = 0; sig < circuit.netlist.num_signals(); ++sig) {
    toggles += sim.toggle_count(SignalId{sig});
  }
  EXPECT_EQ(s.surviving_transitions(), toggles);
  EXPECT_LE(s.transitions_annihilated, s.transitions_created);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineProperty, ::testing::Values(3, 17, 71, 207, 555));

class ResurrectionSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ResurrectionSeed, RepairPathIsExercisedAndConsistent) {
  // These seeds provably drive the engine through the rarest code path:
  // an output-pulse annihilation that must *resurrect* an event its leading
  // edge had pair-cancelled earlier (see DESIGN.md / EXPERIMENTS.md model
  // notes).  The quiescent state must still match the combinational steady
  // state -- i.e. the repair really repairs.
  const Library lib = Library::default_u6();
  const DdmDelayModel ddm;
  RandomCircuit circuit = make_random_circuit(lib, 6, 50, GetParam());
  SplitMix64 rng(GetParam() ^ 0xABCDEF);
  Stimulus stim(0.4);
  std::vector<bool> value(circuit.inputs.size());
  for (std::size_t i = 0; i < circuit.inputs.size(); ++i) {
    value[i] = rng.next_bool();
    stim.set_initial(circuit.inputs[i], value[i]);
  }
  TimeNs t = 2.0;
  for (int e = 0; e < 60; ++e) {
    const std::size_t pick = rng.next_below(circuit.inputs.size());
    value[pick] = !value[pick];
    stim.add_edge(circuit.inputs[pick], t, value[pick]);
    t += rng.next_double_in(0.05, 2.0);
  }

  Simulator sim(circuit.netlist, ddm);
  sim.apply_stimulus(stim);
  const RunResult result = sim.run();
  ASSERT_EQ(result.reason, StopReason::kQueueExhausted);
  EXPECT_GT(sim.stats().events_resurrected, 0u)
      << "seed no longer exercises the resurrection path";

  std::unique_ptr<bool[]> pi_values(new bool[circuit.inputs.size()]);
  for (std::size_t i = 0; i < circuit.inputs.size(); ++i) pi_values[i] = value[i];
  const std::vector<bool> expected = circuit.netlist.steady_state(
      std::span<const bool>(pi_values.get(), circuit.inputs.size()));
  for (std::size_t s = 0; s < circuit.netlist.num_signals(); ++s) {
    const SignalId sid{static_cast<SignalId::underlying_type>(s)};
    ASSERT_EQ(sim.final_value(sid), expected[s]) << circuit.netlist.signal(sid).name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResurrectionSeed, ::testing::Values(7, 35, 73, 216));

TEST(EnginePropertySingle, SlowerInputSlewNeverSpeedsUpPropagation) {
  // For a single isolated transition through a chain, increasing the input
  // slew can only delay (or keep) the output midswing arrival: the
  // macro-model's slew coefficients are non-negative.
  const Library lib = Library::default_u6();
  const DdmDelayModel ddm;
  TimeNs previous = -1.0;
  for (const double slew : {0.2, 0.4, 0.8, 1.6}) {
    ChainCircuit chain = make_chain(lib, 4);
    Stimulus stim(slew);
    stim.add_edge(chain.nodes[0], 5.0, true);
    Simulator sim(chain.netlist, ddm);
    sim.apply_stimulus(stim);
    (void)sim.run();
    const auto history = sim.history(chain.nodes.back());
    ASSERT_EQ(history.size(), 1u);
    EXPECT_GE(history[0].t50(), previous) << "slew " << slew;
    previous = history[0].t50();
  }
}

TEST(EnginePropertySingle, WireCapMonotonicallySlowsArrival) {
  const Library lib = Library::default_u6();
  const DdmDelayModel ddm;
  TimeNs previous = -1.0;
  for (const double cap : {0.0, 0.03, 0.08, 0.2}) {
    ChainCircuit chain = make_chain(lib, 2);
    chain.netlist.set_wire_cap(chain.nodes[1], cap);
    Stimulus stim(0.4);
    stim.add_edge(chain.nodes[0], 5.0, true);
    Simulator sim(chain.netlist, ddm);
    sim.apply_stimulus(stim);
    (void)sim.run();
    const auto history = sim.history(chain.nodes.back());
    ASSERT_EQ(history.size(), 1u);
    EXPECT_GT(history[0].t50(), previous) << "cap " << cap;
    previous = history[0].t50();
  }
}

TEST(EnginePropertySingle, IdenticalStimulusOnIsomorphicCircuits) {
  // Building the same chain twice (different name spellings) must produce
  // identical timing: names must not affect simulation.
  const Library lib = Library::default_u6();
  const DdmDelayModel ddm;
  ChainCircuit a = make_chain(lib, 5);

  Netlist b(lib);
  const SignalId in = b.add_primary_input("completely_different_name");
  std::vector<SignalId> nodes{in};
  for (int i = 0; i < 5; ++i) {
    const SignalId next = b.add_signal("zz" + std::to_string(i));
    const std::array<SignalId, 1> ins{nodes.back()};
    (void)b.add_gate("gate_" + std::to_string(i * 7), CellKind::kInv, ins, next);
    nodes.push_back(next);
  }
  b.mark_primary_output(nodes.back());

  Stimulus stim_a(0.4);
  stim_a.add_edge(a.nodes[0], 3.0, true);
  Simulator sim_a(a.netlist, ddm);
  sim_a.apply_stimulus(stim_a);
  (void)sim_a.run();

  Stimulus stim_b(0.4);
  stim_b.add_edge(in, 3.0, true);
  Simulator sim_b(b, ddm);
  sim_b.apply_stimulus(stim_b);
  (void)sim_b.run();

  const auto ha = sim_a.history(a.nodes.back());
  const auto hb = sim_b.history(nodes.back());
  ASSERT_EQ(ha.size(), hb.size());
  for (std::size_t i = 0; i < ha.size(); ++i) {
    EXPECT_DOUBLE_EQ(ha[i].t50(), hb[i].t50());
  }
}

}  // namespace
}  // namespace halotis
