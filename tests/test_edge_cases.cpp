// Edge cases and boundary behaviour of the engine and netlist layers.
#include <gtest/gtest.h>

#include <array>

#include "src/circuits/generators.hpp"
#include "src/core/simulator.hpp"

namespace halotis {
namespace {

class EdgeCases : public ::testing::Test {
 protected:
  Library lib_ = Library::default_u6();
  DdmDelayModel ddm_;
};

TEST_F(EdgeCases, GatelessNetlistSimulates) {
  Netlist nl(lib_);
  const SignalId a = nl.add_primary_input("a");
  nl.mark_primary_output(a);
  Stimulus stim(0.4);
  stim.add_edge(a, 3.0, true);
  Simulator sim(nl, ddm_);
  sim.apply_stimulus(stim);
  const RunResult result = sim.run();
  EXPECT_EQ(result.reason, StopReason::kQueueExhausted);
  EXPECT_TRUE(sim.final_value(a));
  EXPECT_EQ(sim.toggle_count(a), 1u);
  EXPECT_EQ(sim.stats().events_processed, 0u);  // no receivers, no events
}

TEST_F(EdgeCases, SameSignalOnTwoPinsOfOneGate) {
  // AND2(a, a) == BUF(a): both pins receive events from the same line.
  Netlist nl(lib_);
  const SignalId a = nl.add_primary_input("a");
  const SignalId y = nl.add_signal("y");
  nl.mark_primary_output(y);
  const std::array<SignalId, 2> ins{a, a};
  (void)nl.add_gate("g", CellKind::kAnd2, ins, y);

  Stimulus stim(0.4);
  stim.add_edge(a, 2.0, true);
  stim.add_edge(a, 8.0, false);
  Simulator sim(nl, ddm_);
  sim.apply_stimulus(stim);
  (void)sim.run();
  EXPECT_EQ(sim.history(y).size(), 2u);
  EXPECT_FALSE(sim.final_value(y));
}

TEST_F(EdgeCases, ZeroTimeEdgeIsLegal) {
  ChainCircuit chain = make_chain(lib_, 1);
  Stimulus stim(0.4);
  stim.add_edge(chain.nodes[0], 0.0, true);
  Simulator sim(chain.netlist, ddm_);
  sim.apply_stimulus(stim);
  (void)sim.run();
  EXPECT_EQ(sim.history(chain.nodes[1]).size(), 1u);
}

TEST_F(EdgeCases, CoincidentOppositeStimulusEdges) {
  // A degenerate zero-width testbench pulse: the receiving input's pair
  // rule must swallow it without corrupting state.
  ChainCircuit chain = make_chain(lib_, 2);
  Stimulus stim(0.4);
  stim.add_edge(chain.nodes[0], 5.0, true);
  stim.add_edge(chain.nodes[0], 5.0, false);
  Simulator sim(chain.netlist, ddm_);
  sim.apply_stimulus(stim);
  const RunResult result = sim.run();
  EXPECT_EQ(result.reason, StopReason::kQueueExhausted);
  EXPECT_TRUE(sim.history(chain.nodes[2]).empty());
  EXPECT_FALSE(sim.final_value(chain.nodes[2]) !=
               sim.initial_value(chain.nodes[2]));
  // The zero-width pulse dies either at the first input (pair rule) or at
  // the first gate's output (annihilation); both count as filtering.
  EXPECT_GE(sim.stats().filtered_events(), 1u);
}

TEST_F(EdgeCases, HorizonExactlyAtEventTime) {
  // t_end equal to the (only) event's time: the event still fires (the
  // horizon excludes strictly-later events).
  ChainCircuit chain = make_chain(lib_, 1);
  Stimulus stim(0.4);
  stim.add_edge(chain.nodes[0], 5.0, true);
  SimConfig config;
  config.t_end = 5.0;  // input crossing at exactly 5.0 (VT approx midswing)
  Simulator sim(chain.netlist, ddm_, config);
  sim.apply_stimulus(stim);
  const RunResult result = sim.run();
  // Either the event fired at exactly 5.0 (threshold 2.45 -> 4.996) or was
  // past the horizon; both outcomes must be internally consistent.
  if (result.reason == StopReason::kQueueExhausted) {
    EXPECT_EQ(sim.history(chain.nodes[1]).size(), 1u);
  } else {
    EXPECT_TRUE(sim.history(chain.nodes[1]).empty());
  }
}

TEST_F(EdgeCases, HugeFanoutNode) {
  // One driver into 64 receivers: per-event fanout loops and the load model
  // must stay consistent.
  Netlist nl(lib_);
  const SignalId a = nl.add_primary_input("a");
  const SignalId mid = nl.add_signal("mid");
  const std::array<SignalId, 1> ins{a};
  (void)nl.add_gate("drv", lib_.find("INV_X4"), ins, mid);
  std::vector<SignalId> outs;
  for (int i = 0; i < 64; ++i) {
    const SignalId y = nl.add_signal("y" + std::to_string(i));
    const std::array<SignalId, 1> mins{mid};
    (void)nl.add_gate("g" + std::to_string(i), CellKind::kInv, mins, y);
    outs.push_back(y);
    nl.mark_primary_output(y);
  }

  Stimulus stim(0.4);
  stim.add_edge(a, 2.0, true);
  Simulator sim(nl, ddm_);
  sim.apply_stimulus(stim);
  (void)sim.run();
  for (const SignalId y : outs) {
    ASSERT_EQ(sim.history(y).size(), 1u);
    EXPECT_TRUE(sim.final_value(y));  // two inversions
  }
  // 64 receivers -> heavy load -> slow ramp, but all 64 events fire.
  EXPECT_EQ(sim.stats().events_processed, 1u + 64u);
}

TEST_F(EdgeCases, SignalNamesWithSlashes) {
  // Hierarchical names must survive every API path.
  Netlist nl(lib_);
  const SignalId a = nl.add_primary_input("top/u0/a");
  const SignalId y = nl.add_signal("top/u0/y");
  nl.mark_primary_output(y);
  const std::array<SignalId, 1> ins{a};
  (void)nl.add_gate("top/u0/g", CellKind::kInv, ins, y);
  EXPECT_TRUE(nl.find_signal("top/u0/y").has_value());
  Stimulus stim(0.4);
  stim.add_edge(a, 1.0, true);
  Simulator sim(nl, ddm_);
  sim.apply_stimulus(stim);
  (void)sim.run();
  EXPECT_FALSE(sim.final_value(y));
}

TEST_F(EdgeCases, BackToBackVectorsFasterThanSettling) {
  // Vector period shorter than the circuit depth: vectors overlap in
  // flight.  The engine must stay consistent (ledger, final steady state).
  MultiplierCircuit mult = make_multiplier(lib_, 3);
  Stimulus stim(0.3);
  std::vector<SignalId> inputs;
  for (SignalId s : mult.a) inputs.push_back(s);
  for (SignalId s : mult.b) inputs.push_back(s);
  const std::vector<std::uint64_t> words{0x00, 0x3F, 0x2A, 0x15, 0x3F, 0x00, 0x3F};
  stim.apply_sequence(inputs, words, 0.8, 0.8);  // far below settling time
  stim.set_initial(mult.tie0, false);

  Simulator sim(mult.netlist, ddm_);
  sim.apply_stimulus(stim);
  const RunResult result = sim.run();
  ASSERT_EQ(result.reason, StopReason::kQueueExhausted);
  const SimStats& s = sim.stats();
  EXPECT_EQ(s.events_created, s.events_processed + s.events_cancelled);
  // Final word 0x3F = 7 x 7 = 49.
  unsigned product = 0;
  for (int k = 0; k < 6; ++k) {
    if (sim.final_value(mult.s[static_cast<std::size_t>(k)])) product |= 1u << k;
  }
  EXPECT_EQ(product, 49u);
}

}  // namespace
}  // namespace halotis
