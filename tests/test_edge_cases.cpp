// Edge cases and boundary behaviour of the engine and netlist layers.
#include <gtest/gtest.h>

#include <array>
#include <set>
#include <span>
#include <vector>

#include "src/circuits/generators.hpp"
#include "src/core/simulator.hpp"
#include "src/replay/trace.hpp"

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
  // AND2(a, a) == BUF(a): both pins receive events from the same line, so
  // `a`'s two fanout slots are g's two pending lists, side by side.
  Netlist nl(lib_);
  const SignalId x = nl.add_primary_input("x");
  const SignalId a = nl.add_signal("a");
  const SignalId y = nl.add_signal("y");
  nl.mark_primary_output(y);
  (void)nl.add_gate("d", CellKind::kBuf, std::array<SignalId, 1>{x}, a);
  const std::array<SignalId, 2> ins{a, a};
  (void)nl.add_gate("g", CellKind::kAnd2, ins, y);

  Stimulus stim(0.4);
  stim.add_edge(x, 2.0, true);
  stim.add_edge(x, 8.0, false);
  // A 50 ps pulse: the buffer d collapses it after `a`'s rise has
  // scheduled both of g's inputs, so the annihilation cancels an event on
  // each of g's lists.
  stim.add_edge(x, 14.0, true);
  stim.add_edge(x, 14.05, false);
  // A 177 ps low pulse: it crosses the buffer d, but on `a` it is too
  // narrow to cross g's input threshold, so the pair rule cancels it on
  // each of g's lists.
  stim.add_edge(x, 17.0, true);
  stim.add_edge(x, 20.0, false);
  stim.add_edge(x, 20.177, true);
  stim.add_edge(x, 26.0, false);
  Simulator sim(nl, ddm_);
  replay::TraceRecorder recorder;
  sim.record_into(&recorder);
  sim.apply_stimulus(stim);
  sim.finish_recording(sim.run());

  // g's lists are the slots of `a`'s fanout entries, after x's one entry.
  const std::set<std::uint32_t> g_lists{1, 2};
  std::set<std::uint32_t> cancelled_on, pair_cancelled_on;
  for (const replay::TraceOp& op : recorder.trace().ops) {
    if (op.kind == replay::OpKind::kCancel) cancelled_on.insert(op.b);
    if (op.kind == replay::OpKind::kPairCancel) pair_cancelled_on.insert(op.c);
  }
  EXPECT_EQ(cancelled_on, g_lists);
  EXPECT_EQ(pair_cancelled_on, g_lists);

  // Values taken from the kernel that numbered pending lists by flat gate
  // input: numbering them by fanout slot must not move any of them.
  const SimStats& st = sim.stats();
  EXPECT_EQ(st.events_created, 20u);
  EXPECT_EQ(st.events_processed, 16u);
  EXPECT_EQ(st.events_cancelled, 4u);
  EXPECT_EQ(st.events_suppressed, 2u);
  EXPECT_EQ(st.events_resurrected, 0u);
  EXPECT_EQ(st.pair_cancellations, 2u);
  EXPECT_EQ(st.annihilations, 1u);
  EXPECT_EQ(st.ddm_collapses, 1u);
  EXPECT_EQ(st.cdm_inertial_filtered, 0u);
  EXPECT_EQ(st.clamped_pulses, 0u);
  EXPECT_EQ(st.transitions_created, 19u);
  EXPECT_EQ(st.transitions_annihilated, 1u);
  EXPECT_EQ(st.gate_evaluations, 16u);

  struct Ramp {
    Edge edge;
    TimeNs t_start;
    TimeNs tau;
  };
  const auto expect_history = [&](SignalId sig, std::span<const Ramp> want) {
    const std::vector<Transition> got = sim.history(sig);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(got[k].edge, want[k].edge) << k;
      EXPECT_EQ(got[k].t_start, want[k].t_start) << k;
      EXPECT_EQ(got[k].tau, want[k].tau) << k;
    }
  };
  const std::array<Ramp, 6> a_history{{{Edge::kRise, 2.1068349999999998, 0.31864000000000003},
                                       {Edge::kFall, 8.1279649999999997, 0.27292000000000005},
                                       {Edge::kRise, 17.106835, 0.31864000000000003},
                                       {Edge::kFall, 20.127965, 0.27292000000000005},
                                       {Edge::kRise, 20.120928836885742, 0.31864000000000003},
                                       {Edge::kFall, 26.127965, 0.27292000000000005}}};
  const std::array<Ramp, 4> y_history{{{Edge::kRise, 2.3413195999999998, 0.16311999999999999},
                                       {Edge::kFall, 8.386353999999999, 0.13036},
                                       {Edge::kRise, 17.341319600000002, 0.16311999999999999},
                                       {Edge::kFall, 26.386353999999997, 0.13036}}};
  expect_history(a, a_history);
  expect_history(y, y_history);
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
