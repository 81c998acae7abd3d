// Engine semantics tests: propagation, degradation, annihilation, the
// per-input threshold pair rule (the paper's new inertial treatment),
// CDM classical filtering, stop conditions and global consistency.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "src/circuits/generators.hpp"
#include "src/circuits/stimuli.hpp"
#include "src/core/simulator.hpp"
#include "src/replay/history_hash.hpp"
#include "src/replay/trace.hpp"
#include "src/timing/timing_graph.hpp"

namespace halotis {
namespace {

class SimulatorTest : public ::testing::Test {
 protected:
  Library lib_ = Library::default_u6();
  DdmDelayModel ddm_;
  CdmDelayModel cdm_;
};

/// in -> INV -> out, output marked primary.  `load` emulates realistic
/// fanout wiring (an unloaded calibrated inverter switches in ~60 ps,
/// putting its degradation window below the test's pulse widths).
struct InvFixture {
  explicit InvFixture(const Library& lib, Farad load = 0.1) : nl(lib) {
    in = nl.add_primary_input("in");
    out = nl.add_signal("out");
    nl.mark_primary_output(out);
    nl.set_wire_cap(out, load);
    const std::array<SignalId, 1> ins{in};
    (void)nl.add_gate("g", CellKind::kInv, ins, out);
  }
  Netlist nl;
  SignalId in, out;
};

TEST_F(SimulatorTest, InverterPropagatesSingleEdge) {
  InvFixture fx(lib_);
  Stimulus stim(0.4);
  stim.add_edge(fx.in, 5.0, true);

  Simulator sim(fx.nl, ddm_);
  sim.apply_stimulus(stim);
  const RunResult result = sim.run();
  EXPECT_EQ(result.reason, StopReason::kQueueExhausted);

  EXPECT_FALSE(sim.initial_value(fx.in));
  EXPECT_TRUE(sim.initial_value(fx.out));  // INV(0) = 1
  EXPECT_TRUE(sim.final_value(fx.in));
  EXPECT_FALSE(sim.final_value(fx.out));

  const auto history = sim.history(fx.out);
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0].edge, Edge::kFall);

  // Delay must equal the macro-model tp0 (gate fully settled).
  const Cell& inv = lib_.cell(lib_.by_kind(CellKind::kInv));
  const Farad cl = fx.nl.load_of(fx.out);
  const TimeNs expected_tp = inv.pin(0).fall.tp0(cl, 0.4);
  EXPECT_NEAR(history[0].t50(), 5.0 + expected_tp, 1e-9);
  EXPECT_NEAR(history[0].tau, inv.drive.tau_out(Edge::kFall, cl), 1e-12);
}

TEST_F(SimulatorTest, ChainDelaysAccumulate) {
  Netlist nl(lib_);
  const SignalId in = nl.add_primary_input("in");
  std::vector<SignalId> nodes{in};
  for (int i = 0; i < 4; ++i) {
    const SignalId next = nl.add_signal("n" + std::to_string(i));
    const std::array<SignalId, 1> ins{nodes.back()};
    (void)nl.add_gate("g" + std::to_string(i), CellKind::kInv, ins, next);
    nodes.push_back(next);
  }
  nl.mark_primary_output(nodes.back());

  Stimulus stim(0.4);
  stim.add_edge(in, 2.0, true);
  Simulator sim(nl, ddm_);
  sim.apply_stimulus(stim);
  (void)sim.run();

  TimeNs last_t50 = 2.0;
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    const auto history = sim.history(nodes[i]);
    ASSERT_EQ(history.size(), 1u) << "stage " << i;
    EXPECT_GT(history[0].t50(), last_t50) << "stage " << i;
    // Alternating senses down the chain.
    EXPECT_EQ(history[0].edge, (i % 2 == 1) ? Edge::kFall : Edge::kRise);
    last_t50 = history[0].t50();
  }
}

TEST_F(SimulatorTest, PulseDegradesThroughInverter) {
  // A settled gate maps an input pulse of width w to width
  // w + (tp_rise - tp_fall); degradation shrinks the second edge's delay,
  // so narrow pulses come out *narrower* than that asymptotic width, and
  // the deficit grows monotonically as the pulse narrows (eq. 1).
  const double widths[] = {0.42, 0.55, 0.75, 1.1, 2.0, 12.0};
  std::vector<double> out_widths;
  for (const double w : widths) {
    InvFixture fx(lib_);
    Stimulus stim(0.4);
    stim.add_edge(fx.in, 5.0, true);
    stim.add_edge(fx.in, 5.0 + w, false);
    Simulator sim(fx.nl, ddm_);
    sim.apply_stimulus(stim);
    (void)sim.run();
    const auto history = sim.history(fx.out);
    ASSERT_EQ(history.size(), 2u) << "w=" << w;
    out_widths.push_back(history[1].t50() - history[0].t50());
  }
  // The widest pulse is effectively settled: its width change is the
  // rise/fall delay asymmetry.
  const double asymptote = out_widths.back() - widths[std::size(widths) - 1];
  std::vector<double> deficit;
  for (std::size_t i = 0; i < out_widths.size(); ++i) {
    deficit.push_back(widths[i] + asymptote - out_widths[i]);
  }
  EXPECT_NEAR(deficit.back(), 0.0, 1e-6);
  EXPECT_GT(deficit.front(), 0.01);  // >10 ps lost at the narrowest width
  for (std::size_t i = 1; i < deficit.size(); ++i) {
    EXPECT_GE(deficit[i - 1], deficit[i] - 1e-9) << "index " << i;
  }
}

TEST_F(SimulatorTest, RuntPulseAnnihilatedAtOutput) {
  InvFixture fx(lib_);
  Stimulus stim(0.4);
  stim.add_edge(fx.in, 5.0, true);
  stim.add_edge(fx.in, 5.2, false);  // T below T0 + tp: pulse collapses
  Simulator sim(fx.nl, ddm_);
  sim.apply_stimulus(stim);
  (void)sim.run();

  EXPECT_TRUE(sim.history(fx.out).empty());
  EXPECT_GE(sim.stats().annihilations, 1u);
  EXPECT_TRUE(sim.final_value(fx.out));  // back to initial 1
  EXPECT_EQ(sim.toggle_count(fx.out), 0u);
}

TEST_F(SimulatorTest, CollapsedPulseIsCancelledOnEveryFanoutInput) {
  // in -> INV -> mid -> four inverters.  The runt on `in` collapses mid's
  // pulse (DDM T <= T0) while its first transition still has an event
  // pending on every receiver input: annihilation must cancel all four.
  Netlist nl(lib_);
  const SignalId in = nl.add_primary_input("in");
  const SignalId mid = nl.add_signal("mid");
  nl.set_wire_cap(mid, 0.1);
  const std::array<SignalId, 1> drive{in};
  (void)nl.add_gate("g", CellKind::kInv, drive, mid);
  std::vector<SignalId> outs;
  std::vector<GateId> receivers;
  for (int i = 0; i < 4; ++i) {
    outs.push_back(nl.add_signal("o" + std::to_string(i)));
    nl.mark_primary_output(outs.back());
    const std::array<SignalId, 1> receive{mid};
    receivers.push_back(
        nl.add_gate("r" + std::to_string(i), CellKind::kInv, receive, outs.back()));
  }
  Stimulus stim(0.4);
  stim.add_edge(in, 5.0, true);
  stim.add_edge(in, 5.2, false);

  Simulator sim(nl, ddm_);
  sim.apply_stimulus(stim);
  (void)sim.run();

  EXPECT_TRUE(sim.history(mid).empty());
  for (std::size_t i = 0; i < outs.size(); ++i) {
    EXPECT_TRUE(sim.history(outs[i]).empty()) << "receiver " << i << " saw the pulse";
    EXPECT_TRUE(sim.perceived_value(PinRef{receivers[i], 0}));
  }
  const SimStats& s = sim.stats();
  EXPECT_EQ(s.events_created, 6u);  // two at g, four spawned by mid's fall
  EXPECT_EQ(s.events_processed, 2u);
  EXPECT_EQ(s.events_cancelled, 4u);
  EXPECT_EQ(s.events_suppressed, 0u);
  EXPECT_EQ(s.events_resurrected, 0u);
  EXPECT_EQ(s.pair_cancellations, 0u);
  EXPECT_EQ(s.annihilations, 1u);
  EXPECT_EQ(s.ddm_collapses, 1u);
  EXPECT_EQ(s.cdm_inertial_filtered, 0u);
  EXPECT_EQ(s.clamped_pulses, 0u);
  EXPECT_EQ(s.transitions_created, 3u);
  EXPECT_EQ(s.transitions_annihilated, 1u);
  EXPECT_EQ(s.gate_evaluations, 2u);
}

TEST_F(SimulatorTest, AnnihilationCancelsAResurrectedEvent) {
  // in -> INV g -> mid -> INV_LVT r -> out, with four edges on `in`:
  //   1. mid falls (T); a slow ramp on a low-threshold input, so T's
  //      event at r comes late.
  //   2. mid rises (U); U's crossing at r does not come after T's, so the
  //      pair rule deletes T's event (U records the pair).
  //   3. mid would fall again before U's midswing: U collapses and is
  //      annihilated, which resurrects T's event at r.
  //   4. a slow falling ramp (large T0) collapses mid against T: T is
  //      annihilated while its resurrected event is still pending.
  Netlist nl(lib_);
  const SignalId in = nl.add_primary_input("in");
  const SignalId mid = nl.add_signal("mid");
  const SignalId out = nl.add_signal("out");
  nl.mark_primary_output(out);
  nl.set_wire_cap(mid, 0.3);
  const std::array<SignalId, 1> drive{in};
  (void)nl.add_gate("g", CellKind::kInv, drive, mid);
  const std::array<SignalId, 1> receive{mid};
  (void)nl.add_gate("r", lib_.find("INV_LVT"), receive, out);
  Stimulus stim(0.05);
  stim.add_edge(in, 5.0, true);
  stim.add_edge(in, 5.76, false);
  stim.add_edge(in, 5.78, true);
  stim.add_edge(in, 5.83, false, /*tau=*/4.0);

  replay::TraceRecorder recorder;
  Simulator sim(nl, ddm_);
  sim.record_into(&recorder);
  sim.apply_stimulus(stim);
  sim.finish_recording(sim.run());

  // The annihilation path cancelled the event a resurrection created.
  std::vector<std::uint32_t> resurrected;
  std::vector<std::uint32_t> cancelled;
  for (const replay::TraceOp& op : recorder.trace().ops) {
    if (op.kind == replay::OpKind::kResurrect) resurrected.push_back(op.a);
    if (op.kind == replay::OpKind::kCancel) cancelled.push_back(op.a);
  }
  ASSERT_EQ(resurrected.size(), 1u);
  EXPECT_EQ(cancelled, resurrected);

  EXPECT_TRUE(sim.history(mid).empty());
  EXPECT_TRUE(sim.history(out).empty());
  EXPECT_FALSE(sim.final_value(out));  // INV_LVT(INV(0)) throughout
  EXPECT_EQ(sim.peak_live_transitions(), 1u);  // U, holding its one pair
  EXPECT_EQ(sim.live_transitions(), 0u);
  const SimStats& s = sim.stats();
  EXPECT_EQ(s.events_created, 6u);
  EXPECT_EQ(s.events_processed, 4u);
  EXPECT_EQ(s.events_cancelled, 2u);
  EXPECT_EQ(s.events_suppressed, 1u);
  EXPECT_EQ(s.events_resurrected, 1u);
  EXPECT_EQ(s.pair_cancellations, 1u);
  EXPECT_EQ(s.annihilations, 2u);
  EXPECT_EQ(s.ddm_collapses, 2u);
  EXPECT_EQ(s.cdm_inertial_filtered, 0u);
  EXPECT_EQ(s.clamped_pulses, 0u);
  EXPECT_EQ(s.transitions_created, 6u);
  EXPECT_EQ(s.transitions_annihilated, 2u);
  EXPECT_EQ(s.gate_evaluations, 4u);
}

TEST_F(SimulatorTest, WidePulsePropagatesFullyUnderBothModels) {
  for (const DelayModel* model :
       std::initializer_list<const DelayModel*>{&ddm_, &cdm_}) {
    InvFixture fx(lib_);
    Stimulus stim(0.4);
    stim.add_edge(fx.in, 5.0, true);
    stim.add_edge(fx.in, 9.0, false);
    Simulator sim(fx.nl, *model);
    sim.apply_stimulus(stim);
    (void)sim.run();
    EXPECT_EQ(sim.history(fx.out).size(), 2u) << model->name();
    EXPECT_EQ(sim.stats().filtered_events(), 0u) << model->name();
  }
}

TEST_F(SimulatorTest, ClassicalCdmWindowSwallowsPulseNarrowerThanGateDelay) {
  const CdmDelayModel classical(CdmDelayModel::InertialWindow::kGateDelay);
  InvFixture fx(lib_);
  Stimulus stim(0.4);
  stim.add_edge(fx.in, 5.0, true);
  stim.add_edge(fx.in, 5.1, false);  // 100 ps < tp ~ 290 ps at this load
  Simulator sim(fx.nl, classical);
  sim.apply_stimulus(stim);
  (void)sim.run();
  EXPECT_TRUE(sim.history(fx.out).empty());
  EXPECT_GE(sim.stats().cdm_inertial_filtered, 1u);
}

TEST_F(SimulatorTest, CdmTransportModePropagatesNarrowPulses) {
  const CdmDelayModel transport(CdmDelayModel::InertialWindow::kNone);
  InvFixture fx(lib_);
  Stimulus stim(0.4);
  stim.add_edge(fx.in, 5.0, true);
  stim.add_edge(fx.in, 5.1, false);
  Simulator sim(fx.nl, transport);
  sim.apply_stimulus(stim);
  (void)sim.run();
  EXPECT_EQ(sim.history(fx.out).size(), 2u);
}

/// The paper's Fig. 1 scenario in miniature: one runt pulse on a net
/// feeding a low-threshold and a high-threshold inverter.
struct Fig1Fixture {
  explicit Fig1Fixture(const Library& lib) : nl(lib) {
    in = nl.add_primary_input("in");
    lvt_out = nl.add_signal("lvt_out");
    hvt_out = nl.add_signal("hvt_out");
    nl.mark_primary_output(lvt_out);
    nl.mark_primary_output(hvt_out);
    const std::array<SignalId, 1> ins{in};
    (void)nl.add_gate("g_lvt", lib.find("INV_LVT"), ins, lvt_out);
    (void)nl.add_gate("g_hvt", lib.find("INV_HVT"), ins, hvt_out);
  }
  Netlist nl;
  SignalId in, lvt_out, hvt_out;
};

TEST_F(SimulatorTest, DdmFiltersPerInputThreshold) {
  // Slow ramps (tau = 1 ns) with a 0.2 ns midswing separation: the rising
  // ramp crosses 3.2 V only *after* the falling ramp has dropped below it
  // (pair rule filters at the HVT input), while the 1.8 V crossing pair
  // stays ordered and the low-threshold inverter responds.
  Fig1Fixture fx(lib_);
  Stimulus stim(1.0);
  stim.add_edge(fx.in, 5.0, true);
  stim.add_edge(fx.in, 5.2, false);

  Simulator sim(fx.nl, ddm_);
  sim.apply_stimulus(stim);
  (void)sim.run();

  // The low-threshold inverter saw the pulse (both events fired)...
  EXPECT_EQ(sim.history(fx.lvt_out).size(), 2u);
  // ...the high-threshold inverter never did (pair rule cancelled it).
  EXPECT_TRUE(sim.history(fx.hvt_out).empty());
  EXPECT_GE(sim.stats().pair_cancellations, 1u);
}

TEST_F(SimulatorTest, CdmCannotDiscriminatePerInput) {
  // Classical model: both receivers see identical midswing events, so a
  // propagatable pulse reaches both (threshold-based discrimination is
  // structurally impossible; only rise/fall delay asymmetry could ever
  // absorb a borderline runt, which this width avoids).
  Fig1Fixture fx(lib_);
  Stimulus stim(0.4);
  stim.add_edge(fx.in, 5.0, true);
  stim.add_edge(fx.in, 5.5, false);

  Simulator sim(fx.nl, cdm_);
  sim.apply_stimulus(stim);
  (void)sim.run();

  EXPECT_EQ(sim.history(fx.lvt_out).size(), 2u);
  EXPECT_EQ(sim.history(fx.hvt_out).size(), 2u);
  EXPECT_EQ(sim.stats().pair_cancellations, 0u);  // no threshold filtering
}

TEST_F(SimulatorTest, EventCountsBalance) {
  Fig1Fixture fx(lib_);
  Stimulus stim(0.4);
  stim.add_edge(fx.in, 5.0, true);
  stim.add_edge(fx.in, 5.08, false);
  stim.add_edge(fx.in, 8.0, true);
  stim.add_edge(fx.in, 12.0, false);
  Simulator sim(fx.nl, ddm_);
  sim.apply_stimulus(stim);
  (void)sim.run();

  const SimStats& s = sim.stats();
  EXPECT_EQ(s.events_created, s.events_processed + s.events_cancelled);
  std::uint64_t toggles = 0;
  for (std::uint32_t sig = 0; sig < fx.nl.num_signals(); ++sig) {
    toggles += sim.toggle_count(SignalId{sig});
  }
  EXPECT_EQ(s.surviving_transitions(), toggles);
}

/// A reconvergent XOR makes glitches: a -> xor(a, buf(a)) produces a pulse
/// on every input edge under conventional timing.
struct GlitchFixture {
  explicit GlitchFixture(const Library& lib, int chain_length = 3) : nl(lib) {
    a = nl.add_primary_input("a");
    SignalId delayed = a;
    for (int i = 0; i < chain_length; ++i) {
      const SignalId next = nl.add_signal("d" + std::to_string(i));
      const std::array<SignalId, 1> ins{delayed};
      (void)nl.add_gate("buf" + std::to_string(i), CellKind::kBuf, ins, next);
      delayed = next;
    }
    y = nl.add_signal("y");
    nl.mark_primary_output(y);
    const std::array<SignalId, 2> xor_in{a, delayed};
    (void)nl.add_gate("gx", CellKind::kXor2, xor_in, y);
  }
  Netlist nl;
  SignalId a, y;
};

TEST_F(SimulatorTest, ReconvergentXorGlitches) {
  GlitchFixture fx(lib_);
  Stimulus stim(0.4);
  stim.add_edge(fx.a, 5.0, true);
  stim.add_edge(fx.a, 15.0, false);
  Simulator sim(fx.nl, cdm_);
  sim.apply_stimulus(stim);
  (void)sim.run();
  // Under CDM the hazard pulse survives (chain delay > inertial window):
  // two pulses of two transitions each.
  EXPECT_EQ(sim.history(fx.y).size(), 4u);
  EXPECT_FALSE(sim.final_value(fx.y));
}

TEST_F(SimulatorTest, DdmNeverProducesMoreActivityThanTransportCdm) {
  GlitchFixture fx(lib_, 2);
  const CdmDelayModel transport(CdmDelayModel::InertialWindow::kNone);

  std::uint64_t activity[2];
  const DelayModel* models[2] = {&ddm_, &transport};
  for (int m = 0; m < 2; ++m) {
    GlitchFixture local(lib_, 2);
    Stimulus stim(0.4);
    stim.add_edge(local.a, 5.0, true);
    stim.add_edge(local.a, 10.0, false);
    Simulator sim(local.nl, *models[m]);
    sim.apply_stimulus(stim);
    (void)sim.run();
    activity[m] = sim.stats().surviving_transitions();
  }
  EXPECT_LE(activity[0], activity[1]);
}

TEST_F(SimulatorTest, PerceivedValuesConsistentAfterQuiescence) {
  GlitchFixture fx(lib_);
  Stimulus stim(0.4);
  stim.add_edge(fx.a, 5.0, true);
  stim.add_edge(fx.a, 5.3, false);
  stim.add_edge(fx.a, 7.0, true);
  stim.add_edge(fx.a, 7.15, false);
  stim.add_edge(fx.a, 9.0, true);

  Simulator sim(fx.nl, ddm_);
  sim.apply_stimulus(stim);
  const RunResult result = sim.run();
  ASSERT_EQ(result.reason, StopReason::kQueueExhausted);

  // Invariant: once quiescent, every gate input perceives exactly the final
  // value of its driving signal, and every gate output equals its function.
  for (std::size_t g = 0; g < fx.nl.num_gates(); ++g) {
    const GateId gid{static_cast<GateId::underlying_type>(g)};
    const Gate& gate = fx.nl.gate(gid);
    bool ins[4] = {};
    for (std::size_t p = 0; p < gate.inputs.size(); ++p) {
      const bool perceived = sim.perceived_value(PinRef{gid, static_cast<int>(p)});
      EXPECT_EQ(perceived, sim.final_value(gate.inputs[p]))
          << "gate " << gate.name << " pin " << p;
      ins[p] = perceived;
    }
    EXPECT_EQ(sim.final_value(gate.output),
              eval_cell(fx.nl.cell_of(gid).kind,
                        std::span<const bool>(ins, gate.inputs.size())))
        << "gate " << gate.name;
  }
}

TEST_F(SimulatorTest, SignalHistoriesAlternateAndAreOrdered) {
  GlitchFixture fx(lib_);
  Stimulus stim(0.4);
  stim.add_edge(fx.a, 5.0, true);
  stim.add_edge(fx.a, 6.0, false);
  stim.add_edge(fx.a, 7.0, true);
  Simulator sim(fx.nl, ddm_);
  sim.apply_stimulus(stim);
  (void)sim.run();

  for (std::size_t s = 0; s < fx.nl.num_signals(); ++s) {
    const SignalId sid{static_cast<SignalId::underlying_type>(s)};
    const auto history = sim.history(sid);
    bool value = sim.initial_value(sid);
    TimeNs last = -1e18;
    for (const Transition& tr : history) {
      EXPECT_EQ(tr.final_value(), !value) << fx.nl.signal(sid).name;
      value = tr.final_value();
      EXPECT_GT(tr.t50(), last) << fx.nl.signal(sid).name;
      last = tr.t50();
    }
    EXPECT_EQ(value, sim.final_value(sid));
  }
}

TEST_F(SimulatorTest, RingOscillatorHitsEventLimit) {
  Netlist nl(lib_);
  const SignalId en = nl.add_primary_input("en");
  const SignalId q = nl.add_signal("q");
  const SignalId n1 = nl.add_signal("n1");
  const SignalId n2 = nl.add_signal("n2");
  const std::array<SignalId, 2> nand_in{en, n2};
  (void)nl.add_gate("gn", CellKind::kNand2, nand_in, q);
  const std::array<SignalId, 1> i1{q};
  (void)nl.add_gate("g1", CellKind::kInv, i1, n1);
  const std::array<SignalId, 1> i2{n1};
  (void)nl.add_gate("g2", CellKind::kInv, i2, n2);

  Stimulus stim(0.4);
  stim.add_edge(en, 1.0, true);

  SimConfig config;
  config.max_events = 500;
  Simulator sim(nl, ddm_, config);
  sim.apply_stimulus(stim);
  const RunResult result = sim.run();
  EXPECT_EQ(result.reason, StopReason::kEventLimit);
  EXPECT_EQ(sim.stats().events_processed, 500u);
}

TEST_F(SimulatorTest, HorizonStopsTheRun) {
  Netlist nl(lib_);
  const SignalId en = nl.add_primary_input("en");
  const SignalId q = nl.add_signal("q");
  const SignalId n1 = nl.add_signal("n1");
  const SignalId n2 = nl.add_signal("n2");
  const std::array<SignalId, 2> nand_in{en, n2};
  (void)nl.add_gate("gn", CellKind::kNand2, nand_in, q);
  const std::array<SignalId, 1> i1{q};
  (void)nl.add_gate("g1", CellKind::kInv, i1, n1);
  const std::array<SignalId, 1> i2{n1};
  (void)nl.add_gate("g2", CellKind::kInv, i2, n2);

  Stimulus stim(0.4);
  stim.add_edge(en, 1.0, true);

  SimConfig config;
  config.t_end = 50.0;
  Simulator sim(nl, ddm_, config);
  sim.apply_stimulus(stim);
  const RunResult result = sim.run();
  EXPECT_EQ(result.reason, StopReason::kHorizonReached);
  EXPECT_LE(result.end_time, 50.0);
  EXPECT_GT(sim.toggle_count(q), 10u);  // it oscillated until the horizon
}

TEST_F(SimulatorTest, ApplyStimulusTwiceThrows) {
  InvFixture fx(lib_);
  Stimulus stim(0.4);
  Simulator sim(fx.nl, ddm_);
  sim.apply_stimulus(stim);
  EXPECT_THROW(sim.apply_stimulus(stim), ContractViolation);
}

TEST_F(SimulatorTest, RunWithoutStimulusThrows) {
  InvFixture fx(lib_);
  Simulator sim(fx.nl, ddm_);
  EXPECT_THROW((void)sim.run(), ContractViolation);
}

TEST_F(SimulatorTest, InitialWordPropagatesThroughSteadyState) {
  Netlist nl(lib_);
  const SignalId a = nl.add_primary_input("a");
  const SignalId b = nl.add_primary_input("b");
  const SignalId y = nl.add_signal("y");
  nl.mark_primary_output(y);
  const std::array<SignalId, 2> ins{a, b};
  (void)nl.add_gate("g", CellKind::kNand2, ins, y);

  Stimulus stim(0.4);
  stim.set_initial(a, true);
  stim.set_initial(b, true);
  Simulator sim(nl, ddm_);
  sim.apply_stimulus(stim);
  (void)sim.run();
  EXPECT_FALSE(sim.initial_value(y));
  EXPECT_FALSE(sim.final_value(y));
  EXPECT_EQ(sim.stats().events_processed, 0u);
}

// ---- rebind() (the daemon's simulator pool contract) -----------------------

/// Runs `stim` on a fresh external-graph Simulator and returns the
/// observables a pooled run must reproduce bit-for-bit.
struct RunImage {
  std::uint64_t history_hash = 0;
  std::uint64_t events_processed = 0;
  std::uint64_t events_created = 0;
  TimeNs end_time = 0.0;

  bool operator==(const RunImage& other) const {
    return history_hash == other.history_hash &&
           events_processed == other.events_processed &&
           events_created == other.events_created && end_time == other.end_time;
  }
};

template <class SimLike>
RunImage image_of(SimLike& sim, const Stimulus& stim) {
  sim.apply_stimulus(stim);
  const RunResult result = sim.run();
  return RunImage{replay::hash_sim_history(sim), sim.stats().events_processed,
                  sim.stats().events_created, result.end_time};
}

TEST_F(SimulatorTest, RebindMatchesFreshConstructionBitForBit) {
  // Two structurally different designs, each with its own elaborated graph
  // and stimulus -- the daemon's cache serves exactly this shape.
  InvFixture a(lib_);
  Stimulus stim_a(0.4);
  stim_a.add_edge(a.in, 5.0, true);
  stim_a.add_edge(a.in, 11.0, false);

  Netlist b(lib_);
  const SignalId bin = b.add_primary_input("in");
  const SignalId mid = b.add_signal("mid");
  const SignalId bout = b.add_signal("out");
  b.mark_primary_output(bout);
  (void)b.add_gate("g0", CellKind::kInv, std::array<SignalId, 1>{bin}, mid);
  (void)b.add_gate("g1", CellKind::kNand2, std::array<SignalId, 2>{bin, mid}, bout);
  Stimulus stim_b(0.4);
  stim_b.add_edge(bin, 3.0, true);
  stim_b.add_edge(bin, 9.5, false);

  const TimingGraph graph_a = TimingGraph::build(a.nl, ddm_.timing_policy());
  const TimingGraph graph_b = TimingGraph::build(b, ddm_.timing_policy());

  RunImage fresh_a, fresh_b;
  {
    Simulator sim(a.nl, ddm_, graph_a);
    fresh_a = image_of(sim, stim_a);
  }
  {
    Simulator sim(b, ddm_, graph_b);
    fresh_b = image_of(sim, stim_b);
  }
  ASSERT_NE(fresh_a, fresh_b) << "designs too similar to witness a rebind";

  // One pooled simulator crossing designs: A, rebind to B, rebind back to
  // A, then a same-design rebind (the plain-reset fast path).  Every run
  // must be indistinguishable from a fresh construction.
  Simulator pooled(a.nl, ddm_, graph_a);
  EXPECT_EQ(image_of(pooled, stim_a), fresh_a);
  pooled.rebind(b, ddm_, graph_b);
  EXPECT_EQ(image_of(pooled, stim_b), fresh_b) << "A -> B rebind diverged";
  pooled.rebind(a.nl, ddm_, graph_a);
  EXPECT_EQ(image_of(pooled, stim_a), fresh_a) << "B -> A rebind diverged";
  pooled.rebind(a.nl, ddm_, graph_a);
  EXPECT_EQ(image_of(pooled, stim_a), fresh_a) << "same-design rebind diverged";
}

TEST_F(SimulatorTest, RebindRejectsGraphFromAnotherNetlist) {
  InvFixture a(lib_);
  InvFixture other(lib_);
  const TimingGraph graph_a = TimingGraph::build(a.nl, ddm_.timing_policy());
  const TimingGraph graph_other = TimingGraph::build(other.nl, ddm_.timing_policy());
  Simulator sim(a.nl, ddm_, graph_a);
  EXPECT_THROW(sim.rebind(a.nl, ddm_, graph_other), ContractViolation);
}

// ---- the history chains against a brute-force filter of the arena -------

/// Every history reader -- history(), the histories() slice,
/// newest_transition(), toggle_count(), final_value() and value_at() at each
/// surviving t50 and 1 ps either side, and the most_active_signals() ranking
/// -- must equal a brute-force filter of the transition arena: each
/// signal's non-cancelled records in creation order.
void expect_chains_match_arena(const Simulator& sim) {
  const Netlist& nl = sim.netlist();
  std::vector<std::vector<std::uint32_t>> want(nl.num_signals());
  for (std::uint64_t t = 0; t < sim.stats().transitions_created; ++t) {
    const TransitionId id{static_cast<TransitionId::underlying_type>(t)};
    const Transition& tr = sim.transition(id);
    if (!tr.cancelled) want[tr.signal.value()].push_back(id.value());
  }
  const SignalHistories all = sim.histories();
  ASSERT_EQ(all.offsets.size(), nl.num_signals() + 1);
  ASSERT_EQ(all.offsets.back(), all.ids.size());
  for (std::uint32_t s = 0; s < nl.num_signals(); ++s) {
    const SignalId sid{s};
    const std::vector<std::uint32_t>& line = want[s];
    SCOPED_TRACE("signal " + nl.signal(sid).name);

    std::vector<std::uint32_t> slice;
    for (const TransitionId id : all.of(sid)) slice.push_back(id.value());
    EXPECT_EQ(slice, line);

    const std::vector<Transition> copy = sim.history(sid);
    ASSERT_EQ(copy.size(), line.size());
    for (std::size_t k = 0; k < line.size(); ++k) {
      const Transition& tr = sim.transition(TransitionId{line[k]});
      EXPECT_EQ(copy[k].signal, tr.signal);
      EXPECT_EQ(copy[k].edge, tr.edge);
      EXPECT_EQ(copy[k].t_start, tr.t_start);
      EXPECT_EQ(copy[k].tau, tr.tau);
      EXPECT_EQ(copy[k].prev, tr.prev);
      EXPECT_FALSE(copy[k].cancelled);
    }

    EXPECT_EQ(sim.toggle_count(sid), line.size());
    EXPECT_EQ(sim.newest_transition(sid).valid(), !line.empty());
    if (!line.empty()) {
      EXPECT_EQ(sim.newest_transition(sid).value(), line.back());
    }
    const bool initial = sim.initial_value(sid);
    EXPECT_EQ(sim.final_value(sid),
              line.empty() ? initial : sim.transition(TransitionId{line.back()}).final_value());

    // Forward scan over the filtered records: the last one with t50 <= t.
    const auto oracle_at = [&](TimeNs t) {
      bool value = initial;
      for (const std::uint32_t id : line) {
        const Transition& tr = sim.transition(TransitionId{id});
        if (tr.t50() > t) break;
        value = tr.final_value();
      }
      return value;
    };
    for (const std::uint32_t id : line) {
      const TimeNs t50 = sim.transition(TransitionId{id}).t50();
      for (const TimeNs t : {t50 - 0.001, t50, t50 + 0.001}) {
        EXPECT_EQ(sim.value_at(sid, t), oracle_at(t)) << "t = " << t;
      }
    }
  }

  // Most transitions first, ties by signal id.
  std::vector<std::uint32_t> ranking(nl.num_signals());
  for (std::uint32_t s = 0; s < ranking.size(); ++s) ranking[s] = s;
  std::stable_sort(ranking.begin(), ranking.end(), [&](std::uint32_t a, std::uint32_t b) {
    return want[a].size() > want[b].size();
  });
  ranking.resize(std::min<std::size_t>(ranking.size(), 8));
  std::vector<std::uint32_t> got;
  for (const SignalId s : sim.most_active_signals(8)) got.push_back(s.value());
  EXPECT_EQ(got, ranking);
}

TEST_F(SimulatorTest, ChainsMatchTheArenaUnderAnnihilations) {
  const LayeredCircuit dag = make_layered_circuit(lib_, 30, 20, 0xC4A1);
  const Stimulus stim = staggered_random_stimulus(dag.inputs, 10, 3, 0.2);
  for (const DelayModel* model : {static_cast<const DelayModel*>(&ddm_),
                                  static_cast<const DelayModel*>(&cdm_)}) {
    SCOPED_TRACE(std::string(model->name()));
    Simulator sim(dag.netlist, *model);
    sim.apply_stimulus(stim);
    (void)sim.run();
    EXPECT_GT(sim.stats().transitions_annihilated, 0u);
    expect_chains_match_arena(sim);
  }
}

TEST_F(SimulatorTest, ChainsMatchTheArenaOnResurrectionDesigns) {
  // The replay suite's resurrection recordings (ResurrectionReplaysBitExact).
  struct Case {
    int width;
    int depth;
    std::uint64_t stim_seed;
  };
  for (const Case c : {Case{40, 30, 10}, Case{40, 30, 14}, Case{20, 20, 70}}) {
    SCOPED_TRACE("stimulus " + std::to_string(c.stim_seed));
    const LayeredCircuit dag = make_layered_circuit(lib_, c.width, c.depth, 0xA000);
    const Stimulus stim = staggered_random_stimulus(dag.inputs, 8, c.stim_seed, 0.2);
    Simulator sim(dag.netlist, ddm_);
    sim.apply_stimulus(stim);
    (void)sim.run();
    EXPECT_GE(sim.stats().events_resurrected, 1u);
    expect_chains_match_arena(sim);
  }
}

TEST_F(SimulatorTest, ChainsMatchTheArenaUnderAStuckAtFault) {
  const LayeredCircuit dag = make_layered_circuit(lib_, 30, 20, 0xC4A1);
  const Stimulus stim = staggered_random_stimulus(dag.inputs, 10, 3, 0.2);
  Simulator sim(dag.netlist, ddm_);
  // A first-layer gate output: the gate's own transitions stay in the
  // history, its receivers see the constant.
  const SignalId site = dag.netlist.gate(GateId{0}).output;
  sim.inject_stuck_at(site, true);
  sim.apply_stimulus(stim);
  (void)sim.run();
  EXPECT_GT(sim.toggle_count(site), 0u);
  expect_chains_match_arena(sim);
}

TEST_F(SimulatorTest, ChainsMatchTheArenaAtAnEventLimitStop) {
  const LayeredCircuit dag = make_layered_circuit(lib_, 30, 20, 0xC4A1);
  const Stimulus stim = staggered_random_stimulus(dag.inputs, 10, 3, 0.2);
  SimConfig config;
  config.max_events = 2500;
  Simulator sim(dag.netlist, ddm_, config);
  sim.apply_stimulus(stim);
  EXPECT_EQ(sim.run().reason, StopReason::kEventLimit);
  expect_chains_match_arena(sim);
}

TEST_F(SimulatorTest, ChainsMatchTheArenaBetweenRunUntilSegments) {
  const LayeredCircuit dag = make_layered_circuit(lib_, 30, 20, 0xC4A1);
  const Stimulus stim = staggered_random_stimulus(dag.inputs, 10, 3, 0.2);
  Simulator sim(dag.netlist, ddm_);
  sim.apply_stimulus(stim);
  for (const TimeNs t : {6.0, 12.5, 25.0}) {
    SCOPED_TRACE("run_until " + std::to_string(t));
    EXPECT_EQ(sim.run_until(t).reason, StopReason::kHorizonReached);
    expect_chains_match_arena(sim);
  }
  EXPECT_EQ(sim.run().reason, StopReason::kQueueExhausted);
  expect_chains_match_arena(sim);
}

TEST_F(SimulatorTest, ChainsMatchTheArenaAcrossARebind) {
  const LayeredCircuit wide = make_layered_circuit(lib_, 30, 20, 0xC4A1);
  const LayeredCircuit small = make_layered_circuit(lib_, 8, 6, 0x5EED);
  const Stimulus wide_stim = staggered_random_stimulus(wide.inputs, 10, 3, 0.2);
  const Stimulus small_stim = staggered_random_stimulus(small.inputs, 10, 4, 0.2);
  const TimingGraph wide_graph = TimingGraph::build(wide.netlist, ddm_.timing_policy());
  const TimingGraph small_graph = TimingGraph::build(small.netlist, ddm_.timing_policy());
  Simulator sim(wide.netlist, ddm_, wide_graph);
  sim.apply_stimulus(wide_stim);
  (void)sim.run();
  expect_chains_match_arena(sim);
  sim.rebind(small.netlist, ddm_, small_graph);
  sim.apply_stimulus(small_stim);
  (void)sim.run();
  expect_chains_match_arena(sim);
  sim.rebind(wide.netlist, ddm_, wide_graph);
  sim.apply_stimulus(wide_stim);
  (void)sim.run();
  expect_chains_match_arena(sim);
}

}  // namespace
}  // namespace halotis
