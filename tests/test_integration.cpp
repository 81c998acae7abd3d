// Cross-engine integration tests: HALOTIS-DDM vs HALOTIS-CDM vs the analog
// reference on real circuits, and global-consistency sweeps over random
// circuits and stimuli.
#include <gtest/gtest.h>

#include <memory>

#include "src/analog/analog_sim.hpp"
#include "src/base/rng.hpp"
#include "src/circuits/generators.hpp"
#include "src/core/simulator.hpp"
#include "src/waveform/digital_waveform.hpp"

namespace halotis {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  Library lib_ = Library::default_u6();
  DdmDelayModel ddm_;
  CdmDelayModel cdm_;
};

Stimulus multiplier_sequence(const MultiplierCircuit& mult,
                             const std::vector<std::uint64_t>& words, TimeNs period,
                             TimeNs slew) {
  Stimulus stim(slew);
  std::vector<SignalId> ab;
  for (SignalId s : mult.a) ab.push_back(s);
  for (SignalId s : mult.b) ab.push_back(s);
  stim.apply_sequence(ab, words, period, period);
  stim.set_initial(mult.tie0, false);
  return stim;
}

TEST_F(IntegrationTest, MultiplierFinalValuesMatchArithmetic) {
  MultiplierCircuit mult = make_multiplier(lib_, 4);
  // 0x0 -> 7x7 -> 5xA -> Ex6 -> FxF (the paper's Fig. 6 sequence; words are
  // b-nibble then a-nibble from LSB: a=low nibble).
  const std::vector<std::uint64_t> words{0x00, 0x77, 0xA5, 0x6E, 0xFF};
  for (const DelayModel* model :
       std::initializer_list<const DelayModel*>{&ddm_, &cdm_}) {
    Simulator sim(mult.netlist, *model, SimConfig{});
    sim.apply_stimulus(multiplier_sequence(mult, words, 5.0, 0.5));
    const RunResult result = sim.run();
    ASSERT_EQ(result.reason, StopReason::kQueueExhausted) << model->name();
    unsigned product = 0;
    for (int k = 0; k < 8; ++k) {
      if (sim.final_value(mult.s[static_cast<std::size_t>(k)])) product |= 1u << k;
    }
    EXPECT_EQ(product, 0xFu * 0xFu) << model->name();
  }
}

TEST_F(IntegrationTest, CdmOverestimatesSwitchingActivity) {
  // The paper's Table 1 shape: conventional delay model produces clearly
  // more events than the degradation model, which filters glitches.
  MultiplierCircuit mult = make_multiplier(lib_, 4);
  const std::vector<std::uint64_t> words{0x00, 0x77, 0xA5, 0x6E, 0xFF};

  Simulator ddm_sim(mult.netlist, ddm_);
  ddm_sim.apply_stimulus(multiplier_sequence(mult, words, 5.0, 0.5));
  (void)ddm_sim.run();

  Simulator cdm_sim(mult.netlist, cdm_);
  cdm_sim.apply_stimulus(multiplier_sequence(mult, words, 5.0, 0.5));
  (void)cdm_sim.run();

  EXPECT_GT(cdm_sim.stats().events_processed, ddm_sim.stats().events_processed);
  EXPECT_GT(ddm_sim.stats().filtered_events(), cdm_sim.stats().filtered_events());
  EXPECT_GE(cdm_sim.stats().surviving_transitions(),
            ddm_sim.stats().surviving_transitions());
}

TEST_F(IntegrationTest, DdmTracksAnalogOnSmallMultiplier) {
  // 2x2 multiplier keeps the analog run fast; compare per-output edge
  // counts between the electrical reference and both logic models.
  MultiplierCircuit mult = make_multiplier(lib_, 2);
  const std::vector<std::uint64_t> words{0x0, 0xF, 0x6, 0x9, 0xF};

  AnalogSim analog(mult.netlist);
  analog.apply_stimulus(multiplier_sequence(mult, words, 5.0, 0.5));
  analog.run(5.0 * static_cast<double>(words.size()) + 5.0);

  Simulator ddm_sim(mult.netlist, ddm_);
  ddm_sim.apply_stimulus(multiplier_sequence(mult, words, 5.0, 0.5));
  (void)ddm_sim.run();

  std::size_t total_analog = 0;
  std::size_t total_ddm = 0;
  std::size_t mismatch = 0;
  for (const SignalId s : mult.s) {
    const std::size_t analog_edges =
        analog.trace(s).digitize(lib_.vdd()).edge_count();
    const std::size_t ddm_edges = ddm_sim.history(s).size();
    total_analog += analog_edges;
    total_ddm += ddm_edges;
    mismatch += analog_edges > ddm_edges ? analog_edges - ddm_edges
                                         : ddm_edges - analog_edges;
    // Parity (the final value) must always agree.
    EXPECT_EQ(ddm_sim.final_value(s), analog.voltage(s) > 2.5)
        << mult.netlist.signal(s).name;
  }
  EXPECT_GT(total_analog, 0u);
  // Edge-count agreement within 35% overall: the logic model may keep or
  // drop a borderline glitch the electrical simulation resolves otherwise.
  EXPECT_LE(static_cast<double>(mismatch), 0.35 * static_cast<double>(total_analog))
      << "analog=" << total_analog << " ddm=" << total_ddm;
}

TEST_F(IntegrationTest, Fig1ShapeDdmMatchesAnalogCdmCannot) {
  // The paper's headline qualitative result, end to end.
  Fig1Circuit fx = make_fig1(lib_);
  const auto stimulate = [&](auto& sim) {
    Stimulus stim(0.5);
    stim.set_initial(fx.in, true);
    stim.add_edge(fx.in, 5.0, false);
    stim.add_edge(fx.in, 5.9, true);
    sim.apply_stimulus(stim);
  };

  AnalogSim analog(fx.netlist);
  stimulate(analog);
  analog.run(16.0);
  const std::size_t analog_out1c = analog.trace(fx.out1c).digitize(5.0).edge_count();
  const std::size_t analog_out2c = analog.trace(fx.out2c).digitize(5.0).edge_count();

  Simulator ddm_sim(fx.netlist, ddm_);
  stimulate(ddm_sim);
  (void)ddm_sim.run();

  Simulator cdm_sim(fx.netlist, cdm_);
  stimulate(cdm_sim);
  (void)cdm_sim.run();

  // Electrical truth: the pulse passes the low-threshold chain only.
  EXPECT_GE(analog_out1c, 2u);
  EXPECT_EQ(analog_out2c, 0u);
  // DDM reproduces that.
  EXPECT_GE(ddm_sim.history(fx.out1c).size(), 2u);
  EXPECT_EQ(ddm_sim.history(fx.out2c).size(), 0u);
  // CDM structurally cannot discriminate: both chains behave identically.
  EXPECT_EQ(cdm_sim.history(fx.out1c).size(), cdm_sim.history(fx.out2c).size());
}

class RandomConsistency : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomConsistency, QuiescentStateMatchesSteadyState) {
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
  for (int edge = 0; edge < 60; ++edge) {
    const std::size_t pick = rng.next_below(circuit.inputs.size());
    value[pick] = !value[pick];
    stim.add_edge(circuit.inputs[pick], t, value[pick]);
    t += rng.next_double_in(0.05, 2.0);
  }

  Simulator sim(circuit.netlist, ddm);
  sim.apply_stimulus(stim);
  const RunResult result = sim.run();
  ASSERT_EQ(result.reason, StopReason::kQueueExhausted);

  // Quiescent network state must equal the combinational steady state of
  // the final input word -- glitch filtering must never corrupt logic.
  std::unique_ptr<bool[]> pi_values(new bool[circuit.inputs.size()]);
  for (std::size_t i = 0; i < circuit.inputs.size(); ++i) pi_values[i] = value[i];
  const std::vector<bool> expected = circuit.netlist.steady_state(
      std::span<const bool>(pi_values.get(), circuit.inputs.size()));
  for (std::size_t s = 0; s < circuit.netlist.num_signals(); ++s) {
    const SignalId sid{static_cast<SignalId::underlying_type>(s)};
    ASSERT_EQ(sim.final_value(sid), expected[s])
        << circuit.netlist.signal(sid).name << " seed " << GetParam();
  }
  // And the event/statistics ledger must balance.
  const SimStats& st = sim.stats();
  EXPECT_EQ(st.events_created, st.events_processed + st.events_cancelled);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomConsistency,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

class RandomModelComparison : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomModelComparison, DdmActivityNeverExceedsTransport) {
  const Library lib = Library::default_u6();
  const DdmDelayModel ddm;
  const CdmDelayModel transport(CdmDelayModel::InertialWindow::kNone);
  RandomCircuit circuit = make_random_circuit(lib, 6, 40, GetParam());
  SplitMix64 rng(GetParam() * 31 + 7);

  std::uint64_t activity[2] = {0, 0};
  const DelayModel* models[2] = {&ddm, &transport};
  for (int m = 0; m < 2; ++m) {
    Stimulus stim(0.4);
    SplitMix64 stim_rng(999);
    TimeNs t = 2.0;
    std::vector<bool> value(circuit.inputs.size(), false);
    for (int edge = 0; edge < 40; ++edge) {
      const std::size_t pick = stim_rng.next_below(circuit.inputs.size());
      value[pick] = !value[pick];
      stim.add_edge(circuit.inputs[pick], t, value[pick]);
      t += stim_rng.next_double_in(0.1, 1.5);
    }
    Simulator sim(circuit.netlist, *models[m]);
    sim.apply_stimulus(stim);
    (void)sim.run();
    activity[m] = sim.stats().surviving_transitions();
  }
  EXPECT_LE(activity[0], activity[1]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomModelComparison, ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace halotis
