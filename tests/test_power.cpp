// Tests for switching-activity and power reporting.
#include <gtest/gtest.h>

#include "src/circuits/generators.hpp"
#include "src/power/activity.hpp"

namespace halotis {
namespace {

class PowerTest : public ::testing::Test {
 protected:
  Library lib_ = Library::default_u6();
  DdmDelayModel ddm_;
};

TEST_F(PowerTest, CountsMatchSimulatorHistories) {
  ChainCircuit chain = make_chain(lib_, 3);
  Stimulus stim(0.4);
  stim.add_edge(chain.nodes[0], 2.0, true);
  stim.add_edge(chain.nodes[0], 8.0, false);
  Simulator sim(chain.netlist, ddm_);
  sim.apply_stimulus(stim);
  (void)sim.run();

  const ActivityReport report = compute_activity(sim);
  EXPECT_EQ(report.total_transitions, sim.stats().surviving_transitions());
  ASSERT_EQ(report.per_signal.size(), chain.netlist.num_signals());
  for (const SignalActivity& a : report.per_signal) {
    EXPECT_EQ(a.transitions, sim.toggle_count(a.signal)) << a.name;
  }
}

TEST_F(PowerTest, EnergyIsHalfCVSquaredPerTransition) {
  ChainCircuit chain = make_chain(lib_, 1);
  chain.netlist.set_wire_cap(chain.nodes[1], 0.1);
  Stimulus stim(0.4);
  stim.add_edge(chain.nodes[0], 2.0, true);
  Simulator sim(chain.netlist, ddm_);
  sim.apply_stimulus(stim);
  (void)sim.run();

  const ActivityReport report = compute_activity(sim);
  const Volt vdd = lib_.vdd();
  double expected = 0.0;
  for (std::size_t s = 0; s < chain.netlist.num_signals(); ++s) {
    const SignalId sid{static_cast<SignalId::underlying_type>(s)};
    expected += 0.5 * chain.netlist.load_of(sid) * vdd * vdd *
                static_cast<double>(sim.toggle_count(sid));
  }
  EXPECT_NEAR(report.total_energy_pj, expected, 1e-9);
  EXPECT_GT(report.total_energy_pj, 0.0);
}

TEST_F(PowerTest, GlitchClassification) {
  // A glitchy reconvergent circuit: the XOR output pulse is a glitch.
  Netlist nl(lib_);
  const SignalId a = nl.add_primary_input("a");
  SignalId delayed = a;
  for (int i = 0; i < 4; ++i) {
    const SignalId next = nl.add_signal("d" + std::to_string(i));
    const std::array<SignalId, 1> ins{delayed};
    (void)nl.add_gate("b" + std::to_string(i), CellKind::kBuf, ins, next);
    delayed = next;
  }
  const SignalId y = nl.add_signal("y");
  nl.mark_primary_output(y);
  const std::array<SignalId, 2> xin{a, delayed};
  (void)nl.add_gate("gx", CellKind::kXor2, xin, y);

  const CdmDelayModel transport(CdmDelayModel::InertialWindow::kNone);
  Stimulus stim(0.4);
  stim.add_edge(a, 5.0, true);
  Simulator sim(nl, transport);
  sim.apply_stimulus(stim);
  (void)sim.run();

  ASSERT_EQ(sim.toggle_count(y), 2u);  // one hazard pulse
  const ActivityReport report = compute_activity(sim, /*glitch_width=*/2.0);
  EXPECT_GE(report.total_glitch_transitions, 2u);
  EXPECT_GT(report.glitch_energy_pj, 0.0);
  EXPECT_LE(report.glitch_energy_pj, report.total_energy_pj);
  EXPECT_GT(report.glitch_fraction(), 0.0);
}

TEST_F(PowerTest, QuiescentCircuitHasNoEnergy) {
  ChainCircuit chain = make_chain(lib_, 2);
  Stimulus stim(0.4);
  Simulator sim(chain.netlist, ddm_);
  sim.apply_stimulus(stim);
  (void)sim.run();
  const ActivityReport report = compute_activity(sim);
  EXPECT_EQ(report.total_transitions, 0u);
  EXPECT_DOUBLE_EQ(report.total_energy_pj, 0.0);
  EXPECT_DOUBLE_EQ(report.average_power_mw(), 0.0);
  EXPECT_DOUBLE_EQ(report.glitch_fraction(), 0.0);
}

TEST_F(PowerTest, FormatProducesTableAndTotals) {
  ChainCircuit chain = make_chain(lib_, 2);
  Stimulus stim(0.4);
  stim.add_edge(chain.nodes[0], 2.0, true);
  Simulator sim(chain.netlist, ddm_);
  sim.apply_stimulus(stim);
  (void)sim.run();
  const ActivityReport report = compute_activity(sim);
  const std::string table = format_activity(report);
  EXPECT_NE(table.find("TOTAL"), std::string::npos);
  EXPECT_NE(table.find("toggles"), std::string::npos);
  EXPECT_NE(table.find("in"), std::string::npos);
  // max_rows truncation
  const std::string truncated = format_activity(report, 1);
  EXPECT_LT(truncated.size(), table.size());
}

}  // namespace
}  // namespace halotis
