// Tests for the static timing analyzer, including the cross-check that no
// simulated transition ever arrives later than the static latest arrival.
#include <gtest/gtest.h>

#include <cmath>

#include "src/circuits/generators.hpp"
#include "src/core/simulator.hpp"
#include "src/sta/sta.hpp"

namespace halotis {
namespace {

class StaTest : public ::testing::Test {
 protected:
  Library lib_ = Library::default_u6();
};

TEST_F(StaTest, ChainDelayAccumulates) {
  ChainCircuit chain = make_chain(lib_, 4);
  const TimingGraph graph = TimingGraph::build(chain.netlist, TimingPolicy{});
  const StaticTimingAnalyzer sta(chain.netlist, graph, 0.5);
  const TimingReport report = sta.analyze();

  EXPECT_EQ(report.critical_output, chain.nodes.back());
  EXPECT_EQ(report.critical_path.size(), 4u);
  // Arrival grows strictly along the chain.
  TimeNs last = -1.0;
  for (std::size_t i = 1; i < chain.nodes.size(); ++i) {
    const ArrivalWindow& win = report.arrival[chain.nodes[i].value()];
    EXPECT_GT(win.latest, last);
    EXPECT_LE(win.earliest, win.latest);
    last = win.latest;
  }
  EXPECT_DOUBLE_EQ(report.critical_delay,
                   report.arrival[chain.nodes.back().value()].latest);
}

TEST_F(StaTest, DiamondEarliestAndLatestDiffer) {
  // a -> BUF -> y and a -> INV -> INV -> y2... build a diamond through a
  // NAND: one fast side, one slow side.
  Netlist nl(lib_);
  const SignalId a = nl.add_primary_input("a");
  const SignalId fast = nl.add_signal("fast");
  const SignalId s1 = nl.add_signal("s1");
  const SignalId s2 = nl.add_signal("s2");
  const SignalId y = nl.add_signal("y");
  nl.mark_primary_output(y);
  const std::array<SignalId, 1> in_a{a};
  (void)nl.add_gate("gf", CellKind::kInv, in_a, fast);
  (void)nl.add_gate("g1", CellKind::kBuf, in_a, s1);
  const std::array<SignalId, 1> in_s1{s1};
  (void)nl.add_gate("g2", CellKind::kBuf, in_s1, s2);
  const std::array<SignalId, 2> in_y{fast, s2};
  (void)nl.add_gate("gy", CellKind::kNand2, in_y, y);

  const TimingGraph graph = TimingGraph::build(nl, TimingPolicy{});
  const StaticTimingAnalyzer sta(nl, graph, 0.5);
  const TimingReport report = sta.analyze();
  const ArrivalWindow& win = report.arrival[y.value()];
  EXPECT_LT(win.earliest, win.latest);  // unbalanced paths
  // Critical path goes through the two-buffer side.
  ASSERT_EQ(report.critical_path.size(), 3u);
  EXPECT_EQ(report.critical_path[0].to, s1);
}

TEST_F(StaTest, PropagatesCausingEdgeSlewAndPinsCriticalDelay) {
  // Regression: the analyzer used to record max(tau_out) over BOTH output
  // edges (and every input pin) as a signal's slew instead of the slew of
  // the transition that actually sets the latest arrival, inflating every
  // downstream tp0 through the p_slew term.  Fold the chain by hand with
  // the causing-edge rule and require an exact match, plus the pinned
  // absolute number so any silent model change shows up.
  ChainCircuit chain = make_chain(lib_, 4);
  const TimingGraph graph = TimingGraph::build(chain.netlist, TimingPolicy{});
  const StaticTimingAnalyzer sta(chain.netlist, graph, 0.5);
  const TimingReport report = sta.analyze();

  TimeNs arrival = 0.0;
  TimeNs slew = 0.5;
  for (std::size_t i = 0; i + 1 < chain.nodes.size(); ++i) {
    const GateId gid = chain.netlist.signal(chain.nodes[i + 1]).driver;
    const Cell& cell = chain.netlist.cell_of(gid);
    const Farad cl = chain.netlist.load_of(chain.nodes[i + 1]);
    TimeNs best = -1.0;
    TimeNs best_slew = 0.0;
    for (const Edge e : {Edge::kRise, Edge::kFall}) {
      const TimeNs tp = cell.pin(0).edge(e).tp0(cl, slew);
      if (arrival + tp > best) {
        best = arrival + tp;
        best_slew = cell.drive.tau_out(e, cl);
      }
    }
    arrival = best;
    slew = best_slew;
    EXPECT_DOUBLE_EQ(report.arrival[chain.nodes[i + 1].value()].latest, arrival);
    EXPECT_DOUBLE_EQ(report.arrival[chain.nodes[i + 1].value()].slew, slew);
  }
  EXPECT_DOUBLE_EQ(report.critical_delay, arrival);
  // Pinned for Library::default_u6(), INV_X1 chain of 4, input slew 0.5 ns.
  EXPECT_NEAR(report.critical_delay, 0.388742, 1e-9);
}

TEST_F(StaTest, RejectsCyclicNetlists) {
  LatchCircuit latch = make_nand_latch(lib_);
  const TimingGraph graph = TimingGraph::build(latch.netlist, TimingPolicy{});
  EXPECT_THROW(StaticTimingAnalyzer sta(latch.netlist, graph), ContractViolation);
}

TEST_F(StaTest, FormatContainsPathStages) {
  MultiplierCircuit mult = make_multiplier(lib_, 2);
  const TimingGraph graph = TimingGraph::build(mult.netlist, TimingPolicy{});
  const StaticTimingAnalyzer sta(mult.netlist, graph, 0.5);
  const TimingReport report = sta.analyze();
  const std::string text = StaticTimingAnalyzer::format(report, mult.netlist);
  EXPECT_NE(text.find("critical delay"), std::string::npos);
  EXPECT_NE(text.find("->"), std::string::npos);
  EXPECT_GT(report.critical_path.size(), 2u);
}

TEST_F(StaTest, SimulatedArrivalsNeverExceedStaticLatest) {
  // Property: dynamic (simulated) transition times, measured relative to
  // the causing input vector, are bounded by STA's latest arrival, for both
  // delay models (the DDM only shrinks delays).
  MultiplierCircuit mult = make_multiplier(lib_, 3);
  const TimingGraph graph = TimingGraph::build(mult.netlist, TimingPolicy{});
  const StaticTimingAnalyzer sta(mult.netlist, graph, 0.5);
  const TimingReport report = sta.analyze();

  const TimeNs period = 8.0;
  Stimulus stim(0.5);
  std::vector<SignalId> inputs;
  for (SignalId s : mult.a) inputs.push_back(s);
  for (SignalId s : mult.b) inputs.push_back(s);
  const std::vector<std::uint64_t> words{0x00, 0x3F, 0x15, 0x2A, 0x3F};
  stim.apply_sequence(inputs, words, period, period);
  stim.set_initial(mult.tie0, false);

  for (const bool use_ddm : {true, false}) {
    const DdmDelayModel ddm;
    const CdmDelayModel cdm;
    const DelayModel& model = use_ddm ? static_cast<const DelayModel&>(ddm)
                                      : static_cast<const DelayModel&>(cdm);
    Simulator sim(mult.netlist, model);
    sim.apply_stimulus(stim);
    (void)sim.run();
    for (std::size_t s = 0; s < mult.netlist.num_signals(); ++s) {
      const SignalId sid{static_cast<SignalId::underlying_type>(s)};
      const TimeNs bound = report.arrival[sid.value()].latest;
      for (const Transition& tr : sim.history(sid)) {
        // Vector applied at k*period; transition must land within bound
        // (plus slack for ramp-midpoint conventions).
        const double phase = std::fmod(tr.t50(), period);
        EXPECT_LE(phase, bound + 1.0)
            << mult.netlist.signal(sid).name << " t=" << tr.t50()
            << (use_ddm ? " (DDM)" : " (CDM)");
      }
    }
  }
}

}  // namespace
}  // namespace halotis
