// Tests for the elaborated TimingGraph: arc elaboration against the macro
// models, bit-exact agreement between the graph's arcs and a per-call
// elaborate_arc(), the shared-graph simulator and STA paths, and SDF
// back-annotation.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "src/circuits/generators.hpp"
#include "src/core/delay_model.hpp"
#include "src/core/simulator.hpp"
#include "src/parsers/sdf.hpp"
#include "src/sta/sta.hpp"
#include "src/timing/timing_graph.hpp"

namespace halotis {
namespace {

class TimingGraphTest : public ::testing::Test {
 protected:
  Library lib_ = Library::default_u6();
};

/// Builds the graph the given model's policy elaborates.
TimingGraph graph_for(const Netlist& netlist, const DelayModel& model) {
  return TimingGraph::build(netlist, model.timing_policy());
}

TEST_F(TimingGraphTest, ElaborationFoldsLoadAgainstMacroModels) {
  C17Circuit c17 = make_c17(lib_);
  const TimingGraph graph = graph_for(c17.netlist, DdmDelayModel{});
  ASSERT_EQ(graph.num_gates(), c17.netlist.num_gates());

  std::size_t expected_arcs = 0;
  for (std::size_t g = 0; g < c17.netlist.num_gates(); ++g) {
    const GateId gid{static_cast<GateId::underlying_type>(g)};
    const Gate& gate = c17.netlist.gate(gid);
    const Cell& cell = c17.netlist.cell_of(gid);
    const Farad cl = c17.netlist.load_of(gate.output);
    EXPECT_EQ(graph.load(gid), cl);
    expected_arcs += 2 * gate.inputs.size();
    for (int pin = 0; pin < static_cast<int>(gate.inputs.size()); ++pin) {
      for (const Edge edge : {Edge::kRise, Edge::kFall}) {
        const TimingArc& arc = graph.arc(graph.arc_id(gid, pin, edge));
        const EdgeTiming& et = cell.pin(pin).edge(edge);
        EXPECT_EQ(arc.tp_base, et.p0 + et.p_load * cl);
        EXPECT_EQ(arc.p_slew, et.p_slew);
        EXPECT_EQ(arc.tau_out, cell.drive.tau_out(edge, cl));
        EXPECT_EQ(arc.deg_tau, std::max(et.deg_tau(cl, lib_.vdd()), kMinDegradationTau));
        EXPECT_EQ(arc.t0_slope, 0.5 - et.deg_c / lib_.vdd());
        EXPECT_EQ(arc.factor, 1.0);
        EXPECT_NE(arc.flags & kArcDegradation, 0);
      }
      // DDM threshold policy: the receiving pin's own VT.
      EXPECT_EQ(graph.threshold_fraction(gid, pin), cell.pin(pin).vt / lib_.vdd());
    }
  }
  EXPECT_EQ(graph.num_arcs(), expected_arcs);
}

TEST_F(TimingGraphTest, CdmPolicyUsesMidswingThresholdsAndNoDegradation) {
  C17Circuit c17 = make_c17(lib_);
  const TimingGraph graph = graph_for(c17.netlist, CdmDelayModel{});
  for (const TimingArc& arc : graph.arcs()) {
    EXPECT_EQ(arc.flags & kArcDegradation, 0);
  }
  EXPECT_EQ(graph.threshold_fraction(GateId{0}, 0), 0.5);
}

/// The agreement theorem: every arc of the graph must evaluate bit for bit
/// like the same arc elaborated on its own (the gate's cell, load and
/// variation factor), for every model flavour, over a grid of operating
/// points.
TEST_F(TimingGraphTest, ArcEvalBitIdenticalToModelCompute) {
  C17Circuit c17 = make_c17(lib_);
  const DdmDelayModel ddm;
  const CdmDelayModel cdm;
  const CdmDelayModel cdm_classical(CdmDelayModel::InertialWindow::kGateDelay);
  const CdmDelayModel cdm_fixed(CdmDelayModel::InertialWindow::kFixed, 0.35);

  // The last flavour is the DDM graph derated by vary(0.08, 42).
  struct Flavour {
    const DelayModel* model;
    double sigma;
  };
  const Flavour flavours[] = {
      {&ddm, 0.0}, {&cdm, 0.0}, {&cdm_classical, 0.0}, {&cdm_fixed, 0.0}, {&ddm, 0.08}};
  for (const Flavour& flavour : flavours) {
    const TimingPolicy& policy = flavour.model->timing_policy();
    TimingGraph graph = graph_for(c17.netlist, *flavour.model);
    if (flavour.sigma != 0.0) graph = graph.vary(flavour.sigma, 42);
    for (std::size_t g = 0; g < c17.netlist.num_gates(); ++g) {
      const GateId gid{static_cast<GateId::underlying_type>(g)};
      const Gate& gate = c17.netlist.gate(gid);
      const double factor =
          flavour.sigma != 0.0 ? variation_factor(42, flavour.sigma, gid) : 1.0;
      for (int pin = 0; pin < static_cast<int>(gate.inputs.size()); ++pin) {
        for (const Edge edge : {Edge::kRise, Edge::kFall}) {
          const TimingArc& arc = graph.arc(graph.arc_id(gid, pin, edge));
          TimingArc alone = elaborate_arc(c17.netlist.cell_of(gid), pin, edge,
                                          c17.netlist.load_of(gate.output), lib_.vdd(),
                                          policy);
          alone.factor = factor;
          for (const TimeNs tau_in : {0.2, 0.5, 1.3}) {
            for (const std::optional<TimeNs> prev :
                 {std::optional<TimeNs>{}, std::optional<TimeNs>{9.95},
                  std::optional<TimeNs>{8.0}}) {
              const TimeNs t_event = 10.0;
              const ArcDelay expected = eval_arc(alone, tau_in, t_event, prev.has_value(),
                                                 prev.value_or(0.0));
              const ArcDelay got = eval_arc(arc, tau_in, t_event, prev.has_value(),
                                            prev.value_or(0.0));
              EXPECT_EQ(got.tp, expected.tp);
              EXPECT_EQ(got.tau_out, expected.tau_out);
              EXPECT_EQ(got.filtered, expected.filtered);
              EXPECT_EQ(got.inertial_window, expected.inertial_window);
            }
          }
        }
      }
    }
  }
}

TEST_F(TimingGraphTest, ThresholdOutsideSwingRejected) {
  C17Circuit c17 = make_c17(lib_);
  lib_.mutable_cell(c17.netlist.gate(GateId{0}).cell).pins[0].vt = lib_.vdd() + 1.0;
  TimingPolicy policy;
  policy.threshold = TimingPolicy::Threshold::kPerPinVt;
  EXPECT_THROW((void)TimingGraph::build(c17.netlist, policy), ContractViolation);
}

TEST_F(TimingGraphTest, SharedGraphSimulationBitIdenticalToInternalBuild) {
  MultiplierCircuit mult = make_multiplier(lib_, 4);
  const DdmDelayModel ddm;
  const TimingGraph graph = graph_for(mult.netlist, ddm);

  Stimulus stim(0.5);
  std::vector<SignalId> inputs;
  for (SignalId s : mult.a) inputs.push_back(s);
  for (SignalId s : mult.b) inputs.push_back(s);
  const std::vector<std::uint64_t> words{0x00, 0xFF, 0x5A, 0xA5};
  stim.apply_sequence(inputs, words, 5.0, 5.0);
  stim.set_initial(mult.tie0, false);

  Simulator internal(mult.netlist, ddm);
  internal.apply_stimulus(stim);
  (void)internal.run();
  Simulator shared(mult.netlist, ddm, graph);
  shared.apply_stimulus(stim);
  (void)shared.run();

  EXPECT_EQ(internal.stats().events_processed, shared.stats().events_processed);
  for (std::size_t s = 0; s < mult.netlist.num_signals(); ++s) {
    const SignalId sid{static_cast<SignalId::underlying_type>(s)};
    const auto a = internal.history(sid);
    const auto b = shared.history(sid);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].t_start, b[i].t_start);
      EXPECT_EQ(a[i].tau, b[i].tau);
      EXPECT_EQ(a[i].edge, b[i].edge);
    }
  }
}

TEST_F(TimingGraphTest, StaReadsSdfAnnotatedArcs) {
  ChainCircuit chain = make_chain(lib_, 2);
  TimingGraph graph = TimingGraph::build(chain.netlist, TimingPolicy{});

  // Annotated delays are absolute (p_slew = 0), so the STA bound becomes
  // the plain sum of each stage's worst annotated edge.
  TimeNs expected = 0.0;
  for (std::size_t g = 0; g < chain.netlist.num_gates(); ++g) {
    const GateId gid{static_cast<GateId::underlying_type>(g)};
    const TimeNs rise = 0.4 + 0.1 * static_cast<double>(g);
    const TimeNs fall = 0.3 + 0.1 * static_cast<double>(g);
    graph.annotate_iopath(gid, 0, rise, fall);
    expected += std::max(rise, fall);
  }
  EXPECT_EQ(graph.annotated_arcs(), 2 * chain.netlist.num_gates());
  const StaticTimingAnalyzer after(chain.netlist, graph, 0.5);
  EXPECT_NEAR(after.analyze().critical_delay, expected, 1e-12);
}

TEST_F(TimingGraphTest, SdfRoundTripReproducesElaboratedArcs) {
  // write_sdf -> read_sdf -> apply_sdf: the annotated conventional delays
  // must match the library-elaborated arcs at the writer's slew to 1e-9.
  MultiplierCircuit mult = make_multiplier(lib_, 3);
  const TimeNs slew = 0.7;
  const SdfFile sdf = read_sdf(write_sdf(mult.netlist, slew));
  EXPECT_EQ(sdf.design, "halotis_top");
  EXPECT_EQ(sdf.timescale_ns, 1.0);

  TimingGraph annotated = TimingGraph::build(mult.netlist, TimingPolicy{});
  const TimingGraph reference = TimingGraph::build(mult.netlist, TimingPolicy{});
  EXPECT_EQ(apply_sdf(annotated, sdf), sdf.iopaths.size());
  ASSERT_EQ(annotated.num_arcs(), reference.num_arcs());
  EXPECT_EQ(annotated.annotated_arcs(), annotated.num_arcs());

  for (std::size_t a = 0; a < reference.num_arcs(); ++a) {
    const TimingArc& ref = reference.arc(static_cast<std::uint32_t>(a));
    const TimingArc& ann = annotated.arc(static_cast<std::uint32_t>(a));
    EXPECT_NEAR(ann.tp_base, ref.tp_base + ref.p_slew * slew, 1e-9);
    EXPECT_EQ(ann.p_slew, 0.0);  // absolute after annotation
    // Non-SDF-expressible parts keep their library elaboration.
    EXPECT_EQ(ann.tau_out, ref.tau_out);
    EXPECT_EQ(ann.deg_tau, ref.deg_tau);
  }
}

TEST_F(TimingGraphTest, RecharacterizedLibraryFlowsIntoRebuiltGraph) {
  // The characterization flow refits cell parameters in place; a graph
  // built afterwards must elaborate the new values (the graph is a
  // snapshot, not a live view).
  ChainCircuit chain = make_chain(lib_, 1);
  const TimingGraph before = TimingGraph::build(chain.netlist, TimingPolicy{});
  Library& lib = const_cast<Library&>(chain.netlist.library());
  lib.mutable_cell(chain.netlist.gate(GateId{0}).cell).pins[0].rise.p0 += 0.25;
  const TimingGraph after = TimingGraph::build(chain.netlist, TimingPolicy{});
  const std::uint32_t arc = before.arc_id(GateId{0}, 0, Edge::kRise);
  EXPECT_NEAR(after.arc(arc).tp_base, before.arc(arc).tp_base + 0.25, 1e-12);
}

TEST_F(TimingGraphTest, FormatArcsListsEveryArc) {
  C17Circuit c17 = make_c17(lib_);
  const TimingGraph graph = graph_for(c17.netlist, DdmDelayModel{});
  const std::string dump = graph.format_arcs();
  EXPECT_NE(dump.find("timing graph: 6 gates, 24 arcs, degradation"), std::string::npos);
  EXPECT_NE(dump.find("NAND2_X1"), std::string::npos);
  std::size_t rows = 0;
  for (std::size_t pos = 0; (pos = dump.find(" rise ", pos)) != std::string::npos; ++pos) {
    ++rows;
  }
  EXPECT_EQ(rows, graph.num_arcs() / 2);
}

TEST_F(TimingGraphTest, MismatchedGraphRejected) {
  C17Circuit a = make_c17(lib_);
  C17Circuit b = make_c17(lib_);
  const DdmDelayModel ddm;
  const TimingGraph graph = graph_for(a.netlist, ddm);
  EXPECT_THROW((Simulator{b.netlist, ddm, graph}), ContractViolation);
  EXPECT_THROW((StaticTimingAnalyzer{b.netlist, graph}), ContractViolation);
}

}  // namespace
}  // namespace halotis
