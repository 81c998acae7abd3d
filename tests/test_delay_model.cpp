// Tests for the DDM (paper eq. 1-3) and CDM delay models, evaluated the way
// the kernel evaluates them: one arc elaborated under the model's policy
// (elaborate_arc), then eval_arc.  Event thresholds are read from the
// elaborated TimingGraph.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "src/core/delay_model.hpp"
#include "src/netlist/netlist.hpp"
#include "src/timing/timing_graph.hpp"

namespace halotis {
namespace {

/// One gate evaluation: the switching pin, the load, the causing ramp and
/// the gate's previous surviving output transition.
struct DelayRequest {
  const Cell* cell = nullptr;
  int pin = 0;
  Edge out_edge = Edge::kRise;
  Farad cl = 0.0;
  TimeNs tau_in = 0.0;
  /// The triggering event: the causing ramp's threshold crossing at `pin`.
  TimeNs t_event = 0.0;
  /// Midswing instant of the previous output transition; empty when the
  /// output has been stable "forever".
  std::optional<TimeNs> t_prev_out50;
  Volt vdd = 5.0;
};

/// Exactly the kernel's arithmetic for one request.
ArcDelay compute(const DelayModel& model, const DelayRequest& r) {
  const TimingArc arc =
      elaborate_arc(*r.cell, r.pin, r.out_edge, r.cl, r.vdd, model.timing_policy());
  return eval_arc(arc, r.tau_in, r.t_event, r.t_prev_out50.has_value(),
                  r.t_prev_out50.value_or(0.0));
}

class DelayModelTest : public ::testing::Test {
 protected:
  DelayModelTest() : lib_(Library::default_u6()) {
    cell_ = &lib_.cell(lib_.find("INV_X1"));
  }

  DelayRequest base_request() const {
    DelayRequest r;
    r.cell = cell_;
    r.pin = 0;
    r.out_edge = Edge::kFall;
    r.cl = 0.05;
    r.tau_in = 0.4;
    r.t_event = 10.0;
    r.vdd = lib_.vdd();
    return r;
  }

  /// One gate of each named cell, all driven from primary inputs a and b,
  /// for reading per-pin event thresholds off an elaborated graph.
  struct ThresholdNetlist {
    Netlist netlist;
    std::vector<GateId> gates;
  };
  ThresholdNetlist threshold_netlist(const std::vector<const char*>& cells) const {
    ThresholdNetlist t{Netlist(lib_), {}};
    const SignalId a = t.netlist.add_primary_input("a");
    const SignalId b = t.netlist.add_primary_input("b");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const CellId cell = lib_.find(cells[i]);
      const std::vector<SignalId> ins =
          lib_.cell(cell).pins.size() == 1 ? std::vector<SignalId>{a}
                                           : std::vector<SignalId>{a, b};
      const SignalId out = t.netlist.add_signal("y" + std::to_string(i));
      t.gates.push_back(t.netlist.add_gate("g" + std::to_string(i), cell, ins, out));
      t.netlist.mark_primary_output(out);
    }
    return t;
  }

  Library lib_;
  const Cell* cell_ = nullptr;
};

TEST_F(DelayModelTest, DdmSettledGateGivesConventionalDelay) {
  const DdmDelayModel ddm;
  const DelayRequest r = base_request();  // no t_prev_out50
  const ArcDelay res = compute(ddm, r);
  const EdgeTiming& edge = cell_->pin(0).fall;
  EXPECT_DOUBLE_EQ(res.tp, edge.tp0(r.cl, r.tau_in));
  EXPECT_FALSE(res.filtered);
  EXPECT_DOUBLE_EQ(res.inertial_window, 0.0);
}

TEST_F(DelayModelTest, DdmDelayDegradesForCloseTransitions) {
  const DdmDelayModel ddm;
  DelayRequest r = base_request();
  const TimeNs tp_settled = compute(ddm, r).tp;

  r.t_prev_out50 = r.t_event - 0.3;  // output switched 0.3 ns ago
  const ArcDelay close = compute(ddm, r);
  EXPECT_FALSE(close.filtered);
  EXPECT_LT(close.tp, tp_settled);
  EXPECT_GT(close.tp, 0.0);
}

TEST_F(DelayModelTest, DdmDelayMonotonicInElapsedTime) {
  const DdmDelayModel ddm;
  DelayRequest r = base_request();
  TimeNs prev_tp = 0.0;
  for (double t_elapsed = 0.3; t_elapsed < 5.0; t_elapsed += 0.1) {
    r.t_prev_out50 = r.t_event - t_elapsed;
    const ArcDelay res = compute(ddm, r);
    ASSERT_FALSE(res.filtered) << "T=" << t_elapsed;
    EXPECT_GE(res.tp, prev_tp) << "T=" << t_elapsed;
    prev_tp = res.tp;
  }
}

TEST_F(DelayModelTest, DdmConvergesToConventionalDelay) {
  const DdmDelayModel ddm;
  DelayRequest r = base_request();
  const TimeNs tp_settled = compute(ddm, r).tp;
  r.t_prev_out50 = r.t_event - 1000.0;  // ages ago
  EXPECT_NEAR(compute(ddm, r).tp, tp_settled, 1e-9);
}

TEST_F(DelayModelTest, DdmFiltersWhenElapsedBelowT0) {
  const DdmDelayModel ddm;
  DelayRequest r = base_request();
  const EdgeTiming& edge = cell_->pin(0).fall;
  const TimeNs t0 = edge.deg_t0(r.tau_in, r.vdd);
  ASSERT_GT(t0, 0.0);
  r.t_prev_out50 = r.t_event - 0.5 * t0;  // T < T0
  const ArcDelay res = compute(ddm, r);
  EXPECT_TRUE(res.filtered);
}

TEST_F(DelayModelTest, DdmFilteredResultClearsTauOut) {
  // Regression: a filtered result used to carry the conventional tau_out
  // computed before the collapse decision; the engine's minimum-width
  // fallback pulse then inherited a full-size ramp.
  const DdmDelayModel ddm;
  DelayRequest r = base_request();
  const EdgeTiming& edge = cell_->pin(0).fall;
  r.t_prev_out50 = r.t_event - 0.5 * edge.deg_t0(r.tau_in, r.vdd);  // T < T0
  const ArcDelay res = compute(ddm, r);
  ASSERT_TRUE(res.filtered);
  EXPECT_DOUBLE_EQ(res.tp, 0.0);
  EXPECT_DOUBLE_EQ(res.tau_out, 0.0);
}

TEST_F(DelayModelTest, DdmClampsNonPositiveDegradationTau) {
  // Regression: eq. 2's linear (A, B) fit can cross zero at extreme loads;
  // the delay evaluation used to hard-abort via ensure(tau > 0).  The clamp
  // treats a non-positive tau as instant recovery: full conventional delay
  // past T0, collapse below it -- never a crash.
  const DdmDelayModel ddm;
  Cell extreme = *cell_;
  extreme.pins[0].fall.deg_a = -1.0;  // tau = (A + B*CL)/VDD < 0 at any load
  extreme.pins[0].fall.deg_b = 0.0;
  DelayRequest r = base_request();
  r.cell = &extreme;
  const EdgeTiming& edge = extreme.pins[0].fall;
  const TimeNs t0 = edge.deg_t0(r.tau_in, r.vdd);
  ASSERT_LE(edge.deg_tau(r.cl, r.vdd), 0.0);

  r.t_prev_out50 = r.t_event - (t0 + 0.2);  // T > T0: instant full recovery
  ArcDelay res;
  ASSERT_NO_THROW(res = compute(ddm, r));
  EXPECT_FALSE(res.filtered);
  EXPECT_NEAR(res.tp, edge.tp0(r.cl, r.tau_in), 1e-12);

  r.t_prev_out50 = r.t_event - 0.5 * t0;  // T <= T0 still collapses
  ASSERT_NO_THROW(res = compute(ddm, r));
  EXPECT_TRUE(res.filtered);
  EXPECT_DOUBLE_EQ(res.tau_out, 0.0);
}

TEST_F(DelayModelTest, DdmMatchesEquationOne) {
  const DdmDelayModel ddm;
  DelayRequest r = base_request();
  const EdgeTiming& edge = cell_->pin(0).fall;
  const TimeNs tp0 = edge.tp0(r.cl, r.tau_in);
  const TimeNs tau = edge.deg_tau(r.cl, r.vdd);
  const TimeNs t0 = edge.deg_t0(r.tau_in, r.vdd);

  const double t_elapsed = 0.7;
  r.t_prev_out50 = r.t_event - t_elapsed;
  const ArcDelay res = compute(ddm, r);
  const double expected = tp0 * (1.0 - std::exp(-(t_elapsed - t0) / tau));
  EXPECT_NEAR(res.tp, expected, 1e-12);
}

TEST_F(DelayModelTest, DegradationParametersFollowEq2AndEq3) {
  const EdgeTiming& edge = cell_->pin(0).fall;
  // eq. 2: tau * VDD = A + B * CL -> linear in CL.
  const double tau1 = edge.deg_tau(0.02, 5.0);
  const double tau2 = edge.deg_tau(0.04, 5.0);
  const double tau3 = edge.deg_tau(0.06, 5.0);
  EXPECT_NEAR(tau2 - tau1, tau3 - tau2, 1e-12);
  EXPECT_NEAR(tau1 * 5.0, edge.deg_a + edge.deg_b * 0.02, 1e-12);
  // eq. 3: T0 proportional to tau_in.
  EXPECT_NEAR(edge.deg_t0(0.8, 5.0), 2.0 * edge.deg_t0(0.4, 5.0), 1e-12);
  EXPECT_NEAR(edge.deg_t0(0.4, 5.0), (0.5 - edge.deg_c / 5.0) * 0.4, 1e-12);
}

TEST_F(DelayModelTest, DdmUsesPerPinThresholds) {
  const ThresholdNetlist t = threshold_netlist({"NAND2_X1", "INV_X1", "NOR2_X1"});
  const TimingGraph graph = TimingGraph::build(t.netlist, DdmDelayModel{}.timing_policy());
  const Cell& nand = lib_.cell(lib_.find("NAND2_X1"));
  const GateId g_nand = t.gates[0], g_inv = t.gates[1], g_nor = t.gates[2];
  EXPECT_DOUBLE_EQ(graph.threshold_fraction(g_nand, 0), nand.pin(0).vt / lib_.vdd());
  EXPECT_DOUBLE_EQ(graph.threshold_fraction(g_nand, 1), nand.pin(1).vt / lib_.vdd());
  // Receivers of different kinds on one net see different thresholds --
  // the effect the paper's Fig. 1 relies on.
  EXPECT_LT(graph.threshold_fraction(g_nand, 0), graph.threshold_fraction(g_inv, 0));
  EXPECT_LT(graph.threshold_fraction(g_inv, 0), graph.threshold_fraction(g_nor, 0));
}

TEST_F(DelayModelTest, CdmIgnoresInternalState) {
  const CdmDelayModel cdm;
  DelayRequest r = base_request();
  const TimeNs tp_settled = compute(cdm, r).tp;
  r.t_prev_out50 = r.t_event - 0.2;  // would degrade under DDM
  const ArcDelay res = compute(cdm, r);
  EXPECT_DOUBLE_EQ(res.tp, tp_settled);
  EXPECT_FALSE(res.filtered);
}

TEST_F(DelayModelTest, CdmDefaultsToTransportLikeWindow) {
  // Matches the paper's observed HALOTIS-CDM behaviour (Table 1: almost no
  // filtered events).
  const CdmDelayModel cdm;
  EXPECT_DOUBLE_EQ(compute(cdm, base_request()).inertial_window, 0.0);
}

TEST_F(DelayModelTest, CdmWindowModes) {
  const CdmDelayModel fixed(CdmDelayModel::InertialWindow::kFixed, 0.75);
  EXPECT_DOUBLE_EQ(compute(fixed, base_request()).inertial_window, 0.75);
  const CdmDelayModel classical(CdmDelayModel::InertialWindow::kGateDelay);
  const ArcDelay res = compute(classical, base_request());
  EXPECT_DOUBLE_EQ(res.inertial_window, res.tp);
}

TEST_F(DelayModelTest, CdmThresholdIsMidswingEverywhere) {
  const ThresholdNetlist t = threshold_netlist({"NAND2_X1", "INV_LVT"});
  const TimingGraph graph = TimingGraph::build(t.netlist, CdmDelayModel{}.timing_policy());
  EXPECT_DOUBLE_EQ(graph.threshold_fraction(t.gates[0], 0), 0.5);
  EXPECT_DOUBLE_EQ(graph.threshold_fraction(t.gates[0], 1), 0.5);
  EXPECT_DOUBLE_EQ(graph.threshold_fraction(t.gates[1], 0), 0.5);  // VT ignored
}

TEST_F(DelayModelTest, DelayGrowsWithLoadAndSlew) {
  const DdmDelayModel ddm;
  DelayRequest r = base_request();
  const TimeNs tp_base = compute(ddm, r).tp;
  r.cl *= 2.0;
  const TimeNs tp_heavier = compute(ddm, r).tp;
  EXPECT_GT(tp_heavier, tp_base);
  r = base_request();
  r.tau_in *= 2.0;
  EXPECT_GT(compute(ddm, r).tp, tp_base);
}

class DdmElapsedSweep : public ::testing::TestWithParam<double> {};

TEST_P(DdmElapsedSweep, DelayFractionMatchesExponentialLaw) {
  const Library lib = Library::default_u6();
  const Cell& cell = lib.cell(lib.find("NAND2_X1"));
  const DdmDelayModel ddm;
  DelayRequest r;
  r.cell = &cell;
  r.pin = 1;
  r.out_edge = Edge::kRise;
  r.cl = 0.06;
  r.tau_in = 0.5;
  r.t_event = 100.0;
  r.vdd = lib.vdd();
  const TimeNs tp0 = compute(ddm, r).tp;

  const double t_elapsed = GetParam();
  r.t_prev_out50 = r.t_event - t_elapsed;
  const ArcDelay res = compute(ddm, r);
  const EdgeTiming& edge = cell.pin(1).rise;
  const TimeNs tau = edge.deg_tau(r.cl, r.vdd);
  const TimeNs t0 = edge.deg_t0(r.tau_in, r.vdd);
  if (t_elapsed <= t0) {
    EXPECT_TRUE(res.filtered);
  } else {
    EXPECT_NEAR(res.tp / tp0, 1.0 - std::exp(-(t_elapsed - t0) / tau), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(ElapsedTimes, DdmElapsedSweep,
                         ::testing::Values(0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4));

}  // namespace
}  // namespace halotis
