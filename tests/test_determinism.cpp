// Kernel determinism and bounded-memory guarantees (PR 2 acceptance).
//
// The hot-path rework (flattened fanout table, pooled transition
// bookkeeping with reclamation, intrusive pending lists, 4-ary queue) must
// be invisible in the results: two runs of the same workload -- and the
// same run under any delay model -- produce bit-identical SimStats and
// bit-identical signal histories.  These tests lock that in, plus the
// memory bound: live transition bookkeeping stays far below the total
// transition count on long stimuli.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/rng.hpp"
#include "src/circuits/generators.hpp"
#include "src/circuits/stimuli.hpp"
#include "src/core/simulator.hpp"
#include "src/timing/timing_graph.hpp"

namespace halotis {
namespace {

Stimulus multiplier_words(const MultiplierCircuit& mult,
                          const std::vector<std::uint64_t>& words) {
  Stimulus stim(0.5);
  std::vector<SignalId> ab;
  for (SignalId s : mult.a) ab.push_back(s);
  for (SignalId s : mult.b) ab.push_back(s);
  stim.apply_sequence(ab, words, 5.0, 5.0);
  stim.set_initial(mult.tie0, false);
  return stim;
}

void expect_stats_identical(const SimStats& a, const SimStats& b) {
  EXPECT_EQ(a.events_created, b.events_created);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.events_cancelled, b.events_cancelled);
  EXPECT_EQ(a.events_suppressed, b.events_suppressed);
  EXPECT_EQ(a.events_resurrected, b.events_resurrected);
  EXPECT_EQ(a.pair_cancellations, b.pair_cancellations);
  EXPECT_EQ(a.annihilations, b.annihilations);
  EXPECT_EQ(a.ddm_collapses, b.ddm_collapses);
  EXPECT_EQ(a.cdm_inertial_filtered, b.cdm_inertial_filtered);
  EXPECT_EQ(a.clamped_pulses, b.clamped_pulses);
  EXPECT_EQ(a.transitions_created, b.transitions_created);
  EXPECT_EQ(a.transitions_annihilated, b.transitions_annihilated);
  EXPECT_EQ(a.gate_evaluations, b.gate_evaluations);
}

/// Bit-exact comparison of every signal's surviving history.
void expect_histories_identical(const Simulator& a, const Simulator& b) {
  ASSERT_EQ(a.netlist().num_signals(), b.netlist().num_signals());
  for (std::size_t s = 0; s < a.netlist().num_signals(); ++s) {
    const SignalId id{static_cast<SignalId::underlying_type>(s)};
    const auto ha = a.history(id);
    const auto hb = b.history(id);
    ASSERT_EQ(ha.size(), hb.size()) << "signal " << s;
    for (std::size_t i = 0; i < ha.size(); ++i) {
      EXPECT_EQ(ha[i].edge, hb[i].edge) << "signal " << s << " transition " << i;
      // Bit-identical, not approximately equal: the kernel promises the
      // exact same float arithmetic regardless of internal layout.
      EXPECT_EQ(ha[i].t_start, hb[i].t_start) << "signal " << s << " transition " << i;
      EXPECT_EQ(ha[i].tau, hb[i].tau) << "signal " << s << " transition " << i;
    }
  }
}

class DeterminismTest : public ::testing::Test {
 protected:
  Library lib_ = Library::default_u6();
};

TEST_F(DeterminismTest, RepeatedRunsIdenticalAcrossDelayModels) {
  const DdmDelayModel ddm;
  const CdmDelayModel cdm;
  const CdmDelayModel cdm_strict(CdmDelayModel::InertialWindow::kGateDelay);
  const auto words = random_word_stream(8, 24, 99);

  // The last flavour derates the DDM graph per instance (TimingGraph::vary).
  struct Flavour {
    const DelayModel* model;
    double sigma;
  };
  const Flavour flavours[] = {{&ddm, 0.0}, {&cdm, 0.0}, {&cdm_strict, 0.0}, {&ddm, 0.08}};
  for (const Flavour& flavour : flavours) {
    const DelayModel& model = *flavour.model;
    MultiplierCircuit mult = make_multiplier(lib_, 4);
    // Each simulator runs on its own elaboration.
    const auto elaborate = [&] {
      TimingGraph graph = TimingGraph::build(mult.netlist, model.timing_policy());
      if (flavour.sigma != 0.0) graph = graph.vary(flavour.sigma, 1234);
      return graph;
    };
    const TimingGraph first_graph = elaborate();
    Simulator first(mult.netlist, model, first_graph);
    first.apply_stimulus(multiplier_words(mult, words));
    const RunResult r1 = first.run();

    const TimingGraph second_graph = elaborate();
    Simulator second(mult.netlist, model, second_graph);
    second.apply_stimulus(multiplier_words(mult, words));
    const RunResult r2 = second.run();

    SCOPED_TRACE(std::string(model.name()) + " sigma " + std::to_string(flavour.sigma));
    EXPECT_EQ(r1.reason, r2.reason);
    EXPECT_EQ(r1.end_time, r2.end_time);
    expect_stats_identical(first.stats(), second.stats());
    expect_histories_identical(first, second);
  }
}

TEST_F(DeterminismTest, EventLimitInterruptionIsDeterministic) {
  const DdmDelayModel ddm;
  const auto words = random_word_stream(8, 16, 7);
  SimConfig config;
  config.max_events = 500;  // stop mid-storm

  MultiplierCircuit mult = make_multiplier(lib_, 4);
  Simulator first(mult.netlist, ddm, config);
  first.apply_stimulus(multiplier_words(mult, words));
  EXPECT_EQ(first.run().reason, StopReason::kEventLimit);

  Simulator second(mult.netlist, ddm, config);
  second.apply_stimulus(multiplier_words(mult, words));
  EXPECT_EQ(second.run().reason, StopReason::kEventLimit);

  expect_stats_identical(first.stats(), second.stats());
  expect_histories_identical(first, second);
}

/// The reclamation guarantee: suppressed-pair chains of settled
/// transitions are recycled, so live chains stay bounded by circuit
/// activity instead of growing with stimulus length.
TEST_F(DeterminismTest, TransitionBookkeepingIsReclaimed) {
  const DdmDelayModel ddm;
  const auto words = random_word_stream(8, 200, 3);  // long-running stimulus

  MultiplierCircuit mult = make_multiplier(lib_, 4);
  Simulator sim(mult.netlist, ddm);
  sim.apply_stimulus(multiplier_words(mult, words));
  (void)sim.run();

  const std::uint64_t created = sim.stats().transitions_created;
  ASSERT_GT(created, 1000u) << "workload too small to exercise reclamation";
  // The pair rule fired, so some transition held a chain.
  ASSERT_GT(sim.stats().pair_cancellations, 0u);
  EXPECT_GE(sim.peak_live_transitions(), 1u);
  // Peak live chains must be a small fraction of the transitions: without
  // reclamation every chain would stay live to the end of the run.
  EXPECT_LT(sim.peak_live_transitions() * 4, created);
  // After the run everything has fired or been cancelled; only transitions
  // that never fired an event may keep a chain, and those scale with
  // circuit size, not stimulus length.
  EXPECT_LT(sim.live_transitions() * 100, created);
}

/// Results must also be invariant to unrelated heap churn between runs
/// (catches accidental dependence on allocator layout / pointer values).
TEST_F(DeterminismTest, IndependentOfHeapLayout) {
  const DdmDelayModel ddm;
  const auto words = random_word_stream(8, 12, 11);

  MultiplierCircuit mult = make_multiplier(lib_, 4);
  Simulator first(mult.netlist, ddm);
  first.apply_stimulus(multiplier_words(mult, words));
  (void)first.run();

  // Churn the heap.
  std::vector<std::vector<int>> junk;
  for (int i = 0; i < 100; ++i) junk.emplace_back(997, i);
  junk.clear();

  Simulator second(mult.netlist, ddm);
  second.apply_stimulus(multiplier_words(mult, words));
  (void)second.run();

  expect_stats_identical(first.stats(), second.stats());
  expect_histories_identical(first, second);
}

/// The heap high-water mark: only each gate input's earliest pending event
/// is scheduled, so the peak is bounded by the gate-input count, and it is
/// a per-run figure -- equal across a fresh simulator, a reset() and a
/// rebind() away and back.
TEST_F(DeterminismTest, PeakScheduledEventsIsAPerRunBoundedFigure) {
  const DdmDelayModel ddm;
  MultiplierCircuit mult = make_multiplier(lib_, 8);
  std::vector<SignalId> inputs = mult.a;
  inputs.insert(inputs.end(), mult.b.begin(), mult.b.end());
  Stimulus stim = staggered_random_stimulus(inputs, 8, 2468);
  stim.set_initial(mult.tie0, false);
  MultiplierCircuit other = make_multiplier(lib_, 4);
  const Stimulus other_stim = multiplier_words(other, random_word_stream(8, 12, 5));
  const TimingGraph graph = TimingGraph::build(mult.netlist, ddm.timing_policy());
  const TimingGraph other_graph = TimingGraph::build(other.netlist, ddm.timing_policy());

  std::uint64_t gate_inputs = 0;
  for (std::uint32_t g = 0; g < mult.netlist.num_gates(); ++g) {
    gate_inputs += mult.netlist.gate(GateId{g}).inputs.size();
  }
  Simulator sim(mult.netlist, ddm, graph);
  EXPECT_EQ(sim.peak_scheduled_events(), 0u);
  sim.apply_stimulus(stim);
  (void)sim.run();
  const std::uint64_t fresh = sim.peak_scheduled_events();
  EXPECT_GT(fresh, 1u);
  EXPECT_LE(fresh, gate_inputs);

  sim.reset();
  EXPECT_EQ(sim.peak_scheduled_events(), 0u);
  sim.apply_stimulus(stim);
  (void)sim.run();
  EXPECT_EQ(sim.peak_scheduled_events(), fresh) << "reset() run";

  sim.rebind(other.netlist, ddm, other_graph);
  sim.apply_stimulus(other_stim);
  (void)sim.run();
  Simulator other_fresh(other.netlist, ddm, other_graph);
  other_fresh.apply_stimulus(other_stim);
  (void)other_fresh.run();
  EXPECT_EQ(sim.peak_scheduled_events(), other_fresh.peak_scheduled_events())
      << "rebind() onto another design";

  sim.rebind(mult.netlist, ddm, graph);
  sim.apply_stimulus(stim);
  (void)sim.run();
  EXPECT_EQ(sim.peak_scheduled_events(), fresh) << "rebind() back";
}

}  // namespace
}  // namespace halotis
