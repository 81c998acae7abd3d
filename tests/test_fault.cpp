// Tests for the stuck-at fault model, the serial reference simulator
// (tests/serial_fault_oracle.hpp) and ATPG.
#include <gtest/gtest.h>

#include <array>

#include "src/circuits/generators.hpp"
#include "src/circuits/stimuli.hpp"
#include "src/fault/fault.hpp"
#include "tests/serial_fault_oracle.hpp"

namespace halotis {
namespace {

class FaultTest : public ::testing::Test {
 protected:
  Library lib_ = Library::default_u6();
  DdmDelayModel ddm_;
};

TEST_F(FaultTest, EnumerationCoversEverySignalTwice) {
  C17Circuit c17 = make_c17(lib_);
  const auto faults = enumerate_faults(c17.netlist);
  EXPECT_EQ(faults.size(), 2 * c17.netlist.num_signals());
}

TEST_F(FaultTest, ApplyFaultRewiresReceivers) {
  C17Circuit c17 = make_c17(lib_);
  const SignalId n11 = *c17.netlist.find_signal("N11");
  const FaultyMachine machine = apply_fault(c17.netlist, Fault{n11, true});
  machine.netlist.check();
  // Same gate count; the faulted line keeps its driver but loses receivers.
  EXPECT_EQ(machine.netlist.num_gates(), c17.netlist.num_gates());
  EXPECT_TRUE(machine.netlist.signal(machine.fault_net).is_primary_input);
  EXPECT_EQ(machine.netlist.signal(n11).fanout.size(), 0u);
  EXPECT_EQ(machine.netlist.signal(machine.fault_net).fanout.size(),
            c17.netlist.signal(n11).fanout.size());
}

TEST_F(FaultTest, FaultedPrimaryOutputObservedAsConstant) {
  ChainCircuit chain = make_chain(lib_, 1);
  const FaultyMachine machine =
      apply_fault(chain.netlist, Fault{chain.nodes.back(), true});
  // The PO list of the faulty machine now exposes the constant net.
  bool found = false;
  for (const SignalId po : machine.netlist.primary_outputs()) {
    if (po == machine.fault_net) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(FaultTest, ExhaustiveVectorsReachFullCoverageOnInverter) {
  ChainCircuit chain = make_chain(lib_, 1);
  Stimulus stim(0.4);
  stim.add_edge(chain.nodes[0], 5.0, true);
  stim.add_edge(chain.nodes[0], 10.0, false);

  const FaultSimResult result = run_fault_simulation(chain.netlist, stim, ddm_);
  // in/SA0, in/SA1, out/SA0, out/SA1 are all observable with both vectors.
  EXPECT_EQ(result.total, 4u);
  EXPECT_EQ(result.detected, 4u);
  EXPECT_DOUBLE_EQ(result.coverage(), 1.0);
}

TEST_F(FaultTest, UndetectedFaultsReported) {
  // A single constant-ish vector cannot detect every c17 fault.
  C17Circuit c17 = make_c17(lib_);
  Stimulus stim(0.4);
  stim.add_edge(c17.inputs[0], 5.0, true);  // only N1 ever toggles

  const FaultSimResult result = run_fault_simulation(c17.netlist, stim, ddm_);
  EXPECT_GT(result.detected, 0u);
  EXPECT_FALSE(result.undetected.empty());
  EXPECT_EQ(result.detected + result.undetected.size(), result.total);
  EXPECT_LT(result.coverage(), 1.0);
}

TEST_F(FaultTest, RicherSequenceImprovesCoverage) {
  C17Circuit c17 = make_c17(lib_);
  std::vector<SignalId> inputs(c17.inputs.begin(), c17.inputs.end());

  Stimulus weak(0.4);
  weak.apply_word(inputs, 0x1F, 5.0);

  Stimulus strong(0.4);
  const std::vector<std::uint64_t> words{0x00, 0x1F, 0x0A, 0x15, 0x07, 0x18};
  strong.apply_sequence(inputs, words, 5.0, 5.0);

  const FaultSimResult weak_result = run_fault_simulation(c17.netlist, weak, ddm_);
  const FaultSimResult strong_result = run_fault_simulation(c17.netlist, strong, ddm_);
  EXPECT_GT(strong_result.detected, weak_result.detected);
  EXPECT_GE(strong_result.coverage(), 0.9);
}

TEST_F(FaultTest, SampleTimesAlignToVectorApplicationInstants) {
  // word_stimulus applies word k at t = k * period; each vector's
  // settled response must be observed just before the next vector lands,
  // plus an initial-state observation and a final sample one period after
  // the last application.
  C17Circuit c17 = make_c17(lib_);
  const std::vector<std::uint64_t> words{0x00, 0x1F, 0x0A};
  const Stimulus stim = word_stimulus(c17.netlist.primary_inputs(), words, 4.0, 0.3);
  FaultSimOptions options;
  options.sample_period = 4.0;
  options.sample_epsilon = 0.1;
  const std::vector<TimeNs> times = fault_sample_times(stim, options);
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 3.9);   // initial word 0x00 settled
  EXPECT_DOUBLE_EQ(times[1], 7.9);   // 0x1F (applied at 4) settled
  EXPECT_DOUBLE_EQ(times[2], 11.9);  // 0x0A (applied at 8) + one period hold
}

TEST_F(FaultTest, LastVectorDetectionUnderExplicitSampleBudget) {
  // y = AND(a, b); a/SA0 is detectable only by the vector a=1, b=1 -- the
  // LAST vector below.  Regression: the old k*period sample grid spent its
  // first sample on the pre-vector initial state, so an explicit
  // num_samples budget of one-per-vector silently dropped the last vector
  // and reported this fault undetected.
  Netlist nl(lib_);
  const SignalId a = nl.add_primary_input("a");
  const SignalId b = nl.add_primary_input("b");
  const SignalId y = nl.add_signal("y");
  nl.mark_primary_output(y);
  const std::array<SignalId, 2> ins{a, b};
  (void)nl.add_gate("g", CellKind::kAnd2, ins, y);

  const std::vector<std::uint64_t> words{0b00, 0b01, 0b11};
  const Stimulus stim = word_stimulus(nl.primary_inputs(), words);
  FaultSimOptions options;
  options.num_samples = static_cast<int>(words.size()) - 1;  // one per applied vector

  const FaultSimResult result =
      run_fault_simulation(nl, stim, ddm_, {Fault{a, false}}, options);
  EXPECT_EQ(result.detected, 1u) << "a/SA0 is only visible at the last vector";
  EXPECT_TRUE(result.undetected.empty());
}

TEST_F(FaultTest, OffGridStimulusStillObservesEveryVector) {
  // A seq whose application instants sit on a 3 ns pitch must not be
  // sampled on the default 5 ns grid: every vector gets exactly one settled
  // observation regardless of the stimulus's own spacing.
  C17Circuit c17 = make_c17(lib_);
  std::vector<SignalId> inputs(c17.inputs.begin(), c17.inputs.end());
  Stimulus stim(0.4);
  const std::vector<std::uint64_t> words{0x00, 0x1F, 0x0A, 0x15};
  stim.apply_sequence(inputs, words, 3.0, 3.0);

  const FaultSimResult aligned = run_fault_simulation(c17.netlist, stim, ddm_);

  Stimulus reference(0.4);
  reference.apply_sequence(inputs, words, 5.0, 5.0);
  const FaultSimResult on_grid = run_fault_simulation(c17.netlist, reference, ddm_);
  // Same vectors, same settled responses: identical verdicts.
  EXPECT_EQ(aligned.detected, on_grid.detected);
  EXPECT_EQ(aligned.undetected.size(), on_grid.undetected.size());
}

TEST_F(FaultTest, FaultNames) {
  C17Circuit c17 = make_c17(lib_);
  EXPECT_EQ(fault_name(c17.netlist, Fault{c17.inputs[0], false}), "N1/SA0");
  EXPECT_EQ(fault_name(c17.netlist, Fault{c17.outputs[1], true}), "N23/SA1");
}

TEST_F(FaultTest, AtpgReachesHighCoverageOnC17) {
  C17Circuit c17 = make_c17(lib_);
  AtpgOptions options;
  options.max_candidates = 120;
  options.seed = 3;
  const TimingGraph graph = TimingGraph::build(c17.netlist, ddm_.timing_policy());
  const AtpgResult result = generate_tests(c17.netlist, ddm_, graph, options);
  EXPECT_GE(result.coverage(), 0.95);
  EXPECT_EQ(result.detected + result.undetected.size(), result.total_faults);
  // The compact set is much smaller than the candidate budget.
  EXPECT_LE(result.words.size(), 12u);
  EXPECT_GE(result.words.size(), 3u);

  // Replaying the generated set reproduces the claimed coverage.
  const Stimulus replay = word_stimulus(c17.netlist.primary_inputs(), result.words);
  const FaultSimResult check = run_fault_simulation(c17.netlist, replay, ddm_);
  EXPECT_EQ(check.detected, result.detected);
}

TEST_F(FaultTest, AtpgDeterministicPerSeed) {
  C17Circuit c17 = make_c17(lib_);
  AtpgOptions options;
  options.max_candidates = 60;
  options.seed = 11;
  const TimingGraph graph = TimingGraph::build(c17.netlist, ddm_.timing_policy());
  const AtpgResult a = generate_tests(c17.netlist, ddm_, graph, options);
  const AtpgResult b = generate_tests(c17.netlist, ddm_, graph, options);
  EXPECT_EQ(a.words, b.words);
  EXPECT_EQ(a.detected, b.detected);
}

TEST_F(FaultTest, VectorStimulusHelper) {
  C17Circuit c17 = make_c17(lib_);
  const std::vector<std::uint64_t> words{0x00, 0x1F, 0x0A};
  const Stimulus stim = word_stimulus(c17.netlist.primary_inputs(), words, 4.0, 0.3);
  // Word 2 (0x0A): N1=0 N2=1 N3=0 N6=1 N7=0 at t=8.
  EXPECT_FALSE(stim.initial_value(c17.inputs[0]));
  const auto edges_n2 = stim.edges(c17.inputs[1]);
  ASSERT_GE(edges_n2.size(), 1u);
  EXPECT_DOUBLE_EQ(edges_n2[0].time, 4.0);  // rose with 0x1F
  EXPECT_DOUBLE_EQ(stim.default_slew(), 0.3);
}

TEST_F(FaultTest, SpecificFaultSubsetOnly) {
  C17Circuit c17 = make_c17(lib_);
  Stimulus stim(0.4);
  std::vector<SignalId> inputs(c17.inputs.begin(), c17.inputs.end());
  const std::vector<std::uint64_t> words{0x00, 0x1F, 0x0A, 0x15};
  stim.apply_sequence(inputs, words, 5.0, 5.0);

  const std::vector<Fault> subset{Fault{c17.outputs[0], false},
                                  Fault{c17.outputs[0], true}};
  const FaultSimResult result = run_fault_simulation(c17.netlist, stim, ddm_, subset);
  EXPECT_EQ(result.total, 2u);
  EXPECT_EQ(result.detected, 2u);  // an output line fault is always visible
}

}  // namespace
}  // namespace halotis
