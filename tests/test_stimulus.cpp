// Tests for the Stimulus testbench description.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/check.hpp"
#include "src/circuits/generators.hpp"
#include "src/core/stimulus.hpp"
#include "src/parsers/stimulus_file.hpp"

namespace halotis {
namespace {

class StimulusTest : public ::testing::Test {
 protected:
  Library lib_ = Library::default_u6();
};

TEST_F(StimulusTest, InitialValuesDefaultLow) {
  ChainCircuit chain = make_chain(lib_, 1);
  Stimulus stim(0.4);
  EXPECT_FALSE(stim.initial_value(chain.nodes[0]));
  stim.set_initial(chain.nodes[0], true);
  EXPECT_TRUE(stim.initial_value(chain.nodes[0]));
}

TEST_F(StimulusTest, RedundantEdgesDropped) {
  ChainCircuit chain = make_chain(lib_, 1);
  const SignalId in = chain.nodes[0];
  Stimulus stim(0.4);
  stim.add_edge(in, 1.0, false);  // same as initial: dropped
  EXPECT_TRUE(stim.edges(in).empty());
  stim.add_edge(in, 2.0, true);
  stim.add_edge(in, 3.0, true);   // repeated value: dropped
  stim.add_edge(in, 4.0, false);
  ASSERT_EQ(stim.edges(in).size(), 2u);
  EXPECT_DOUBLE_EQ(stim.edges(in)[0].time, 2.0);
  EXPECT_DOUBLE_EQ(stim.edges(in)[1].time, 4.0);
}

TEST_F(StimulusTest, OrderViolationsRejected) {
  ChainCircuit chain = make_chain(lib_, 1);
  const SignalId in = chain.nodes[0];
  Stimulus stim(0.4);
  stim.add_edge(in, 5.0, true);
  EXPECT_THROW(stim.add_edge(in, 4.0, false), ContractViolation);
  EXPECT_THROW(stim.add_edge(in, -1.0, false), ContractViolation);
  EXPECT_THROW(stim.add_edge(in, 6.0, false, -0.5), ContractViolation);
  // set_initial after edges exist is a misuse.
  EXPECT_THROW(stim.set_initial(in, true), ContractViolation);
}

TEST_F(StimulusTest, ApplyWordSetsBitsLsbFirst) {
  MultiplierCircuit mult = make_multiplier(lib_, 2);
  Stimulus stim(0.4);
  const std::vector<SignalId> bits{mult.a[0], mult.a[1], mult.b[0], mult.b[1]};
  stim.apply_word(bits, 0b1010, 3.0);
  EXPECT_TRUE(stim.edges(mult.a[0]).empty());   // bit 0 = 0 (no change)
  ASSERT_EQ(stim.edges(mult.a[1]).size(), 1u);  // bit 1 = 1
  EXPECT_TRUE(stim.edges(mult.a[1])[0].value);
  EXPECT_TRUE(stim.edges(mult.b[0]).empty());
  ASSERT_EQ(stim.edges(mult.b[1]).size(), 1u);
}

TEST_F(StimulusTest, ApplySequenceFirstWordIsInitial) {
  MultiplierCircuit mult = make_multiplier(lib_, 2);
  Stimulus stim(0.4);
  const std::vector<SignalId> bits{mult.a[0], mult.a[1], mult.b[0], mult.b[1]};
  const std::vector<std::uint64_t> words{0b0011, 0b0101, 0b0011};
  stim.apply_sequence(bits, words, 5.0, 5.0);

  EXPECT_TRUE(stim.initial_value(mult.a[0]));
  EXPECT_TRUE(stim.initial_value(mult.a[1]));
  EXPECT_FALSE(stim.initial_value(mult.b[0]));
  // a1: 1 -> 0 at t=5, 0 -> 1 at t=10.
  ASSERT_EQ(stim.edges(mult.a[1]).size(), 2u);
  EXPECT_DOUBLE_EQ(stim.edges(mult.a[1])[0].time, 5.0);
  EXPECT_FALSE(stim.edges(mult.a[1])[0].value);
  EXPECT_DOUBLE_EQ(stim.edges(mult.a[1])[1].time, 10.0);
  // a0 stays 1 throughout.
  EXPECT_TRUE(stim.edges(mult.a[0]).empty());
  EXPECT_DOUBLE_EQ(stim.last_edge_time(), 10.0);
}

TEST_F(StimulusTest, WordsDriveAtMost64Inputs) {
  // A word has 64 bits.  A 65th input has no bit to read (the shift by 64
  // is undefined, and on x86 reads bit 0 again), so a `seq` line over 65
  // signals is rejected with its line number, and apply_word() /
  // apply_sequence() require at most 64 inputs for every caller.
  Netlist nl(lib_);
  std::vector<SignalId> inputs;
  for (int i = 0; i < 65; ++i) inputs.push_back(nl.add_primary_input("i" + std::to_string(i)));
  const auto seq_line = [](int signals) {
    std::string line = "seq";
    for (int i = signals - 1; i >= 0; --i) line += " i" + std::to_string(i);
    return line + " start 5 period 5 words 0x1 0x0\n";
  };
  try {
    (void)read_stimulus("slew 0.4\n" + seq_line(65), nl);
    ADD_FAILURE() << "a 65-signal seq line was accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("stimulus line 2"), std::string::npos) << e.what();
  }
  const std::vector<std::uint64_t> words{0x1, 0x0};
  Stimulus direct(0.4);
  EXPECT_THROW(direct.apply_sequence(inputs, words, 5.0, 5.0), ContractViolation);
  EXPECT_THROW(direct.apply_word(inputs, 0x1, 5.0), ContractViolation);

  // 64 signals still fit: the most significant one reads bit 63.
  const Stimulus stim = read_stimulus(seq_line(64), nl);
  EXPECT_TRUE(stim.initial_value(inputs[0]));
  EXPECT_FALSE(stim.initial_value(inputs[63]));
  ASSERT_EQ(stim.edges(inputs[0]).size(), 1u);
  EXPECT_TRUE(stim.edges(inputs[63]).empty());
}

TEST_F(StimulusTest, PerEdgeSlewOverride) {
  ChainCircuit chain = make_chain(lib_, 1);
  Stimulus stim(0.4);
  stim.add_edge(chain.nodes[0], 2.0, true);        // default slew
  stim.add_edge(chain.nodes[0], 6.0, false, 1.2);  // explicit
  EXPECT_DOUBLE_EQ(stim.edges(chain.nodes[0])[0].tau, 0.0);  // 0 = default
  EXPECT_DOUBLE_EQ(stim.edges(chain.nodes[0])[1].tau, 1.2);
  EXPECT_DOUBLE_EQ(stim.default_slew(), 0.4);
}

TEST_F(StimulusTest, LastEdgeTimeEmpty) {
  Stimulus stim(0.4);
  EXPECT_DOUBLE_EQ(stim.last_edge_time(), 0.0);
}

}  // namespace
}  // namespace halotis
