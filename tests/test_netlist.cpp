// Tests for the Netlist graph: construction, DRC, analysis, steady state.
#include <gtest/gtest.h>

#include <array>

#include "src/netlist/netlist.hpp"

namespace halotis {
namespace {

class NetlistTest : public ::testing::Test {
 protected:
  Library lib_ = Library::default_u6();
};

TEST_F(NetlistTest, BuildInverterChain) {
  Netlist nl(lib_);
  const SignalId in = nl.add_primary_input("in");
  const SignalId mid = nl.add_signal("mid");
  const SignalId out = nl.add_signal("out");
  nl.mark_primary_output(out);
  const std::array<SignalId, 1> i1{in};
  const std::array<SignalId, 1> i2{mid};
  (void)nl.add_gate("g1", CellKind::kInv, i1, mid);
  (void)nl.add_gate("g2", CellKind::kInv, i2, out);

  EXPECT_EQ(nl.num_gates(), 2u);
  EXPECT_EQ(nl.num_signals(), 3u);
  EXPECT_EQ(nl.primary_inputs().size(), 1u);
  EXPECT_EQ(nl.primary_outputs().size(), 1u);
  EXPECT_EQ(nl.depth(), 2);
  EXPECT_FALSE(nl.has_combinational_cycles());
  EXPECT_NO_THROW(nl.check());

  EXPECT_TRUE(nl.find_signal("mid").has_value());
  EXPECT_FALSE(nl.find_signal("nope").has_value());
  EXPECT_TRUE(nl.find_gate("g1").has_value());

  const Signal& s_in = nl.signal(in);
  ASSERT_EQ(s_in.fanout.size(), 1u);
  EXPECT_EQ(s_in.fanout[0].pin, 0);
}

TEST_F(NetlistTest, DuplicateNamesRejected) {
  Netlist nl(lib_);
  (void)nl.add_primary_input("a");
  EXPECT_THROW((void)nl.add_signal("a"), ContractViolation);
  EXPECT_THROW((void)nl.add_signal(""), ContractViolation);
}

TEST_F(NetlistTest, MultipleDriversRejected) {
  Netlist nl(lib_);
  const SignalId a = nl.add_primary_input("a");
  const SignalId y = nl.add_signal("y");
  const std::array<SignalId, 1> ins{a};
  (void)nl.add_gate("g1", CellKind::kInv, ins, y);
  EXPECT_THROW((void)nl.add_gate("g2", CellKind::kInv, ins, y), ContractViolation);
}

TEST_F(NetlistTest, DrivingPrimaryInputRejected) {
  Netlist nl(lib_);
  const SignalId a = nl.add_primary_input("a");
  const SignalId b = nl.add_primary_input("b");
  const std::array<SignalId, 1> ins{a};
  EXPECT_THROW((void)nl.add_gate("g", CellKind::kInv, ins, b), ContractViolation);
}

TEST_F(NetlistTest, WrongArityRejected) {
  Netlist nl(lib_);
  const SignalId a = nl.add_primary_input("a");
  const SignalId y = nl.add_signal("y");
  const std::array<SignalId, 1> ins{a};
  EXPECT_THROW((void)nl.add_gate("g", CellKind::kNand2, ins, y), ContractViolation);
}

TEST_F(NetlistTest, CheckFindsUndrivenSignal) {
  Netlist nl(lib_);
  const SignalId a = nl.add_primary_input("a");
  const SignalId floating = nl.add_signal("floating");
  const SignalId y = nl.add_signal("y");
  const std::array<SignalId, 2> ins{a, floating};
  (void)nl.add_gate("g", CellKind::kNand2, ins, y);
  EXPECT_THROW(nl.check(), ContractViolation);
}

TEST_F(NetlistTest, LoadAccumulatesFanoutAndWire) {
  Netlist nl(lib_);
  const SignalId a = nl.add_primary_input("a");
  const SignalId y1 = nl.add_signal("y1");
  const SignalId y2 = nl.add_signal("y2");
  const std::array<SignalId, 1> ins{a};
  (void)nl.add_gate("g1", CellKind::kInv, ins, y1);
  (void)nl.add_gate("g2", CellKind::kInv, ins, y2);

  const Cell& inv = lib_.cell(lib_.by_kind(CellKind::kInv));
  EXPECT_NEAR(nl.load_of(a), 2.0 * inv.pin(0).cin, 1e-12);

  nl.set_wire_cap(a, 0.05);
  EXPECT_NEAR(nl.load_of(a), 2.0 * inv.pin(0).cin + 0.05, 1e-12);

  // Driven signal additionally sees the driver's output parasitic.
  EXPECT_NEAR(nl.load_of(y1), inv.cout_self, 1e-12);
}

TEST_F(NetlistTest, TopologicalOrderRespectsDependencies) {
  Netlist nl(lib_);
  const SignalId a = nl.add_primary_input("a");
  const SignalId b = nl.add_primary_input("b");
  const SignalId x = nl.add_signal("x");
  const SignalId y = nl.add_signal("y");
  const std::array<SignalId, 2> gx_in{a, b};
  const GateId gx = nl.add_gate("gx", CellKind::kNand2, gx_in, x);
  const std::array<SignalId, 2> gy_in{x, b};
  const GateId gy = nl.add_gate("gy", CellKind::kNand2, gy_in, y);

  const auto order = nl.topological_order();
  ASSERT_EQ(order.size(), 2u);
  const auto pos = [&](GateId g) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] == g) return i;
    }
    return order.size();
  };
  EXPECT_LT(pos(gx), pos(gy));
}

TEST_F(NetlistTest, SteadyStateAcyclic) {
  Netlist nl(lib_);
  const SignalId a = nl.add_primary_input("a");
  const SignalId b = nl.add_primary_input("b");
  const SignalId n = nl.add_signal("n");
  const SignalId y = nl.add_signal("y");
  const std::array<SignalId, 2> nand_in{a, b};
  (void)nl.add_gate("g1", CellKind::kNand2, nand_in, n);
  const std::array<SignalId, 1> inv_in{n};
  (void)nl.add_gate("g2", CellKind::kInv, inv_in, y);

  const std::array<bool, 2> pis{true, true};
  const auto values = nl.steady_state(std::span<const bool>(pis.data(), 2));
  EXPECT_FALSE(values[n.value()]);  // NAND(1,1) = 0
  EXPECT_TRUE(values[y.value()]);   // INV(0) = 1
}

TEST_F(NetlistTest, SteadyStateNandLatchSettles) {
  // Cross-coupled NAND latch: set=0, reset=1 forces q=1, qn=0.
  Netlist nl(lib_);
  const SignalId set_n = nl.add_primary_input("set_n");
  const SignalId reset_n = nl.add_primary_input("reset_n");
  const SignalId q = nl.add_signal("q");
  const SignalId qn = nl.add_signal("qn");
  const std::array<SignalId, 2> g1_in{set_n, qn};
  (void)nl.add_gate("g1", CellKind::kNand2, g1_in, q);
  const std::array<SignalId, 2> g2_in{reset_n, q};
  (void)nl.add_gate("g2", CellKind::kNand2, g2_in, qn);

  EXPECT_TRUE(nl.has_combinational_cycles());

  const std::array<bool, 2> pis{false, true};  // assert set
  std::vector<SignalId> unsettled;
  const auto values = nl.steady_state(std::span<const bool>(pis.data(), 2), &unsettled);
  EXPECT_TRUE(unsettled.empty());
  EXPECT_TRUE(values[q.value()]);
  EXPECT_FALSE(values[qn.value()]);
}

TEST_F(NetlistTest, SteadyStateWrongPiCountThrows) {
  Netlist nl(lib_);
  (void)nl.add_primary_input("a");
  const std::array<bool, 2> pis{true, false};
  EXPECT_THROW((void)nl.steady_state(std::span<const bool>(pis.data(), 2)),
               ContractViolation);
}

TEST_F(NetlistTest, DepthOfDiamond) {
  Netlist nl(lib_);
  const SignalId a = nl.add_primary_input("a");
  const SignalId l = nl.add_signal("l");
  const SignalId r = nl.add_signal("r");
  const SignalId y = nl.add_signal("y");
  const std::array<SignalId, 1> in_a{a};
  (void)nl.add_gate("gl", CellKind::kInv, in_a, l);
  (void)nl.add_gate("gr", CellKind::kBuf, in_a, r);
  const std::array<SignalId, 2> in_y{l, r};
  (void)nl.add_gate("gy", CellKind::kNand2, in_y, y);
  EXPECT_EQ(nl.depth(), 2);
}

/// A latch, a gate downstream of it (created first, so ids and
/// dependencies disagree) and one acyclic gate.  The order, depth and
/// cycle flag are pinned at the values the separate order/depth/cycle
/// walks gave before levelize() merged them: depth bounds the settle
/// sweeps on cyclic designs, so it must not drift.
TEST_F(NetlistTest, LevelizeOnCyclicDesignIsPinned) {
  Netlist nl(lib_);
  const SignalId s = nl.add_primary_input("s");
  const SignalId r = nl.add_primary_input("r");
  const SignalId q = nl.add_signal("q");
  const SignalId qn = nl.add_signal("qn");
  const SignalId y1 = nl.add_signal("y1");
  const SignalId y2 = nl.add_signal("y2");
  const SignalId z = nl.add_signal("z");
  (void)nl.add_gate("g0", CellKind::kInv, std::array<SignalId, 1>{y1}, y2);
  (void)nl.add_gate("g1", CellKind::kNand2, std::array<SignalId, 2>{s, qn}, q);
  (void)nl.add_gate("g2", CellKind::kNand2, std::array<SignalId, 2>{r, q}, qn);
  (void)nl.add_gate("g3", CellKind::kBuf, std::array<SignalId, 1>{q}, y1);
  (void)nl.add_gate("g4", CellKind::kInv, std::array<SignalId, 1>{s}, z);

  const Netlist::Levelization levels = nl.levelize();
  const std::vector<GateId> expected{GateId{4}, GateId{0}, GateId{1}, GateId{2}, GateId{3}};
  EXPECT_EQ(levels.order, expected);  // acyclic part first, then the rest in id order
  EXPECT_EQ(levels.depth, 2);
  EXPECT_TRUE(levels.has_cycles);
  EXPECT_EQ(nl.topological_order(), levels.order);
  EXPECT_EQ(nl.depth(), levels.depth);
  EXPECT_TRUE(nl.has_combinational_cycles());
}

}  // namespace
}  // namespace halotis
