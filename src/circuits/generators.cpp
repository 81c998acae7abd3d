#include "src/circuits/generators.hpp"

#include <array>
#include <string>

#include "src/base/check.hpp"
#include "src/base/rng.hpp"

namespace halotis {

namespace {

std::string idx_name(std::string_view base, int i) {
  return std::string(base) + std::to_string(i);
}

}  // namespace

ChainCircuit make_chain(const Library& lib, int length, std::string_view cell_name) {
  require(length >= 1, "make_chain(): length must be >= 1");
  ChainCircuit c(lib);
  const CellId cell = lib.find(cell_name);
  c.nodes.push_back(c.netlist.add_primary_input("in"));
  for (int i = 0; i < length; ++i) {
    const SignalId out = c.netlist.add_signal(idx_name("n", i + 1));
    const std::array<SignalId, 1> ins{c.nodes.back()};
    (void)c.netlist.add_gate(idx_name("g", i + 1), cell, ins, out);
    c.nodes.push_back(out);
  }
  c.netlist.mark_primary_output(c.nodes.back());
  return c;
}

Fig1Circuit make_fig1(const Library& lib) {
  Fig1Circuit c(lib);
  Netlist& nl = c.netlist;
  c.in = nl.add_primary_input("in");

  // Driver chain g0: three nominal inverters -> out0.  The shared net
  // carries interconnect capacitance (as the paper's waveforms show: out0
  // has visibly slow edges), which is what lets a degraded runt pulse sit
  // between the two receiver thresholds.
  const CellId inv = lib.find("INV_X1");
  SignalId node = c.in;
  for (int i = 0; i < 3; ++i) {
    const SignalId next = i == 2 ? nl.add_signal("out0") : nl.add_signal(idx_name("d", i));
    const std::array<SignalId, 1> ins{node};
    (void)nl.add_gate(idx_name("g0_", i), inv, ins, next);
    node = next;
  }
  c.out0 = node;
  nl.set_wire_cap(c.out0, 0.25);
  nl.mark_primary_output(c.out0);

  // Chain g1: low-threshold first inverter.
  c.out1 = nl.add_signal("out1");
  c.out1c = nl.add_signal("out1c");
  {
    const std::array<SignalId, 1> ins{c.out0};
    (void)nl.add_gate("g1_0", lib.find("INV_LVT"), ins, c.out1);
    const std::array<SignalId, 1> ins2{c.out1};
    (void)nl.add_gate("g1_1", inv, ins2, c.out1c);
  }
  nl.mark_primary_output(c.out1);
  nl.mark_primary_output(c.out1c);

  // Chain g2: high-threshold first inverter.
  c.out2 = nl.add_signal("out2");
  c.out2c = nl.add_signal("out2c");
  {
    const std::array<SignalId, 1> ins{c.out0};
    (void)nl.add_gate("g2_0", lib.find("INV_HVT"), ins, c.out2);
    const std::array<SignalId, 1> ins2{c.out2};
    (void)nl.add_gate("g2_1", inv, ins2, c.out2c);
  }
  nl.mark_primary_output(c.out2);
  nl.mark_primary_output(c.out2c);
  return c;
}

FullAdderPorts add_full_adder(Netlist& nl, std::string_view prefix, SignalId a, SignalId b,
                              SignalId cin) {
  const std::string p(prefix);
  const SignalId axb = nl.add_signal(p + "_axb");
  const SignalId sum = nl.add_signal(p + "_s");
  const SignalId ab = nl.add_signal(p + "_ab");
  const SignalId cx = nl.add_signal(p + "_cx");
  const SignalId cout = nl.add_signal(p + "_co");

  const std::array<SignalId, 2> in_xor1{a, b};
  (void)nl.add_gate(p + "_x1", CellKind::kXor2, in_xor1, axb);
  const std::array<SignalId, 2> in_xor2{axb, cin};
  (void)nl.add_gate(p + "_x2", CellKind::kXor2, in_xor2, sum);
  const std::array<SignalId, 2> in_and1{a, b};
  (void)nl.add_gate(p + "_a1", CellKind::kAnd2, in_and1, ab);
  const std::array<SignalId, 2> in_and2{axb, cin};
  (void)nl.add_gate(p + "_a2", CellKind::kAnd2, in_and2, cx);
  const std::array<SignalId, 2> in_or{ab, cx};
  (void)nl.add_gate(p + "_o1", CellKind::kOr2, in_or, cout);
  return FullAdderPorts{sum, cout};
}

AdderCircuit make_ripple_adder(const Library& lib, int bits) {
  require(bits >= 1, "make_ripple_adder(): bits must be >= 1");
  AdderCircuit c(lib);
  Netlist& nl = c.netlist;
  for (int i = 0; i < bits; ++i) c.a.push_back(nl.add_primary_input(idx_name("a", i)));
  for (int i = 0; i < bits; ++i) c.b.push_back(nl.add_primary_input(idx_name("b", i)));
  c.tie0 = nl.add_primary_input("tie0");

  SignalId carry = c.tie0;
  for (int i = 0; i < bits; ++i) {
    const FullAdderPorts fa = add_full_adder(nl, idx_name("fa", i), c.a[static_cast<std::size_t>(i)],
                                             c.b[static_cast<std::size_t>(i)], carry);
    c.sum.push_back(fa.sum);
    nl.mark_primary_output(fa.sum);
    carry = fa.cout;
  }
  c.sum.push_back(carry);
  nl.mark_primary_output(carry);
  return c;
}

MultiplierCircuit make_multiplier(const Library& lib, int bits) {
  require(bits >= 2, "make_multiplier(): bits must be >= 2");
  const int n = bits;
  MultiplierCircuit c(lib);
  Netlist& nl = c.netlist;

  for (int i = 0; i < n; ++i) c.a.push_back(nl.add_primary_input(idx_name("a", i)));
  for (int j = 0; j < n; ++j) c.b.push_back(nl.add_primary_input(idx_name("b", j)));
  c.tie0 = nl.add_primary_input("tie0");

  // Partial products pp[j][i] = a_i * b_j.
  std::vector<std::vector<SignalId>> pp(static_cast<std::size_t>(n),
                                        std::vector<SignalId>(static_cast<std::size_t>(n)));
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      const SignalId out = nl.add_signal("pp" + std::to_string(j) + "_" + std::to_string(i));
      const std::array<SignalId, 2> ins{c.a[static_cast<std::size_t>(i)],
                                        c.b[static_cast<std::size_t>(j)]};
      (void)nl.add_gate("and" + std::to_string(j) + "_" + std::to_string(i),
                        CellKind::kAnd2, ins, out);
      pp[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = out;
    }
  }

  // Carry-save rows (paper Fig. 5): row r adds pp[r][*] to the shifted sums
  // of row r-1; '0' ties appear exactly where the figure draws them.
  std::vector<SignalId> prev_sum(static_cast<std::size_t>(n));  // row r-1 sums, index i
  std::vector<SignalId> prev_carry(static_cast<std::size_t>(n), c.tie0);
  for (int i = 0; i < n; ++i) prev_sum[static_cast<std::size_t>(i)] = pp[0][static_cast<std::size_t>(i)];

  c.s.assign(static_cast<std::size_t>(2 * n), SignalId{});
  c.s[0] = prev_sum[0];  // s0 = pp[0][0]

  for (int r = 1; r < n; ++r) {
    std::vector<SignalId> row_sum(static_cast<std::size_t>(n));
    std::vector<SignalId> row_carry(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const SignalId in_a = pp[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)];
      const SignalId in_b = (i + 1 < n) ? prev_sum[static_cast<std::size_t>(i + 1)] : c.tie0;
      const SignalId in_c = prev_carry[static_cast<std::size_t>(i)];
      const FullAdderPorts fa = add_full_adder(
          nl, "fa" + std::to_string(r) + "_" + std::to_string(i), in_a, in_b, in_c);
      row_sum[static_cast<std::size_t>(i)] = fa.sum;
      row_carry[static_cast<std::size_t>(i)] = fa.cout;
    }
    c.s[static_cast<std::size_t>(r)] = row_sum[0];
    prev_sum = std::move(row_sum);
    prev_carry = std::move(row_carry);
  }

  // Final ripple row merges the saved carries into s[n..2n-1].
  SignalId ripple = c.tie0;
  for (int i = 0; i < n; ++i) {
    const SignalId in_a = (i + 1 < n) ? prev_sum[static_cast<std::size_t>(i + 1)] : c.tie0;
    const SignalId in_b = prev_carry[static_cast<std::size_t>(i)];
    const FullAdderPorts fa =
        add_full_adder(nl, "far_" + std::to_string(i), in_a, in_b, ripple);
    c.s[static_cast<std::size_t>(n + i)] = fa.sum;
    ripple = fa.cout;
  }

  for (int k = 0; k < 2 * n; ++k) nl.mark_primary_output(c.s[static_cast<std::size_t>(k)]);
  return c;
}

ParityCircuit make_parity_tree(const Library& lib, int leaves) {
  require(leaves >= 2, "make_parity_tree(): needs at least two leaves");
  ParityCircuit c(lib);
  Netlist& nl = c.netlist;
  std::vector<SignalId> level;
  for (int i = 0; i < leaves; ++i) {
    c.inputs.push_back(nl.add_primary_input(idx_name("x", i)));
    level.push_back(c.inputs.back());
  }
  int counter = 0;
  while (level.size() > 1) {
    std::vector<SignalId> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      const SignalId out = nl.add_signal(idx_name("p", counter));
      const std::array<SignalId, 2> ins{level[i], level[i + 1]};
      (void)nl.add_gate(idx_name("xor", counter), CellKind::kXor2, ins, out);
      ++counter;
      next.push_back(out);
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  c.parity = level.front();
  nl.mark_primary_output(c.parity);
  return c;
}

C17Circuit make_c17(const Library& lib) {
  C17Circuit c(lib);
  Netlist& nl = c.netlist;
  const SignalId n1 = nl.add_primary_input("N1");
  const SignalId n2 = nl.add_primary_input("N2");
  const SignalId n3 = nl.add_primary_input("N3");
  const SignalId n6 = nl.add_primary_input("N6");
  const SignalId n7 = nl.add_primary_input("N7");
  c.inputs = {n1, n2, n3, n6, n7};

  const SignalId n10 = nl.add_signal("N10");
  const SignalId n11 = nl.add_signal("N11");
  const SignalId n16 = nl.add_signal("N16");
  const SignalId n19 = nl.add_signal("N19");
  const SignalId n22 = nl.add_signal("N22");
  const SignalId n23 = nl.add_signal("N23");

  const auto nand2 = [&](const char* name, SignalId x, SignalId y, SignalId out) {
    const std::array<SignalId, 2> ins{x, y};
    (void)nl.add_gate(name, CellKind::kNand2, ins, out);
  };
  nand2("G10", n1, n3, n10);
  nand2("G11", n3, n6, n11);
  nand2("G16", n2, n11, n16);
  nand2("G19", n11, n7, n19);
  nand2("G22", n10, n16, n22);
  nand2("G23", n16, n19, n23);

  nl.mark_primary_output(n22);
  nl.mark_primary_output(n23);
  c.outputs = {n22, n23};
  return c;
}

RandomCircuit make_random_circuit(const Library& lib, int num_inputs, int num_gates,
                                  std::uint64_t seed) {
  require(num_inputs >= 2, "make_random_circuit(): needs >= 2 inputs");
  require(num_gates >= 1, "make_random_circuit(): needs >= 1 gate");
  RandomCircuit c(lib);
  Netlist& nl = c.netlist;
  SplitMix64 rng(seed);

  std::vector<SignalId> pool;
  for (int i = 0; i < num_inputs; ++i) {
    c.inputs.push_back(nl.add_primary_input(idx_name("in", i)));
    pool.push_back(c.inputs.back());
  }

  static constexpr CellKind kKinds[] = {
      CellKind::kInv,  CellKind::kNand2, CellKind::kNor2, CellKind::kAnd2,
      CellKind::kOr2,  CellKind::kXor2,  CellKind::kNand3, CellKind::kXnor2,
      CellKind::kAoi21};
  std::vector<int> fanout_count;
  fanout_count.assign(pool.size(), 0);

  for (int g = 0; g < num_gates; ++g) {
    const CellKind kind = kKinds[rng.next_below(std::size(kKinds))];
    const int arity = halotis::num_inputs(kind);  // (param `num_inputs` shadows)
    std::vector<SignalId> ins;
    for (int k = 0; k < arity; ++k) {
      // Bias toward recent signals for depth, while keeping reconvergence.
      const std::size_t span = std::max<std::size_t>(4, pool.size() / 2);
      const std::size_t lo = pool.size() > span ? pool.size() - span : 0;
      std::size_t pick = lo + rng.next_below(pool.size() - lo);
      if (rng.next_bool(0.25)) pick = rng.next_below(pool.size());
      ins.push_back(pool[pick]);
      fanout_count[pick] += 1;
    }
    const SignalId out = nl.add_signal(idx_name("w", g));
    (void)nl.add_gate(idx_name("rg", g), kind, ins, out);
    pool.push_back(out);
    fanout_count.push_back(0);
  }

  for (std::size_t i = static_cast<std::size_t>(num_inputs); i < pool.size(); ++i) {
    if (fanout_count[i] == 0) {
      nl.mark_primary_output(pool[i]);
      c.outputs.push_back(pool[i]);
    }
  }
  ensure(!c.outputs.empty(), "make_random_circuit(): no sink signals");
  return c;
}

LayeredCircuit make_layered_circuit(const Library& lib, int width, int depth,
                                    std::uint64_t seed) {
  require(width >= 4, "make_layered_circuit(): width must be >= 4");
  require(depth >= 1, "make_layered_circuit(): depth must be >= 1");
  LayeredCircuit c(lib);
  Netlist& nl = c.netlist;
  SplitMix64 rng(seed);

  for (int i = 0; i < width; ++i) {
    c.inputs.push_back(nl.add_primary_input(idx_name("in", i)));
  }

  static constexpr CellKind kKinds[] = {CellKind::kInv,  CellKind::kNand2,
                                        CellKind::kNor2, CellKind::kAnd2,
                                        CellKind::kOr2,  CellKind::kXor2};
  const std::size_t w = static_cast<std::size_t>(width);
  // Local taps stay within +-window of the gate's own column, so gates of
  // one column range mostly feed gates of the same column range: activity
  // spreads as a cone, as in real datapaths, not across the whole design.
  const std::size_t window = std::max<std::size_t>(2, w / 16);
  std::vector<SignalId> prev = c.inputs;
  std::vector<SignalId> all = c.inputs;
  std::vector<SignalId> layer;
  for (int l = 0; l < depth; ++l) {
    layer.clear();
    for (int i = 0; i < width; ++i) {
      const CellKind kind = kKinds[rng.next_below(std::size(kKinds))];
      const int arity = num_inputs(kind);
      std::vector<SignalId> ins;
      ins.push_back(prev[static_cast<std::size_t>(i)]);
      for (int k = 1; k < arity; ++k) {
        if (rng.next_bool(0.05)) {
          // Rare long-range tap: reconvergent fanout across columns/layers.
          ins.push_back(all[rng.next_below(all.size())]);
        } else {
          const std::size_t off = 1 + rng.next_below(2 * window);
          ins.push_back(prev[(static_cast<std::size_t>(i) + off) % w]);
        }
      }
      const SignalId out = nl.add_signal(idx_name("w", l * width + i));
      (void)nl.add_gate(idx_name("lg", l * width + i), kind, ins, out);
      layer.push_back(out);
    }
    all.insert(all.end(), layer.begin(), layer.end());
    prev = layer;
  }
  for (const SignalId s : prev) {
    nl.mark_primary_output(s);
    c.outputs.push_back(s);
  }
  return c;
}

LatchCircuit make_nand_latch(const Library& lib) {
  LatchCircuit c(lib);
  Netlist& nl = c.netlist;
  c.set_n = nl.add_primary_input("set_n");
  c.reset_n = nl.add_primary_input("reset_n");
  c.q = nl.add_signal("q");
  c.qn = nl.add_signal("qn");
  const std::array<SignalId, 2> g1_in{c.set_n, c.qn};
  (void)nl.add_gate("g_q", CellKind::kNand2, g1_in, c.q);
  const std::array<SignalId, 2> g2_in{c.reset_n, c.q};
  (void)nl.add_gate("g_qn", CellKind::kNand2, g2_in, c.qn);
  nl.mark_primary_output(c.q);
  nl.mark_primary_output(c.qn);
  return c;
}

}  // namespace halotis
