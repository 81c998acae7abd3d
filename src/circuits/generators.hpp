// Circuit generators for the paper's experiments and the test suite.
//
// All generators return the Netlist together with its named ports.  The
// Library passed in must outlive the returned netlist.
#pragma once

#include <cstdint>
#include <vector>

#include "src/netlist/netlist.hpp"

namespace halotis {

/// A chain of identical single-input cells.  node(0) is the primary input;
/// node(i) the output of stage i.
struct ChainCircuit {
  Netlist netlist;
  std::vector<SignalId> nodes;  ///< size = length + 1

  ChainCircuit(const Library& lib) : netlist(lib) {}
};
[[nodiscard]] ChainCircuit make_chain(const Library& lib, int length,
                                      std::string_view cell_name = "INV_X1");

/// The paper's Fig. 1 circuit: a three-inverter driver chain whose (possibly
/// degraded) output "out0" fans out to two two-inverter chains g1/g2 whose
/// first stages have low (VT1) and high (VT2) input thresholds.
struct Fig1Circuit {
  Netlist netlist;
  SignalId in, out0, out1, out1c, out2, out2c;

  Fig1Circuit(const Library& lib) : netlist(lib) {}
};
[[nodiscard]] Fig1Circuit make_fig1(const Library& lib);

/// Gate-level full adder (5 gates: 2 XOR2, 2 AND2, 1 OR2) as drawn in the
/// paper's Fig. 5 inset.  Appends to an existing netlist.
struct FullAdderPorts {
  SignalId sum, cout;
};
[[nodiscard]] FullAdderPorts add_full_adder(Netlist& nl, std::string_view prefix,
                                            SignalId a, SignalId b, SignalId cin);

/// N-bit ripple-carry adder; sum has n+1 bits (carry out last).
struct AdderCircuit {
  Netlist netlist;
  std::vector<SignalId> a, b, sum;  // sum.size() == n+1
  SignalId tie0;

  AdderCircuit(const Library& lib) : netlist(lib) {}
};
[[nodiscard]] AdderCircuit make_ripple_adder(const Library& lib, int bits);

/// N x N carry-save array multiplier (paper Fig. 5 for n = 4):
/// AND partial-product array + full-adder rows with explicit '0' ties,
/// product on s[0..2n-1].
struct MultiplierCircuit {
  Netlist netlist;
  std::vector<SignalId> a, b;  ///< operands, LSB first
  std::vector<SignalId> s;     ///< product bits, LSB first (2n)
  SignalId tie0;               ///< constant-0 primary input (paper's ties)

  MultiplierCircuit(const Library& lib) : netlist(lib) {}
};
[[nodiscard]] MultiplierCircuit make_multiplier(const Library& lib, int bits = 4);

/// Balanced XOR parity tree over `leaves` inputs.
struct ParityCircuit {
  Netlist netlist;
  std::vector<SignalId> inputs;
  SignalId parity;

  ParityCircuit(const Library& lib) : netlist(lib) {}
};
[[nodiscard]] ParityCircuit make_parity_tree(const Library& lib, int leaves);

/// The ISCAS-85 c17 benchmark (6 NAND2 gates).
struct C17Circuit {
  Netlist netlist;
  std::vector<SignalId> inputs;   ///< N1, N2, N3, N6, N7
  std::vector<SignalId> outputs;  ///< N22, N23

  C17Circuit(const Library& lib) : netlist(lib) {}
};
[[nodiscard]] C17Circuit make_c17(const Library& lib);

/// Deterministic random combinational DAG: `num_gates` gates over
/// `num_inputs` primary inputs; sinks become primary outputs.
struct RandomCircuit {
  Netlist netlist;
  std::vector<SignalId> inputs;
  std::vector<SignalId> outputs;

  RandomCircuit(const Library& lib) : netlist(lib) {}
};
[[nodiscard]] RandomCircuit make_random_circuit(const Library& lib, int num_inputs,
                                                int num_gates, std::uint64_t seed);

/// Deterministic layered synthetic design for large-circuit workloads (the
/// 100k-gate cold-path, kernel and lint records of perf_report, the
/// perfbench `kernel_large` deck, randomized replay tests): `width` primary
/// inputs feeding `depth` layers of `width` gates each (total gates =
/// width * depth).  Fanins come mostly from a local window of the previous
/// layer, with occasional long-range taps for reconvergent fanout.  Same
/// (width, depth, seed) always yields the bit-identical netlist.
struct LayeredCircuit {
  Netlist netlist;
  std::vector<SignalId> inputs;   ///< size = width
  std::vector<SignalId> outputs;  ///< final layer, size = width

  LayeredCircuit(const Library& lib) : netlist(lib) {}
};
[[nodiscard]] LayeredCircuit make_layered_circuit(const Library& lib, int width,
                                                  int depth, std::uint64_t seed);

/// Cross-coupled NAND set/reset latch (for the hazard example): active-low
/// set_n / reset_n inputs.
struct LatchCircuit {
  Netlist netlist;
  SignalId set_n, reset_n, q, qn;

  LatchCircuit(const Library& lib) : netlist(lib) {}
};
[[nodiscard]] LatchCircuit make_nand_latch(const Library& lib);

}  // namespace halotis
