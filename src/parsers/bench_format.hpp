// ISCAS-85 ".bench" netlist format reader / writer.
//
// Grammar (as used by the public ISCAS-85/89 distributions):
//   # comment
//   INPUT(name)
//   OUTPUT(name)
//   name = GATE(in1, in2, ...)
// with GATE one of AND, NAND, OR, NOR, XOR, XNOR, NOT, BUFF.
// Gates with more inputs than the library's widest cell are decomposed
// into balanced trees (with a final inverter for the inverting kinds), so
// the full ISCAS-85 suite (up to 9-input gates) loads against the default
// library.  Sequential elements (DFF) are rejected: HALOTIS is a
// combinational timing simulator.
#pragma once

#include <string>
#include <string_view>

#include "src/netlist/netlist.hpp"

namespace halotis {

/// Parses `.bench` text into a netlist over `library`.  Primary inputs take
/// the first signal ids (declaration order), then gate outputs (statement
/// order), then the `bench_t<k>` nets of decomposed wide gates; gates keep
/// statement order, each wide gate's `bench_g<k>` tree just before it.
[[nodiscard]] Netlist read_bench(std::string_view text, const Library& library);
[[nodiscard]] Netlist read_bench_file(const std::string& path, const Library& library);

/// Serializes a netlist to `.bench` text.  Only 1-4 input AND/NAND/OR/
/// NOR/XOR/XNOR/NOT/BUFF gates can be represented; composite kinds
/// (AOI/OAI/MUX/MAJ) are rejected.
[[nodiscard]] std::string write_bench(const Netlist& netlist);

/// The classic c17 benchmark, embedded for tests and examples.
[[nodiscard]] std::string_view c17_bench_text();

}  // namespace halotis
