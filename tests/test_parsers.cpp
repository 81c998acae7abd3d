// Tests for the ISCAS bench reader/writer, the Verilog subset, the native
// netlist format and the stimulus file format.
#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/rng.hpp"
#include "src/circuits/generators.hpp"
#include "src/parsers/bench_format.hpp"
#include "src/parsers/netlist_io.hpp"
#include "src/parsers/stimulus_file.hpp"
#include "src/parsers/verilog.hpp"

namespace halotis {
namespace {

class ParsersTest : public ::testing::Test {
 protected:
  Library lib_ = Library::default_u6();

  std::vector<bool> steady(const Netlist& nl, std::vector<bool> pi_values) {
    std::unique_ptr<bool[]> buffer(new bool[pi_values.size()]);
    for (std::size_t i = 0; i < pi_values.size(); ++i) buffer[i] = pi_values[i];
    return nl.steady_state(std::span<const bool>(buffer.get(), pi_values.size()));
  }
};

TEST_F(ParsersTest, C17BenchMatchesGeneratedC17) {
  const Netlist parsed = read_bench(c17_bench_text(), lib_);
  EXPECT_EQ(parsed.num_gates(), 6u);
  EXPECT_EQ(parsed.primary_inputs().size(), 5u);
  EXPECT_EQ(parsed.primary_outputs().size(), 2u);

  C17Circuit reference = make_c17(lib_);
  for (unsigned pattern = 0; pattern < 32; ++pattern) {
    std::vector<bool> pis;
    for (int b = 0; b < 5; ++b) pis.push_back(((pattern >> b) & 1u) != 0);
    const auto got = steady(parsed, pis);
    const auto want = steady(reference.netlist, pis);
    for (int o = 0; o < 2; ++o) {
      ASSERT_EQ(got[parsed.primary_outputs()[o].value()],
                want[reference.outputs[static_cast<std::size_t>(o)].value()])
          << pattern;
    }
  }
}

TEST_F(ParsersTest, BenchRoundTrip) {
  C17Circuit c17 = make_c17(lib_);
  const std::string text = write_bench(c17.netlist);
  const Netlist reparsed = read_bench(text, lib_);
  EXPECT_EQ(reparsed.num_gates(), c17.netlist.num_gates());
  EXPECT_EQ(reparsed.primary_inputs().size(), c17.netlist.primary_inputs().size());
  for (unsigned pattern = 0; pattern < 32; ++pattern) {
    std::vector<bool> pis;
    for (int b = 0; b < 5; ++b) pis.push_back(((pattern >> b) & 1u) != 0);
    const auto got = steady(reparsed, pis);
    const auto want = steady(c17.netlist, pis);
    for (std::size_t o = 0; o < 2; ++o) {
      ASSERT_EQ(got[reparsed.primary_outputs()[o].value()],
                want[c17.netlist.primary_outputs()[o].value()]);
    }
  }
}

TEST_F(ParsersTest, WideGatesDecomposeToTrees) {
  const char* text = R"(
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
INPUT(f)
OUTPUT(y)
y = NAND(a, b, c, d, e, f)
)";
  const Netlist nl = read_bench(text, lib_);
  EXPECT_GT(nl.num_gates(), 1u);  // decomposed
  // Function check: NAND of six inputs.
  for (unsigned pattern = 0; pattern < 64; ++pattern) {
    std::vector<bool> pis;
    bool all = true;
    for (int b = 0; b < 6; ++b) {
      const bool bit = ((pattern >> b) & 1u) != 0;
      pis.push_back(bit);
      all = all && bit;
    }
    const auto values = steady(nl, pis);
    ASSERT_EQ(values[nl.primary_outputs()[0].value()], !all) << pattern;
  }
}

TEST_F(ParsersTest, WideXorKeepsParity) {
  const char* text = R"(
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
OUTPUT(y)
y = XOR(a, b, c, d, e)
)";
  const Netlist nl = read_bench(text, lib_);
  for (unsigned pattern = 0; pattern < 32; ++pattern) {
    std::vector<bool> pis;
    int ones = 0;
    for (int b = 0; b < 5; ++b) {
      const bool bit = ((pattern >> b) & 1u) != 0;
      pis.push_back(bit);
      ones += bit ? 1 : 0;
    }
    const auto values = steady(nl, pis);
    ASSERT_EQ(values[nl.primary_outputs()[0].value()], ones % 2 == 1) << pattern;
  }
}

TEST_F(ParsersTest, BenchErrors) {
  EXPECT_THROW((void)read_bench("INPUT(a)\nq = DFF(a)\n", lib_), ContractViolation);
  EXPECT_THROW((void)read_bench("y = FROB(a)\nINPUT(a)\n", lib_), ContractViolation);
  EXPECT_THROW((void)read_bench("INPUT(a)\nOUTPUT(zz)\ny = NOT(a)\n", lib_),
               ContractViolation);
  EXPECT_THROW((void)read_bench("INPUT(a)\ny NOT(a)\n", lib_), ContractViolation);
  // Comments and blank lines are fine.
  EXPECT_NO_THROW((void)read_bench("# nothing\n\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)  # inv\n",
                                   lib_));
}

/// Asserts that parsing `text` raises a ContractViolation whose message
/// carries the offending source line (`"line <n>"`) -- a parser that dies
/// with an internal netlist assertion, or accepts the deck silently, fails.
void expect_bench_error_on_line(const std::string& text, int line,
                                const Library& lib) {
  try {
    (void)read_bench(text, lib);
    FAIL() << "accepted malformed deck:\n" << text;
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("line " + std::to_string(line)),
              std::string::npos)
        << "message lacks 'line " << line << "': " << e.what();
  }
}

TEST_F(ParsersTest, BenchMalformedDecksRaiseLineNumberedErrors) {
  // Duplicate gate definition: the second assignment is the error.
  expect_bench_error_on_line(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\ny = OR(a, b)\n", 5, lib_);
  // Undeclared fanin: neither an INPUT nor any gate's output.
  expect_bench_error_on_line("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n", 3, lib_);
  // Cyclic definition (two-gate loop and direct self-loop).
  expect_bench_error_on_line(
      "INPUT(a)\nOUTPUT(y)\nu = AND(a, v)\nv = AND(a, u)\ny = AND(u, v)\n", 3,
      lib_);
  expect_bench_error_on_line("INPUT(a)\nOUTPUT(y)\ny = AND(a, y)\n", 3, lib_);
  // A gate may not drive a declared primary input.
  expect_bench_error_on_line(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\na = AND(b, b)\ny = NOT(a)\n", 4, lib_);
  // Duplicate INPUT declaration.
  expect_bench_error_on_line("INPUT(a)\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", 2,
                             lib_);
  // Unbalanced parenthesis and empty operand.
  expect_bench_error_on_line("INPUT(a)\nOUTPUT(y)\ny = NOT(a\n", 3, lib_);
  expect_bench_error_on_line("INPUT(a)\nOUTPUT(y)\ny = AND(a,,a)\n", 3, lib_);
}

TEST_F(ParsersTest, BenchFixtureLoadsAndMatchesGenerator) {
  const std::string path =
      std::string(HALOTIS_SOURCE_DIR) + "/tests/data/mult8.bench";
  const Netlist parsed = read_bench_file(path, lib_);
  EXPECT_EQ(parsed.num_gates(), 384u);

  // Functional equivalence against the generator's multiplier, mapping
  // primary inputs and outputs by name (declaration order is not part of
  // the format's contract).
  MultiplierCircuit ref = make_multiplier(lib_, 8);
  const auto value_by_name = [](const Netlist& nl,
                                const std::vector<bool>& values,
                                const std::string& name) {
    for (SignalId po : nl.primary_outputs()) {
      if (nl.signal(po).name == name) return values[po.value()];
    }
    ADD_FAILURE() << "no output named " << name;
    return false;
  };
  for (const auto& [a, b] : std::vector<std::pair<unsigned, unsigned>>{
           {0u, 0u}, {1u, 1u}, {3u, 5u}, {85u, 170u}, {255u, 255u}, {200u, 131u}}) {
    const auto pi_vector = [&](const Netlist& nl) {
      std::vector<bool> pis;
      for (SignalId pi : nl.primary_inputs()) {
        const std::string& name = nl.signal(pi).name;
        bool v = false;
        if (name[0] == 'a') v = ((a >> (name[1] - '0')) & 1u) != 0;
        if (name[0] == 'b') v = ((b >> (name[1] - '0')) & 1u) != 0;
        pis.push_back(v);  // tie0 and friends stay 0
      }
      return pis;
    };
    const auto got = steady(parsed, pi_vector(parsed));
    const auto want = steady(ref.netlist, pi_vector(ref.netlist));
    ASSERT_EQ(parsed.primary_outputs().size(), ref.netlist.primary_outputs().size());
    for (SignalId po : ref.netlist.primary_outputs()) {
      const std::string& name = ref.netlist.signal(po).name;
      ASSERT_EQ(value_by_name(parsed, got, name), want[po.value()])
          << a << "*" << b << " output " << name;
    }
  }
}

/// Property fuzz: random mutations of a known-good deck must either parse
/// into a checked netlist or raise ContractViolation -- never crash, hang,
/// or accept an inconsistent circuit (read_bench runs Netlist::check()).
TEST_F(ParsersTest, BenchFuzzMutatedDecksNeverCrash) {
  const std::string base{c17_bench_text()};
  SplitMix64 rng(0xbe7cf);
  int parsed_ok = 0;
  for (int iter = 0; iter < 500; ++iter) {
    std::string text = base;
    const int mutations = 1 + static_cast<int>(rng.next_below(4));
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      const std::size_t pos = rng.next_below(static_cast<std::uint32_t>(text.size()));
      switch (rng.next_below(4)) {
        case 0:  // flip a byte to a random printable character
          text[pos] = static_cast<char>(' ' + rng.next_below(95));
          break;
        case 1:  // delete a byte
          text.erase(pos, 1);
          break;
        case 2:  // duplicate a random line somewhere
          text.insert(pos, "16 = NAND(2, 11)\n");
          break;
        case 3:  // truncate
          text.resize(pos);
          break;
      }
    }
    try {
      const Netlist nl = read_bench(text, lib_);
      EXPECT_LE(nl.num_gates(), 64u);
      ++parsed_ok;
    } catch (const ContractViolation&) {
      // Expected for most mutations.
    }
  }
  // Sanity: some mutants (e.g. comment-only edits) must still parse.
  EXPECT_GT(parsed_ok, 0);
}

TEST_F(ParsersTest, VerilogParseAndEvaluate) {
  const char* text = R"(
// half adder
module half_adder (a, b, s, c);
  input a, b;
  output s, c;
  /* no wires needed */
  xor gx (s, a, b);
  and ga (c, a, b);
endmodule
)";
  const Netlist nl = read_verilog(text, lib_);
  EXPECT_EQ(nl.num_gates(), 2u);
  EXPECT_EQ(nl.primary_inputs().size(), 2u);
  for (unsigned pattern = 0; pattern < 4; ++pattern) {
    const bool a = (pattern & 1) != 0;
    const bool b = (pattern & 2) != 0;
    const auto values = steady(nl, {a, b});
    ASSERT_EQ(values[nl.find_signal("s")->value()], a != b);
    ASSERT_EQ(values[nl.find_signal("c")->value()], a && b);
  }
}

TEST_F(ParsersTest, VerilogRoundTrip) {
  ParityCircuit parity = make_parity_tree(lib_, 4);
  const std::string text = write_verilog(parity.netlist);
  const Netlist reparsed = read_verilog(text, lib_);
  EXPECT_EQ(reparsed.num_gates(), parity.netlist.num_gates());
  for (unsigned pattern = 0; pattern < 16; ++pattern) {
    std::vector<bool> pis;
    int ones = 0;
    for (int b = 0; b < 4; ++b) {
      const bool bit = ((pattern >> b) & 1u) != 0;
      pis.push_back(bit);
      ones += bit ? 1 : 0;
    }
    const auto values = steady(reparsed, pis);
    ASSERT_EQ(values[reparsed.primary_outputs()[0].value()], ones % 2 == 1);
  }
}

TEST_F(ParsersTest, VerilogRejectsBehavioural) {
  EXPECT_THROW((void)read_verilog("module m (a); input a; assign b = a; endmodule", lib_),
               ContractViolation);
  EXPECT_THROW((void)read_verilog("module m (a); input a[3:0]; endmodule", lib_),
               ContractViolation);
  EXPECT_THROW((void)read_verilog("no module here", lib_), ContractViolation);
}

TEST_F(ParsersTest, NativeNetlistRoundTripWithWireCaps) {
  Netlist original(lib_);
  const SignalId a = original.add_primary_input("a");
  const SignalId b = original.add_primary_input("b");
  const SignalId m = original.add_signal("m");
  const SignalId y = original.add_signal("y");
  original.mark_primary_output(y);
  original.set_wire_cap(m, 0.055);
  const std::array<SignalId, 3> aoi_in{a, b, a};
  (void)original.add_gate("g1", lib_.find("AOI21_X1"), aoi_in, m);
  const std::array<SignalId, 1> inv_in{m};
  (void)original.add_gate("g2", CellKind::kInv, inv_in, y);

  const std::string text = write_netlist(original);
  const Netlist reparsed = read_netlist(text, lib_);
  EXPECT_EQ(reparsed.num_gates(), 2u);
  EXPECT_NEAR(reparsed.signal(*reparsed.find_signal("m")).wire_cap, 0.055, 1e-12);
  EXPECT_EQ(reparsed.cell_of(*reparsed.find_gate("g1")).kind, CellKind::kAoi21);
  for (unsigned pattern = 0; pattern < 4; ++pattern) {
    const bool va = (pattern & 1) != 0;
    const bool vb = (pattern & 2) != 0;
    const auto got = steady(reparsed, {va, vb});
    const auto want = steady(original, {va, vb});
    ASSERT_EQ(got[reparsed.find_signal("y")->value()], want[y.value()]);
  }
}

TEST_F(ParsersTest, StimulusFileDirectives) {
  ChainCircuit chain = make_chain(lib_, 1);
  const char* text = R"(
# testbench
slew 0.25
init in 1
edge in 5.0 0
edge in 9.0 1 0.6
)";
  const Stimulus stim = read_stimulus(text, chain.netlist);
  EXPECT_DOUBLE_EQ(stim.default_slew(), 0.25);
  EXPECT_TRUE(stim.initial_value(chain.nodes[0]));
  const auto edges = stim.edges(chain.nodes[0]);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_DOUBLE_EQ(edges[0].time, 5.0);
  EXPECT_FALSE(edges[0].value);
  EXPECT_DOUBLE_EQ(edges[1].tau, 0.6);
}

TEST_F(ParsersTest, StimulusSequenceWords) {
  MultiplierCircuit mult = make_multiplier(lib_, 2);
  // Inputs a1 a0 b1 b0 as MSB..LSB of the word.
  const std::string text = "seq a1 a0 b1 b0 start 5 period 5 words 0x0 0xF 0x5\n";
  const Stimulus stim = read_stimulus(text, mult.netlist);
  // Word 0xF at t=5: all four rise.
  for (const SignalId sig : {mult.a[0], mult.a[1], mult.b[0], mult.b[1]}) {
    EXPECT_FALSE(stim.initial_value(sig));
    const auto edges = stim.edges(sig);
    ASSERT_GE(edges.size(), 1u);
    EXPECT_DOUBLE_EQ(edges[0].time, 5.0);
    EXPECT_TRUE(edges[0].value);
  }
  // Word 0x5 = a1=0 a0=1 b1=0 b0=1 at t=10: a1 and b1 fall.
  EXPECT_EQ(stim.edges(mult.a[1]).size(), 2u);
  EXPECT_EQ(stim.edges(mult.a[0]).size(), 1u);
}

TEST_F(ParsersTest, StimulusErrors) {
  ChainCircuit chain = make_chain(lib_, 1);
  EXPECT_THROW((void)read_stimulus("edge nosuch 1 0\n", chain.netlist), ContractViolation);
  EXPECT_THROW((void)read_stimulus("edge n1 1 0\n", chain.netlist), ContractViolation);
  EXPECT_THROW((void)read_stimulus("bogus directive\n", chain.netlist), ContractViolation);
  EXPECT_THROW((void)read_stimulus("edge in abc 0\n", chain.netlist), ContractViolation);
}

TEST_F(ParsersTest, StimulusHexWordEdgeCases) {
  MultiplierCircuit mult = make_multiplier(lib_, 2);
  // Regression: a bare "0x" token used to parse silently as 0 and an
  // over-long literal silently wrapped modulo 2^64; both must hit the
  // line-numbered error path instead.
  try {
    (void)read_stimulus("\nseq a1 a0 b1 b0 start 5 period 5 words 0x 0xF\n",
                        mult.netlist);
    FAIL() << "bare 0x accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("empty hex literal"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  try {
    (void)read_stimulus(
        "seq a1 a0 b1 b0 start 5 period 5 words 0x10000000000000000\n", mult.netlist);
    FAIL() << "65-bit hex literal accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("overflows 64 bits"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
  EXPECT_THROW(
      (void)read_stimulus("seq a1 a0 b1 b0 start 5 period 5 words 0X\n", mult.netlist),
      ContractViolation);
  // The full 64-bit range itself still parses (low 4 input bits all set).
  const Stimulus wide = read_stimulus(
      "seq a1 a0 b1 b0 start 5 period 5 words 0x0 0xFFFFFFFFFFFFFFFF\n", mult.netlist);
  EXPECT_EQ(wide.edges(mult.a[0]).size(), 1u);
  EXPECT_TRUE(wide.edges(mult.a[0])[0].value);
}

// ---- reader goldens ---------------------------------------------------------
//
// tests/data/readers/goldens.txt pins everything the two netlist readers
// promise over a corpus of decks: for a well-formed deck the parsed
// netlist's native text (cells, gate names and order, port order, wire
// caps) plus its signal id order; for a malformed deck the exact
// diagnostic, minus the "[file:line]" suffix that names the checking
// source line.  The goldens were produced by running this formatter over
// the earlier istringstream-based readers, so any reader rewrite is held to
// byte identity.  On a mismatch the computed text is written to
// reader_goldens.actual.txt in the working directory for diffing.

std::string slurp_fixture(const std::string& relative) {
  std::ifstream in(std::string(HALOTIS_SOURCE_DIR) + "/" + relative, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string replace_all(std::string text, std::string_view from, std::string_view to) {
  for (std::size_t pos = text.find(from); pos != std::string::npos;
       pos = text.find(from, pos + to.size())) {
    text.replace(pos, from.size(), to);
  }
  return text;
}

std::string lowered(std::string text) {
  for (char& c : text) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return text;
}

/// Comments on their own lines, after statements, and blank/indented lines.
std::string commented(const std::string& text) {
  std::string out = "# leading comment\n\n";
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    out += "  " + line + "\t# trailing (comment)\n   \n";
  }
  return out;
}

struct GoldenDeck {
  std::string name;
  bool bench = true;
  std::string text;
};

std::vector<GoldenDeck> golden_decks() {
  const std::string c17{c17_bench_text()};
  const std::string mult8 = slurp_fixture("tests/data/mult8.bench");
  const std::string wide =
      "# every wide-gate decomposition, uses before definitions\n"
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nINPUT(f)\nINPUT(g)\n"
      "INPUT(h)\nINPUT(i)\n"
      "OUTPUT(y1)\nOUTPUT(y2)\nOUTPUT(y3)\nOUTPUT(y4)\nOUTPUT(y5)\nOUTPUT(y6)\n"
      "OUTPUT(y7)\nOUTPUT(y8)\nOUTPUT(y9)\nOUTPUT(y10)\nOUTPUT(y11)\nOUTPUT(y12)\n"
      "OUTPUT(y13)\nOUTPUT(y14)\nOUTPUT(y15)\nOUTPUT(y1)\n"
      "y15 = AND(y16, a)\n"
      "y1 = NAND(a, b, c, d, e, f)\n"
      "y2 = XOR(a, b, c, d, e)\n"
      "y3 = XNOR(a, b, c)\n"
      "y4 = AND(a, b, c, d, e, f, g, h, i)\n"
      "y5 = OR(a, b, c, d)\n"
      "y6 = NOR(a, b, c, d, e)\n"
      "y7 = XOR(a, b, c)\n"
      "y8 = AND(y1)\n"
      "y9 = NAND(y2)\n"
      "y10 = BUFF(y3)\n"
      "y11 = NOT(y4)\n"
      "y12 = BUF(y5)\n"
      "y13 = INV(y6)\n"
      "y14 = XOR(a, b, c, d)\n"
      "y16 = OR(b, c, d, e, f, g, h)\n"
      "y17 = NAND(a, b, c, d)\n"
      "y18 = NOR(a, b, c)\n"
      "y19 = XNOR(a, b)\n"
      "y20 = NAND ( a , b )  junk after the gate\n"
      "Output(y18)\n";
  const std::string dag = slurp_fixture("tests/data/readers/random_dag.net");
  const std::string native_caps =
      "input a\ninput b\nsignal m\nsignal y\nsignal z\noutput y\noutput z\noutput y\n"
      "wirecap m 0.055\nwirecap y 1e-3\nwirecap z 0\n"
      "gate g1 AOI21_X1 m b a a\ngate g2 INV_X2 y m\ngate g3 MUX2_X1 z a b m\n";
  return {
      {"c17", true, c17},
      {"c17 crlf", true, replace_all(c17, "\n", "\r\n")},
      {"c17 no final newline", true, c17.substr(0, c17.size() - 1)},
      {"c17 comments", true, commented(c17)},
      {"c17 lower case", true, lowered(c17)},
      {"mult8", true, mult8},
      {"wide gates", true, wide},
      {"wide gates lower case", true, lowered(wide)},
      {"wide gates crlf no final newline", true,
       replace_all(wide.substr(0, wide.size() - 1), "\n", "\r\n")},
      {"bench duplicate definition", true,
       "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\ny = OR(a, b)\n"},
      {"bench undeclared fanin", true, "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n"},
      {"bench cycle", true, "INPUT(a)\nOUTPUT(y)\nu = AND(a, v)\nv = AND(a, u)\ny = AND(u, v)\n"},
      {"bench self loop", true, "INPUT(a)\nOUTPUT(y)\ny = AND(a, y)\n"},
      {"bench dff", true, "INPUT(a)\nOUTPUT(q)\nq = dff(a)\n"},
      {"bench dffsr", true, "INPUT(a)\nOUTPUT(q)\nq = DFFSR(a, a)\n"},
      {"bench empty operand", true, "INPUT(a)\nOUTPUT(y)\ny = AND(a,,a)\n"},
      {"bench empty operand list", true, "INPUT(a)\nOUTPUT(y)\ny = AND()\n"},
      {"bench unknown gate", true, "y = FROB(a)\nINPUT(a)\nOUTPUT(y)\n"},
      {"bench unknown gate after fanin check", true, "INPUT(a)\ny = frob(a, b)\nb = NOT(a)\n"},
      {"bench duplicate input", true, "INPUT(a)\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"},
      {"bench gate redefines input", true,
       "INPUT(a)\nINPUT(b)\nOUTPUT(y)\na = AND(b, b)\ny = NOT(a)\n"},
      {"bench input after its gate", true, "INPUT(b)\na = AND(b, b)\nINPUT(a)\n"},
      {"bench output never defined", true, "INPUT(a)\nOUTPUT(zz)\ny = NOT(a)\n"},
      {"bench malformed port", true, "INPUT(a\nOUTPUT(y)\ny = NOT(a)\n"},
      {"bench empty port name", true, "INPUT( )\n"},
      {"bench expected assignment", true, "INPUT(a)\ny NOT(a)\n"},
      {"bench malformed gate", true, "INPUT(a)\nOUTPUT(y)\ny = NOT(a\n"},
      {"bench empty output name", true, "INPUT(a)\n = NOT(a)\n"},
      {"bench not arity", true, "INPUT(a)\nINPUT(b)\ny = NOT(a, b)\n"},
      {"bench buff arity", true, "INPUT(a)\nINPUT(b)\ny = BUFF(a, b)\n"},
      {"bench synthesized name clash", true,
       "INPUT(bench_t0)\nINPUT(b)\nINPUT(c)\ny = AND(bench_t0, b, c, b, c)\n"},
      {"native random dag", false, dag},
      {"native random dag crlf", false, replace_all(dag, "\n", "\r\n")},
      {"native random dag comments no final newline", false,
       commented(dag).substr(0, commented(dag).size() - 1)},
      {"native wire caps", false, native_caps},
      {"native latch cycle", false,
       "input s\ninput r\nsignal q\nsignal qn\noutput q\n"
       "gate g1 NAND2_X1 q s qn\ngate g2 NAND2_X1 qn r q\n"},
      {"native duplicate signal", false, "input a\nsignal a\n"},
      {"native duplicate gate", false,
       "input a\nsignal y\nsignal z\ngate g INV_X1 y a\ngate g INV_X1 z a\n"},
      {"native second driver", false,
       "input a\nsignal y\ngate g1 INV_X1 y a\ngate g2 BUF_X1 y a\n"},
      {"native drives input", false, "input a\ninput b\ngate g INV_X1 b a\n"},
      {"native undeclared fanin", false, "input a\nsignal y\ngate g INV_X1 y ghost\n"},
      {"native undeclared output", false, "input a\ngate g INV_X1 y a\n"},
      {"native unknown directive", false, "input a\nfrob a\n"},
      {"native unknown cell", false, "input a\nsignal y\ngate g FROB_X1 y a\n"},
      {"native wrong arity", false, "input a\nsignal y\ngate g NAND2_X1 y a\n"},
      {"native undriven signal", false, "input a\nsignal y\noutput y\n"},
      {"native output unknown", false, "input a\noutput nope\n"},
      {"native input arity", false, "input\n"},
      {"native signal arity", false, "signal a b\n"},
      {"native output arity", false, "input a\noutput a a\n"},
      {"native wirecap arity", false, "input a\nwirecap a\n"},
      {"native wirecap unknown", false, "input a\nwirecap b 1\n"},
      {"native wirecap bad number", false, "input a\nwirecap a 1.5pF\n"},
      {"native wirecap negative", false, "input a\nwirecap a -1\n"},
      {"native gate arity", false, "input a\nsignal y\ngate g INV_X1 y\n"},
      {"native empty", false, "# nothing\n"},
  };
}

/// ContractViolation text without the trailing " [file:line]" that names
/// the checking source line (not part of the diagnostic contract).
std::string strip_location(const std::string& what) {
  const std::size_t open = what.rfind(" [");
  return open != std::string::npos && !what.empty() && what.back() == ']'
             ? what.substr(0, open)
             : what;
}

std::string describe_deck(const GoldenDeck& deck, const Library& lib) {
  std::string out = "=== " + deck.name + (deck.bench ? " (bench)\n" : " (native)\n");
  try {
    const Netlist nl = deck.bench ? read_bench(deck.text, lib) : read_netlist(deck.text, lib);
    out += write_netlist(nl);
    out += "signal order:";
    for (std::size_t s = 0; s < nl.num_signals(); ++s) {
      out += ' ';
      out += nl.signal(SignalId{static_cast<SignalId::underlying_type>(s)}).name;
    }
    out += '\n';
  } catch (const ContractViolation& e) {
    out += "error: " + strip_location(e.what()) + '\n';
  }
  return out;
}

TEST_F(ParsersTest, ReadersMatchCommittedGoldens) {
  std::string actual;
  for (const GoldenDeck& deck : golden_decks()) actual += describe_deck(deck, lib_);
  const std::string golden = slurp_fixture("tests/data/readers/goldens.txt");
  if (actual != golden) {
    std::ofstream("reader_goldens.actual.txt", std::ios::binary) << actual;
  }
  ASSERT_FALSE(golden.empty()) << "missing tests/data/readers/goldens.txt";
  EXPECT_TRUE(actual == golden)
      << "reader output diverged from tests/data/readers/goldens.txt; see "
         "reader_goldens.actual.txt";
}

}  // namespace
}  // namespace halotis
