// Truncated-input fuzz for the text parsers (PR 7 acceptance): every
// prefix of a valid input must either parse or throw ContractViolation
// with a message -- never crash, loop, or leak (CI runs this suite under
// ASan/UBSan).  Truncation is the exact corruption the crash-safe
// artifact writers exist to prevent; the parsers must hold up when some
// OTHER tool hands us a torn file anyway.
//
// Small fixtures are truncated per character, the committed mult8.bench
// per line (12k chars would dominate the suite's runtime for no extra
// coverage: bench files are line-oriented past the first few bytes).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/check.hpp"
#include "src/parsers/bench_format.hpp"
#include "src/parsers/hierarchy.hpp"
#include "src/parsers/netlist_io.hpp"
#include "src/parsers/sdf.hpp"
#include "src/parsers/stimulus_file.hpp"
#include "src/waveform/vcd_reader.hpp"

namespace halotis {
namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::filesystem::path fixture(const char* relative) {
  return std::filesystem::path(HALOTIS_SOURCE_DIR) / relative;
}

constexpr const char* kAnd2Bench = R"(INPUT(a)
INPUT(b)
OUTPUT(y)
n1 = NAND(a, b)
y = NOT(n1)
)";

constexpr const char* kAnd2Stim = R"(slew 0.4
init a 0
init b 1
edge a 5.0 1
edge a 10.0 0
)";

/// Runs `parse` on every prefix of `text` at the given cut points.  The
/// contract under truncation: return normally or throw ContractViolation
/// carrying a message; anything else (another exception type, a crash, a
/// hang) fails the test.
template <class ParseFn>
void fuzz_prefixes(std::string_view text, const std::vector<std::size_t>& cuts,
                   const ParseFn& parse) {
  for (const std::size_t cut : cuts) {
    SCOPED_TRACE("prefix length " + std::to_string(cut));
    const std::string_view prefix = text.substr(0, cut);
    try {
      parse(prefix);
    } catch (const ContractViolation& e) {
      EXPECT_STRNE(e.what(), "") << "diagnostic must carry a message";
    }
    // Any other exception type escapes and fails the test with its own
    // what(): exactly the diagnostic we want from a fuzz failure.
  }
}

std::vector<std::size_t> every_char(std::string_view text) {
  std::vector<std::size_t> cuts;
  for (std::size_t i = 0; i <= text.size(); ++i) cuts.push_back(i);
  return cuts;
}

std::vector<std::size_t> every_line(std::string_view text) {
  std::vector<std::size_t> cuts{0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') cuts.push_back(i + 1);
    // Also cut mid-line, right before the newline: a torn last line.
    if (text[i] == '\n' && i > 0) cuts.push_back(i);
  }
  cuts.push_back(text.size());
  return cuts;
}

TEST(ParserFuzzTest, BenchPrefixesNeverCrash) {
  const Library lib = Library::default_u6();
  fuzz_prefixes(kAnd2Bench, every_char(kAnd2Bench),
                [&](std::string_view prefix) { (void)read_bench(prefix, lib); });
}

TEST(ParserFuzzTest, CommittedMult8BenchLinePrefixesNeverCrash) {
  const Library lib = Library::default_u6();
  const std::string text = slurp(fixture("tests/data/mult8.bench"));
  ASSERT_FALSE(text.empty());
  fuzz_prefixes(text, every_line(text),
                [&](std::string_view prefix) { (void)read_bench(prefix, lib); });
}

TEST(ParserFuzzTest, SdfPrefixesNeverCrash) {
  const std::string text = slurp(fixture("tests/sdf/and2_thirdparty.sdf"));
  ASSERT_FALSE(text.empty());
  fuzz_prefixes(text, every_char(text),
                [](std::string_view prefix) { (void)read_sdf(prefix); });
}

TEST(ParserFuzzTest, StimulusPrefixesNeverCrash) {
  const Library lib = Library::default_u6();
  const Netlist netlist = read_bench(kAnd2Bench, lib);
  fuzz_prefixes(kAnd2Stim, every_char(kAnd2Stim), [&](std::string_view prefix) {
    (void)read_stimulus(prefix, netlist);
  });
}

TEST(ParserFuzzTest, TruncatedBenchDiagnosticNamesTheLine) {
  const Library lib = Library::default_u6();
  // Cut mid-statement on line 4: the diagnostic must locate the damage.
  const std::string_view torn = std::string_view(kAnd2Bench).substr(0, 40);
  try {
    (void)read_bench(torn, lib);
    FAIL() << "expected ContractViolation for a torn gate statement";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos) << e.what();
  }
}

// ---- non-finite numbers -----------------------------------------------------
//
// Every number a parser reads goes through parse_finite: nan, infinities,
// values that overflow to infinity and hex floats are rejected with a
// diagnostic naming the line, never simulated (`edge a inf 1` used to be
// accepted as an edge that never happens).

constexpr const char* kNonFinite[] = {"nan",      "-nan", "NaN",  "inf",  "-inf",
                                      "infinity", "INF",  "1e999", "-1e999", "0x1p1"};

/// Parses `text` expecting a ContractViolation whose message contains
/// `where` (the line) and the offending token.
template <class ParseFn>
void expect_rejected(const std::string& text, const std::string& where,
                     const std::string& token, const ParseFn& parse) {
  SCOPED_TRACE(text);
  try {
    parse(text);
    ADD_FAILURE() << "accepted a non-finite number";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(where), std::string::npos) << what;
    EXPECT_NE(what.find("'" + token + "'"), std::string::npos) << what;
  }
}

TEST(ParserFuzzTest, StimulusRejectsNonFiniteNumbers) {
  const Library lib = Library::default_u6();
  const Netlist netlist = read_bench(kAnd2Bench, lib);
  const auto parse = [&](const std::string& text) { (void)read_stimulus(text, netlist); };
  for (const std::string token : kNonFinite) {
    expect_rejected("init a 0\nedge a " + token + " 1\n", "stimulus line 2", token, parse);
    expect_rejected("edge a 1 1 " + token + "\n", "stimulus line 1", token, parse);
    expect_rejected("# slew\n\nslew " + token + "\n", "stimulus line 3", token, parse);
    expect_rejected("seq a b start " + token + " period 5 words 0 3\n", "stimulus line 1",
                    token, parse);
    expect_rejected("seq a b start 0 period " + token + " words 0 3\n", "stimulus line 1",
                    token, parse);
  }
}

TEST(ParserFuzzTest, NetlistsRejectNonFiniteWireCaps) {
  const Library lib = Library::default_u6();
  for (const std::string token : kNonFinite) {
    const std::string deck = "input a\nsignal y\ngate g INV_X1 y a\nwirecap y " + token + "\n";
    expect_rejected(deck, "netlist line 4", token,
                    [&](const std::string& text) { (void)read_netlist(text, lib); });
    expect_rejected(deck, "hierarchical netlist line 4", token,
                    [&](const std::string& text) { (void)read_hierarchical(text, lib); });
  }
}

TEST(ParserFuzzTest, SdfRejectsNonFiniteDelays) {
  for (const std::string token : kNonFinite) {
    const std::string head =
        "(DELAYFILE\n(CELL (CELLTYPE \"INV_X1\") (INSTANCE g)\n(DELAY (ABSOLUTE\n";
    const auto parse = [](const std::string& text) { (void)read_sdf(text); };
    expect_rejected(head + "(IOPATH A Y (" + token + ") (1))))))\n", "sdf line 4", token,
                    parse);
    expect_rejected(head + "(IOPATH A Y (1) (1.2:" + token + ":1.9))))))\n", "sdf line 4",
                    token, parse);
  }
  EXPECT_THROW((void)read_sdf("(DELAYFILE (TIMESCALE 1e999ns))"), ContractViolation);
}

TEST(ParserFuzzTest, VcdRejectsOverflowingTimescale) {
  const std::string digits(400, '9');
  EXPECT_THROW((void)read_vcd("$timescale " + digits + "ns $end\n$enddefinitions $end\n"),
               ContractViolation);
}

}  // namespace
}  // namespace halotis
