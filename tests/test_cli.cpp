// Tests for the command-line driver (run through the library entry point;
// files go to a per-test temp directory).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "src/tools/cli.hpp"

namespace halotis {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("halotis_cli_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string write(const std::string& name, const std::string& content) {
    const std::string path = (dir_ / name).string();
    std::ofstream out(path);
    out << content;
    return path;
  }

  int run(const std::vector<std::string>& args) {
    out_.str("");
    err_.str("");
    return run_cli(args, out_, err_);
  }

  std::filesystem::path dir_;
  std::ostringstream out_;
  std::ostringstream err_;

  static constexpr const char* kBench = R"(INPUT(a)
INPUT(b)
OUTPUT(y)
n1 = NAND(a, b)
y = NOT(n1)
)";
  static constexpr const char* kStim = R"(slew 0.4
init a 0
init b 1
edge a 5.0 1
edge a 10.0 0
)";
};

TEST_F(CliTest, HelpAndUnknownCommand) {
  EXPECT_EQ(run({"help"}), 0);
  EXPECT_NE(out_.str().find("usage"), std::string::npos);
  EXPECT_EQ(run({"frobnicate"}), 2);
  EXPECT_NE(err_.str().find("unknown command"), std::string::npos);
  EXPECT_EQ(run({}), 2);
}

TEST_F(CliTest, SimProducesStatsAndFinalValues) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", stim, "--model", "ddm"}), 0);
  const std::string text = out_.str();
  EXPECT_NE(text.find("HALOTIS-DDM"), std::string::npos);
  EXPECT_NE(text.find("events: processed"), std::string::npos);
  EXPECT_NE(text.find("y = 0"), std::string::npos);  // a falls back to 0
}

/// `sim` is one serial event loop: the thread and partition flags of the
/// removed parallel kernel are usage errors, not silently ignored.
TEST_F(CliTest, SimRejectsThreadAndPartitionFlags) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  for (const std::string flag : {"threads", "partitions"}) {
    EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", stim, "--" + flag, "2"}), 2)
        << flag;
    EXPECT_NE(err_.str().find("usage error: sim has no --" + flag), std::string::npos)
        << err_.str();
    EXPECT_NE(err_.str().find("usage: halotis"), std::string::npos) << flag;
    EXPECT_EQ(out_.str(), "") << flag;
  }
}

TEST_F(CliTest, SimWritesVcd) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  const std::string vcd = (dir_ / "out.vcd").string();
  EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", stim, "--vcd", vcd}), 0);
  std::ifstream file(vcd);
  ASSERT_TRUE(file.good());
  std::stringstream content;
  content << file.rdbuf();
  EXPECT_NE(content.str().find("$enddefinitions"), std::string::npos);
  EXPECT_NE(content.str().find("$var wire 1"), std::string::npos);
}

TEST_F(CliTest, SimReportAndWaves) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", stim, "--report", "--waves"}), 0);
  EXPECT_NE(out_.str().find("TOTAL"), std::string::npos);
  EXPECT_NE(out_.str().find("t (ns)"), std::string::npos);
}

TEST_F(CliTest, StaPrintsCriticalPath) {
  const std::string netlist = write("and2.bench", kBench);
  EXPECT_EQ(run({"sta", "--netlist", netlist}), 0);
  EXPECT_NE(out_.str().find("critical delay"), std::string::npos);
  EXPECT_NE(out_.str().find("g_y"), std::string::npos);
}

TEST_F(CliTest, FaultReportsCoverage) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  EXPECT_EQ(run({"fault", "--netlist", netlist, "--stim", stim}), 0);
  EXPECT_NE(out_.str().find("stuck-at coverage"), std::string::npos);
}

TEST_F(CliTest, FaultCampaignRunsOnTwoThreads) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);

  EXPECT_EQ(run({"fault", "--netlist", netlist, "--stim", stim, "--threads", "2"}), 0);
  const std::string campaign_out = out_.str();
  EXPECT_NE(campaign_out.find("campaign: 2 threads"), std::string::npos);
  const std::string coverage =
      campaign_out.substr(0, campaign_out.find(") under") + 1);
  EXPECT_NE(coverage.find("stuck-at coverage"), std::string::npos);
}

TEST_F(CliTest, FaultAtpgGeneratesVectors) {
  const std::string netlist = write("and2.bench", kBench);
  EXPECT_EQ(run({"fault", "--netlist", netlist, "--atpg", "--candidates", "40",
                 "--seed", "5"}), 0);
  EXPECT_NE(out_.str().find("ATPG:"), std::string::npos);
  EXPECT_NE(out_.str().find("vectors (hex"), std::string::npos);
  EXPECT_NE(out_.str().find("100%"), std::string::npos);  // tiny circuit: full coverage
}

TEST_F(CliTest, ConvertToSdf) {
  const std::string netlist = write("and2.bench", kBench);
  EXPECT_EQ(run({"convert", "--netlist", netlist, "--to", "sdf"}), 0);
  EXPECT_NE(out_.str().find("(DELAYFILE"), std::string::npos);
  EXPECT_NE(out_.str().find("(IOPATH A Y"), std::string::npos);
}

TEST_F(CliTest, ConvertRoundTripsFormats) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string verilog_path = (dir_ / "and2.v").string();
  EXPECT_EQ(run({"convert", "--netlist", netlist, "--to", "verilog", "--out",
                 verilog_path}), 0);
  // And simulate the converted file.
  const std::string stim = write("and2.stim", kStim);
  EXPECT_EQ(run({"sim", "--netlist", verilog_path, "--stim", stim}), 0);
  EXPECT_NE(out_.str().find("y = 0"), std::string::npos);
}

TEST_F(CliTest, ConvertToNativePrintsToStdout) {
  const std::string netlist = write("and2.bench", kBench);
  EXPECT_EQ(run({"convert", "--netlist", netlist, "--to", "native"}), 0);
  EXPECT_NE(out_.str().find("gate g_y"), std::string::npos);
}

TEST_F(CliTest, AnalogRunsAndWritesCsv) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  const std::string csv = (dir_ / "trace.csv").string();
  EXPECT_EQ(run({"analog", "--netlist", netlist, "--stim", stim, "--t-end", "12",
                 "--csv", csv}), 0);
  EXPECT_NE(out_.str().find("stage evaluations"), std::string::npos);
  std::ifstream file(csv);
  ASSERT_TRUE(file.good());
  std::string header;
  std::getline(file, header);
  EXPECT_EQ(header, "t_ns,y");
}

TEST_F(CliTest, ErrorsAreReportedNotThrown) {
  EXPECT_EQ(run({"sim", "--netlist", "/nonexistent/file.bench"}), 1);
  EXPECT_NE(err_.str().find("error:"), std::string::npos);
  const std::string netlist = write("and2.bench", kBench);
  EXPECT_EQ(run({"sim", "--netlist", netlist, "--model", "bogus"}), 2);
  EXPECT_NE(err_.str().find("unknown model"), std::string::npos);
  EXPECT_EQ(run({"convert", "--netlist", netlist, "--to", "pdf"}), 2);
  EXPECT_EQ(run({"sim"}), 2);  // missing --netlist
}

/// Malformed numeric flags and contradictory --replay combinations are
/// usage errors: exit 2 with the usage text, never a silent clamp of
/// `--samples 0` to a default or of `1.5` through a double round-trip.
TEST_F(CliTest, MalformedFlagsExitTwoWithUsage) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);

  const auto expect_usage = [&](const std::vector<std::string>& args,
                                const std::string& needle) {
    EXPECT_EQ(run(args), 2) << needle;
    EXPECT_NE(err_.str().find("usage error:"), std::string::npos) << needle;
    EXPECT_NE(err_.str().find(needle), std::string::npos) << err_.str();
    EXPECT_NE(err_.str().find("usage: halotis"), std::string::npos) << needle;
  };

  expect_usage({"variation", "--netlist", netlist, "--stim", stim,
                "--samples", "0"},
               "--samples must be >= 1");
  expect_usage({"variation", "--netlist", netlist, "--stim", stim,
                "--samples", "1.5"},
               "--samples expects an unsigned integer");
  expect_usage({"variation", "--netlist", netlist, "--stim", stim,
                "--seed", "banana"},
               "--seed expects an unsigned integer");
  expect_usage({"variation", "--netlist", netlist, "--stim", stim,
                "--seed", "12x"},
               "--seed expects an unsigned integer");
  expect_usage({"variation", "--netlist", netlist, "--stim", stim,
                "--sigma", "-0.5"},
               "--sigma must be >= 0");

  expect_usage({"sim", "--netlist", netlist, "--stim", stim, "--replay"},
               "sim --replay needs --sdf");
  expect_usage({"sim", "--netlist", netlist, "--stim", stim,
                "--sdf", "x.sdf", "--replay", "--threads", "2"},
               "sim has no --threads");
  expect_usage({"sim", "--netlist", netlist, "--stim", stim,
                "--sdf", "x.sdf", "--replay", "--vcd",
                (dir_ / "w.vcd").string()},
               "drop --report/--vcd/--waves");

  // Unusable flag values and shapes: exit 2, like the numeric flags above.
  expect_usage({"sim", "--netlist", netlist, "--stim", stim, "--model", "bogus"},
               "unknown model 'bogus'");
  expect_usage({"sim", "--stim", stim}, "missing required flag --netlist");
  expect_usage({"sim", "--netlist", netlist, "--stim", stim, "stray"},
               "expected --flag, got 'stray'");
  expect_usage({"lint", netlist, "--format", "xml"}, "--format must be text|json");
  expect_usage({"lint", netlist, "--fail-on", "maybe"}, "--fail-on must be error|warn|none");
  expect_usage({"convert", "--netlist", netlist, "--to", "edif"},
               "unknown target format 'edif'");
  expect_usage({"serve", "--socket", (dir_ / "s.sock").string(), "--cache-mb", "0"},
               "--cache-mb must be > 0");
  expect_usage({"fault", "--netlist", netlist, "--stim", stim, "--serial"},
               "fault has no --serial");

  // A flag the command does not read -- a typo, or another command's flag
  // -- is named, never silently ignored.
  expect_usage({"sim", "--netlist", netlist, "--stim", stim, "--budget-event", "1"},
               "sim has no --budget-event");
  expect_usage({"sim", "--netlist", netlist, "--stim", stim, "--hsah"},
               "sim has no --hsah");
  expect_usage({"sta", "--netlist", netlist, "--samples", "3"}, "sta has no --samples");

  // Hex seeds are NOT usage errors: 0x-prefixed values parse.
  EXPECT_EQ(run({"variation", "--netlist", netlist, "--stim", stim,
                 "--samples", "2", "--seed", "0xBEEF"}),
            0);
}

/// Number flags accept finite numbers only, and count flags whole unsigned
/// integers only: anything else is a usage error (exit 2), never a run
/// that silently treats `nan` as an absent flag or casts `-5` to a count.
TEST_F(CliTest, NonFiniteAndNonIntegerNumberFlagsExitTwo) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  const auto with = [&](const char* command, std::vector<std::string> extra) {
    std::vector<std::string> args{command, "--netlist", netlist, "--stim", stim};
    args.insert(args.end(), extra.begin(), extra.end());
    return args;
  };
  const auto sim = [&](std::vector<std::string> extra) { return with("sim", extra); };
  const auto variation = [&](std::vector<std::string> extra) {
    return with("variation", extra);
  };
  const auto expect_usage = [&](const std::vector<std::string>& args,
                                const std::string& needle) {
    EXPECT_EQ(run(args), 2) << needle;
    EXPECT_NE(err_.str().find("usage error: " + needle), std::string::npos) << err_.str();
  };
  for (const char* bad : {"nan", "inf", "-inf", "1e999", "abc", "0x1p1", ""}) {
    expect_usage(sim({"--t-end", bad}), "--t-end expects a finite number");
    expect_usage(sim({"--deadline-s", bad}), "--deadline-s expects a finite number");
    expect_usage(sim({"--budget-mem-mb", bad}), "--budget-mem-mb expects a finite number");
  }
  for (const char* bad : {"nan", "-5", "1e30", "1.5", "abc"}) {
    expect_usage(sim({"--budget-events", bad}), "--budget-events expects an unsigned integer");
    expect_usage(variation({"--threads", bad}), "--threads expects an unsigned integer");
    expect_usage({"lint", netlist, "--fanout-limit", bad},
                 "--fanout-limit expects an unsigned integer");
  }
  expect_usage(variation({"--threads", "4294967296"}), "--threads is out of range");
  expect_usage(sim({"--deadline-s", "-1"}), "--deadline-s must be >= 0");
  expect_usage(sim({"--budget-mem-mb", "-1"}), "--budget-mem-mb must be >= 0");
  expect_usage(sim({"--budget-mem-mb", "1e300"}), "--budget-mem-mb must be >= 0");
  expect_usage({"sta", "--netlist", netlist, "--slew", "nan"}, "--slew expects a finite number");

  // In range, the same flags still run.
  EXPECT_EQ(run(sim({"--t-end", "7.5", "--deadline-s", "60", "--budget-events", "1000000"})),
            0);
  EXPECT_EQ(run({"lint", netlist, "--fanout-limit", "8"}), 0);
}

TEST_F(CliTest, NonFiniteStimulusNumberNamesTheLine) {
  const std::string netlist = write("and2.bench", kBench);
  for (const char* line : {"edge a inf 1", "edge a 5 1 inf", "edge a nan 1", "slew nan"}) {
    const std::string stim = write("bad.stim", std::string("init a 0\n") + line + "\n");
    EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", stim}), 1) << line;
    EXPECT_NE(err_.str().find("in stimulus line 2"), std::string::npos) << err_.str();
  }
}

TEST_F(CliTest, NonFiniteSdfDelayIsRejected) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string sdf = (dir_ / "and2.sdf").string();
  ASSERT_EQ(run({"convert", "--netlist", netlist, "--to", "sdf", "--out", sdf}), 0);
  std::ifstream in(sdf);
  std::stringstream text;
  text << in.rdbuf();
  std::string bad = text.str();
  const std::size_t open = bad.find("(IOPATH A Y (");
  ASSERT_NE(open, std::string::npos);
  const std::size_t value = open + 13;
  bad.replace(value, bad.find(')', value) - value, "1:inf:2");  // typ = inf
  const std::string bad_path = write("bad.sdf", bad);
  EXPECT_EQ(run({"sta", "--netlist", netlist, "--sdf", bad_path}), 1);
  EXPECT_NE(err_.str().find("bad delay value 'inf'"), std::string::npos) << err_.str();
}

TEST_F(CliTest, ModelVariantsAllRun) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  for (const char* model : {"ddm", "cdm", "cdm-classical", "transport"}) {
    EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", stim, "--model", model}), 0)
        << model;
  }
}

TEST_F(CliTest, SimWithSdfBackAnnotationRoundTrip) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  const std::string sdf = (dir_ / "and2.sdf").string();
  ASSERT_EQ(run({"convert", "--netlist", netlist, "--to", "sdf", "--out", sdf}), 0);
  ASSERT_EQ(run({"sim", "--netlist", netlist, "--stim", stim, "--sdf", sdf}), 0);
  EXPECT_NE(out_.str().find("annotated 3 IOPATH records"), std::string::npos);
  EXPECT_NE(out_.str().find("y = 0"), std::string::npos);
}

TEST_F(CliTest, SimWithThirdPartySdfFixture) {
  // The committed vendor-style fixture: (min:typ:max) triples, 100 ps
  // timescale, extra header entries -- simulated end to end.
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  const std::string fixture =
      std::string(HALOTIS_SOURCE_DIR) + "/tests/sdf/and2_thirdparty.sdf";
  ASSERT_EQ(run({"sim", "--netlist", netlist, "--stim", stim, "--sdf", fixture}), 0);
  EXPECT_NE(out_.str().find("annotated 3 IOPATH records"), std::string::npos);
  EXPECT_NE(out_.str().find("design \"and2_from_vendor_flow\""), std::string::npos);
  EXPECT_NE(out_.str().find("y = 0"), std::string::npos);
  // STA over the same annotated database.
  ASSERT_EQ(run({"sta", "--netlist", netlist, "--sdf", fixture}), 0);
  EXPECT_NE(out_.str().find("critical delay"), std::string::npos);
}

/// `lint --sdf` prints the same annotation report and per-pin warnings as
/// `sim --sdf` (warning cap included), in text mode only: `--format json`
/// stdout stays one JSON document.
TEST_F(CliTest, LintSdfReportMatchesSim) {
  const auto sdf_lines = [](const std::string& text) {
    std::string lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) {
      if (line.rfind("annotated ", 0) == 0 || line.rfind("warning: sdf: ", 0) == 0) {
        lines += line + '\n';
      }
    }
    return lines;
  };
  const auto expect_same_report = [&](const std::string& netlist, const std::string& stim,
                                      const std::string& sdf, const std::string& needle) {
    ASSERT_EQ(run({"sim", "--netlist", netlist, "--stim", stim, "--sdf", sdf}), 0);
    const std::string from_sim = sdf_lines(out_.str());
    EXPECT_NE(from_sim.find(needle), std::string::npos) << from_sim;
    ASSERT_EQ(run({"lint", netlist, "--sdf", sdf, "--fail-on", "none"}), 0);
    EXPECT_EQ(sdf_lines(out_.str()), from_sim);
    ASSERT_EQ(run({"lint", netlist, "--sdf", sdf, "--format", "json", "--fail-on", "none"}),
              0);
    const std::string json = out_.str();
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json[json.find_last_not_of(" \n")], '}');
    EXPECT_EQ(sdf_lines(json), "");
  };

  // The fixture without its INV_X1 cell: one unannotated pin.
  expect_same_report(write("and2.bench", kBench), write("and2.stim", kStim),
                     std::string(HALOTIS_SOURCE_DIR) + "/tests/sdf/and2_partial.sdf",
                     "warning: sdf: no IOPATH for gate 'g_y' pin A -- keeping library delay");

  // 24 unannotated inverters: 20 named, the rest in one summary line.
  std::string chain = "INPUT(n0)\nOUTPUT(n24)\n";
  for (int i = 1; i <= 24; ++i) {
    chain += "n" + std::to_string(i) + " = NOT(n" + std::to_string(i - 1) + ")\n";
  }
  expect_same_report(write("chain.bench", chain), write("chain.stim", "slew 0.4\n"),
                     write("empty.sdf", "(DELAYFILE\n  (SDFVERSION \"3.0\")\n)\n"),
                     "warning: sdf: ... and 4 more unannotated gate inputs");
}

/// `sim --sdf A,B --replay` re-times every corner from the library
/// elaboration plus that corner's own SDF: a corner that leaves a pin
/// unannotated keeps the library delay there, not the reference corner's.
/// Each corner's hash equals a plain `sim --sdf X --hash`, in either order.
TEST_F(CliTest, SimReplayCornersMatchTheirOwnSdf) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  const std::string sdf_dir = std::string(HALOTIS_SOURCE_DIR) + "/tests/sdf/";
  const std::string full = sdf_dir + "and2_thirdparty.sdf";
  const std::string partial = sdf_dir + "and2_partial.sdf";  // no INV_X1 cell

  const auto plain_hash = [&](const std::string& sdf) {
    EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", stim, "--sdf", sdf, "--hash"}), 0);
    const std::string text = out_.str();
    const std::size_t at = text.find("history hash: ");
    return at == std::string::npos ? std::string("missing") : text.substr(at + 14, 16);
  };
  const std::string full_hash = plain_hash(full);
  const std::string partial_hash = plain_hash(partial);
  ASSERT_NE(full_hash, partial_hash) << "the corners must differ";

  for (const std::string& corners : {full + "," + partial, partial + "," + full}) {
    ASSERT_EQ(run({"sim", "--netlist", netlist, "--stim", stim, "--sdf", corners,
                   "--replay"}),
              0)
        << err_.str();
    const std::string text = out_.str();
    for (const auto& [sdf, hash] :
         {std::pair{full, full_hash}, std::pair{partial, partial_hash}}) {
      const std::size_t line = text.find("\ncorner " + sdf + ": ");
      ASSERT_NE(line, std::string::npos) << text;
      const std::string row = text.substr(line + 1, text.find('\n', line + 1) - line - 1);
      EXPECT_NE(row.find("hash " + hash), std::string::npos)
          << "order " << corners << ": " << row;
    }
  }
}

TEST_F(CliTest, StaPerArcDumpsTimingGraph) {
  const std::string netlist = write("and2.bench", kBench);
  ASSERT_EQ(run({"sta", "--netlist", netlist, "--per-arc"}), 0);
  EXPECT_NE(out_.str().find("timing graph: 2 gates, 6 arcs"), std::string::npos);
  EXPECT_NE(out_.str().find("g_n1"), std::string::npos);
  EXPECT_NE(out_.str().find("NAND2_X1"), std::string::npos);
}

TEST_F(CliTest, MalformedSdfFailsWithLineNumber) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string bad = write("bad.sdf", "(DELAYFILE\n(CELL (INSTANCE g_y)\n"
                                           "(DELAY (ABSOLUTE (IOPATH A Y (1) (1))))))\n");
  EXPECT_EQ(run({"sim", "--netlist", netlist, "--sdf", bad}), 1);
  EXPECT_NE(err_.str().find("sdf line 3"), std::string::npos);
}

}  // namespace
}  // namespace halotis
