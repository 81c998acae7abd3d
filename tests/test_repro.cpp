// Tests for the paper-reproduction engine: registry shape, artifact
// helpers, determinism of the generated artifacts across reruns and
// thread counts, the committed golden hashes, the CLI surface, and the
// VCD writer -> reader round trip the experiments' trace artifacts rely on.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/base/check.hpp"
#include "src/base/supervision.hpp"
#include "src/circuits/generators.hpp"
#include "src/core/simulator.hpp"
#include "src/repro/artifacts.hpp"
#include "src/repro/experiment.hpp"
#include "src/repro/runner.hpp"
#include "src/tools/cli.hpp"
#include "src/waveform/vcd.hpp"
#include "src/waveform/vcd_reader.hpp"

namespace halotis {
namespace {

using repro::CsvBuilder;
using repro::ExperimentRegistry;
using repro::GoldenEntry;
using repro::GoldenStatus;
using repro::RunOptions;
using repro::RunReport;

TEST(ReproRegistry, BuiltinHasTheDocumentedExperiments) {
  const ExperimentRegistry registry = ExperimentRegistry::builtin();
  ASSERT_GE(registry.experiments().size(), 5u);
  for (const repro::Experiment& experiment : registry.experiments()) {
    EXPECT_FALSE(experiment.id.empty());
    EXPECT_FALSE(experiment.title.empty());
    EXPECT_FALSE(experiment.paper_ref.empty()) << experiment.id;
    EXPECT_FALSE(experiment.description.empty()) << experiment.id;
    EXPECT_TRUE(static_cast<bool>(experiment.run)) << experiment.id;
    // Ids are unique (find returns the first and only match).
    EXPECT_EQ(registry.find(experiment.id), &experiment);
  }
  EXPECT_NE(registry.find("mult8_glitch_activity"), nullptr);
  EXPECT_EQ(registry.find("no_such_experiment"), nullptr);
}

TEST(ReproRegistry, RejectsDuplicateAndEmptyIds) {
  ExperimentRegistry registry;
  const auto body = [](const repro::ExperimentContext&) { return repro::ExperimentResult{}; };
  registry.add(repro::Experiment{"a", "A", "Fig. 0", "demo", body});
  EXPECT_THROW(registry.add(repro::Experiment{"a", "A2", "Fig. 0", "demo", body}),
               ContractViolation);
  EXPECT_THROW(registry.add(repro::Experiment{"", "B", "Fig. 0", "demo", body}),
               ContractViolation);
}

TEST(ReproArtifacts, Fnv1a64AndHexAreStable) {
  // The offset basis matches bench/perf_report.cpp's history hash so both
  // tools speak the same hash dialect; these values pin it forever (the
  // committed goldens depend on them).
  EXPECT_EQ(repro::fnv1a64(""), 1469598103934665603ULL);
  EXPECT_EQ(repro::fnv1a64("a"), 4953267810257967366ULL);
  EXPECT_EQ(repro::hash_hex(4953267810257967366ULL), "44bd8ad473cd9906");
  EXPECT_EQ(repro::hash_hex(0), "0000000000000000");
}

TEST(ReproArtifacts, CsvBuilderEnforcesShape) {
  CsvBuilder csv({"a", "b"});
  csv.cell(1).cell(2.5);
  csv.end_row();
  EXPECT_EQ(csv.str(), "a,b\n1,2.5\n");
  csv.cell("x");
  EXPECT_THROW((void)csv.str(), ContractViolation);  // open row
  EXPECT_THROW(csv.end_row(), ContractViolation);    // short row
  csv.cell("y");
  EXPECT_THROW(csv.cell("overflow"), ContractViolation);
  EXPECT_THROW(csv.cell("has,comma"), ContractViolation);
}

TEST(ReproArtifacts, GoldenFormatRoundTripsAndRejectsGarbage) {
  const std::vector<GoldenEntry> entries{{"exp1", "data.csv", 0x0123456789abcdefULL},
                                         {"exp2", "trace.vcd", 42}};
  const std::string text = "# comment\n\n" + repro::format_goldens(entries);
  EXPECT_EQ(repro::parse_goldens(text), entries);
  EXPECT_THROW(repro::parse_goldens("one two"), ContractViolation);
  EXPECT_THROW(repro::parse_goldens("a b shorthash"), ContractViolation);
  EXPECT_THROW(repro::parse_goldens("a b 01234567commaXYZ"), ContractViolation);
}

// The acceptance contract: every quick-mode artifact is bit-identical
// across reruns and across worker-pool widths.
TEST(ReproRunner, QuickArtifactsAreDeterministicAcrossRerunsAndThreads) {
  const ExperimentRegistry registry = ExperimentRegistry::builtin();
  RunOptions options;
  options.quick = true;
  options.threads = 1;
  const RunReport one = repro::run_experiments(registry, options);
  options.threads = 4;
  const RunReport four = repro::run_experiments(registry, options);
  const RunReport again = repro::run_experiments(registry, options);

  ASSERT_EQ(one.outcomes.size(), four.outcomes.size());
  EXPECT_EQ(repro::format_goldens(one.hashes()), repro::format_goldens(four.hashes()));
  EXPECT_EQ(repro::format_goldens(four.hashes()), repro::format_goldens(again.hashes()));
  EXPECT_EQ(repro::format_report_markdown(one), repro::format_report_markdown(four));
  for (std::size_t i = 0; i < one.outcomes.size(); ++i) {
    ASSERT_EQ(one.outcomes[i].result.artifacts.size(),
              four.outcomes[i].result.artifacts.size());
    for (std::size_t a = 0; a < one.outcomes[i].result.artifacts.size(); ++a) {
      EXPECT_EQ(one.outcomes[i].result.artifacts[a].content,
                four.outcomes[i].result.artifacts[a].content)
          << one.outcomes[i].id << "/" << one.outcomes[i].result.artifacts[a].name;
    }
  }
}

// The committed goldens must match a fresh quick run -- the same diff CI
// performs.  A legitimate change to an experiment regenerates
// tests/repro/golden_quick.txt (instructions in the file header).
TEST(ReproRunner, QuickRunMatchesCommittedGoldens) {
  const std::filesystem::path golden_path =
      std::filesystem::path(HALOTIS_SOURCE_DIR) / "tests" / "repro" / "golden_quick.txt";
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << golden_path;
  std::stringstream text;
  text << in.rdbuf();

  const ExperimentRegistry registry = ExperimentRegistry::builtin();
  RunOptions options;
  options.quick = true;
  options.golden_text = text.str();
  const RunReport report = repro::run_experiments(registry, options);
  EXPECT_TRUE(report.compared_goldens);
  EXPECT_TRUE(report.stale_goldens.empty());
  for (const repro::ExperimentOutcome& outcome : report.outcomes) {
    EXPECT_TRUE(outcome.error.empty()) << outcome.id << ": " << outcome.error;
    for (const repro::ArtifactRecord& record : outcome.records) {
      EXPECT_EQ(record.status, GoldenStatus::kMatch)
          << outcome.id << "/" << record.name << " hash " << repro::hash_hex(record.hash);
    }
  }
  EXPECT_TRUE(report.ok());
}

TEST(ReproRunner, MismatchAndStaleGoldensFailTheRun) {
  ExperimentRegistry registry;
  registry.add(repro::Experiment{
      "tiny", "Tiny", "Fig. 0", "one constant artifact",
      [](const repro::ExperimentContext&) {
        repro::ExperimentResult result;
        result.artifacts.push_back(repro::Artifact{"x.csv", "a\n1\n"});
        return result;
      }});
  RunOptions options;
  options.golden_text = repro::format_goldens(
      {{"tiny", "x.csv", 0xdeadbeefULL}, {"tiny", "gone.csv", 1}});
  const RunReport report = repro::run_experiments(registry, options);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.golden_mismatches, 1u);
  ASSERT_EQ(report.stale_goldens.size(), 1u);
  EXPECT_EQ(report.stale_goldens[0].artifact, "gone.csv");
  // An --only subset legitimately skips entries: no staleness check.
  options.only = {"tiny"};
  EXPECT_TRUE(repro::run_experiments(registry, options).stale_goldens.empty());
}

TEST(ReproRunner, ExperimentExceptionIsCapturedNotPropagated) {
  ExperimentRegistry registry;
  registry.add(repro::Experiment{"boom", "Boom", "Fig. 0", "always throws",
                                 [](const repro::ExperimentContext&) -> repro::ExperimentResult {
                                   require(false, "intentional failure");
                                   return {};
                                 }});
  const RunReport report = repro::run_experiments(registry, RunOptions{});
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_NE(report.outcomes[0].error.find("intentional failure"), std::string::npos);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(repro::format_report_markdown(report).find("ERROR"), std::string::npos);
}

TEST(ReproRunner, CancelledSupervisorRethrowsTheOriginalRunError) {
  ExperimentRegistry registry;
  std::atomic<int> ran{0};
  for (const char* id : {"a", "b", "c", "d"}) {
    registry.add(repro::Experiment{id, id, "Fig. 0", "counts its runs",
                                   [&](const repro::ExperimentContext&) {
                                     ran.fetch_add(1, std::memory_order_relaxed);
                                     return repro::ExperimentResult{};
                                   }});
  }
  CancelToken token;
  RunSupervisor supervisor(RunBudget{}, token);
  supervisor.arm();
  token.cancel();
  RunOptions options;
  options.supervisor = &supervisor;
  for (const int threads : {1, 4}) {
    options.threads = threads;
    try {
      (void)repro::run_experiments(registry, options);
      ADD_FAILURE() << "expected RunError(kCancelled) at " << threads << " threads";
    } catch (const RunError& e) {
      EXPECT_EQ(e.kind(), RunErrorKind::kCancelled) << threads << " threads";
    }
  }
  EXPECT_EQ(ran.load(), 0);  // the coarse check runs before every body
}

TEST(ReproRunner, UnknownOnlyIdThrows) {
  const ExperimentRegistry registry = ExperimentRegistry::builtin();
  RunOptions options;
  options.only = {"bogus_experiment"};
  EXPECT_THROW((void)repro::run_experiments(registry, options), ContractViolation);
}

// A golden file that pins nothing (e.g. truncated to its comment header)
// must fail loudly, never turn the diff gate into a vacuous pass.
TEST(ReproRunner, EmptyGoldenFileIsRejected) {
  const ExperimentRegistry registry = ExperimentRegistry::builtin();
  RunOptions options;
  options.quick = true;
  options.only = {"sta_vs_sim"};
  options.golden_text = "# just comments\n\n";
  EXPECT_THROW((void)repro::run_experiments(registry, options), ContractViolation);
}

// ---- CLI surface ------------------------------------------------------------

class ReproCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("halotis_repro_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  int run(const std::vector<std::string>& args) {
    out_.str("");
    err_.str("");
    return run_cli(args, out_, err_);
  }

  std::filesystem::path dir_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(ReproCliTest, ListShowsEveryRegisteredExperiment) {
  ASSERT_EQ(run({"repro", "--list"}), 0);
  const ExperimentRegistry registry = ExperimentRegistry::builtin();
  for (const repro::Experiment& experiment : registry.experiments()) {
    EXPECT_NE(out_.str().find(experiment.id), std::string::npos) << experiment.id;
  }
  // --list only lists; nothing is written.
  EXPECT_EQ(out_.str().find("wrote"), std::string::npos);
}

TEST_F(ReproCliTest, OnlyRunsTheRequestedExperiment) {
  const std::string out_dir = (dir_ / "out").string();
  ASSERT_EQ(run({"repro", "--only", "sta_vs_sim", "--quick", "--out", out_dir}), 0);
  EXPECT_TRUE(std::filesystem::exists(dir_ / "out" / "sta_vs_sim" / "sta_crosscheck.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "out" / "REPORT.md"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "out" / "HASHES.txt"));
  EXPECT_FALSE(std::filesystem::exists(dir_ / "out" / "mult8_glitch_activity"));

  // HASHES.txt parses and names only the selected experiment.
  std::ifstream hashes(dir_ / "out" / "HASHES.txt");
  std::stringstream text;
  text << hashes.rdbuf();
  for (const GoldenEntry& entry : repro::parse_goldens(text.str())) {
    EXPECT_EQ(entry.experiment, "sta_vs_sim");
  }
}

TEST_F(ReproCliTest, UnknownExperimentIdFails) {
  EXPECT_EQ(run({"repro", "--only", "bogus", "--out", (dir_ / "o").string()}), 1);
  EXPECT_NE(err_.str().find("unknown experiment"), std::string::npos);
}

TEST_F(ReproCliTest, GoldenMismatchSetsExitCode) {
  std::ofstream golden(dir_ / "golden.txt");
  golden << "sta_vs_sim sta_crosscheck.csv 0000000000000000\n";
  golden.close();
  EXPECT_EQ(run({"repro", "--only", "sta_vs_sim", "--quick", "--out",
                 (dir_ / "out").string(), "--golden", (dir_ / "golden.txt").string()}),
            1);
  EXPECT_NE(out_.str().find("MISMATCH"), std::string::npos);
}

// ---- VCD round trip ---------------------------------------------------------

// The experiments' trace artifacts are VCD dumps; closing the loop through
// the reader proves they carry the simulated waveforms (up to the writer's
// 1 ps tick quantization).
TEST(ReproVcd, WriterReaderRoundTripPreservesWaveforms) {
  const Library lib = Library::default_u6();
  const DdmDelayModel ddm;
  ChainCircuit chain = make_chain(lib, 4);
  Stimulus stim(0.4);
  stim.set_initial(chain.nodes[0], false);
  stim.add_edge(chain.nodes[0], 5.0, true);
  stim.add_edge(chain.nodes[0], 5.5, false);  // wide enough to survive
  Simulator sim(chain.netlist, ddm);
  sim.apply_stimulus(stim);
  (void)sim.run();

  const std::string dump = vcd_from_simulator(sim, chain.nodes, "roundtrip").to_string();
  const VcdDocument doc = read_vcd(dump);
  EXPECT_DOUBLE_EQ(doc.tick_ns, 0.001);
  ASSERT_EQ(doc.signals.size(), chain.nodes.size());

  for (const SignalId node : chain.nodes) {
    const std::string& name = chain.netlist.signal(node).name;
    const auto it = doc.signals.find(name);
    ASSERT_NE(it, doc.signals.end()) << name;
    const DigitalWaveform expected =
        DigitalWaveform::from_transitions(sim.initial_value(node), sim.history(node));
    EXPECT_EQ(it->second.initial_value(), expected.initial_value()) << name;
    ASSERT_EQ(it->second.edge_count(), expected.edge_count()) << name;
    for (std::size_t e = 0; e < expected.edge_count(); ++e) {
      EXPECT_EQ(it->second.edges()[e].sense, expected.edges()[e].sense) << name;
      EXPECT_NEAR(it->second.edges()[e].time, expected.edges()[e].time, 0.0015) << name;
    }
    EXPECT_EQ(it->second.final_value(), expected.final_value()) << name;
  }
}

}  // namespace
}  // namespace halotis
