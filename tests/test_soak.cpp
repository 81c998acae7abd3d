// Failure soak (PR 7 acceptance): hundreds of randomized fail-point
// schedules driven through the CLI entry point, proving three properties
// under arbitrary injected failures:
//
//   * every invocation returns a documented exit code -- never a crash,
//     never a hang (per-test ctest timeout);
//   * no invocation leaves a partial artifact: the atomic-rename writers
//     either publish a complete file or nothing, and no `*.tmp` litter
//     survives;
//   * a run that COMPLETES (exit 0) despite armed fail points is
//     bit-identical to a clean reference run -- injected failures abort
//     work, they never corrupt surviving results.
//
// The schedule stream is a pure function of a SplitMix64 seed, so a soak
// failure reproduces exactly.  CI runs this suite under ASan with the
// same schedules, turning every injected-failure unwind path into a leak
// check.  The cancellation exit (5) is deliberately not soaked here: the
// CLI token is process-global with no reset, and test_supervision pins it
// in a dedicated last test.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/failpoint.hpp"
#include "src/base/rng.hpp"
#include "src/tools/cli.hpp"

namespace halotis {
namespace {

class SoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("halotis_soak_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    FailPoints::instance().disarm_all();
    std::filesystem::remove_all(dir_);
  }

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

  static std::string slurp(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  /// Every regular file below `root`, as relative-path -> bytes.
  static std::map<std::string, std::string> snapshot_tree(
      const std::filesystem::path& root) {
    std::map<std::string, std::string> tree;
    if (!std::filesystem::exists(root)) return tree;
    for (const auto& entry : std::filesystem::recursive_directory_iterator(root)) {
      if (!entry.is_regular_file()) continue;
      tree[entry.path().lexically_relative(root).generic_string()] =
          slurp(entry.path());
    }
    return tree;
  }

  void expect_no_tmp_litter(const std::string& context) {
    for (const auto& entry : std::filesystem::recursive_directory_iterator(dir_)) {
      if (!entry.is_regular_file()) continue;
      EXPECT_NE(entry.path().extension(), ".tmp")
          << context << " left partial artifact " << entry.path();
    }
  }

  std::filesystem::path dir_;
  std::ostringstream out_;
  std::ostringstream err_;

  // ISCAS c17 (6 NAND2 gates): big enough for a 22-fault campaign and a
  // multi-event sim, small enough for hundreds of soak iterations.
  static constexpr const char* kBench = R"(INPUT(N1)
INPUT(N2)
INPUT(N3)
INPUT(N6)
INPUT(N7)
OUTPUT(N22)
OUTPUT(N23)
N10 = NAND(N1, N3)
N11 = NAND(N3, N6)
N16 = NAND(N2, N11)
N19 = NAND(N11, N7)
N22 = NAND(N10, N16)
N23 = NAND(N16, N19)
)";
  static constexpr const char* kStim = R"(slew 0.4
init N1 0
init N2 1
init N3 0
init N6 1
init N7 0
edge N1 5.0 1
edge N3 7.5 1
edge N7 10.0 1
edge N2 12.5 0
edge N1 15.0 0
)";
};

TEST_F(SoakTest, RandomizedFailPointSchedules) {
  const std::string netlist = write("c17.bench", kBench);
  const std::string stim = write("c17.stim", kStim);
  const std::string vcd = (dir_ / "waves.vcd").string();
  const std::string repro_out = (dir_ / "repro-out").string();

  // ---- clean references (no fail points armed) ------------------------------
  ASSERT_EQ(run({"sim", "--netlist", netlist, "--stim", stim, "--vcd", vcd}), 0);
  const std::string ref_vcd = slurp(vcd);
  ASSERT_FALSE(ref_vcd.empty());

  ASSERT_EQ(run({"fault", "--netlist", netlist, "--stim", stim}), 0);
  std::string ref_coverage;
  {
    std::istringstream lines(out_.str());
    ASSERT_TRUE(std::getline(lines, ref_coverage));  // "stuck-at coverage: ..."
    ASSERT_NE(ref_coverage.find("stuck-at coverage"), std::string::npos);
  }

  ASSERT_EQ(run({"repro", "--only", "sta_vs_sim", "--quick", "--out", repro_out}), 0);
  const auto ref_repro = snapshot_tree(repro_out);
  ASSERT_FALSE(ref_repro.empty());

  // ---- randomized schedules -------------------------------------------------
  static constexpr const char* kSites[] = {
      "io.open",   "io.write",    "io.write.short",       "io.close",
      "io.rename", "worker.task", "alloc.simulator.arena",
  };
  constexpr int kSchedules = 220;
  SplitMix64 rng(0xC0FFEE5EEDULL);
  int completed = 0;
  int failed = 0;
  for (int i = 0; i < kSchedules; ++i) {
    // 1-2 sites, random 1-based ordinal, occasional repeat ('*').
    std::string spec;
    const int nsites = 1 + static_cast<int>(rng.next_below(2));
    for (int s = 0; s < nsites; ++s) {
      if (s > 0) spec += ';';
      spec += kSites[rng.next_below(std::size(kSites))];
      spec += '@' + std::to_string(1 + rng.next_below(4));
      if (rng.next_below(4) == 0) spec += '*';
    }

    std::vector<std::string> args;
    const std::uint64_t flavour = rng.next_below(20);
    enum class Cmd { kSim, kFault, kRepro } cmd;
    if (flavour == 0) {
      cmd = Cmd::kRepro;  // ~5%: the expensive multi-experiment driver
      args = {"repro", "--only", "sta_vs_sim", "--quick", "--out", repro_out};
    } else if (flavour < 10) {
      cmd = Cmd::kSim;
      args = {"sim", "--netlist", netlist, "--stim", stim, "--vcd", vcd};
    } else {
      cmd = Cmd::kFault;
      args = {"fault", "--netlist", netlist, "--stim", stim};
      if (rng.next_below(2) == 0) args.insert(args.end(), {"--threads", "2"});
    }
    if (rng.next_below(4) == 0) {  // sometimes a tight event budget on top
      args.insert(args.end(),
                  {"--budget-events", std::to_string(1 + rng.next_below(2000))});
    }
    args.insert(args.end(), {"--failpoints", spec});

    const std::string context =
        "schedule " + std::to_string(i) + ": " + args[0] + " --failpoints " + spec;
    SCOPED_TRACE(context);

    std::filesystem::remove(vcd);  // each sim run republishes or fails clean
    const int exit_code = run(args);

    // Documented taxonomy only: 0 ok, 1 injected/internal failure,
    // 3 budget, 6 I/O (4/5 need a deadline/token this soak never arms).
    EXPECT_TRUE(exit_code == 0 || exit_code == 1 || exit_code == 3 ||
                exit_code == 6)
        << "exit " << exit_code << "; stderr: " << err_.str();
    expect_no_tmp_litter(context);

    if (exit_code != 0) {
      ++failed;
      // An aborted sim must not publish a torn VCD: all or nothing.
      if (cmd == Cmd::kSim && std::filesystem::exists(vcd)) {
        EXPECT_EQ(slurp(vcd), ref_vcd);
      }
      continue;
    }
    ++completed;
    // Completed despite armed fail points: bit-identical to the clean run.
    if (cmd == Cmd::kSim) {
      EXPECT_EQ(slurp(vcd), ref_vcd);
    } else if (cmd == Cmd::kFault) {
      std::istringstream lines(out_.str());
      std::string coverage;
      ASSERT_TRUE(std::getline(lines, coverage));
      EXPECT_EQ(coverage, ref_coverage);
    } else {
      const auto tree = snapshot_tree(repro_out);
      EXPECT_EQ(tree.size(), ref_repro.size());
      for (const auto& [name, bytes] : ref_repro) {
        const auto it = tree.find(name);
        ASSERT_NE(it, tree.end()) << "missing artifact " << name;
        EXPECT_EQ(it->second, bytes) << "artifact " << name << " diverged";
      }
    }
  }
  // The schedule mix must actually exercise both regimes.
  EXPECT_GT(completed, 20) << "soak never completed a run";
  EXPECT_GT(failed, 40) << "soak never injected an effective failure";
}

}  // namespace
}  // namespace halotis
