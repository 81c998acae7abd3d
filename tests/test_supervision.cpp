// Tests for the supervision + fault-injection layer (PR 7 acceptance):
//
//   * the fail-point registry fires on exact 1-based hit ordinals, with
//     one-shot / repeat semantics and spec-string arming;
//   * run budgets stop the kernel at the bit-identical event ordinal on
//     every rerun, also on a reset() or rebind()-ed simulator whose arenas
//     an earlier, larger run grew, and a completed supervised run is
//     bit-identical to an unsupervised one;
//   * write_file_atomic never leaves a partial artifact, whichever io.*
//     site the failure is injected at;
//   * WorkerPool stops a sweep at its first failure and rethrows that
//     exception unchanged;
//   * the campaign retries a transient worker failure once and turns a
//     persistent one into per-fault kVerdictError verdicts;
//   * the CLI maps the RunError taxonomy onto the documented exit codes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/base/check.hpp"
#include "src/base/failpoint.hpp"
#include "src/base/fileio.hpp"
#include "src/base/supervision.hpp"
#include "src/base/worker_pool.hpp"
#include "src/circuits/generators.hpp"
#include "src/circuits/stimuli.hpp"
#include "src/core/simulator.hpp"
#include "src/fault/campaign.hpp"
#include "src/tools/cli.hpp"

namespace halotis {
namespace {

/// The storm-guard circuit (bench/perf_report.cpp): a NAND-kicked ring of
/// an even number of inverters.  With `en` low it settles; the rise of
/// `en` starts a self-sustaining oscillation only a budget can stop.
struct RingCircuit {
  Netlist nl;
  SignalId en;
  SignalId out;

  explicit RingCircuit(const Library& lib, int inverters = 6) : nl(lib) {
    en = nl.add_primary_input("en");
    std::vector<SignalId> ring;
    for (int i = 0; i <= inverters; ++i) {
      ring.push_back(nl.add_signal("r" + std::to_string(i)));
    }
    const SignalId nand_in[] = {en, ring.back()};
    nl.add_gate("g_kick", CellKind::kNand2, nand_in, ring[0]);
    for (int i = 0; i < inverters; ++i) {
      const SignalId inv_in[] = {ring[static_cast<std::size_t>(i)]};
      nl.add_gate("g_inv" + std::to_string(i), CellKind::kInv, inv_in,
                  ring[static_cast<std::size_t>(i) + 1]);
    }
    out = ring.back();
    nl.mark_primary_output(out);
  }

  [[nodiscard]] Stimulus stimulus() const {
    Stimulus stim(0.4);
    stim.set_initial(en, false);
    stim.add_edge(en, 1.0, true);
    return stim;
  }
};

/// Every test arms through this fixture so a failing assertion cannot
/// leak an armed site into the next test (the registry is process-global).
class FailPointTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPoints::instance().disarm_all(); }
};

using SupervisionTest = FailPointTest;
using CampaignFailureTest = FailPointTest;

// ---- fail-point registry ----------------------------------------------------

TEST_F(FailPointTest, DisarmedRegistryIsInert) {
  EXPECT_FALSE(FailPoints::instance().any_armed());
  EXPECT_FALSE(failpoint("never.armed"));
  EXPECT_EQ(FailPoints::instance().hits("never.armed"), 0u);
  EXPECT_NO_THROW(failpoint_throw("never.armed"));
}

TEST_F(FailPointTest, FiresOnExactHitOrdinalOnce) {
  FailPoints::instance().arm("x", 3);
  EXPECT_TRUE(FailPoints::instance().any_armed());
  EXPECT_FALSE(failpoint("x"));
  EXPECT_FALSE(failpoint("x"));
  EXPECT_TRUE(failpoint("x"));   // the 3rd hit
  EXPECT_FALSE(failpoint("x"));  // one-shot: never again
  EXPECT_EQ(FailPoints::instance().hits("x"), 4u);
  EXPECT_FALSE(failpoint("y"));  // other sites unaffected
}

TEST_F(FailPointTest, RepeatKeepsFiringFromOrdinal) {
  FailPoints::instance().arm("x", 2, /*repeat=*/true);
  EXPECT_FALSE(failpoint("x"));
  EXPECT_TRUE(failpoint("x"));
  EXPECT_TRUE(failpoint("x"));
  EXPECT_TRUE(failpoint("x"));
}

TEST_F(FailPointTest, RearmingRestartsTheCounter) {
  FailPoints::instance().arm("x", 2);
  EXPECT_FALSE(failpoint("x"));
  FailPoints::instance().arm("x", 1);
  EXPECT_TRUE(failpoint("x"));  // counter restarted: first hit after re-arm
}

TEST_F(FailPointTest, DisarmAllForgetsEverything) {
  FailPoints::instance().arm("x", 1);
  FailPoints::instance().disarm_all();
  EXPECT_FALSE(FailPoints::instance().any_armed());
  EXPECT_FALSE(failpoint("x"));
  EXPECT_EQ(FailPoints::instance().hits("x"), 0u);
}

TEST_F(FailPointTest, ThrowingFlavourThrowsFailPointError) {
  FailPoints::instance().arm("x", 1);
  try {
    failpoint_throw("x");
    FAIL() << "expected FailPointError";
  } catch (const FailPointError& e) {
    EXPECT_NE(std::string(e.what()).find("'x'"), std::string::npos);
  }
}

TEST_F(FailPointTest, SpecArmsOrdinalAndRepeatEntries) {
  FailPoints::instance().arm_spec(" a@2 ; b* , c ");
  EXPECT_FALSE(failpoint("a"));
  EXPECT_TRUE(failpoint("a"));
  EXPECT_TRUE(failpoint("b"));
  EXPECT_TRUE(failpoint("b"));  // repeat
  EXPECT_TRUE(failpoint("c"));  // default: first hit
}

TEST_F(FailPointTest, MalformedSpecThrowsContractViolation) {
  EXPECT_THROW(FailPoints::instance().arm_spec("x@"), ContractViolation);
  EXPECT_THROW(FailPoints::instance().arm_spec("x@z"), ContractViolation);
  EXPECT_THROW(FailPoints::instance().arm_spec("x@0"), ContractViolation);
  EXPECT_THROW(FailPoints::instance().arm_spec("@2"), ContractViolation);
}

// ---- run supervision --------------------------------------------------------

TEST_F(SupervisionTest, ExitCodeTaxonomyIsDocumentedMapping) {
  EXPECT_EQ(RunError::exit_code(RunErrorKind::kContractViolation), 1);
  EXPECT_EQ(RunError::exit_code(RunErrorKind::kBudgetExceeded), 3);
  EXPECT_EQ(RunError::exit_code(RunErrorKind::kDeadlineExceeded), 4);
  EXPECT_EQ(RunError::exit_code(RunErrorKind::kCancelled), 5);
  EXPECT_EQ(RunError::exit_code(RunErrorKind::kIoError), 6);
  const RunError e(RunErrorKind::kBudgetExceeded, "x");
  EXPECT_EQ(e.exit_code(), 3);
}

TEST_F(SupervisionTest, EventBudgetStopsAtBitIdenticalOrdinal) {
  const Library lib = Library::default_u6();
  const DdmDelayModel ddm;
  const RingCircuit ring(lib);

  RunBudget budget;
  budget.max_events = 2000;
  const auto run_once = [&](std::vector<Transition>* history) {
    RunSupervisor supervisor(budget);
    supervisor.arm();
    Simulator sim(ring.nl, ddm);
    sim.supervise(&supervisor);
    sim.apply_stimulus(ring.stimulus());
    try {
      (void)sim.run();
      ADD_FAILURE() << "ring oscillator finished under an event budget";
    } catch (const RunError& e) {
      EXPECT_EQ(e.kind(), RunErrorKind::kBudgetExceeded);
      EXPECT_NE(std::string(e.what()).find("event budget"), std::string::npos);
    }
    *history = sim.history(ring.out);
    return sim.stats().events_processed;
  };

  std::vector<Transition> h1;
  std::vector<Transition> h2;
  const std::uint64_t e1 = run_once(&h1);
  const std::uint64_t e2 = run_once(&h2);
  // The budget trips on the exact first over-budget ordinal, every rerun.
  EXPECT_EQ(e1, budget.max_events + 1);
  EXPECT_EQ(e2, e1);
  ASSERT_EQ(h1.size(), h2.size());
  for (std::size_t i = 0; i < h1.size(); ++i) {
    EXPECT_EQ(h1[i].t_start, h2[i].t_start) << "transition " << i;
    EXPECT_EQ(h1[i].edge, h2[i].edge) << "transition " << i;
  }
}

TEST_F(SupervisionTest, CompletedRunIsUnaffectedByArmedSupervisor) {
  const Library lib = Library::default_u6();
  const DdmDelayModel ddm;
  MultiplierCircuit mult = make_multiplier(lib, 4);
  std::vector<SignalId> ab;
  for (SignalId s : mult.a) ab.push_back(s);
  for (SignalId s : mult.b) ab.push_back(s);
  Stimulus stim = staggered_random_stimulus(ab, 16, 7);
  stim.set_initial(mult.tie0, false);

  Simulator plain(mult.netlist, ddm);
  plain.apply_stimulus(stim);
  (void)plain.run();

  RunBudget budget;  // every budget armed, none close
  budget.max_events = plain.stats().events_processed * 10 + 1000;
  budget.max_arena_bytes = 1u << 30;
  budget.deadline_s = 3600.0;
  budget.poll_events = 16;  // poll often: checks must stay side-effect free
  RunSupervisor supervisor(budget);
  supervisor.arm();
  Simulator supervised(mult.netlist, ddm);
  supervised.supervise(&supervisor);
  supervised.apply_stimulus(stim);
  (void)supervised.run();

  EXPECT_EQ(supervised.stats().events_processed, plain.stats().events_processed);
  for (const SignalId po : mult.netlist.primary_outputs()) {
    const auto ha = plain.history(po);
    const auto hb = supervised.history(po);
    ASSERT_EQ(ha.size(), hb.size());
    for (std::size_t i = 0; i < ha.size(); ++i) {
      EXPECT_EQ(ha[i].t_start, hb[i].t_start);
      EXPECT_EQ(ha[i].tau, hb[i].tau);
      EXPECT_EQ(ha[i].edge, hb[i].edge);
    }
  }
}

TEST_F(SupervisionTest, MemoryBudgetsTripAtPolls) {
  const Library lib = Library::default_u6();
  const DdmDelayModel ddm;
  MultiplierCircuit mult = make_multiplier(lib, 4);
  std::vector<SignalId> ab;
  for (SignalId s : mult.a) ab.push_back(s);
  for (SignalId s : mult.b) ab.push_back(s);
  Stimulus stim = staggered_random_stimulus(ab, 16, 7);
  stim.set_initial(mult.tie0, false);

  const auto expect_trip = [&](const RunBudget& budget, const char* needle) {
    RunSupervisor supervisor(budget);
    supervisor.arm();
    SimConfig config;
    config.max_events = 200000;  // a missed trip fails fast, not in minutes
    Simulator sim(mult.netlist, ddm, config);
    sim.supervise(&supervisor);
    sim.apply_stimulus(stim);
    try {
      (void)sim.run();
      ADD_FAILURE() << "expected a budget trip (" << needle << ")";
    } catch (const RunError& e) {
      EXPECT_EQ(e.kind(), RunErrorKind::kBudgetExceeded);
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  RunBudget arena;
  arena.max_arena_bytes = 1;
  arena.poll_events = 16;
  expect_trip(arena, "arena-byte");
}

TEST_F(SupervisionTest, MemoryBudgetVerdictDependsOnlyOnThisRun) {
  // A pooled simulator (the daemon's lease, a campaign worker) keeps the
  // arena capacity an earlier, larger run reserved.  The memory budget
  // charges this run's records only, so a fresh, a reset() and a
  // rebind()-ed simulator reach the same verdict at the same event ordinal.
  const Library lib = Library::default_u6();
  const DdmDelayModel ddm;
  const LayeredCircuit design = make_layered_circuit(lib, 40, 30, 11);
  const LayeredCircuit other = make_layered_circuit(lib, 60, 30, 12);
  const TimingGraph graph = TimingGraph::build(design.netlist, ddm.timing_policy());
  const TimingGraph other_graph = TimingGraph::build(other.netlist, ddm.timing_policy());
  const Stimulus stim = staggered_random_stimulus(design.inputs, 2, 5);
  const Stimulus earlier = staggered_random_stimulus(design.inputs, 40, 6);
  const Stimulus other_earlier = staggered_random_stimulus(other.inputs, 40, 7);

  struct Verdict {
    bool tripped = false;
    std::uint64_t events = 0;
    std::string message;
  };
  const auto supervised_run = [&](Simulator& sim, std::uint64_t max_bytes) {
    RunBudget budget;
    budget.max_arena_bytes = max_bytes;
    budget.poll_events = 16;
    RunSupervisor supervisor(budget);
    supervisor.arm();
    sim.supervise(&supervisor);
    sim.apply_stimulus(stim);
    Verdict verdict;
    try {
      (void)sim.run();
    } catch (const RunError& e) {
      EXPECT_EQ(e.kind(), RunErrorKind::kBudgetExceeded);
      verdict.tripped = true;
      verdict.message = e.what();
    }
    verdict.events = sim.stats().events_processed;
    sim.supervise(nullptr);
    return verdict;
  };

  // What the run writes, from an unsupervised fresh simulator.
  Simulator probe(design.netlist, ddm, graph);
  probe.apply_stimulus(stim);
  (void)probe.run();
  const std::uint64_t written = probe.transition_arena_bytes() + probe.event_arena_bytes();
  const std::uint64_t events = probe.stats().events_processed;
  ASSERT_GT(events, 1000u);

  for (const std::uint64_t max_bytes : {2 * written, written / 2}) {
    SCOPED_TRACE("budget " + std::to_string(max_bytes) + " bytes");
    Simulator fresh(design.netlist, ddm, graph);
    const Verdict expected = supervised_run(fresh, max_bytes);
    EXPECT_EQ(expected.tripped, max_bytes < written);
    if (!expected.tripped) {
      EXPECT_EQ(expected.events, events);
    }

    Simulator recycled(design.netlist, ddm, graph);
    recycled.apply_stimulus(earlier);
    (void)recycled.run();
    recycled.reset();
    const Verdict after_reset = supervised_run(recycled, max_bytes);

    Simulator rebound(other.netlist, ddm, other_graph);
    rebound.apply_stimulus(other_earlier);
    (void)rebound.run();
    rebound.rebind(design.netlist, ddm, graph);
    const Verdict after_rebind = supervised_run(rebound, max_bytes);

    for (const Verdict* verdict : {&after_reset, &after_rebind}) {
      EXPECT_EQ(verdict->tripped, expected.tripped) << verdict->message;
      EXPECT_EQ(verdict->events, expected.events);
      EXPECT_EQ(verdict->message, expected.message);
    }
  }
}

TEST_F(SupervisionTest, DeadlineAndCancellationAbortTheRun) {
  const Library lib = Library::default_u6();
  const DdmDelayModel ddm;
  const RingCircuit ring(lib);

  const auto run_expecting = [&](const RunSupervisor& supervisor,
                                 RunErrorKind expected) {
    Simulator sim(ring.nl, ddm);
    sim.supervise(&supervisor);
    sim.apply_stimulus(ring.stimulus());
    try {
      (void)sim.run();
      ADD_FAILURE() << "expected " << RunError::kind_name(expected);
    } catch (const RunError& e) {
      EXPECT_EQ(e.kind(), expected);
    }
  };

  RunBudget deadline;
  deadline.deadline_s = 1e-6;  // expires before the first poll completes
  deadline.poll_events = 256;
  RunSupervisor with_deadline(deadline);
  with_deadline.arm();
  run_expecting(with_deadline, RunErrorKind::kDeadlineExceeded);

  RunBudget cancellable;
  cancellable.poll_events = 256;
  CancelToken token;
  RunSupervisor with_token(cancellable, token);
  with_token.arm();
  token.cancel();  // copies share the flag
  EXPECT_TRUE(with_token.cancelled());
  run_expecting(with_token, RunErrorKind::kCancelled);
}

TEST_F(SupervisionTest, InjectedArenaAllocationFailureThrowsBadAlloc) {
  const Library lib = Library::default_u6();
  const DdmDelayModel ddm;
  const RingCircuit ring(lib);
  FailPoints::instance().arm("alloc.simulator.arena", 1);
  Simulator sim(ring.nl, ddm);
  EXPECT_THROW(sim.apply_stimulus(ring.stimulus()), std::bad_alloc);
}

// ---- crash-safe artifact emission -------------------------------------------

class FileIoTest : public FailPointTest {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("halotis_fileio_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    FailPointTest::TearDown();
    std::filesystem::remove_all(dir_);
  }

  static std::string slurp(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  std::filesystem::path dir_;
};

TEST_F(FileIoTest, WritesBytesExactlyAndReplacesAtomically) {
  const auto path = dir_ / "artifact.txt";
  const std::string bytes = "line 1\nline 2\0binary\n";
  write_file_atomic(path, bytes);
  EXPECT_EQ(slurp(path), bytes);
  EXPECT_FALSE(std::filesystem::exists(dir_ / "artifact.txt.tmp"));
  write_file_atomic(path, "replaced");
  EXPECT_EQ(slurp(path), "replaced");
}

TEST_F(FileIoTest, EveryInjectedIoFailureLeavesNoPartialArtifact) {
  const auto path = dir_ / "artifact.txt";
  for (const char* site :
       {"io.open", "io.write", "io.write.short", "io.close", "io.rename"}) {
    SCOPED_TRACE(site);
    write_file_atomic(path, "previous content");  // the content at risk
    FailPoints::instance().arm(site, 1);
    try {
      write_file_atomic(path, "new content that must not tear");
      ADD_FAILURE() << "expected RunError(kIoError)";
    } catch (const RunError& e) {
      EXPECT_EQ(e.kind(), RunErrorKind::kIoError);
      EXPECT_EQ(e.exit_code(), 6);
    }
    // The destination is the old content in full, and no temp file leaks.
    EXPECT_EQ(slurp(path), "previous content");
    EXPECT_FALSE(std::filesystem::exists(dir_ / "artifact.txt.tmp"));
    FailPoints::instance().disarm_all();
  }
}

// ---- WorkerPool failure contract --------------------------------------------

TEST(WorkerPoolFailureTest, SingleFailureRethrownTypePreserved) {
  WorkerPool pool(2);
  try {
    pool.for_each_index(8, [](int, std::size_t index) {
      if (index == 5) throw RunError(RunErrorKind::kCancelled, "job 5 cancelled");
    });
    FAIL() << "expected RunError";
  } catch (const RunError& e) {
    EXPECT_EQ(e.kind(), RunErrorKind::kCancelled);  // type survived the pool
    EXPECT_STREQ(e.what(), "job 5 cancelled");
  }
}

TEST(WorkerPoolFailureTest, FirstFailureStopsTheSweepAndIsRethrownUnchanged) {
  WorkerPool pool(1);  // inline: indices are claimed in order
  std::vector<std::size_t> ran;
  try {
    pool.for_each_index(10, [&](int, std::size_t index) {
      ran.push_back(index);
      if (index == 5) throw RunError(RunErrorKind::kBudgetExceeded, "job 5 over budget");
    });
    FAIL() << "expected RunError";
  } catch (const RunError& e) {
    EXPECT_EQ(e.kind(), RunErrorKind::kBudgetExceeded);
    EXPECT_STREQ(e.what(), "job 5 over budget");
  }
  EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));

  // The pool is reusable: the next sweep runs every index.
  ran.clear();
  pool.for_each_index(4, [&](int, std::size_t index) { ran.push_back(index); });
  EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2, 3}));
}

// ---- campaign failure semantics ---------------------------------------------

TEST_F(CampaignFailureTest, TransientWorkerFailureIsRetriedInvisibly) {
  const Library lib = Library::default_u6();
  const DdmDelayModel ddm;
  C17Circuit c17 = make_c17(lib);
  const Stimulus stim = staggered_random_stimulus(c17.inputs, 12, 3);

  CampaignOptions options;
  options.threads = 1;
  const CampaignResult clean =
      run_fault_campaign(c17.netlist, stim, ddm, {}, options);
  ASSERT_GT(clean.total, 0u);
  EXPECT_EQ(clean.errors, 0u);
  EXPECT_EQ(clean.retried, 0u);

  // One injected failure mid-campaign: the task is retried from clean
  // state, so every verdict still matches the clean run.
  FailPoints::instance().arm("worker.task", 3);
  const CampaignResult injected =
      run_fault_campaign(c17.netlist, stim, ddm, {}, options);
  EXPECT_EQ(injected.retried, 1u);
  EXPECT_EQ(injected.errors, 0u);
  EXPECT_EQ(injected.detected, clean.detected);
  EXPECT_EQ(injected.verdicts, clean.verdicts);
  EXPECT_EQ(injected.coverage(), clean.coverage());
}

TEST_F(CampaignFailureTest, PersistentWorkerFailureBecomesErrorVerdicts) {
  const Library lib = Library::default_u6();
  const DdmDelayModel ddm;
  C17Circuit c17 = make_c17(lib);
  const Stimulus stim = staggered_random_stimulus(c17.inputs, 12, 3);

  FailPoints::instance().arm("worker.task", 1, /*repeat=*/true);
  CampaignOptions options;
  options.threads = 1;
  const CampaignResult result =
      run_fault_campaign(c17.netlist, stim, ddm, {}, options);
  ASSERT_GT(result.total, 0u);
  // Every faulty run failed (and was retried once): nothing is detected,
  // so injected failures can only lower coverage, never inflate it.
  EXPECT_EQ(result.errors, result.total);
  EXPECT_EQ(result.detected, 0u);
  EXPECT_EQ(result.retried, result.total);
  EXPECT_EQ(result.coverage(), 0.0);
  EXPECT_NE(result.first_error.find("worker.task"), std::string::npos);
  for (std::size_t i = 0; i < result.total; ++i) {
    EXPECT_EQ(result.verdicts[i], kVerdictError);
    EXPECT_FALSE(result.error_messages[i].empty());
  }
  EXPECT_TRUE(result.undetected.empty());
}

TEST_F(CampaignFailureTest, CancelledCampaignRethrowsTheOriginalRunError) {
  const Library lib = Library::default_u6();
  const DdmDelayModel ddm;
  C17Circuit c17 = make_c17(lib);
  const Stimulus stim = staggered_random_stimulus(c17.inputs, 12, 3);

  RunBudget budget;
  budget.poll_events = 4;
  CancelToken token;
  RunSupervisor supervisor(budget, token);
  supervisor.arm();
  token.cancel();
  CampaignOptions options;
  options.threads = 2;
  options.supervisor = &supervisor;
  try {
    (void)run_fault_campaign(c17.netlist, stim, ddm, {}, options);
    FAIL() << "expected RunError(kCancelled)";
  } catch (const RunError& e) {
    // The taxonomy survives the pool.
    EXPECT_EQ(e.kind(), RunErrorKind::kCancelled);
  }
}

// ---- CLI exit codes ---------------------------------------------------------

class CliSupervisionTest : public FailPointTest {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("halotis_sup_cli_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    FailPointTest::TearDown();
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

TEST_F(CliSupervisionTest, InjectedWriteFailureExitsSixWithNoArtifact) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  const std::string vcd = (dir_ / "waves.vcd").string();
  EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", stim, "--vcd", vcd,
                 "--failpoints", "io.write"}),
            6);
  EXPECT_NE(err_.str().find("I/O error"), std::string::npos) << err_.str();
  EXPECT_FALSE(std::filesystem::exists(vcd));
  EXPECT_FALSE(std::filesystem::exists(vcd + ".tmp"));
  // The per-invocation disarm guard: the same command succeeds afterwards.
  EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", stim, "--vcd", vcd}), 0);
  EXPECT_TRUE(std::filesystem::exists(vcd));
}

TEST_F(CliSupervisionTest, EnvVarArmsFailPoints) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  const std::string vcd = (dir_ / "waves.vcd").string();
  ASSERT_EQ(::setenv("HALOTIS_FAILPOINTS", "io.write", 1), 0);
  EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", stim, "--vcd", vcd}), 6);
  ASSERT_EQ(::unsetenv("HALOTIS_FAILPOINTS"), 0);
  EXPECT_FALSE(std::filesystem::exists(vcd));
  EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", stim, "--vcd", vcd}), 0);
}

TEST_F(CliSupervisionTest, MalformedFailpointsSpecExitsOne) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", stim,
                 "--failpoints", "x@"}),
            1);
}

TEST_F(CliSupervisionTest, EventBudgetExitsThree) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", stim,
                 "--budget-events", "1"}),
            3);
  EXPECT_NE(err_.str().find("budget exceeded"), std::string::npos) << err_.str();
}

// Cancels the process-wide CLI token, which has no reset: this test must
// stay LAST in this file (gtest runs tests in declaration order).
TEST_F(CliSupervisionTest, CancelledTokenExitsFive) {
  const std::string netlist = write("and2.bench", kBench);
  const std::string stim = write("and2.stim", kStim);
  cli_cancel_token().cancel();
  EXPECT_EQ(run({"sim", "--netlist", netlist, "--stim", stim}), 5);
  EXPECT_NE(err_.str().find("cancelled"), std::string::npos) << err_.str();
}

}  // namespace
}  // namespace halotis
