// Tests for the parallel fault-campaign engine and the Simulator reuse
// contract it is built on (PR 3 acceptance):
//
//   * WorkerPool shards an index space exactly once per index, any thread
//     count, and stops a sweep at the first worker exception;
//   * Simulator::reset() + re-apply_stimulus is bit-identical to a freshly
//     constructed Simulator (stats and histories), with and without an
//     injected fault in between;
//   * inject_stuck_at() reproduces the apply_fault() netlist-rewiring
//     verdicts exactly;
//   * campaign results (detected set, coverage, verdict vector, event
//     totals) are identical for 1 vs N threads and with early exit on/off,
//     and match the serial reference simulator fault for fault.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/base/rng.hpp"
#include "src/base/worker_pool.hpp"
#include "src/circuits/generators.hpp"
#include "src/core/simulator.hpp"
#include "src/fault/campaign.hpp"
#include "src/fault/fault.hpp"
#include "tests/serial_fault_oracle.hpp"

namespace halotis {
namespace {

// ---- WorkerPool ------------------------------------------------------------

TEST(WorkerPoolTest, EveryIndexRunsExactlyOnce) {
  for (const int threads : {1, 2, 4}) {
    WorkerPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    pool.for_each_index(kCount, [&](int worker, std::size_t index) {
      ASSERT_GE(worker, 0);
      ASSERT_LT(worker, threads);
      hits[index].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(WorkerPoolTest, PoolIsReusableAcrossSweeps) {
  WorkerPool pool(3);
  for (int sweep = 0; sweep < 5; ++sweep) {
    std::vector<std::atomic<int>> hits(64);
    pool.for_each_index(hits.size(), [&](int, std::size_t index) {
      hits[index].fetch_add(1, std::memory_order_relaxed);
    });
    const int total = std::accumulate(
        hits.begin(), hits.end(), 0,
        [](int acc, const std::atomic<int>& h) { return acc + h.load(); });
    ASSERT_EQ(total, 64) << "sweep " << sweep;
  }
}

TEST(WorkerPoolTest, WorkerExceptionStopsTheSweep) {
  WorkerPool pool(2);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> started(kCount);
  std::vector<std::atomic<int>> finished(kCount);
  EXPECT_THROW(
      pool.for_each_index(kCount,
                          [&](int, std::size_t index) {
                            started[index].fetch_add(1, std::memory_order_relaxed);
                            if (index == 0) throw std::runtime_error("boom");
                            // Slow jobs: a sweep that kept claiming would
                            // run for half a second.
                            std::this_thread::sleep_for(std::chrono::milliseconds(1));
                            finished[index].fetch_add(1, std::memory_order_relaxed);
                          }),
      std::runtime_error);
  // The claimed indices are a prefix of the ticket order: each ran once and
  // to completion, and the sweep stopped short of the end.
  std::size_t claimed = 0;
  while (claimed < kCount && started[claimed].load() == 1) ++claimed;
  EXPECT_LT(claimed, kCount);
  for (std::size_t i = 1; i < claimed; ++i) EXPECT_EQ(finished[i].load(), 1) << "index " << i;
  for (std::size_t i = claimed; i < kCount; ++i) {
    EXPECT_EQ(started[i].load(), 0) << "index " << i;
  }
  // The pool survives a throwing sweep.
  std::atomic<int> again{0};
  pool.for_each_index(10, [&](int, std::size_t) { ++again; });
  EXPECT_EQ(again.load(), 10);
}

TEST(WorkerPoolTest, ZeroRequestsHardwareConcurrency) {
  WorkerPool pool(0);
  EXPECT_GE(pool.size(), 1);
  EXPECT_EQ(pool.size(), WorkerPool::resolve_threads(0));
}

// ---- Simulator reuse contract ----------------------------------------------

class CampaignTest : public ::testing::Test {
 protected:
  Library lib_ = Library::default_u6();
  DdmDelayModel ddm_;

  /// A multiplier campaign input: `words` random words of 2*bits bits.
  struct MultiplierInput {
    int bits;
    std::size_t words;
    std::uint64_t seed;
  };
  /// The 4x4 campaign bench/perf_report times in quick mode (its word seed).
  static constexpr MultiplierInput kPerfReportQuick{4, 6, 0x5851F42D4C957F2DULL};

  static Stimulus multiplier_words(const MultiplierCircuit& mult,
                                   const std::vector<std::uint64_t>& words) {
    Stimulus stim(0.5);
    std::vector<SignalId> ab;
    for (SignalId s : mult.a) ab.push_back(s);
    for (SignalId s : mult.b) ab.push_back(s);
    stim.apply_sequence(ab, words, 5.0, 5.0);
    stim.set_initial(mult.tie0, false);
    return stim;
  }

  static void expect_identical_runs(const Simulator& a, const Simulator& b) {
    const SimStats& sa = a.stats();
    const SimStats& sb = b.stats();
    EXPECT_EQ(sa.events_created, sb.events_created);
    EXPECT_EQ(sa.events_processed, sb.events_processed);
    EXPECT_EQ(sa.events_cancelled, sb.events_cancelled);
    EXPECT_EQ(sa.events_suppressed, sb.events_suppressed);
    EXPECT_EQ(sa.events_resurrected, sb.events_resurrected);
    EXPECT_EQ(sa.transitions_created, sb.transitions_created);
    EXPECT_EQ(sa.transitions_annihilated, sb.transitions_annihilated);
    EXPECT_EQ(sa.gate_evaluations, sb.gate_evaluations);
    ASSERT_EQ(a.netlist().num_signals(), b.netlist().num_signals());
    for (std::size_t s = 0; s < a.netlist().num_signals(); ++s) {
      const SignalId id{static_cast<SignalId::underlying_type>(s)};
      EXPECT_EQ(a.initial_value(id), b.initial_value(id)) << "signal " << s;
      const auto ha = a.history(id);
      const auto hb = b.history(id);
      ASSERT_EQ(ha.size(), hb.size()) << "signal " << s;
      for (std::size_t i = 0; i < ha.size(); ++i) {
        EXPECT_EQ(ha[i].edge, hb[i].edge) << "signal " << s << " transition " << i;
        // Bit-identical, not approximately equal: reuse promises the exact
        // same float arithmetic as a fresh construction.
        EXPECT_EQ(ha[i].t_start, hb[i].t_start) << "signal " << s << " transition " << i;
        EXPECT_EQ(ha[i].tau, hb[i].tau) << "signal " << s << " transition " << i;
      }
    }
  }
};

TEST_F(CampaignTest, ResetReproducesFreshSimulatorBitExactly) {
  MultiplierCircuit mult = make_multiplier(lib_, 4);
  const Stimulus warmup = multiplier_words(mult, random_word_stream(8, 12, 11));
  const Stimulus target = multiplier_words(mult, random_word_stream(8, 12, 77));

  // Reused: run a different workload first, then reset and run the target.
  Simulator reused(mult.netlist, ddm_);
  reused.apply_stimulus(warmup);
  (void)reused.run();
  reused.reset();
  reused.apply_stimulus(target);
  (void)reused.run();

  Simulator fresh(mult.netlist, ddm_);
  fresh.apply_stimulus(target);
  (void)fresh.run();

  expect_identical_runs(reused, fresh);
}

TEST_F(CampaignTest, ResetClearsInjectedFault) {
  C17Circuit c17 = make_c17(lib_);
  std::vector<SignalId> inputs(c17.inputs.begin(), c17.inputs.end());
  Stimulus stim(0.4);
  const std::vector<std::uint64_t> words{0x00, 0x1F, 0x0A, 0x15};
  stim.apply_sequence(inputs, words, 5.0, 5.0);

  Simulator reused(c17.netlist, ddm_);
  reused.inject_stuck_at(*c17.netlist.find_signal("N11"), true);
  reused.apply_stimulus(stim);
  (void)reused.run();
  reused.reset();  // must drop the fault with the rest of the state
  reused.apply_stimulus(stim);
  (void)reused.run();

  Simulator fresh(c17.netlist, ddm_);
  fresh.apply_stimulus(stim);
  (void)fresh.run();

  expect_identical_runs(reused, fresh);
}

TEST_F(CampaignTest, InjectedFaultMatchesNetlistRewritingVerdicts) {
  // inject_stuck_at() must reproduce the legacy apply_fault() observable
  // behaviour for every single fault: same sampled primary outputs, hence
  // the same verdict, on a circuit with reconvergence and internal fanout.
  C17Circuit c17 = make_c17(lib_);
  std::vector<SignalId> inputs(c17.inputs.begin(), c17.inputs.end());
  Stimulus stim(0.4);
  const std::vector<std::uint64_t> words{0x00, 0x1F, 0x0A, 0x15, 0x07};
  stim.apply_sequence(inputs, words, 5.0, 5.0);

  const FaultSimResult legacy = run_fault_simulation(c17.netlist, stim, ddm_);
  const CampaignResult campaign = run_fault_campaign(c17.netlist, stim, ddm_);
  EXPECT_EQ(campaign.total, legacy.total);
  EXPECT_EQ(campaign.detected, legacy.detected);
  ASSERT_EQ(campaign.undetected.size(), legacy.undetected.size());
  for (std::size_t i = 0; i < legacy.undetected.size(); ++i) {
    EXPECT_EQ(campaign.undetected[i], legacy.undetected[i]) << "fault " << i;
  }
}

TEST_F(CampaignTest, CampaignMatchesLegacyOnMultiplier) {
  for (const MultiplierInput input : {MultiplierInput{3, 8, 42}, kPerfReportQuick}) {
    SCOPED_TRACE(input.bits);
    MultiplierCircuit mult = make_multiplier(lib_, input.bits);
    const Stimulus stim =
        multiplier_words(mult, random_word_stream(2 * input.bits, input.words, input.seed));

    const FaultSimResult legacy = run_fault_simulation(mult.netlist, stim, ddm_);
    CampaignOptions options;
    options.threads = 2;
    const CampaignResult campaign = run_fault_campaign(mult.netlist, stim, ddm_, {}, options);
    EXPECT_EQ(campaign.detected, legacy.detected);
    EXPECT_EQ(campaign.undetected.size(), legacy.undetected.size());
    for (std::size_t i = 0; i < legacy.undetected.size(); ++i) {
      EXPECT_EQ(campaign.undetected[i], legacy.undetected[i]) << "fault " << i;
    }
  }
}

TEST_F(CampaignTest, ThreadCountInvariant) {
  for (const MultiplierInput input : {MultiplierInput{3, 10, 5}, kPerfReportQuick}) {
    SCOPED_TRACE(input.bits);
    MultiplierCircuit mult = make_multiplier(lib_, input.bits);
    const Stimulus stim =
        multiplier_words(mult, random_word_stream(2 * input.bits, input.words, input.seed));

    CampaignOptions serial;
    serial.threads = 1;
    const CampaignResult one = run_fault_campaign(mult.netlist, stim, ddm_, {}, serial);
    EXPECT_EQ(one.threads_used, 1);

    for (const int threads : {2, 4, 7}) {
      CampaignOptions options;
      options.threads = threads;
      const CampaignResult many = run_fault_campaign(mult.netlist, stim, ddm_, {}, options);
      EXPECT_EQ(many.threads_used, threads);
      EXPECT_EQ(many.total, one.total);
      EXPECT_EQ(many.detected, one.detected);
      ASSERT_EQ(many.verdicts, one.verdicts) << threads << " threads";
      ASSERT_EQ(many.undetected.size(), one.undetected.size());
      for (std::size_t i = 0; i < one.undetected.size(); ++i) {
        EXPECT_EQ(many.undetected[i], one.undetected[i]);
      }
      // Per-fault work is deterministic, so the event total is too.
      EXPECT_EQ(many.events_processed, one.events_processed);
    }
  }
}

TEST_F(CampaignTest, EarlyExitDoesNotChangeVerdicts) {
  MultiplierCircuit mult = make_multiplier(lib_, 3);
  const Stimulus stim = multiplier_words(mult, random_word_stream(6, 10, 19));

  CampaignOptions eager;
  eager.threads = 1;
  eager.early_exit = true;
  CampaignOptions full;
  full.threads = 1;
  full.early_exit = false;
  const CampaignResult a = run_fault_campaign(mult.netlist, stim, ddm_, {}, eager);
  const CampaignResult b = run_fault_campaign(mult.netlist, stim, ddm_, {}, full);
  EXPECT_EQ(a.verdicts, b.verdicts);
  EXPECT_EQ(a.detected, b.detected);
  // Early exit must strictly reduce simulated work on this workload (most
  // faults are observable well before the stimulus ends).
  EXPECT_LT(a.events_processed, b.events_processed);
}

TEST_F(CampaignTest, FaultedPrimaryOutputObservedAsConstant) {
  ChainCircuit chain = make_chain(lib_, 1);
  Stimulus stim(0.4);
  stim.add_edge(chain.nodes[0], 5.0, true);
  stim.add_edge(chain.nodes[0], 10.0, false);

  const CampaignResult result = run_fault_campaign(chain.netlist, stim, ddm_);
  // in/SA0, in/SA1, out/SA0, out/SA1 all observable (matches the legacy
  // engine's FaultTest.ExhaustiveVectorsReachFullCoverageOnInverter).
  EXPECT_EQ(result.total, 4u);
  EXPECT_EQ(result.detected, 4u);
  EXPECT_DOUBLE_EQ(result.coverage(), 1.0);
}

TEST_F(CampaignTest, SubsetAndVerdictIndexing) {
  C17Circuit c17 = make_c17(lib_);
  std::vector<SignalId> inputs(c17.inputs.begin(), c17.inputs.end());
  Stimulus stim(0.4);
  const std::vector<std::uint64_t> words{0x00, 0x1F, 0x0A, 0x15};
  stim.apply_sequence(inputs, words, 5.0, 5.0);

  const std::vector<Fault> subset{Fault{c17.outputs[0], false},
                                  Fault{c17.outputs[0], true},
                                  Fault{c17.inputs[0], false}};
  const CampaignResult result = run_fault_campaign(c17.netlist, stim, ddm_, subset);
  EXPECT_EQ(result.total, 3u);
  ASSERT_EQ(result.verdicts.size(), 3u);
  // Output-line faults are always visible.
  EXPECT_EQ(result.verdicts[0], 1u);
  EXPECT_EQ(result.verdicts[1], 1u);
  EXPECT_EQ(result.detected + result.undetected.size(), result.total);
}

TEST_F(CampaignTest, EngineReuseAcrossStimuliMatchesOneShotRuns) {
  // ATPG reuses one engine (pool + per-worker simulators) for its whole
  // candidate stream; every run() must still equal a fresh one-shot
  // campaign on the same stimulus.
  MultiplierCircuit mult = make_multiplier(lib_, 3);
  const TimingGraph graph = TimingGraph::build(mult.netlist, ddm_.timing_policy());
  CampaignEngine engine(mult.netlist, ddm_, graph, 2);
  for (const std::uint64_t seed : {3u, 9u, 27u}) {
    const Stimulus stim = multiplier_words(mult, random_word_stream(6, 6, seed));
    const CampaignResult reused = engine.run(stim);
    CampaignOptions options;
    options.threads = 2;
    const CampaignResult fresh = run_fault_campaign(mult.netlist, stim, ddm_, {}, options);
    EXPECT_EQ(reused.detected, fresh.detected) << "seed " << seed;
    EXPECT_EQ(reused.verdicts, fresh.verdicts) << "seed " << seed;
    EXPECT_EQ(reused.events_processed, fresh.events_processed) << "seed " << seed;
  }
}

TEST_F(CampaignTest, ExternalGraphMatchesInternalElaboration) {
  // The daemon hands every CampaignEngine of a design one cache-shared
  // TimingGraph; each must be bit-identical to run_fault_campaign, which
  // elaborates a graph of its own for the call.
  MultiplierCircuit mult = make_multiplier(lib_, 3);
  const Stimulus stim = multiplier_words(mult, random_word_stream(6, 8, 42));

  CampaignOptions options;
  options.threads = 2;
  const CampaignResult from_internal = run_fault_campaign(mult.netlist, stim, ddm_, {}, options);

  const TimingGraph shared = TimingGraph::build(mult.netlist, ddm_.timing_policy());
  CampaignEngine first(mult.netlist, ddm_, shared, 2);
  (void)first.run(stim);
  CampaignEngine external(mult.netlist, ddm_, shared, 2);
  const CampaignResult from_external = external.run(stim);

  EXPECT_EQ(from_external.verdicts, from_internal.verdicts);
  EXPECT_EQ(from_external.detected, from_internal.detected);
  EXPECT_EQ(from_external.undetected, from_internal.undetected);
  EXPECT_EQ(from_external.events_processed, from_internal.events_processed);
}

TEST_F(CampaignTest, AtpgThreadCountInvariant) {
  C17Circuit c17 = make_c17(lib_);
  AtpgOptions options;
  options.max_candidates = 60;
  options.seed = 11;
  options.threads = 1;
  const TimingGraph graph = TimingGraph::build(c17.netlist, ddm_.timing_policy());
  const AtpgResult one = generate_tests(c17.netlist, ddm_, graph, options);
  options.threads = 4;
  const AtpgResult four = generate_tests(c17.netlist, ddm_, graph, options);
  EXPECT_EQ(one.words, four.words);
  EXPECT_EQ(one.detected, four.detected);
  EXPECT_EQ(one.undetected.size(), four.undetected.size());
}

}  // namespace
}  // namespace halotis
