// Tests for per-instance variation (TimingGraph::vary and variation_factor)
// and the replay-backed variation engine.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/mathfit.hpp"
#include "src/base/supervision.hpp"
#include "src/circuits/generators.hpp"
#include "src/circuits/stimuli.hpp"
#include "src/core/simulator.hpp"
#include "src/replay/variation.hpp"
#include "src/timing/timing_graph.hpp"

namespace halotis {
namespace {

class VariationTest : public ::testing::Test {
 protected:
  Library lib_ = Library::default_u6();
  DdmDelayModel ddm_;
};

TEST_F(VariationTest, FactorsAreDeterministicPerSeedAndGate) {
  // Varying two elaborations with the same (sigma, seed) folds the same
  // factor into every arc of a gate: variation_factor(seed, sigma, gate),
  // stored verbatim because elaboration leaves every factor at 1.  A
  // different seed draws a different corner.
  const ChainCircuit chain = make_chain(lib_, 50);
  const TimingPolicy& ddm = ddm_.timing_policy();
  const TimingGraph a = TimingGraph::build(chain.netlist, ddm).vary(0.1, 42);
  const TimingGraph b = TimingGraph::build(chain.netlist, ddm).vary(0.1, 42);
  const TimingGraph c = TimingGraph::build(chain.netlist, ddm).vary(0.1, 43);
  ASSERT_EQ(a.num_arcs(), b.num_arcs());
  for (std::size_t i = 0; i < a.num_arcs(); ++i) {
    EXPECT_EQ(a.arcs()[i].factor, b.arcs()[i].factor) << "arc " << i;
  }
  int differing = 0;
  for (unsigned g = 0; g < 50; ++g) {
    const GateId gid{g};
    const std::uint32_t base = a.arc_base(gid);
    const auto arcs = static_cast<std::uint32_t>(2 * chain.netlist.gate(gid).inputs.size());
    for (std::uint32_t id = base; id < base + arcs; ++id) {
      EXPECT_EQ(a.arc(id).factor, variation_factor(42, 0.1, gid)) << "arc " << id;
    }
    if (a.arc(base).factor != c.arc(base).factor) ++differing;
  }
  EXPECT_GT(differing, 45);  // different seed: different corner
}

TEST_F(VariationTest, FactorsAreRoughlyLognormal) {
  const double sigma = 0.2;
  std::vector<double> logs;
  for (unsigned g = 0; g < 4000; ++g) {
    const double f = variation_factor(7, sigma, GateId{g});
    EXPECT_GT(f, 0.0);
    logs.push_back(std::log(f));
  }
  EXPECT_NEAR(mean(logs), 0.0, 0.02);
  EXPECT_NEAR(stddev(logs), sigma, 0.02);
}

TEST_F(VariationTest, ZeroSigmaIsIdentity) {
  ChainCircuit chain = make_chain(lib_, 3);
  const TimingGraph varied =
      TimingGraph::build(chain.netlist, ddm_.timing_policy()).vary(0.0, 9);
  Stimulus stim(0.4);
  stim.add_edge(chain.nodes[0], 2.0, true);

  Simulator base_sim(chain.netlist, ddm_);
  base_sim.apply_stimulus(stim);
  (void)base_sim.run();
  Simulator var_sim(chain.netlist, ddm_, varied);
  var_sim.apply_stimulus(stim);
  (void)var_sim.run();

  const auto base_hist = base_sim.history(chain.nodes.back());
  const auto var_hist = var_sim.history(chain.nodes.back());
  ASSERT_EQ(base_hist.size(), var_hist.size());
  for (std::size_t i = 0; i < base_hist.size(); ++i) {
    EXPECT_DOUBLE_EQ(base_hist[i].t50(), var_hist[i].t50());
  }
}

TEST_F(VariationTest, VariationShiftsArrivalTimes) {
  ChainCircuit chain = make_chain(lib_, 6);
  Stimulus stim(0.4);
  stim.add_edge(chain.nodes[0], 2.0, true);

  const TimingGraph graph = TimingGraph::build(chain.netlist, ddm_.timing_policy());
  Simulator nominal(chain.netlist, ddm_, graph);
  nominal.apply_stimulus(stim);
  (void)nominal.run();
  const TimeNs t_nominal = nominal.history(chain.nodes.back())[0].t50();

  int shifted = 0;
  for (unsigned seed = 0; seed < 10; ++seed) {
    const TimingGraph varied = graph.vary(0.15, seed);
    Simulator sim(chain.netlist, ddm_, varied);
    sim.apply_stimulus(stim);
    (void)sim.run();
    const TimeNs t = sim.history(chain.nodes.back())[0].t50();
    if (std::abs(t - t_nominal) > 1e-6) ++shifted;
    // Functional result unchanged.
    EXPECT_EQ(sim.final_value(chain.nodes.back()),
              nominal.final_value(chain.nodes.back()));
  }
  EXPECT_EQ(shifted, 10);
}

TEST_F(VariationTest, ThresholdsUntouched) {
  // Fig. 1's inverters span low, nominal and high thresholds.
  const Fig1Circuit fig1 = make_fig1(lib_);
  const TimingGraph nominal = TimingGraph::build(fig1.netlist, ddm_.timing_policy());
  const TimingGraph derated = nominal.vary(0.3, 5);
  for (std::uint32_t g = 0; g < nominal.num_gates(); ++g) {
    EXPECT_NE(derated.arc(derated.arc_base(GateId{g})).factor, 1.0);
    EXPECT_DOUBLE_EQ(derated.threshold_fraction(GateId{g}, 0),
                     nominal.threshold_fraction(GateId{g}, 0));
  }
}

// ---- replay-backed variation engine ----------------------------------------

/// Replay must be an internal accelerator only: identical rows, identical
/// formatted artifacts, at every thread count.
TEST_F(VariationTest, ReplayArtifactsByteIdenticalAtAnyThreadCount) {
  MultiplierCircuit mult = make_multiplier(lib_, 8);
  std::vector<SignalId> inputs = mult.a;
  inputs.insert(inputs.end(), mult.b.begin(), mult.b.end());
  Stimulus stim = staggered_random_stimulus(inputs, 6, 321);
  stim.set_initial(mult.tie0, false);

  replay::VariationConfig config;
  config.sigma = 1e-4;  // mixed regime on mult8: both replays and fallbacks
  config.seed = 17;
  config.samples = 32;
  config.use_replay = false;
  config.threads = 1;
  const replay::VariationResult full =
      replay::run_variation(mult.netlist, ddm_, stim, mult.s, config);
  EXPECT_FALSE(full.replay_used);
  const std::string full_csv = replay::format_variation_csv(full);
  const std::string full_report = replay::format_variation_report(full, config);

  config.use_replay = true;
  for (const int threads : {1, 2, 4}) {
    config.threads = threads;
    const replay::VariationResult rep =
        replay::run_variation(mult.netlist, ddm_, stim, mult.s, config);
    EXPECT_TRUE(rep.replay_used);
    EXPECT_EQ(replay::format_variation_csv(rep), full_csv)
        << threads << " threads";
    EXPECT_EQ(replay::format_variation_report(rep, config), full_report)
        << threads << " threads";
    ASSERT_EQ(rep.rows.size(), full.rows.size());
    for (std::size_t i = 0; i < rep.rows.size(); ++i) {
      EXPECT_EQ(rep.rows[i].history_hash, full.rows[i].history_hash) << i;
      EXPECT_EQ(rep.rows[i].critical_t50, full.rows[i].critical_t50) << i;
      EXPECT_EQ(rep.rows[i].sample_seed, full.rows[i].sample_seed) << i;
    }
  }
}

/// At corner-retiming sigma everything replays; at schedule-breaking sigma
/// the engine degrades to fallbacks -- artifacts stay exact either way.
TEST_F(VariationTest, ReplayRateTracksSigma) {
  MultiplierCircuit mult = make_multiplier(lib_, 4);
  std::vector<SignalId> inputs = mult.a;
  inputs.insert(inputs.end(), mult.b.begin(), mult.b.end());
  Stimulus stim = staggered_random_stimulus(inputs, 8, 555);
  stim.set_initial(mult.tie0, false);

  replay::VariationConfig config;
  config.seed = 3;
  config.samples = 20;
  config.use_replay = true;

  config.sigma = 1e-8;
  const replay::VariationResult tiny =
      replay::run_variation(mult.netlist, ddm_, stim, mult.s, config);
  EXPECT_EQ(tiny.fallbacks, 0u);

  config.sigma = 0.1;
  const replay::VariationResult coarse =
      replay::run_variation(mult.netlist, ddm_, stim, mult.s, config);
  EXPECT_GT(coarse.fallbacks, 0u);

  config.use_replay = false;
  const replay::VariationResult oracle =
      replay::run_variation(mult.netlist, ddm_, stim, mult.s, config);
  ASSERT_EQ(coarse.rows.size(), oracle.rows.size());
  for (std::size_t i = 0; i < oracle.rows.size(); ++i) {
    EXPECT_EQ(coarse.rows[i].history_hash, oracle.rows[i].history_hash) << i;
  }
}

/// A sample that trips the run budget ends the sweep as that RunError (the
/// CLI's exit 3), at any thread count and on both paths.
TEST_F(VariationTest, BudgetTripInASampleThrowsTheRunError) {
  MultiplierCircuit mult = make_multiplier(lib_, 4);
  std::vector<SignalId> inputs = mult.a;
  inputs.insert(inputs.end(), mult.b.begin(), mult.b.end());
  Stimulus stim = staggered_random_stimulus(inputs, 12, 5);
  stim.set_initial(mult.tie0, false);

  // The budget is the nominal run's exact event count (1 622): the nominal
  // run fits, and the perturbed samples that need more events trip it.
  Simulator nominal(mult.netlist, ddm_);
  nominal.apply_stimulus(stim);
  (void)nominal.run();
  RunBudget budget;
  budget.max_events = nominal.stats().events_processed;
  RunSupervisor supervisor(budget);
  supervisor.arm();

  replay::VariationConfig config;
  config.sigma = 0.2;
  config.seed = 3;
  config.samples = 40;
  for (const bool use_replay : {false, true}) {
    for (const int threads : {1, 4}) {
      config.use_replay = use_replay;
      config.threads = threads;
      try {
        (void)replay::run_variation(mult.netlist, ddm_, stim, mult.s, config, &supervisor);
        ADD_FAILURE() << "expected RunError(kBudgetExceeded)";
      } catch (const RunError& e) {
        EXPECT_EQ(e.kind(), RunErrorKind::kBudgetExceeded)
            << (use_replay ? "replay, " : "full, ") << threads << " threads: " << e.what();
      }
    }
  }
}

}  // namespace
}  // namespace halotis
