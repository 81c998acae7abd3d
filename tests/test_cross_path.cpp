// Cross-path differential suite.  One SplitMix64 seed draws random circuits
// and staggered stimuli; every execution path of the kernel must then
// reproduce one history hash per (design, model flavour):
//
//   * fresh construction on an external graph and, for the flavours
//     without variation, self-elaborating;
//   * reset() recycle after an unrelated run;
//   * one simulator rebind()-ed across designs and flavours (A -> B -> A);
//   * ResimSession replay of perturbed graphs against a fresh run of each
//     perturbed graph, on both the replayed and the fallback side;
//   * fault-campaign verdicts against the serial oracle
//     (tests/serial_fault_oracle.hpp).
//
// The five flavours are DDM, CDM, CDM with the gate-delay window, CDM with
// a fixed window, and DDM with per-instance variation (the DDM graph
// derated by TimingGraph::vary, as `halotis variation` derates its
// samples).  The daemon path
// (`--connect`) is covered by test_serve's byte-identity checks.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.hpp"
#include "src/circuits/generators.hpp"
#include "src/circuits/stimuli.hpp"
#include "src/core/delay_model.hpp"
#include "src/core/simulator.hpp"
#include "src/fault/campaign.hpp"
#include "src/replay/history_hash.hpp"
#include "src/replay/resim.hpp"
#include "src/timing/timing_graph.hpp"
#include "tests/serial_fault_oracle.hpp"

namespace halotis {
namespace {

/// The suite's one seed: every design, stimulus and perturbation below is
/// drawn from it.
constexpr std::uint64_t kSuiteSeed = 0xC2055A7E;

struct Design {
  explicit Design(const Library& lib) : netlist(lib) {}

  std::string name;
  Netlist netlist;
  std::vector<SignalId> inputs;
  std::vector<SignalId> outputs;
  Stimulus stimulus;
  Stimulus other;  ///< an unrelated stimulus, run before reset()
};

std::uint64_t run_hash(Simulator& sim, const Stimulus& stimulus) {
  sim.apply_stimulus(stimulus);
  (void)sim.run();
  return replay::hash_sim_history(sim);
}

class CrossPathTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kFlavours = 5;

  CrossPathTest() {
    SplitMix64 rng(kSuiteSeed);
    for (int d = 0; d < 6; ++d) {
      auto design = std::make_unique<Design>(lib_);
      if (d % 2 == 0) {
        const int inputs = 4 + static_cast<int>(rng.next_below(5));
        const int gates = 20 + static_cast<int>(rng.next_below(41));
        RandomCircuit c = make_random_circuit(lib_, inputs, gates, rng.next());
        design->name = "random" + std::to_string(d);
        design->netlist = std::move(c.netlist);
        design->inputs = std::move(c.inputs);
        design->outputs = std::move(c.outputs);
      } else {
        const int width = 4 + static_cast<int>(rng.next_below(5));
        const int depth = 3 + static_cast<int>(rng.next_below(4));
        LayeredCircuit c = make_layered_circuit(lib_, width, depth, rng.next());
        design->name = "layered" + std::to_string(d);
        design->netlist = std::move(c.netlist);
        design->inputs = std::move(c.inputs);
        design->outputs = std::move(c.outputs);
      }
      const std::size_t edges = 4 + rng.next_below(5);
      design->stimulus = staggered_random_stimulus(design->inputs, edges, rng.next());
      design->other = staggered_random_stimulus(design->inputs, edges, rng.next());
      designs_.push_back(std::move(design));
    }
    // Reference hashes: a fresh simulator per pair on its own elaboration.
    for (const auto& design : designs_) {
      std::array<std::uint64_t, kFlavours> row{};
      for (std::size_t f = 0; f < kFlavours; ++f) {
        const TimingGraph graph = graph_for(design->netlist, f);
        Simulator sim(design->netlist, *flavours_[f].model, graph);
        row[f] = run_hash(sim, design->stimulus);
      }
      fresh_.push_back(row);
    }
  }

  struct Flavour {
    const char* name;
    const DelayModel* model;
    double sigma;  ///< per-instance variation (TimingGraph::vary); 0 = none
  };
  static constexpr std::uint64_t kVariationSeed = 1234;

  /// Flavour `f`'s elaboration of `netlist`: the model's graph, derated by
  /// vary() when the flavour has variation.
  [[nodiscard]] TimingGraph graph_for(const Netlist& netlist, std::size_t f) const {
    TimingGraph graph = TimingGraph::build(netlist, flavours_[f].model->timing_policy());
    if (flavours_[f].sigma != 0.0) graph = graph.vary(flavours_[f].sigma, kVariationSeed);
    return graph;
  }

  Library lib_ = Library::default_u6();
  const DdmDelayModel ddm_;
  const CdmDelayModel cdm_;
  const CdmDelayModel cdm_gate_{CdmDelayModel::InertialWindow::kGateDelay};
  const CdmDelayModel cdm_fixed_{CdmDelayModel::InertialWindow::kFixed, 0.25};
  const std::array<Flavour, kFlavours> flavours_{{{"ddm", &ddm_, 0.0},
                                                  {"cdm", &cdm_, 0.0},
                                                  {"cdm-gate-window", &cdm_gate_, 0.0},
                                                  {"cdm-fixed-window", &cdm_fixed_, 0.0},
                                                  {"ddm-variation", &ddm_, 0.08}}};
  std::vector<std::unique_ptr<Design>> designs_;
  std::vector<std::array<std::uint64_t, kFlavours>> fresh_;  ///< [design][flavour]
};

TEST_F(CrossPathTest, EveryFlavourChangesSomeWaveform) {
  // The paths below compare hashes, so the flavours must actually differ:
  // every flavour changes at least one design's waveforms.
  for (std::size_t f = 1; f < kFlavours; ++f) {
    bool differs = false;
    for (std::size_t d = 0; d < designs_.size(); ++d) {
      differs = differs || fresh_[d][f] != fresh_[d][0];
    }
    EXPECT_TRUE(differs) << flavours_[f].name << " never differs from ddm";
  }
}

TEST_F(CrossPathTest, ExternalGraphAndResetMatchFreshConstruction) {
  for (std::size_t d = 0; d < designs_.size(); ++d) {
    const Design& design = *designs_[d];
    for (std::size_t f = 0; f < kFlavours; ++f) {
      SCOPED_TRACE(design.name + " / " + flavours_[f].name);
      const DelayModel& model = *flavours_[f].model;
      if (flavours_[f].sigma == 0.0) {
        Simulator self_built(design.netlist, model);
        EXPECT_EQ(run_hash(self_built, design.stimulus), fresh_[d][f]);
      }
      const TimingGraph graph = graph_for(design.netlist, f);
      Simulator sim(design.netlist, model, graph);
      EXPECT_EQ(run_hash(sim, design.stimulus), fresh_[d][f]);
      // Recycle after an unrelated stimulus, then once more.
      sim.reset();
      (void)run_hash(sim, design.other);
      sim.reset();
      EXPECT_EQ(run_hash(sim, design.stimulus), fresh_[d][f]);
      sim.reset();
      EXPECT_EQ(run_hash(sim, design.stimulus), fresh_[d][f]);
    }
  }
}

TEST_F(CrossPathTest, OneSimulatorRebindsAcrossDesignsAndFlavours) {
  // One graph per (design, flavour); a single simulator walks a random
  // order of the pairs, returning to earlier ones (A -> B -> A) and
  // sometimes rebinding onto the graph it already holds.
  std::vector<std::unique_ptr<TimingGraph>> graphs;
  for (const auto& design : designs_) {
    for (std::size_t f = 0; f < kFlavours; ++f) {
      graphs.push_back(std::make_unique<TimingGraph>(graph_for(design->netlist, f)));
    }
  }
  SplitMix64 rng(kSuiteSeed ^ 0x5EB1);
  Simulator sim(designs_[0]->netlist, *flavours_[0].model, *graphs[0]);
  EXPECT_EQ(run_hash(sim, designs_[0]->stimulus), fresh_[0][0]);
  std::size_t current = 0;
  for (int step = 0; step < 60; ++step) {
    const std::size_t next =
        rng.next_bool(0.2) ? current : rng.next_below(graphs.size());
    const std::size_t d = next / kFlavours;
    const std::size_t f = next % kFlavours;
    sim.rebind(designs_[d]->netlist, *flavours_[f].model, *graphs[next]);
    ASSERT_EQ(run_hash(sim, designs_[d]->stimulus), fresh_[d][f])
        << "step " << step << ": " << designs_[d]->name << " / " << flavours_[f].name
        << " after " << designs_[current / kFlavours]->name << " / "
        << flavours_[current % kFlavours].name;
    current = next;
  }
}

TEST_F(CrossPathTest, ReplayOfPerturbedGraphsMatchesFreshRuns) {
  // Per-arc perturbation amplitudes, from corner re-timing (replays) up to
  // schedule-breaking (falls back): both sides must equal a fresh run.
  static constexpr double kAmps[] = {1e-9, 1e-5, 0.3};
  SplitMix64 rng(kSuiteSeed ^ 0x2E9A);
  for (std::size_t f = 0; f < kFlavours; ++f) {
    std::uint64_t replayed = 0;
    std::uint64_t fallbacks = 0;
    for (std::size_t d = 0; d < designs_.size(); ++d) {
      const Design& design = *designs_[d];
      const DelayModel& model = *flavours_[f].model;
      SCOPED_TRACE(design.name + " / " + flavours_[f].name);
      replay::ResimEngine engine(graph_for(design.netlist, f), model, design.stimulus);
      engine.record();
      ASSERT_TRUE(engine.trace().replayable);
      replay::ResimSession session(engine);
      const replay::ResimSample identity =
          session.evaluate(engine.base_graph(), design.outputs, /*want_hash=*/true);
      EXPECT_EQ(identity.history_hash, fresh_[d][f]);
      EXPECT_FALSE(identity.fallback);
      for (const double amp : kAmps) {
        TimingGraph graph = engine.base_graph();
        for (std::uint32_t a = 0; a < static_cast<std::uint32_t>(graph.num_arcs()); ++a) {
          graph.scale_arc_factor(a, 1.0 + amp * (2.0 * rng.next_double() - 1.0));
        }
        const replay::ResimSample sample =
            session.evaluate(graph, design.outputs, /*want_hash=*/true);
        Simulator full(design.netlist, model, graph);
        EXPECT_EQ(sample.history_hash, run_hash(full, design.stimulus))
            << "amp " << amp << (sample.fallback ? " (fallback)" : " (replayed)");
      }
      replayed += session.evaluated() - session.fallbacks();
      fallbacks += session.fallbacks();
    }
    EXPECT_GT(replayed, 0u) << flavours_[f].name;
    EXPECT_GT(fallbacks, 0u) << flavours_[f].name;
  }
}

void expect_same_verdicts(const CampaignResult& campaign, const FaultSimResult& oracle) {
  EXPECT_EQ(campaign.total, oracle.total);
  EXPECT_EQ(campaign.detected, oracle.detected);
  EXPECT_EQ(campaign.errors, 0u);
  EXPECT_EQ(campaign.undetected, oracle.undetected);
}

TEST_F(CrossPathTest, CampaignVerdictsMatchSerialOracle) {
  const FaultSimOptions sampling;
  for (std::size_t d = 0; d < designs_.size(); ++d) {
    const Design& design = *designs_[d];
    for (std::size_t f = 0; f < kFlavours; ++f) {
      SCOPED_TRACE(design.name + " / " + flavours_[f].name);
      const DelayModel& model = *flavours_[f].model;
      const FaultSimResult oracle =
          run_fault_simulation(design.netlist, design.stimulus, model, {}, sampling,
                               flavours_[f].sigma, kVariationSeed);
      const TimingGraph graph = graph_for(design.netlist, f);
      CampaignEngine engine(design.netlist, model, graph, 2);
      expect_same_verdicts(engine.run(design.stimulus, {}, sampling, true), oracle);
      expect_same_verdicts(engine.run(design.stimulus, {}, sampling, false), oracle);
    }
  }
}

}  // namespace
}  // namespace halotis
