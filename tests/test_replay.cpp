// Differential oracle suite for the trace-based re-simulation engine
// (record-once / re-time-many, ROADMAP item 3).
//
// The contract under test: for ANY perturbed arc table, ResimSession
// evaluation -- whether the trace replays or the session falls back to a
// full event simulation -- produces the bit-for-bit waveform of an
// independent from-scratch full simulation of the same graph.  The suite
// drives every repro circuit under both delay disciplines (DDM and the
// transport-like CDM) across hundreds of seeded random delay samples, plus
// randomized layered DAGs with per-arc perturbations up to +/-50%.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/base/failpoint.hpp"
#include "src/base/rng.hpp"
#include "src/base/supervision.hpp"
#include "src/circuits/generators.hpp"
#include "src/circuits/stimuli.hpp"
#include "src/core/delay_model.hpp"
#include "src/core/simulator.hpp"
#include "src/replay/history_hash.hpp"
#include "src/replay/resim.hpp"
#include "src/replay/trace.hpp"
#include "src/replay/variation.hpp"

namespace halotis {
namespace {

using replay::ResimEngine;
using replay::ResimSample;
using replay::ResimSession;

/// From-scratch full event simulation of `graph`: the oracle.
std::uint64_t oracle_hash(const Netlist& netlist, const DelayModel& model,
                          const TimingGraph& graph, const Stimulus& stim,
                          SimConfig config = {}) {
  Simulator sim(netlist, model, graph, config);
  sim.apply_stimulus(stim);
  (void)sim.run();
  return replay::hash_sim_history(sim);
}

struct OracleCounts {
  std::uint64_t replayed = 0;
  std::uint64_t fallbacks = 0;
};

/// Runs `samples` seeded per-gate corners through one recording and checks
/// every evaluation bit-for-bit against the oracle.  Sigmas cycle from
/// corner-retiming magnitudes (which replay) up to schedule-breaking ones
/// (which must fall back): the invariant holds on both sides.
OracleCounts run_differential(const Netlist& netlist, const DelayModel& model,
                              const Stimulus& stim,
                              std::span<const SignalId> observed,
                              std::size_t samples, std::uint64_t master_seed) {
  ResimEngine engine(TimingGraph::build(netlist, model.timing_policy()), model, stim,
                     SimConfig{});
  engine.record();
  EXPECT_TRUE(engine.trace().replayable);

  ResimSession session(engine);
  static constexpr double kSigmas[] = {1e-8, 1e-6, 1e-4, 1e-2};
  SplitMix64 seeds(master_seed);
  for (std::size_t i = 0; i < samples; ++i) {
    const double sigma = kSigmas[i % std::size(kSigmas)];
    const TimingGraph graph = engine.base_graph().vary(sigma, seeds.next());
    const ResimSample sample = session.evaluate(graph, observed, /*want_hash=*/true);
    EXPECT_EQ(sample.history_hash, oracle_hash(netlist, model, graph, stim))
        << "sample " << i << " sigma " << sigma
        << (sample.fallback ? " (fallback)" : " (replayed)");
  }
  return {session.evaluated() - session.fallbacks(), session.fallbacks()};
}

class ReplayOracleTest : public ::testing::Test {
 protected:
  Library lib_ = Library::default_u6();
  DdmDelayModel ddm_;
  CdmDelayModel cdm_;  ///< transport-like (kNone window)
};

TEST_F(ReplayOracleTest, C17BothModels) {
  C17Circuit c17 = make_c17(lib_);
  const Stimulus stim = staggered_random_stimulus(c17.inputs, 12, 171);
  for (const DelayModel* model : {static_cast<const DelayModel*>(&ddm_),
                                  static_cast<const DelayModel*>(&cdm_)}) {
    const OracleCounts counts =
        run_differential(c17.netlist, *model, stim, c17.outputs, 200, 0xC17);
    EXPECT_GT(counts.replayed, 0u) << model->name();
  }
}

TEST_F(ReplayOracleTest, RippleAdderBothModels) {
  AdderCircuit adder = make_ripple_adder(lib_, 8);
  std::vector<SignalId> inputs = adder.a;
  inputs.insert(inputs.end(), adder.b.begin(), adder.b.end());
  Stimulus stim = staggered_random_stimulus(inputs, 8, 88);
  stim.set_initial(adder.tie0, false);
  for (const DelayModel* model : {static_cast<const DelayModel*>(&ddm_),
                                  static_cast<const DelayModel*>(&cdm_)}) {
    const OracleCounts counts =
        run_differential(adder.netlist, *model, stim, adder.sum, 200, 0xADD);
    EXPECT_GT(counts.replayed, 0u) << model->name();
  }
}

TEST_F(ReplayOracleTest, Mult4BothModels) {
  MultiplierCircuit mult = make_multiplier(lib_, 4);
  std::vector<SignalId> inputs = mult.a;
  inputs.insert(inputs.end(), mult.b.begin(), mult.b.end());
  Stimulus stim = staggered_random_stimulus(inputs, 8, 4444);
  stim.set_initial(mult.tie0, false);
  for (const DelayModel* model : {static_cast<const DelayModel*>(&ddm_),
                                  static_cast<const DelayModel*>(&cdm_)}) {
    const OracleCounts counts =
        run_differential(mult.netlist, *model, stim, mult.s, 200, 0x4444);
    EXPECT_GT(counts.replayed, 0u) << model->name();
  }
}

TEST_F(ReplayOracleTest, Mult8HasBothRegimes) {
  MultiplierCircuit mult = make_multiplier(lib_, 8);
  std::vector<SignalId> inputs = mult.a;
  inputs.insert(inputs.end(), mult.b.begin(), mult.b.end());
  Stimulus stim = staggered_random_stimulus(inputs, 6, 424242);
  stim.set_initial(mult.tie0, false);
  for (const DelayModel* model : {static_cast<const DelayModel*>(&ddm_),
                                  static_cast<const DelayModel*>(&cdm_)}) {
    const OracleCounts counts =
        run_differential(mult.netlist, *model, stim, mult.s, 200, 0x8888);
    // The deep reconvergent array must exercise BOTH sides of the oracle:
    // corner-retiming samples that replay and schedule-breaking samples
    // that are detected and fall back.
    EXPECT_GT(counts.replayed, 0u) << model->name();
    EXPECT_GT(counts.fallbacks, 0u) << model->name();
  }
}

// Synchronized word stimuli drive bit-equal event times everywhere; any
// nonzero perturbation separates those ties, so essentially every sample
// must be *detected* as diverged and fall back -- still bit-exact.
TEST_F(ReplayOracleTest, TiedStimulusFallsBackSoundly) {
  MultiplierCircuit mult = make_multiplier(lib_, 4);
  const Stimulus stim = multiplier_stimulus(mult, fig6_sequence());
  const OracleCounts counts =
      run_differential(mult.netlist, ddm_, stim, mult.s, 40, 0xF16);
  EXPECT_GT(counts.fallbacks, 0u);
}

TEST_F(ReplayOracleTest, IdentityReplayMatchesRecordingBitForBit) {
  MultiplierCircuit mult = make_multiplier(lib_, 4);
  std::vector<SignalId> inputs = mult.a;
  inputs.insert(inputs.end(), mult.b.begin(), mult.b.end());
  Stimulus stim = staggered_random_stimulus(inputs, 8, 99);
  stim.set_initial(mult.tie0, false);

  ResimEngine engine(TimingGraph::build(mult.netlist, ddm_.timing_policy()), ddm_, stim,
                     SimConfig{});
  engine.record();
  ResimSession session(engine);
  // Unperturbed arcs: the replay must reproduce the recording run exactly
  // and must not fall back.
  const ResimSample sample =
      session.evaluate(engine.base_graph(), mult.s, /*want_hash=*/true);
  EXPECT_FALSE(sample.fallback);
  EXPECT_EQ(sample.history_hash,
            oracle_hash(mult.netlist, ddm_, engine.base_graph(), stim));
  // Sessions are reusable: a second evaluation of the same graph is
  // bit-identical (state fully reset between walks).
  const ResimSample again =
      session.evaluate(engine.base_graph(), mult.s, /*want_hash=*/true);
  EXPECT_EQ(again.history_hash, sample.history_hash);
  EXPECT_EQ(again.critical_t50, sample.critical_t50);
}

// ---- interned arc blocks ----------------------------------------------------

/// Every gate-evaluation op of `trace` must name the graph's own arc of
/// (fired gate, fired pin, output edge) -- never the interned twin the
/// kernel evaluated.  The pin comes from the preceding kFire's list id, a
/// fanout slot: the position of (gate, pin) in the netlist's fanout lists
/// taken signal by signal; the edge from the surviving history where the
/// transition is in it, otherwise the op must name one of the pin's two arcs.
void expect_graph_arc_ids(const replay::Trace& trace, const Netlist& netlist,
                          const TimingGraph& graph) {
  std::vector<PinRef> slot_pin;
  for (std::uint32_t s = 0; s < netlist.num_signals(); ++s) {
    for (const PinRef& ref : netlist.signal(SignalId{s}).fanout) slot_pin.push_back(ref);
  }
  ASSERT_EQ(slot_pin.size(), trace.num_inputs);
  std::vector<int> rise(trace.num_transitions, -1);
  for (const auto& line : trace.history) {
    for (const replay::TraceHistoryEntry& entry : line) rise[entry.transition] = entry.rise;
  }
  std::uint32_t gate = replay::kNone;
  int pin = 0;
  std::size_t checked = 0;
  for (const replay::TraceOp& op : trace.ops) {
    if (op.kind == replay::OpKind::kFire) {
      gate = op.c;
      ASSERT_EQ(slot_pin[op.b].gate.value(), gate);
      pin = slot_pin[op.b].pin;
      continue;
    }
    if (op.kind != replay::OpKind::kGateTr) continue;
    ASSERT_NE(gate, replay::kNone) << "gate evaluation before any fire";
    const GateId gid{gate};
    if (op.a != replay::kNone && rise[op.a] >= 0) {
      EXPECT_EQ(op.b, graph.arc_id(gid, pin, rise[op.a] != 0 ? Edge::kRise : Edge::kFall));
    } else {
      EXPECT_TRUE(op.b == graph.arc_id(gid, pin, Edge::kRise) ||
                  op.b == graph.arc_id(gid, pin, Edge::kFall))
          << "op arc " << op.b;
    }
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

/// mult8 under DDM shares arc blocks widely; perturbing one used arc of one
/// shared gate leaves the interned set with shared blocks plus one private
/// block.  Full simulation, replay, recorded arc ids and a pooled
/// simulator's rebind() must all see the private block exactly where it is.
TEST_F(ReplayOracleTest, InternedArcsUnderPartialSharing) {
  MultiplierCircuit mult = make_multiplier(lib_, 8);
  std::vector<SignalId> inputs = mult.a;
  inputs.insert(inputs.end(), mult.b.begin(), mult.b.end());
  Stimulus stim = staggered_random_stimulus(inputs, 6, 1357);
  stim.set_initial(mult.tie0, false);

  ResimEngine engine(TimingGraph::build(mult.netlist, ddm_.timing_policy()), ddm_, stim,
                     SimConfig{});
  engine.record();
  ASSERT_TRUE(engine.trace().replayable);
  const TimingGraph& nominal = engine.base_graph();
  const std::size_t nominal_distinct = Simulator(mult.netlist, ddm_, nominal).distinct_arcs();
  ASSERT_LT(nominal_distinct * 4, nominal.num_arcs()) << "mult8 should share arc blocks";

  // The first evaluated arc of a gate whose block is shared: scaling it
  // makes that gate's block private (one more block of 2 * fan-in arcs).
  TimingGraph perturbed = nominal;
  std::uint32_t fired_gate = replay::kNone;
  std::size_t perturbed_distinct = 0;
  for (const replay::TraceOp& op : engine.trace().ops) {
    if (op.kind == replay::OpKind::kFire) fired_gate = op.c;
    if (op.kind != replay::OpKind::kGateTr || op.a == replay::kNone) continue;
    perturbed = nominal;
    perturbed.scale_arc_factor(op.b, 1.0 + 1e-6);
    const std::size_t fan_in = mult.netlist.gate(GateId{fired_gate}).inputs.size();
    if (Simulator(mult.netlist, ddm_, perturbed).distinct_arcs() ==
        nominal_distinct + 2 * fan_in) {
      perturbed_distinct = nominal_distinct + 2 * fan_in;
      break;
    }
  }
  ASSERT_NE(perturbed_distinct, 0u) << "no evaluated arc belongs to a shared block";

  const std::uint64_t nominal_hash = oracle_hash(mult.netlist, ddm_, nominal, stim);
  const std::uint64_t perturbed_hash = oracle_hash(mult.netlist, ddm_, perturbed, stim);
  ASSERT_NE(perturbed_hash, nominal_hash) << "the private arc must be evaluated";

  // Full simulation and replay agree on the partially shared graph.
  ResimSession session(engine);
  EXPECT_EQ(session.evaluate(perturbed, mult.s, /*want_hash=*/true).history_hash,
            perturbed_hash);

  // Recorded traces carry graph arc ids, on both graphs.
  expect_graph_arc_ids(engine.trace(), mult.netlist, nominal);
  {
    replay::TraceRecorder recorder;
    Simulator sim(mult.netlist, ddm_, perturbed);
    sim.record_into(&recorder);
    sim.apply_stimulus(stim);
    sim.finish_recording(sim.run());
    expect_graph_arc_ids(recorder.trace(), mult.netlist, perturbed);
  }

  // One pooled simulator: the remap is rebuilt on every graph change, and a
  // same-graph rebind keeps it.
  const auto run_hash = [&stim](Simulator& sim) {
    sim.apply_stimulus(stim);
    (void)sim.run();
    return replay::hash_sim_history(sim);
  };
  Simulator pooled(mult.netlist, ddm_, nominal);
  EXPECT_EQ(run_hash(pooled), nominal_hash);
  pooled.rebind(mult.netlist, ddm_, perturbed);
  EXPECT_EQ(pooled.distinct_arcs(), perturbed_distinct);
  EXPECT_EQ(run_hash(pooled), perturbed_hash);
  pooled.rebind(mult.netlist, ddm_, nominal);
  EXPECT_EQ(pooled.distinct_arcs(), nominal_distinct);
  EXPECT_EQ(run_hash(pooled), nominal_hash);
  pooled.rebind(mult.netlist, ddm_, nominal);
  EXPECT_EQ(run_hash(pooled), nominal_hash);
}

// ---- property / fuzz: randomized layered DAGs, per-arc perturbations --------

TEST_F(ReplayOracleTest, FuzzLayeredDagsPerArcPerturbations) {
  SplitMix64 rng(0xFA22ED);
  // Perturbation amplitudes from corner-retiming up to +/-50% per arc.
  static constexpr double kAmps[] = {0.5, 1e-3, 1e-6, 1e-9};
  for (int trial = 0; trial < 6; ++trial) {
    const int width = 4 + static_cast<int>(rng.next_below(5));
    const int depth = 3 + static_cast<int>(rng.next_below(4));
    LayeredCircuit dag = make_layered_circuit(lib_, width, depth, rng.next());
    const Stimulus stim =
        staggered_random_stimulus(dag.inputs, 6, rng.next());

    ResimEngine engine(TimingGraph::build(dag.netlist, ddm_.timing_policy()), ddm_, stim,
                       SimConfig{});
    engine.record();
    ResimSession session(engine);
    for (int s = 0; s < 8; ++s) {
      const double amp = kAmps[s % std::size(kAmps)];
      TimingGraph graph = engine.base_graph();
      for (std::uint32_t a = 0; a < static_cast<std::uint32_t>(graph.num_arcs());
           ++a) {
        const double u = static_cast<double>(rng.next_below(1u << 20)) /
                         static_cast<double>(1u << 20);
        graph.scale_arc_factor(a, 1.0 + amp * (2.0 * u - 1.0));
      }
      const ResimSample sample = session.evaluate(graph, dag.outputs, true);
      ASSERT_EQ(sample.history_hash, oracle_hash(dag.netlist, ddm_, graph, stim))
          << "trial " << trial << " sample " << s << " amp " << amp;
    }
  }
}

// ---- engine mechanics -------------------------------------------------------

TEST_F(ReplayOracleTest, EventLimitStopIsNotReplayable) {
  MultiplierCircuit mult = make_multiplier(lib_, 4);
  std::vector<SignalId> inputs = mult.a;
  inputs.insert(inputs.end(), mult.b.begin(), mult.b.end());
  Stimulus stim = staggered_random_stimulus(inputs, 8, 31);
  stim.set_initial(mult.tie0, false);

  SimConfig config;
  config.max_events = 50;  // truncates the schedule at an ordinal, not a time
  ResimEngine engine(TimingGraph::build(mult.netlist, ddm_.timing_policy()), ddm_, stim,
                     config);
  engine.record();
  EXPECT_FALSE(engine.trace().replayable);

  // The session still evaluates correctly -- every sample falls back.
  ResimSession session(engine);
  const TimingGraph graph = engine.base_graph().vary(1e-8, 1);
  const ResimSample sample = session.evaluate(graph, mult.s, /*want_hash=*/true);
  EXPECT_TRUE(sample.fallback);
  EXPECT_EQ(sample.history_hash, oracle_hash(mult.netlist, ddm_, graph, stim, config));
}

TEST_F(ReplayOracleTest, HorizonStopRecordsResidualsAndReplays) {
  MultiplierCircuit mult = make_multiplier(lib_, 4);
  std::vector<SignalId> inputs = mult.a;
  inputs.insert(inputs.end(), mult.b.begin(), mult.b.end());
  Stimulus stim = staggered_random_stimulus(inputs, 8, 77);
  stim.set_initial(mult.tie0, false);

  SimConfig config;
  config.t_end = 12.0;  // cuts the run mid-activity: residual events exist
  ResimEngine engine(TimingGraph::build(mult.netlist, ddm_.timing_policy()), ddm_, stim,
                     config);
  engine.record();
  ASSERT_TRUE(engine.trace().replayable);
  std::size_t residuals = 0;
  for (const replay::TraceOp& op : engine.trace().ops) {
    if (op.kind == replay::OpKind::kResidual) ++residuals;
  }
  EXPECT_GT(residuals, 0u);

  ResimSession session(engine);
  SplitMix64 seeds(0x40412);
  for (int i = 0; i < 20; ++i) {
    const TimingGraph graph = engine.base_graph().vary(1e-7, seeds.next());
    const ResimSample sample = session.evaluate(graph, mult.s, /*want_hash=*/true);
    ASSERT_EQ(sample.history_hash,
              oracle_hash(mult.netlist, ddm_, graph, stim, config));
  }
}

// These recordings resurrect a pair-cancelled event (an output pulse
// collapsed after its spawn had cancelled a partner).  On the 40x30 design,
// under stimulus seed 10 the resurrected event is cancelled again before it
// fires, under seed 14 it fires.  On the 20x20 design under seed 70 it
// fires at the resurrecting instant (its partner's time is already past, so
// the time is clamped to `now`) on a gate that is still degraded, so its
// delay moves with that time.  Small per-gate corners keep the schedule,
// so every sample replays through the kResurrect op and must equal a full
// run.
TEST_F(ReplayOracleTest, ResurrectionReplaysBitExact) {
  struct Case {
    int width;
    int depth;
    std::uint64_t stim_seed;
  };
  for (const Case c : {Case{40, 30, 10}, Case{40, 30, 14}, Case{20, 20, 70}}) {
    LayeredCircuit dag = make_layered_circuit(lib_, c.width, c.depth, 0xA000);
    const Stimulus stim = staggered_random_stimulus(dag.inputs, 8, c.stim_seed, 0.2);
    ResimEngine engine(TimingGraph::build(dag.netlist, ddm_.timing_policy()), ddm_, stim,
                       SimConfig{});
    engine.record();
    ASSERT_TRUE(engine.trace().replayable);
    std::size_t resurrections = 0;
    for (const replay::TraceOp& op : engine.trace().ops) {
      if (op.kind == replay::OpKind::kResurrect) ++resurrections;
    }
    EXPECT_GE(resurrections, 1u) << "stimulus " << c.stim_seed;

    ResimSession session(engine);
    SplitMix64 seeds(0xA000 + c.stim_seed);
    for (const double sigma : {1e-9, 1e-7, 1e-5}) {
      for (int i = 0; i < 10; ++i) {
        const TimingGraph graph = engine.base_graph().vary(sigma, seeds.next());
        const ResimSample sample = session.evaluate(graph, dag.outputs, /*want_hash=*/true);
        EXPECT_FALSE(sample.fallback)
            << "stimulus " << c.stim_seed << " sigma " << sigma << " sample " << i;
        EXPECT_EQ(sample.history_hash,
                  replay::full_sample(engine, graph, dag.outputs, /*want_hash=*/true)
                      .history_hash)
            << "stimulus " << c.stim_seed << " sigma " << sigma << " sample " << i;
      }
    }
  }
}

// The kernel recycles an event's storage slot once the event fires or is
// cancelled, but the trace names events by creation sequence: on the
// resurrection designs above, run in full and cut by a horizon (leaving
// residual events), the n-th kSpawn or kResurrect op creates event n,
// num_events equals both the creations and SimStats::events_created, and
// every other op names an event that was created and is still pending.
// The last case is perf_report's layered_resurrect design cut at 60 ns:
// its resurrections include sorted re-inserts behind a pending neighbour,
// which the small designs never reach.
TEST_F(ReplayOracleTest, TraceEventIdsAreCreationOrdinals) {
  struct Case {
    int width;
    int depth;
    std::size_t edges;
    std::uint64_t stim_seed;
    TimeNs t_end;
  };
  constexpr std::uint32_t kNone = replay::kNone;
  std::size_t neighbours = 0;
  for (const Case c : {Case{40, 30, 8, 10, kNeverNs}, Case{40, 30, 8, 14, kNeverNs},
                       Case{20, 20, 8, 70, kNeverNs}, Case{40, 30, 8, 14, 20.0},
                       Case{100, 60, 32, 2, 60.0}}) {
    LayeredCircuit dag = make_layered_circuit(lib_, c.width, c.depth, 0xA000);
    const Stimulus stim = staggered_random_stimulus(dag.inputs, c.edges, c.stim_seed, 0.2);
    SimConfig config;
    config.t_end = c.t_end;
    Simulator sim(dag.netlist, ddm_, config);
    replay::TraceRecorder recorder;
    sim.record_into(&recorder);
    sim.apply_stimulus(stim);
    sim.finish_recording(sim.run());
    const replay::Trace& trace = recorder.trace();
    SCOPED_TRACE("stimulus " + std::to_string(c.stim_seed) + ", t_end " +
                 std::to_string(c.t_end));

    std::vector<bool> pending;  // by event id
    const auto live = [&](std::uint32_t id) { return id < pending.size() && pending[id]; };
    std::size_t resurrections = 0;
    std::size_t residuals = 0;
    std::uint32_t last_residual = 0;
    for (const replay::TraceOp& op : trace.ops) {
      switch (op.kind) {
        case replay::OpKind::kSpawn:
          ASSERT_EQ(op.a, pending.size());
          ASSERT_TRUE(op.c == kNone || live(op.c));
          pending.push_back(true);
          break;
        case replay::OpKind::kResurrect:
          ASSERT_EQ(op.a, pending.size());
          ASSERT_LT(op.b, pending.size());
          ASSERT_FALSE(live(op.b)) << "the partner was cancelled";
          ASSERT_TRUE(op.c == kNone || live(op.c));
          ASSERT_TRUE(op.d == kNone || live(op.d));
          neighbours += (op.c != kNone ? 1 : 0) + (op.d != kNone ? 1 : 0);
          pending.push_back(true);
          ++resurrections;
          break;
        case replay::OpKind::kPairCancel:
        case replay::OpKind::kCancel:
        case replay::OpKind::kFire:
          ASSERT_TRUE(live(op.a));
          pending[op.a] = false;
          break;
        case replay::OpKind::kResidual:
          ASSERT_TRUE(live(op.a));
          ASSERT_TRUE(residuals == 0 || op.a > last_residual) << "creation order";
          last_residual = op.a;
          ++residuals;
          break;
        case replay::OpKind::kGateTr:
          break;
      }
    }
    EXPECT_EQ(trace.num_events, pending.size());
    EXPECT_EQ(trace.num_events, sim.stats().events_created);
    EXPECT_EQ(residuals, static_cast<std::size_t>(
                             std::count(pending.begin(), pending.end(), true)));
    EXPECT_GE(resurrections, 1u);
    if (c.t_end != kNeverNs) {
      EXPECT_GT(residuals, 0u);
    }
  }
  EXPECT_GT(neighbours, 0u);
}

TEST_F(ReplayOracleTest, ReplaySupervisionBudgetStops) {
  MultiplierCircuit mult = make_multiplier(lib_, 8);
  std::vector<SignalId> inputs = mult.a;
  inputs.insert(inputs.end(), mult.b.begin(), mult.b.end());
  Stimulus stim = staggered_random_stimulus(inputs, 6, 11);
  stim.set_initial(mult.tie0, false);

  ResimEngine engine(TimingGraph::build(mult.netlist, ddm_.timing_policy()), ddm_, stim,
                     SimConfig{});
  engine.record();
  ResimSession session(engine);

  // An already-expired wall-clock deadline trips the replayer's coarse
  // check on its first poll.
  RunBudget budget;
  budget.deadline_s = 1e-9;
  RunSupervisor supervisor(budget);
  supervisor.arm();
  const TimingGraph graph = engine.base_graph().vary(1e-8, 3);
  EXPECT_THROW((void)session.evaluate(graph, mult.s, true, &supervisor), RunError);
}

TEST_F(ReplayOracleTest, FallbackFailpointFires) {
  MultiplierCircuit mult = make_multiplier(lib_, 4);
  const Stimulus stim = multiplier_stimulus(mult, fig6_sequence());  // tied: falls back
  ResimEngine engine(TimingGraph::build(mult.netlist, ddm_.timing_policy()), ddm_, stim,
                     SimConfig{});
  engine.record();
  ResimSession session(engine);

  FailPoints::instance().arm("replay.fallback", 1);
  const TimingGraph graph = engine.base_graph().vary(1e-3, 5);
  EXPECT_THROW((void)session.evaluate(graph, mult.s, true), FailPointError);
  FailPoints::instance().disarm_all();
  // And after disarming, the same evaluation completes via full fallback.
  const ResimSample sample = session.evaluate(graph, mult.s, true);
  EXPECT_TRUE(sample.fallback);
  EXPECT_EQ(sample.history_hash, oracle_hash(mult.netlist, ddm_, graph, stim));
}

// ---- the variation engine rides the same contract ---------------------------

TEST_F(ReplayOracleTest, VariationArtifactsByteIdenticalWithReplay) {
  MultiplierCircuit mult = make_multiplier(lib_, 4);
  std::vector<SignalId> inputs = mult.a;
  inputs.insert(inputs.end(), mult.b.begin(), mult.b.end());
  Stimulus stim = staggered_random_stimulus(inputs, 8, 2024);
  stim.set_initial(mult.tie0, false);

  replay::VariationConfig config;
  config.sigma = 1e-4;  // mixed regime: some samples replay, some fall back
  config.seed = 9;
  config.samples = 24;

  config.use_replay = false;
  config.threads = 1;
  const replay::VariationResult full =
      replay::run_variation(mult.netlist, ddm_, stim, mult.s, config);
  const std::string full_csv = replay::format_variation_csv(full);
  const std::string full_report = replay::format_variation_report(full, config);

  config.use_replay = true;
  for (const int threads : {1, 2, 4}) {
    config.threads = threads;
    const replay::VariationResult rep =
        replay::run_variation(mult.netlist, ddm_, stim, mult.s, config);
    EXPECT_EQ(replay::format_variation_csv(rep), full_csv) << threads << " threads";
    EXPECT_EQ(replay::format_variation_report(rep, config), full_report)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace halotis
