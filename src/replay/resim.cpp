#include "src/replay/resim.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>

#include "src/base/check.hpp"
#include "src/base/failpoint.hpp"
#include "src/replay/history_hash.hpp"

namespace halotis::replay {

ResimEngine::ResimEngine(const Netlist& netlist, const DelayModel& model,
                         const Stimulus& stimulus, SimConfig config)
    : netlist_(&netlist),
      model_(model),
      stimulus_(&stimulus),
      config_(config),
      base_graph_(TimingGraph::build(netlist, model.timing_policy())) {}

TimingGraph& ResimEngine::base_graph_mutable() {
  require(!recorded_, "ResimEngine::base_graph_mutable(): trace already recorded");
  return base_graph_;
}

void ResimEngine::record(const RunSupervisor* supervisor) {
  require(!recorded_, "ResimEngine::record(): already recorded");
  Simulator sim(*netlist_, model_, base_graph_, config_);
  sim.record_into(&recorder_);
  sim.supervise(supervisor);
  sim.apply_stimulus(*stimulus_);
  base_result_ = sim.run();
  sim.finish_recording(base_result_);
  base_stats_ = sim.stats();
  recorded_ = true;
}

ResimSession::ResimSession(const ResimEngine& engine) : engine_(&engine) {
  require(engine.recorded(), "ResimSession: engine has not recorded a trace");
  if (engine.trace().replayable) {
    replayer_ = std::make_unique<TraceReplayer>(engine.trace());
  }
}

ResimSample ResimSession::evaluate(const TimingGraph& graph,
                                   std::span<const SignalId> observed, bool want_hash,
                                   const RunSupervisor* supervisor) {
  ++evaluated_;
  if (replayer_ != nullptr) {
    const ReplayOutcome outcome = replayer_->replay(graph.arcs(), supervisor);
    if (!outcome.ok && std::getenv("HALOTIS_REPLAY_DEBUG") != nullptr) {
      const TraceOp& op = engine_->trace().ops[outcome.failed_op];
      std::fprintf(stderr, "replay failed at op %zu kind=%d a=%u b=%u c=%u d=%u flags=%u\n",
                   outcome.failed_op, static_cast<int>(op.kind), op.a, op.b, op.c, op.d,
                   static_cast<unsigned>(op.flags));
    }
    if (outcome.ok) {
      ResimSample sample;
      if (want_hash) sample.history_hash = replayer_->history_hash();
      sample.critical_t50 = replayer_->latest_t50(observed);
      return sample;
    }
  }

  // A recorded decision no longer holds under this perturbation (or the
  // trace was never replayable): from-scratch full event simulation, which
  // is always bit-exact by definition.
  failpoint_throw("replay.fallback");
  ++fallbacks_;
  Simulator sim(engine_->netlist(), engine_->model(), graph, engine_->config());
  sim.supervise(supervisor);
  sim.apply_stimulus(engine_->stimulus());
  (void)sim.run();
  ResimSample sample;
  sample.fallback = true;
  if (want_hash) sample.history_hash = hash_sim_history(sim);
  sample.critical_t50 = latest_t50(sim, observed);
  return sample;
}

void ResimSession::evaluate_batch(std::span<const TimingGraph* const> graphs,
                                  std::span<const SignalId> observed, bool want_hash,
                                  std::span<ResimSample> out,
                                  const RunSupervisor* supervisor) {
  require(!graphs.empty() && graphs.size() <= kReplayLanes,
          "ResimSession::evaluate_batch(): between 1 and kReplayLanes graphs");
  require(out.size() == graphs.size(),
          "ResimSession::evaluate_batch(): out.size() != graphs.size()");
  if (replayer_ == nullptr) {
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      out[i] = evaluate(*graphs[i], observed, want_hash, supervisor);
    }
    return;
  }
  // Short batches pad by re-evaluating the last graph: lanes are
  // independent, so the duplicate lanes are simply ignored.
  std::array<std::span<const TimingArc>, kReplayLanes> lanes;
  for (std::size_t l = 0; l < kReplayLanes; ++l) {
    lanes[l] = graphs[std::min(l, graphs.size() - 1)]->arcs();
  }
  std::array<ReplayOutcome, kReplayLanes> outcomes;
  replayer_->replay_batch(lanes, outcomes, supervisor);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    ++evaluated_;
    if (outcomes[i].ok) {
      ResimSample sample;
      if (want_hash) sample.history_hash = replayer_->batch_history_hash(i);
      sample.critical_t50 = replayer_->batch_latest_t50(i, observed);
      out[i] = sample;
      continue;
    }
    failpoint_throw("replay.fallback");
    ++fallbacks_;
    Simulator sim(engine_->netlist(), engine_->model(), *graphs[i], engine_->config());
    sim.supervise(supervisor);
    sim.apply_stimulus(engine_->stimulus());
    (void)sim.run();
    ResimSample sample;
    sample.fallback = true;
    if (want_hash) sample.history_hash = hash_sim_history(sim);
    sample.critical_t50 = latest_t50(sim, observed);
    out[i] = sample;
  }
}

TimeNs latest_t50(const Simulator& sim, std::span<const SignalId> signals) {
  TimeNs latest = 0.0;
  for (const SignalId s : signals) {
    const std::vector<Transition> history = sim.history(s);
    if (history.empty()) continue;
    latest = std::max(latest, history.back().t50());
  }
  return latest;
}

}  // namespace halotis::replay
