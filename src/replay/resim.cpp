#include "src/replay/resim.hpp"

#include <algorithm>
#include <utility>

#include "src/base/check.hpp"
#include "src/base/failpoint.hpp"
#include "src/replay/history_hash.hpp"

namespace halotis::replay {

namespace {

/// Latest surviving t50 over `signals` of a finished full simulation
/// (the full-simulation counterpart of TraceReplayer::latest_t50).
TimeNs latest_t50(const Simulator& sim, std::span<const SignalId> signals) {
  TimeNs latest = 0.0;
  for (const SignalId s : signals) {
    const TransitionId newest = sim.newest_transition(s);
    if (!newest.valid()) continue;
    latest = std::max(latest, sim.transition(newest).t50());
  }
  return latest;
}

}  // namespace

ResimEngine::ResimEngine(TimingGraph base, const DelayModel& model,
                         const Stimulus& stimulus, SimConfig config)
    : model_(model), stimulus_(&stimulus), config_(config), base_graph_(std::move(base)) {}

TimeNs ResimEngine::record(const RunSupervisor* supervisor,
                          std::span<const SignalId> observed) {
  require(!recorded_, "ResimEngine::record(): already recorded");
  Simulator sim(netlist(), model_, base_graph_, config_);
  sim.record_into(&recorder_);
  sim.supervise(supervisor);
  sim.apply_stimulus(*stimulus_);
  sim.finish_recording(sim.run());
  recorded_ = true;
  return latest_t50(sim, observed);
}

ResimSample full_sample(const ResimEngine& engine, const TimingGraph& graph,
                        std::span<const SignalId> observed, bool want_hash,
                        const RunSupervisor* supervisor) {
  Simulator sim(engine.netlist(), engine.model(), graph, engine.config());
  sim.supervise(supervisor);
  sim.apply_stimulus(engine.stimulus());
  (void)sim.run();
  ResimSample sample;
  if (want_hash) sample.history_hash = hash_sim_history(sim);
  sample.critical_t50 = latest_t50(sim, observed);
  return sample;
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
  if (replayer_ != nullptr && replayer_->replay(graph.arcs(), supervisor).ok) {
    ResimSample sample;
    if (want_hash) sample.history_hash = replayer_->history_hash();
    sample.critical_t50 = replayer_->latest_t50(observed);
    return sample;
  }

  // A recorded decision no longer holds under this perturbation (or the
  // trace was never replayable): from-scratch full event simulation, which
  // is always bit-exact by definition.
  failpoint_throw("replay.fallback");
  ++fallbacks_;
  ResimSample sample = full_sample(*engine_, graph, observed, want_hash, supervisor);
  sample.fallback = true;
  return sample;
}

}  // namespace halotis::replay
