// Record-once / re-time-many driver (ROADMAP item 3, the LightningSim /
// OmniSim structure from PAPERS.md adapted to gate-level timing).
//
// ResimEngine records ONE full event simulation of (model, stimulus) over
// the caller's base TimingGraph and seals the causal trace.  The caller
// builds that graph -- a variation run's plain elaboration, or an SDF
// corner sweep's copy of the command's elaboration annotated with the
// first corner -- so the trace is recorded on the graph the sessions
// re-time, not on a second elaboration beside it.
// ResimSession then evaluates arbitrarily many *perturbed* TimingGraphs --
// variation samples, SDF corners -- through the TraceReplayer, falling
// back to a from-scratch full event simulation whenever a recorded
// scheduling decision no longer holds (or the trace was never replayable).
// Either path yields the identical bit-for-bit result; the replay path
// just skips the heap, the pending lists and the gate evaluations.
//
// Sessions are independent: one engine (and its const Trace) is shared
// read-only across worker threads, each worker owning one session with
// reusable per-sample state.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/core/simulator.hpp"
#include "src/core/stimulus.hpp"
#include "src/replay/replayer.hpp"
#include "src/replay/trace.hpp"

namespace halotis::replay {

class ResimEngine {
 public:
  /// Records on `base` (elaborated under the model's policy); its netlist
  /// and `stimulus` must outlive the engine.  `model` is copied.
  ResimEngine(TimingGraph base, const DelayModel& model, const Stimulus& stimulus,
              SimConfig config = {});

  /// Runs and records the base simulation (serial; supervised when
  /// `supervisor` is given).  Must be called once before sessions open.
  /// Returns the recorded run's latest surviving t50 over `observed` -- the
  /// critical_t50 of full_sample() on base_graph(), without a second run.
  TimeNs record(const RunSupervisor* supervisor = nullptr,
                std::span<const SignalId> observed = {});

  [[nodiscard]] bool recorded() const { return recorded_; }
  [[nodiscard]] const Trace& trace() const { return recorder_.trace(); }
  /// The recording graph, which variation samples copy and derate.
  [[nodiscard]] const TimingGraph& base_graph() const { return base_graph_; }
  [[nodiscard]] const Netlist& netlist() const { return base_graph_.netlist(); }
  [[nodiscard]] const DelayModel& model() const { return model_; }
  [[nodiscard]] const Stimulus& stimulus() const { return *stimulus_; }
  [[nodiscard]] const SimConfig& config() const { return config_; }

 private:
  DelayModel model_;
  const Stimulus* stimulus_;
  SimConfig config_;
  TimingGraph base_graph_;
  TraceRecorder recorder_;
  bool recorded_ = false;
};

/// One evaluated delay sample.
struct ResimSample {
  std::uint64_t history_hash = 0;  ///< canonical waveform hash (when requested)
  TimeNs critical_t50 = 0.0;       ///< latest surviving t50 over the observed signals
  bool fallback = false;           ///< full event simulation ran instead of replay
};

/// One from-scratch full event simulation of `graph` (elaborated over the
/// engine's netlist) under the engine's model, stimulus and config --
/// bit-exact by definition.  Runs the session's fallback, and a variation
/// analysis's nominal run and every sample when it does not replay.
/// `observed` and `want_hash` as for ResimSession::evaluate(); `fallback`
/// stays false.
[[nodiscard]] ResimSample full_sample(const ResimEngine& engine, const TimingGraph& graph,
                                      std::span<const SignalId> observed, bool want_hash,
                                      const RunSupervisor* supervisor = nullptr);

/// Per-worker evaluation state: a TraceReplayer with reusable buffers plus
/// the full_sample() fallback.  Not thread-safe; one per worker.
class ResimSession {
 public:
  /// `engine` must be recorded and outlive the session.
  explicit ResimSession(const ResimEngine& engine);

  /// Evaluates one perturbed graph (must be elaborated over the engine's
  /// netlist with the same arc count).  `observed` selects the signals
  /// whose latest t50 becomes critical_t50; `want_hash` additionally
  /// computes the canonical waveform hash (skippable for throughput).
  ResimSample evaluate(const TimingGraph& graph, std::span<const SignalId> observed,
                       bool want_hash, const RunSupervisor* supervisor = nullptr);

  /// Samples evaluated / fallbacks taken since construction.
  [[nodiscard]] std::uint64_t evaluated() const { return evaluated_; }
  [[nodiscard]] std::uint64_t fallbacks() const { return fallbacks_; }

 private:
  const ResimEngine* engine_;
  std::unique_ptr<TraceReplayer> replayer_;  ///< null when trace not replayable
  std::uint64_t evaluated_ = 0;
  std::uint64_t fallbacks_ = 0;
};

}  // namespace halotis::replay
