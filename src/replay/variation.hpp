// Monte-Carlo variation analysis over the replay engine.
//
// Each sample s draws one per-gate lognormal derating corner
// (TimingGraph::vary() with the sample's seed) applied to a copy of the
// base elaboration, and evaluates the critical
// (latest) observed t50 plus the canonical waveform hash.  With
// use_replay set, samples go through a ResimSession (trace replay with
// full-simulation fallback); otherwise every sample is an independent
// full event simulation.  BOTH paths produce bit-identical rows -- the
// artifacts (CSV, report) carry no mode or thread information, so
// `variation --replay` output is byte-equal to the non-replay output at
// any thread count (the repro determinism rule).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/base/supervision.hpp"
#include "src/core/simulator.hpp"
#include "src/core/stimulus.hpp"
#include "src/timing/timing_graph.hpp"

namespace halotis::replay {

struct VariationConfig {
  double sigma = 0.1;          ///< lognormal sigma of the per-gate derating
  std::uint64_t seed = 1;      ///< master seed of the per-sample seed stream
  std::size_t samples = 100;   ///< Monte-Carlo samples (>= 1)
  int threads = 1;             ///< worker threads (0 = hardware)
  bool use_replay = false;     ///< re-time the recorded trace per sample
  SimConfig sim;               ///< horizon / event limit of every run
};

/// One sample row; index order is the artifact order.
struct VariationSampleRow {
  std::uint64_t sample_seed = 0;   ///< this sample's variation seed
  TimeNs critical_t50 = 0.0;       ///< latest observed surviving t50
  std::uint64_t history_hash = 0;  ///< canonical waveform hash
};

struct VariationResult {
  std::vector<VariationSampleRow> rows;  ///< one per sample, index-keyed
  TimeNs nominal_t50 = 0.0;              ///< unperturbed critical t50
  /// Replay-path diagnostics (console only -- never in artifacts, which
  /// must stay byte-identical across modes and thread counts).
  std::uint64_t fallbacks = 0;
  bool replay_used = false;
};

/// Runs the analysis.  `observed` selects the signals whose latest t50 is
/// the per-sample metric (typically the primary outputs).  Supervision
/// budgets apply to the recording run and to every sample run / replay.
[[nodiscard]] VariationResult run_variation(const Netlist& netlist, const DelayModel& model,
                                            const Stimulus& stimulus,
                                            std::span<const SignalId> observed,
                                            const VariationConfig& config,
                                            const RunSupervisor* supervisor = nullptr);

/// Machine-readable per-sample rows (mode- and thread-count-independent).
[[nodiscard]] std::string format_variation_csv(const VariationResult& result);

/// Human-readable summary (mode- and thread-count-independent).
[[nodiscard]] std::string format_variation_report(const VariationResult& result,
                                                  const VariationConfig& config);

}  // namespace halotis::replay
