// Canonical stimuli for the paper's experiments: the Fig. 6 / Fig. 7
// multiplication sequences and the word-stream testbench construction.
//
// Both the bench harnesses (bench/) and the reproduction engine
// (src/repro/) drive circuits with these, so the same sequence named in a
// figure caption always means the same edges.
#pragma once

#include <cstdint>
#include <vector>

#include "src/base/rng.hpp"
#include "src/circuits/generators.hpp"
#include "src/core/stimulus.hpp"

namespace halotis {

/// The paper's Fig. 6 sequence: AxB = 0x0, 7x7, 5xA, Ex6, FxF.
/// Words pack a into the low nibble-group, b into the high one.
inline std::vector<std::uint64_t> fig6_sequence() { return {0x00, 0x77, 0xA5, 0x6E, 0xFF}; }

/// The paper's Fig. 7 sequence: 0x0, FxF, 0x0, FxF, 0x0.
inline std::vector<std::uint64_t> fig7_sequence() { return {0x00, 0xFF, 0x00, 0xFF, 0x00}; }

[[nodiscard]] inline const char* sequence_name(bool fig7) {
  return fig7 ? "0x0, FxF, 0x0, FxF, 0x0" : "0x0, 7x7, 5xA, Ex6, FxF";
}

/// Applies `words` to the multiplier inputs, one word every `period` ns
/// starting at `period` (the first word is the initial state), with the
/// paper-scale 0.5 ns input slew.
[[nodiscard]] inline Stimulus multiplier_stimulus(const MultiplierCircuit& mult,
                                                  const std::vector<std::uint64_t>& words,
                                                  TimeNs period = 5.0, TimeNs slew = 0.5) {
  Stimulus stim(slew);
  std::vector<SignalId> ab;
  for (SignalId s : mult.a) ab.push_back(s);
  for (SignalId s : mult.b) ab.push_back(s);
  stim.apply_sequence(ab, words, period, period);
  stim.set_initial(mult.tie0, false);
  return stim;
}

/// Word-sequence testbench over arbitrary primary inputs (inputs[0] = LSB),
/// one word every `period` ns starting at `period`; the first word is the
/// initial state.
[[nodiscard]] inline Stimulus word_stimulus(std::span<const SignalId> inputs,
                                            const std::vector<std::uint64_t>& words,
                                            TimeNs period = 5.0, TimeNs slew = 0.5) {
  Stimulus stim(slew);
  stim.apply_sequence(inputs, words, period, period);
  return stim;
}

/// Per-signal staggered random edges: every input gets its own random
/// 20-bit-fraction period and phase, so independent edges essentially never
/// land on bit-equal times.  Replay workloads want tie-free stimuli: under
/// synchronized word streams any timing perturbation separates bit-equal
/// event times, which the replayer detects and answers with a full-sim
/// fallback (docs/REPLAY.md).
[[nodiscard]] inline Stimulus staggered_random_stimulus(
    std::span<const SignalId> inputs, std::size_t edges, std::uint64_t seed,
    TimeNs slew = 0.5) {
  Stimulus stim(slew);
  SplitMix64 rng(seed);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const TimeNs period =
        4.0 + static_cast<double>(rng.next_below(1u << 20)) / (1u << 21);
    const TimeNs start =
        3.0 + static_cast<double>(rng.next_below(1u << 20)) / (1u << 20);
    bool value = rng.next_bool(0.5);
    stim.set_initial(inputs[i], value);
    for (std::size_t k = 0; k < edges; ++k) {
      if (rng.next_bool(0.3)) continue;  // idle cycles keep activity mixed
      value = !value;
      stim.add_edge(inputs[i], start + period * static_cast<double>(k), value);
    }
  }
  return stim;
}

}  // namespace halotis
