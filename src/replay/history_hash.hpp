// The canonical order- and bit-sensitive waveform hash.
//
// One definition serves bench/perf_report, the replay differential oracle
// and the variation engine: equal hashes mean bit-identical surviving
// waveforms (per-signal transition lists, (edge, t_start, tau) bytes).
// The replayer reproduces this hash without materializing a Simulator, so
// the replay-vs-full comparison is exactly "same bytes in, same hash out".
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/base/fnv.hpp"
#include "src/core/simulator.hpp"
#include "src/core/transition.hpp"
#include "src/netlist/netlist.hpp"

namespace halotis::replay {

// The byte loop and the offset basis are the repo-wide definitions from
// src/base/fnv.hpp; the aliases keep this header's historical spelling.
using halotis::fnv1a;

inline constexpr std::uint64_t kFnvOffset = kFnv1aOffset;

/// Folds one signal header into the hash.
[[nodiscard]] inline std::uint64_t hash_signal_header(std::uint64_t hash, SignalId id) {
  const std::uint32_t sv = id.value();
  return fnv1a(hash, &sv, sizeof sv);
}

/// Folds one surviving transition into the hash.
[[nodiscard]] inline std::uint64_t hash_transition(std::uint64_t hash, Edge edge,
                                                   TimeNs t_start, TimeNs tau) {
  const std::uint8_t e = edge == Edge::kRise ? 1 : 0;
  hash = fnv1a(hash, &e, sizeof e);
  hash = fnv1a(hash, &t_start, sizeof t_start);
  hash = fnv1a(hash, &tau, sizeof tau);
  return hash;
}

/// Hash of all surviving transitions of a finished (or stopped) run: the
/// CLI's `--hash`, perf_report's history_hash and the replay oracle.  The
/// walk reads every history from one Simulator::histories() layout and
/// prefetches the transition record kHashPrefetchAhead ids on: a signal's
/// records are scattered over the transition arena, so the walk is bound
/// by their cache misses, not by the hash arithmetic.
[[nodiscard]] inline std::uint64_t hash_sim_history(const Simulator& sim) {
  constexpr std::size_t kHashPrefetchAhead = 16;
  const SignalHistories all = sim.histories();
  const std::size_t num_ids = all.ids.size();
  std::uint64_t hash = kFnvOffset;
  const std::size_t num_signals = sim.netlist().num_signals();
  for (std::size_t s = 0; s < num_signals; ++s) {
    hash = hash_signal_header(hash, SignalId{static_cast<SignalId::underlying_type>(s)});
    for (std::size_t k = all.offsets[s]; k < all.offsets[s + 1]; ++k) {
      if (k + kHashPrefetchAhead < num_ids) {
        __builtin_prefetch(&sim.transition(all.ids[k + kHashPrefetchAhead]));
      }
      const Transition& tr = sim.transition(all.ids[k]);
      hash = hash_transition(hash, tr.edge, tr.t_start, tr.tau);
    }
  }
  return hash;
}

}  // namespace halotis::replay
