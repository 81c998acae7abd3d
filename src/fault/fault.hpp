// Stuck-at fault simulation on top of the timing simulator.
//
// A classic gate-level EDA substrate: enumerate single stuck-at faults on
// every signal line, replay a test sequence on each faulty machine and
// compare sampled primary outputs against the good machine.  Because the
// underlying engine is a *timing* simulator, detection is evaluated at
// specified sample instants (end of each vector period), which exposes an
// effect pure logic fault simulators cannot show: a fault whose only
// visible difference is a glitch may be "detected" under a conventional
// delay model yet undetectable in silicon -- the IDDM filters it.
#pragma once

#include <string>
#include <vector>

#include "src/base/units.hpp"
#include "src/core/delay_model.hpp"
#include "src/core/simulator.hpp"
#include "src/netlist/netlist.hpp"
#include "src/timing/timing_graph.hpp"

namespace halotis {

/// One single stuck-at fault on a signal line.
struct Fault {
  SignalId signal;
  bool stuck_value = false;

  friend bool operator==(const Fault&, const Fault&) = default;
};

/// All 2N candidate faults (primary inputs included; they model pad
/// defects).
[[nodiscard]] std::vector<Fault> enumerate_faults(const Netlist& netlist);

struct FaultSimOptions {
  /// Hold time granted to the LAST vector: the final sample is taken at
  /// last_application + period - epsilon.  (Earlier samples align to the
  /// stimulus's own application instants, not to a k*period grid.)
  TimeNs sample_period = 5.0;
  TimeNs sample_epsilon = 0.1;
  /// Number of vector observations; 0 observes every applied vector.  An
  /// initial-state observation is included on top whenever the first
  /// vector lands after t = epsilon (a vector at t = 0 leaves no initial
  /// window to observe).
  int num_samples = 0;
};

/// The instants the fault simulator samples primary outputs at, aligned to
/// the stimulus's vector application times: the settled response of each
/// applied vector is observed just before the next vector lands (epsilon
/// early), the last one after `sample_period` of hold.  An initial-state
/// observation precedes the first vector.  Shared by the campaign engine
/// and the serial reference simulator under tests/ so verdicts agree.
[[nodiscard]] std::vector<TimeNs> fault_sample_times(const Stimulus& stimulus,
                                                     const FaultSimOptions& options);

/// Human-readable fault name, e.g. "n3/SA0".
[[nodiscard]] std::string fault_name(const Netlist& netlist, const Fault& fault);

// ---- ATPG (random-search test generation) ----------------------------------

struct AtpgOptions {
  int max_candidates = 200;   ///< random vectors to try
  TimeNs period = 5.0;
  TimeNs slew = 0.5;
  std::uint64_t seed = 1;
  /// Worker threads for evaluating each candidate against the surviving
  /// fault set (0 = one per hardware thread).  The generated test set is
  /// thread-count-invariant.
  int threads = 1;
  /// Optional run supervision (must outlive the call): threaded through
  /// the campaign engine (per-event kernel checks) plus a coarse deadline /
  /// cancellation check between candidate vectors.  Faults whose runs
  /// error stay in the surviving set, so injected failures can only shrink
  /// reported coverage, never inflate it.
  const RunSupervisor* supervisor = nullptr;
};

struct AtpgResult {
  std::vector<std::uint64_t> words;  ///< the generated compact test set
  std::size_t total_faults = 0;
  std::size_t detected = 0;
  std::vector<Fault> undetected;

  [[nodiscard]] double coverage() const {
    return total_faults > 0
               ? static_cast<double>(detected) / static_cast<double>(total_faults)
               : 0.0;
  }
};

/// Greedy random-search ATPG: proposes random vectors, keeps each one that
/// detects at least one still-undetected stuck-at fault (evaluated with the
/// timing simulator under `model`), and stops at full coverage or after
/// `max_candidates` proposals.  Returns the compact test set.
///
/// Evaluation is incremental: each candidate is simulated as the two-word
/// stimulus {last accepted word, candidate} against the surviving fault set
/// only -- equivalent to replaying the whole accepted prefix, because
/// detection compares settled samples and the survivors already survived
/// every prefix vector.  Running the returned `words` as one stimulus
/// through a CampaignEngine reproduces `detected` exactly.  Bit i of a word
/// drives primary_inputs()[i], so the netlist may have at most 64 primary
/// inputs (Stimulus::apply_sequence requires it).
///
/// `timing` is the caller's elaboration of `netlist` under the model's
/// policy (the CLI passes its shared one, the daemon's cached copy under
/// `--connect`); every candidate's campaign reads it.
[[nodiscard]] AtpgResult generate_tests(const Netlist& netlist, const DelayModel& model,
                                        const TimingGraph& timing, AtpgOptions options = {});

}  // namespace halotis
