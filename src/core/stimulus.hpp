// Testbench stimulus: initial values and scheduled edges on primary inputs.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "src/base/ids.hpp"
#include "src/base/units.hpp"
#include "src/netlist/netlist.hpp"

namespace halotis {

/// One scheduled logic change on a primary input.  `time` is the instant
/// the driving ramp crosses midswing; `tau` its rail-to-rail duration.
struct StimulusEdge {
  TimeNs time = 0.0;
  bool value = false;
  TimeNs tau = 0.0;  ///< 0 means "use the stimulus default slew"
};

class Stimulus {
 public:
  explicit Stimulus(TimeNs default_slew = 0.4) : default_slew_(default_slew) {}

  /// Logic value before the first edge (default 0).
  void set_initial(SignalId input, bool value);

  /// Schedules a value change.  Edges on one input must be added in
  /// non-decreasing time order; consecutive equal values are ignored.
  void add_edge(SignalId input, TimeNs time, bool value, TimeNs tau = 0.0);

  /// Applies an integer pattern across `inputs` (inputs[0] = LSB) at `time`.
  /// A word has 64 bits: requires at most 64 inputs.
  void apply_word(std::span<const SignalId> inputs, std::uint64_t word, TimeNs time,
                  TimeNs tau = 0.0);

  /// Applies `words` across `inputs` at times start, start+period, ...
  /// The first word also defines the initial values.  Requires at most 64
  /// inputs, as apply_word().
  void apply_sequence(std::span<const SignalId> inputs, std::span<const std::uint64_t> words,
                      TimeNs start, TimeNs period, TimeNs tau = 0.0);

  [[nodiscard]] bool initial_value(SignalId input) const;
  [[nodiscard]] std::span<const StimulusEdge> edges(SignalId input) const;
  [[nodiscard]] TimeNs default_slew() const { return default_slew_; }
  /// Time of the last scheduled edge across all inputs (0 when empty).
  [[nodiscard]] TimeNs last_edge_time() const;
  /// Sorted, de-duplicated times at which at least one input edges -- the
  /// vector application instants the fault simulator aligns its output
  /// samples to.
  [[nodiscard]] std::vector<TimeNs> edge_times() const;

 private:
  TimeNs default_slew_;
  std::map<SignalId, bool> initial_;
  std::map<SignalId, std::vector<StimulusEdge>> edges_;
  // `apply_word` tracks the last applied value per input so repeated words
  // only emit real changes.
  std::map<SignalId, bool> last_applied_;
};

}  // namespace halotis
