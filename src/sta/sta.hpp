// Static timing analysis over the same elaborated TimingGraph the
// simulator's kernel evaluates.
//
// STA computes per-signal earliest/latest arrival windows assuming every
// path can be exercised (topological propagation, no false-path analysis),
// reading each stage's conventional delay (tp_base + p_slew * slew, times
// the per-instance derating) and causing-edge output slope straight from
// the arc table.  Because simulation and STA consume the *same* arcs --
// including any SDF back-annotation or per-instance variation -- the static
// bounds can never silently disagree with the dynamic results: no simulated
// transition may ever arrive later than the static latest arrival (a
// property test enforces this).  Degradation (eq. 1) only shrinks delays,
// so the undegraded arc evaluation used here stays the worst case.
#pragma once

#include <string>
#include <vector>

#include "src/base/units.hpp"
#include "src/netlist/netlist.hpp"
#include "src/timing/timing_graph.hpp"

namespace halotis {

/// Arrival window of one signal, in ns after the driving input event.
struct ArrivalWindow {
  TimeNs earliest = 0.0;
  TimeNs latest = 0.0;
  /// Output ramp duration of the transition that sets `latest` (the causing
  /// edge's slew, used for downstream delays).
  TimeNs slew = 0.0;
};

/// One edge of the critical path, driver -> receiver.
struct PathStep {
  GateId gate;
  SignalId from;
  SignalId to;
  TimeNs delay = 0.0;  ///< tp contribution of this stage (worst edge)
};

struct TimingReport {
  std::vector<ArrivalWindow> arrival;  ///< indexed by SignalId
  TimeNs critical_delay = 0.0;         ///< max latest arrival over outputs
  SignalId critical_output;
  std::vector<PathStep> critical_path; ///< input -> critical output
};

class StaticTimingAnalyzer {
 public:
  /// Analyzes the caller's TimingGraph -- the shared database: pass the
  /// simulator's graph (possibly SDF-annotated or derated) and the bounds
  /// are computed from the very same arcs the kernel evaluates; the `sta`
  /// command passes a conventional elaboration (TimingPolicy{}).
  /// `timing` must be built over `netlist` and outlive the analyzer.
  /// `netlist` must be combinationally acyclic (STA rejects latch loops).
  /// `input_slew` is the assumed primary-input ramp duration.
  StaticTimingAnalyzer(const Netlist& netlist, const TimingGraph& timing,
                       TimeNs input_slew = 0.5);
  /// A temporary graph would dangle: bind it to a variable first.
  StaticTimingAnalyzer(const Netlist&, TimingGraph&&, TimeNs = 0.5) = delete;

  /// Full analysis with conventional (undegraded) delays -- the worst case
  /// the DDM can only improve on.
  [[nodiscard]] TimingReport analyze() const;

  /// The arc table this analyzer reads.
  [[nodiscard]] const TimingGraph& timing() const { return *timing_; }

  /// Formats the critical path like a timing report.
  [[nodiscard]] static std::string format(const TimingReport& report,
                                          const Netlist& netlist);

 private:
  const Netlist* netlist_;
  TimeNs input_slew_;
  const TimingGraph* timing_;
  std::vector<GateId> order_;  ///< topological order, checked acyclic at construction
};

}  // namespace halotis
