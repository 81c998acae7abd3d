#include "src/sta/sta.hpp"

#include <algorithm>
#include <sstream>

#include "src/base/check.hpp"
#include "src/base/strings.hpp"

namespace halotis {

namespace {

/// The analyzer's gate order; STA is defined on acyclic netlists only.
std::vector<GateId> acyclic_order(const Netlist& netlist) {
  Netlist::Levelization levels = netlist.levelize();
  require(!levels.has_cycles, "StaticTimingAnalyzer: netlist has combinational cycles");
  return std::move(levels.order);
}

}  // namespace

StaticTimingAnalyzer::StaticTimingAnalyzer(const Netlist& netlist,
                                           const TimingGraph& timing, TimeNs input_slew)
    : netlist_(&netlist), input_slew_(input_slew), timing_(&timing) {
  require(input_slew > 0.0, "StaticTimingAnalyzer: input slew must be positive");
  order_ = acyclic_order(netlist);
  require(&timing.netlist() == &netlist,
          "StaticTimingAnalyzer: TimingGraph was elaborated over a different netlist");
}

TimingReport StaticTimingAnalyzer::analyze() const {
  const Netlist& nl = *netlist_;
  TimingReport report;
  report.arrival.assign(nl.num_signals(), ArrivalWindow{kNeverNs, 0.0, 0.0});

  // Primary inputs switch at t = 0 with the configured slew.
  for (const SignalId pi : nl.primary_inputs()) {
    report.arrival[pi.value()] = ArrivalWindow{0.0, 0.0, input_slew_};
  }

  // Track the fan-in edge that sets each signal's latest arrival, to
  // recover the critical path afterwards.
  std::vector<PathStep> latest_cause(nl.num_signals());

  for (const GateId gid : order_) {
    const Gate& gate = nl.gate(gid);
    ArrivalWindow out{kNeverNs, 0.0, 0.0};
    PathStep cause;
    for (int pin = 0; pin < static_cast<int>(gate.inputs.size()); ++pin) {
      const SignalId in = gate.inputs[static_cast<std::size_t>(pin)];
      const ArrivalWindow& win = report.arrival[in.value()];
      if (win.earliest == kNeverNs) continue;  // unreachable input
      for (const Edge out_edge : {Edge::kRise, Edge::kFall}) {
        // The same elaborated arc the simulator's kernel evaluates: load
        // folded into tp_base, per-instance derating in arc.factor.  STA
        // uses the conventional (undegraded) part -- the worst case eq. 1
        // can only improve on.
        const TimingArc& arc = timing_->arc(timing_->arc_id(gid, pin, out_edge));
        const TimeNs tp = (arc.tp_base + arc.p_slew * win.slew) * arc.factor;
        out.earliest = std::min(out.earliest, win.earliest + tp);
        if (win.latest + tp > out.latest) {
          out.latest = win.latest + tp;
          // Propagate the slew of the CAUSING transition: the output ramp
          // of the edge that sets the latest arrival.  Taking the max
          // tau_out over both edges and every input pin (the old rule)
          // pairs the worst arrival with a slope it cannot have, inflating
          // every downstream tp0 and distorting the critical path.
          out.slew = arc.tau_out * arc.factor;
          cause = PathStep{gid, in, gate.output, tp};
        }
      }
    }
    if (out.earliest == kNeverNs) continue;  // gate fed only by tie-offs
    report.arrival[gate.output.value()] = out;
    latest_cause[gate.output.value()] = cause;
  }

  // Critical output = latest primary-output arrival (fall back to any
  // signal when no outputs are marked).
  auto outputs = nl.primary_outputs();
  std::vector<SignalId> scan(outputs.begin(), outputs.end());
  if (scan.empty()) {
    for (std::size_t s = 0; s < nl.num_signals(); ++s) {
      scan.push_back(SignalId{static_cast<SignalId::underlying_type>(s)});
    }
  }
  for (const SignalId sig : scan) {
    const ArrivalWindow& win = report.arrival[sig.value()];
    if (win.earliest == kNeverNs) continue;
    if (win.latest >= report.critical_delay) {
      report.critical_delay = win.latest;
      report.critical_output = sig;
    }
  }

  // Walk the cause chain back to a primary input.
  if (report.critical_output.valid()) {
    SignalId cursor = report.critical_output;
    while (nl.signal(cursor).driver.valid()) {
      const PathStep& step = latest_cause[cursor.value()];
      if (!step.gate.valid()) break;
      report.critical_path.push_back(step);
      cursor = step.from;
    }
    std::reverse(report.critical_path.begin(), report.critical_path.end());
  }
  return report;
}

std::string StaticTimingAnalyzer::format(const TimingReport& report,
                                         const Netlist& netlist) {
  std::ostringstream out;
  out << "critical delay: " << format_double(report.critical_delay, 5) << " ns to signal '"
      << (report.critical_output.valid()
              ? netlist.signal(report.critical_output).name
              : std::string("<none>"))
      << "'\n";
  out << "critical path (" << report.critical_path.size() << " stages):\n";
  TimeNs running = 0.0;
  for (const PathStep& step : report.critical_path) {
    running += step.delay;
    out << "  " << netlist.signal(step.from).name << " -> "
        << netlist.signal(step.to).name << "  via " << netlist.gate(step.gate).name << " ("
        << netlist.cell_of(step.gate).name << ")  +" << format_double(step.delay, 4)
        << " ns  @" << format_double(running, 5) << '\n';
  }
  return out.str();
}

}  // namespace halotis
