#include "src/power/activity.hpp"

#include <algorithm>
#include <sstream>

#include "src/base/check.hpp"

namespace halotis {

ActivityReport compute_activity(const Simulator& sim, TimeNs glitch_width) {
  const Netlist& netlist = sim.netlist();
  const Volt vdd = netlist.library().vdd();
  ActivityReport report;
  report.window = sim.now();

  const SignalHistories all = sim.histories();
  for (std::size_t s = 0; s < netlist.num_signals(); ++s) {
    const SignalId sid{static_cast<SignalId::underlying_type>(s)};
    const auto history = all.of(sid);
    const auto t50 = [&](std::size_t i) { return sim.transition(history[i]).t50(); };
    SignalActivity activity;
    activity.signal = sid;
    activity.name = netlist.signal(sid).name;
    activity.transitions = history.size();
    activity.load = netlist.load_of(sid);
    activity.energy_pj =
        0.5 * activity.load * vdd * vdd * static_cast<double>(history.size());
    for (std::size_t i = 1; i < history.size(); ++i) {
      if (t50(i) - t50(i - 1) < glitch_width) {
        activity.glitch_transitions += 2;  // both edges of the narrow pulse
        if (i >= 2 && t50(i - 1) - t50(i - 2) < glitch_width) {
          --activity.glitch_transitions;  // shared edge counted once
        }
      }
    }
    activity.glitch_transitions =
        std::min(activity.glitch_transitions, activity.transitions);

    report.total_transitions += activity.transitions;
    report.total_glitch_transitions += activity.glitch_transitions;
    report.total_energy_pj += activity.energy_pj;
    if (activity.transitions > 0) {
      report.glitch_energy_pj += 0.5 * activity.load * vdd * vdd *
                                 static_cast<double>(activity.glitch_transitions);
    }
    report.per_signal.push_back(std::move(activity));
  }
  return report;
}

std::vector<std::uint64_t> pulse_width_histogram(const Simulator& sim,
                                                 std::span<const TimeNs> bin_edges) {
  require(!bin_edges.empty(), "pulse_width_histogram(): bin_edges must not be empty");
  for (std::size_t i = 1; i < bin_edges.size(); ++i) {
    require(bin_edges[i] > bin_edges[i - 1],
            "pulse_width_histogram(): bin_edges must be strictly increasing");
  }
  std::vector<std::uint64_t> counts(bin_edges.size() + 1, 0);
  const Netlist& netlist = sim.netlist();
  const SignalHistories all = sim.histories();
  for (std::size_t s = 0; s < netlist.num_signals(); ++s) {
    const SignalId sid{static_cast<SignalId::underlying_type>(s)};
    const auto history = all.of(sid);
    const auto t50 = [&](std::size_t i) { return sim.transition(history[i]).t50(); };
    // A pulse is an excursion from the signal's resting value: edge 0
    // leaves it, edge 1 returns, so pairs (0,1), (2,3), ... are pulses and
    // the odd->even intervals are quiescent gaps (counting those would
    // drown the wide bins in inter-vector idle time).
    for (std::size_t i = 1; i < history.size(); i += 2) {
      const TimeNs width = t50(i) - t50(i - 1);
      const auto it = std::upper_bound(bin_edges.begin(), bin_edges.end(), width);
      ++counts[static_cast<std::size_t>(it - bin_edges.begin())];
    }
  }
  return counts;
}

std::string format_activity(const ActivityReport& report, std::size_t max_rows) {
  std::vector<const SignalActivity*> rows;
  rows.reserve(report.per_signal.size());
  for (const SignalActivity& a : report.per_signal) {
    if (a.transitions > 0) rows.push_back(&a);
  }
  std::sort(rows.begin(), rows.end(), [](const SignalActivity* a, const SignalActivity* b) {
    return a->energy_pj > b->energy_pj;
  });
  if (max_rows > 0 && rows.size() > max_rows) rows.resize(max_rows);

  std::ostringstream out;
  out << "signal                 toggles  glitch  load(pF)  energy(pJ)\n";
  for (const SignalActivity* a : rows) {
    char line[128];
    std::snprintf(line, sizeof line, "%-22s %7zu %7zu %9.4f %11.4f\n", a->name.c_str(),
                  a->transitions, a->glitch_transitions, a->load, a->energy_pj);
    out << line;
  }
  char total[160];
  std::snprintf(total, sizeof total,
                "TOTAL: %llu transitions (%llu glitch, %.1f%%), %.3f pJ, %.4f mW over "
                "%.2f ns\n",
                static_cast<unsigned long long>(report.total_transitions),
                static_cast<unsigned long long>(report.total_glitch_transitions),
                100.0 * report.glitch_fraction(), report.total_energy_pj,
                report.average_power_mw(), report.window);
  out << total;
  return out.str();
}

}  // namespace halotis
