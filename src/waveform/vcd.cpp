#include "src/waveform/vcd.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "src/base/check.hpp"
#include "src/core/simulator.hpp"

namespace halotis {

void VcdWriter::add_signal(std::string name, const DigitalWaveform& wave) {
  require(!name.empty(), "VcdWriter::add_signal(): name must not be empty");
  entries_.push_back(Entry{std::move(name), wave});
}

std::string VcdWriter::id_for(std::size_t index) {
  // Printable identifier characters per the VCD grammar: '!' .. '~'.
  std::string id;
  do {
    id.push_back(static_cast<char>('!' + index % 94));
    index /= 94;
  } while (index > 0);
  return id;
}

void VcdWriter::write(std::ostream& out) const {
  out << "$date\n  (generated by HALOTIS)\n$end\n";
  out << "$version\n  HALOTIS 1.0\n$end\n";
  out << "$timescale " << timescale_ps_ << "ps $end\n";
  out << "$scope module " << module_ << " $end\n";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    out << "$var wire 1 " << id_for(i) << ' ' << entries_[i].name << " $end\n";
  }
  out << "$upscope $end\n$enddefinitions $end\n";

  // Initial values.
  out << "#0\n$dumpvars\n";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    out << (entries_[i].wave.initial_value() ? '1' : '0') << id_for(i) << '\n';
  }
  out << "$end\n";

  // Merge all edges into a single timeline.
  std::map<long long, std::vector<std::pair<std::size_t, bool>>> timeline;
  const double ticks_per_ns = 1000.0 / timescale_ps_;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    for (const DigitalEdge& e : entries_[i].wave.edges()) {
      const auto tick = static_cast<long long>(std::llround(e.time * ticks_per_ns));
      timeline[std::max(tick, 1ll)].emplace_back(i, e.sense == Edge::kRise);
    }
  }
  for (const auto& [tick, changes] : timeline) {
    out << '#' << tick << '\n';
    for (const auto& [index, value] : changes) {
      out << (value ? '1' : '0') << id_for(index) << '\n';
    }
  }
}

std::string VcdWriter::to_string() const {
  std::ostringstream stream;
  write(stream);
  return stream.str();
}

VcdWriter vcd_from_simulator(const Simulator& sim, std::span<const SignalId> signals,
                             std::string module_name) {
  VcdWriter vcd(std::move(module_name));
  const Netlist& netlist = sim.netlist();
  const SignalHistories all = sim.histories();
  const auto add = [&](SignalId id) {
    DigitalWaveform wave(sim.initial_value(id));
    for (const TransitionId t : all.of(id)) {
      const Transition& tr = sim.transition(t);
      wave.append(tr.t50(), tr.edge, tr.tau);
    }
    vcd.add_signal(netlist.signal(id).name, wave);
  };
  if (signals.empty()) {
    for (std::size_t s = 0; s < netlist.num_signals(); ++s) {
      add(SignalId{static_cast<SignalId::underlying_type>(s)});
    }
  } else {
    for (const SignalId id : signals) add(id);
  }
  return vcd;
}

}  // namespace halotis
