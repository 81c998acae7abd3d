#include "src/parsers/netlist_io.hpp"

#include <sstream>
#include <string_view>
#include <vector>

#include "src/base/check.hpp"
#include "src/base/strings.hpp"

namespace halotis {

Netlist read_netlist(std::string_view text, const Library& library) {
  Netlist netlist(library);
  std::vector<std::string_view> tokens;
  std::vector<SignalId> ins;
  int line_number = 0;
  const auto where = [&line_number] { return "netlist line " + std::to_string(line_number); };
  const auto signal_named = [&](std::string_view name) {
    const auto id = netlist.find_signal(name);
    require(id.has_value(),
            [&] { return where() + ": unknown signal '" + std::string(name) + "'"; });
    return *id;
  };
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::string_view line = next_line(text, pos);
    ++line_number;
    split_whitespace(line.substr(0, line.find('#')), tokens);
    if (tokens.empty()) continue;
    const std::string_view keyword = tokens[0];

    if (keyword == "input") {
      require(tokens.size() == 2, [&] { return where() + ": input <name>"; });
      (void)netlist.add_primary_input(std::string(tokens[1]));
    } else if (keyword == "signal") {
      require(tokens.size() == 2, [&] { return where() + ": signal <name>"; });
      (void)netlist.add_signal(std::string(tokens[1]));
    } else if (keyword == "output") {
      require(tokens.size() == 2, [&] { return where() + ": output <name>"; });
      netlist.mark_primary_output(signal_named(tokens[1]));
    } else if (keyword == "wirecap") {
      require(tokens.size() == 3, [&] { return where() + ": wirecap <name> <pF>"; });
      const SignalId id = signal_named(tokens[1]);
      netlist.set_wire_cap(id, parse_double(tokens[2], "netlist line", line_number));
    } else if (keyword == "gate") {
      require(tokens.size() >= 5, [&] { return where() + ": gate <name> <CELL> <out> <in...>"; });
      const auto cell = library.try_find(tokens[2]);
      require(cell.has_value(),
              [&] { return where() + ": unknown cell '" + std::string(tokens[2]) + "'"; });
      const SignalId out = signal_named(tokens[3]);
      ins.clear();
      for (std::size_t i = 4; i < tokens.size(); ++i) ins.push_back(signal_named(tokens[i]));
      (void)netlist.add_gate(std::string(tokens[1]), *cell, ins, out);
    } else {
      require(false,
              [&] { return where() + ": unknown directive '" + std::string(keyword) + "'"; });
    }
  }
  netlist.check();
  return netlist;
}

std::string write_netlist(const Netlist& netlist) {
  std::ostringstream out;
  out << "# HALOTIS netlist (library: " << netlist.library().name() << ")\n";
  for (SignalId pi : netlist.primary_inputs()) {
    out << "input " << netlist.signal(pi).name << '\n';
  }
  for (std::size_t s = 0; s < netlist.num_signals(); ++s) {
    const SignalId sid{static_cast<SignalId::underlying_type>(s)};
    if (!netlist.signal(sid).is_primary_input) {
      out << "signal " << netlist.signal(sid).name << '\n';
    }
  }
  for (SignalId po : netlist.primary_outputs()) {
    out << "output " << netlist.signal(po).name << '\n';
  }
  for (std::size_t s = 0; s < netlist.num_signals(); ++s) {
    const SignalId sid{static_cast<SignalId::underlying_type>(s)};
    if (netlist.signal(sid).wire_cap > 0.0) {
      out << "wirecap " << netlist.signal(sid).name << ' '
          << format_double(netlist.signal(sid).wire_cap, 9) << '\n';
    }
  }
  for (std::size_t g = 0; g < netlist.num_gates(); ++g) {
    const GateId gid{static_cast<GateId::underlying_type>(g)};
    const Gate& gate = netlist.gate(gid);
    out << "gate " << gate.name << ' ' << netlist.library().cell(gate.cell).name << ' '
        << netlist.signal(gate.output).name;
    for (SignalId in : gate.inputs) out << ' ' << netlist.signal(in).name;
    out << '\n';
  }
  return out.str();
}

}  // namespace halotis
