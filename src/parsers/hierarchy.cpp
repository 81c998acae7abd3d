#include "src/parsers/hierarchy.hpp"

#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "src/base/check.hpp"
#include "src/base/strings.hpp"

namespace halotis {

namespace {

struct Statement {
  std::vector<std::string> tokens;
  int line = 0;
};

struct ModuleDef {
  std::string name;
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
  std::vector<Statement> body;
  int line = 0;
};

struct ParsedDesign {
  std::map<std::string, ModuleDef> modules;
  std::vector<Statement> top;
};

std::string ctx(int line) { return "hierarchical netlist line " + std::to_string(line); }

/// Splits "( a b : c d )"-style port lists that may be glued to other
/// tokens; returns (inputs, outputs).
std::pair<std::vector<std::string>, std::vector<std::string>> parse_ports(
    const std::vector<std::string>& tokens, std::size_t start, int line) {
  // Re-join and strip parentheses, then split on ':'.
  std::string joined;
  for (std::size_t i = start; i < tokens.size(); ++i) {
    joined += tokens[i];
    joined += ' ';
  }
  std::string cleaned;
  for (const char c : joined) {
    if (c != '(' && c != ')') cleaned.push_back(c);
  }
  const auto halves = split(cleaned, ':');
  require(halves.size() == 2, [&] { return ctx(line) + ": expected '(inputs : outputs)'"; });
  return {split_whitespace(halves[0]), split_whitespace(halves[1])};
}

ParsedDesign parse(std::string_view text) {
  ParsedDesign design;
  std::istringstream stream{std::string(text)};
  std::string line;
  int line_number = 0;
  ModuleDef* current = nullptr;
  while (std::getline(stream, line)) {
    ++line_number;
    const auto tokens = split_whitespace(line.substr(0, line.find('#')));
    if (tokens.empty()) continue;

    if (tokens[0] == "module") {
      require(current == nullptr, [&] { return ctx(line_number) + ": nested module definition"; });
      require(tokens.size() >= 2, [&] { return ctx(line_number) + ": module needs a name"; });
      ModuleDef def;
      def.name = tokens[1];
      def.line = line_number;
      require(design.modules.find(def.name) == design.modules.end(), [&] {
        return ctx(line_number) + ": duplicate module '" + def.name + "'";
      });
      auto [ins, outs] = parse_ports(tokens, 2, line_number);
      require(!outs.empty(), [&] {
        return ctx(line_number) + ": module needs at least one output";
      });
      def.inputs = std::move(ins);
      def.outputs = std::move(outs);
      std::string key = def.name;  // keep a copy: def is moved in the same call
      current = &design.modules.emplace(std::move(key), std::move(def)).first->second;
      continue;
    }
    if (tokens[0] == "endmodule") {
      require(current != nullptr, [&] {
        return ctx(line_number) + ": endmodule outside a module";
      });
      current = nullptr;
      continue;
    }
    Statement statement{tokens, line_number};
    if (current != nullptr) {
      current->body.push_back(std::move(statement));
    } else {
      design.top.push_back(std::move(statement));
    }
  }
  if (current != nullptr) {
    require(false, [&] {
      return "hierarchical netlist: unterminated module '" + current->name + "'";
    });
  }
  return design;
}

class Flattener {
 public:
  Flattener(const ParsedDesign& design, const Library& library)
      : design_(design), library_(library), netlist_(library) {}

  Netlist run() {
    // Top level: declare signals first (inputs/signals/outputs), then
    // elaborate gates and instances (two passes keep declaration order in
    // the file free).
    for (const Statement& s : design_.top) declare(s, "", nullptr);
    for (const Statement& s : design_.top) elaborate(s, "", nullptr);
    netlist_.check();
    return std::move(netlist_);
  }

 private:
  using PortMap = std::map<std::string, SignalId>;

  [[nodiscard]] std::string scoped(const std::string& prefix, const std::string& name) const {
    return prefix.empty() ? name : prefix + "/" + name;
  }

  SignalId resolve(const std::string& prefix, const PortMap* ports,
                   const std::string& name, int line) {
    if (ports != nullptr) {
      const auto it = ports->find(name);
      if (it != ports->end()) return it->second;
    }
    const auto found = netlist_.find_signal(scoped(prefix, name));
    require(found.has_value(), [&] { return ctx(line) + ": unknown signal '" + name + "'"; });
    return *found;
  }

  void declare(const Statement& s, const std::string& prefix, const PortMap* ports) {
    const auto& t = s.tokens;
    if (t[0] == "input") {
      require(prefix.empty(), [&] { return ctx(s.line) + ": 'input' only allowed at top level"; });
      require(t.size() == 2, [&] { return ctx(s.line) + ": input <name>"; });
      (void)netlist_.add_primary_input(t[1]);
    } else if (t[0] == "signal") {
      require(t.size() == 2, [&] { return ctx(s.line) + ": signal <name>"; });
      // Port-mapped names must not be redeclared inside the module body.
      if (ports == nullptr || ports->find(t[1]) == ports->end()) {
        (void)netlist_.add_signal(scoped(prefix, t[1]));
      }
    }
  }

  void elaborate(const Statement& s, const std::string& prefix, const PortMap* ports) {
    const auto& t = s.tokens;
    if (t[0] == "input" || t[0] == "signal") return;  // handled in declare()
    if (t[0] == "output") {
      require(prefix.empty(), [&] { return ctx(s.line) + ": 'output' only allowed at top level"; });
      require(t.size() == 2, [&] { return ctx(s.line) + ": output <name>"; });
      netlist_.mark_primary_output(resolve(prefix, ports, t[1], s.line));
      return;
    }
    if (t[0] == "wirecap") {
      require(t.size() == 3, [&] { return ctx(s.line) + ": wirecap <name> <pF>"; });
      netlist_.set_wire_cap(resolve(prefix, ports, t[1], s.line),
                            parse_double(t[2], "hierarchical netlist line", s.line));
      return;
    }
    if (t[0] == "gate") {
      require(t.size() >= 5, [&] { return ctx(s.line) + ": gate <name> <CELL> <out> <in...>"; });
      const auto cell = library_.try_find(t[2]);
      require(cell.has_value(), [&] { return ctx(s.line) + ": unknown cell '" + t[2] + "'"; });
      std::vector<SignalId> ins;
      for (std::size_t i = 4; i < t.size(); ++i) {
        ins.push_back(resolve(prefix, ports, t[i], s.line));
      }
      (void)netlist_.add_gate(scoped(prefix, t[1]), *cell, ins,
                              resolve(prefix, ports, t[3], s.line));
      return;
    }
    if (t[0] == "inst") {
      require(t.size() >= 4, [&] { return ctx(s.line) + ": inst <name> <MODULE> (ins : outs)"; });
      const std::string& module_name = t[2];
      const auto it = design_.modules.find(module_name);
      require(it != design_.modules.end(), [&] {
        return ctx(s.line) + ": unknown module '" + module_name + "'";
      });
      require(active_.insert(module_name).second, [&] {
        return ctx(s.line) + ": recursive instantiation of '" + module_name + "'";
      });
      const ModuleDef& def = it->second;
      auto [actual_ins, actual_outs] = parse_ports(t, 3, s.line);
      require(actual_ins.size() == def.inputs.size(), [&] {
        return ctx(s.line) + ": '" + module_name + "' expects " +
               std::to_string(def.inputs.size()) + " inputs";
      });
      require(actual_outs.size() == def.outputs.size(), [&] {
        return ctx(s.line) + ": '" + module_name + "' expects " +
               std::to_string(def.outputs.size()) + " outputs";
      });

      PortMap map;
      for (std::size_t i = 0; i < def.inputs.size(); ++i) {
        map[def.inputs[i]] = resolve(prefix, ports, actual_ins[i], s.line);
      }
      for (std::size_t i = 0; i < def.outputs.size(); ++i) {
        map[def.outputs[i]] = resolve(prefix, ports, actual_outs[i], s.line);
      }
      const std::string inner = scoped(prefix, t[1]);
      for (const Statement& body : def.body) declare(body, inner, &map);
      for (const Statement& body : def.body) elaborate(body, inner, &map);
      active_.erase(module_name);
      return;
    }
    require(false, [&] { return ctx(s.line) + ": unknown directive '" + t[0] + "'"; });
  }

  const ParsedDesign& design_;
  const Library& library_;
  Netlist netlist_;
  std::set<std::string> active_;  // instantiation stack for recursion check
};

}  // namespace

Netlist read_hierarchical(std::string_view text, const Library& library) {
  const ParsedDesign design = parse(text);
  Flattener flattener(design, library);
  return flattener.run();
}

bool looks_hierarchical(std::string_view text) {
  for (std::size_t pos = 0; pos < text.size();) {
    const std::string_view line = next_line(text, pos);
    const std::string_view statement = trim(line.substr(0, line.find('#')));
    const std::string_view keyword = statement.substr(0, statement.find_first_of(" \t\v\f\r"));
    if (keyword == "module" || keyword == "inst") return true;
  }
  return false;
}

}  // namespace halotis
