#include "src/parsers/verilog.hpp"

#include <map>
#include <sstream>
#include <vector>

#include "src/base/check.hpp"
#include "src/base/strings.hpp"

namespace halotis {

namespace {

/// Strips // and /* */ comments.
std::string strip_comments(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  std::size_t i = 0;
  while (i < text.size()) {
    if (i + 1 < text.size() && text[i] == '/' && text[i + 1] == '/') {
      while (i < text.size() && text[i] != '\n') ++i;
    } else if (i + 1 < text.size() && text[i] == '/' && text[i + 1] == '*') {
      i += 2;
      while (i + 1 < text.size() && !(text[i] == '*' && text[i + 1] == '/')) ++i;
      i = std::min(text.size(), i + 2);
    } else {
      out.push_back(text[i]);
      ++i;
    }
  }
  return out;
}

/// Splits the body into ';'-terminated statements.
std::vector<std::string> statements(std::string_view body) {
  std::vector<std::string> out;
  for (const std::string& piece : split(body, ';')) {
    if (!piece.empty()) out.push_back(piece);
  }
  return out;
}

CellKind primitive_kind(const std::string& prim, std::size_t arity, int statement_index) {
  const auto what = [&](const char* expected) {
    return "verilog: statement " + std::to_string(statement_index) + ": primitive '" + prim +
           "' with " + std::to_string(arity) + " inputs" + expected;
  };
  if (prim == "not") {
    require(arity == 1, [&] { return what(" (expects 1)"); });
    return CellKind::kInv;
  }
  if (prim == "buf") {
    require(arity == 1, [&] { return what(" (expects 1)"); });
    return CellKind::kBuf;
  }
  const auto pick = [&](CellKind k2, CellKind k3, CellKind k4) {
    if (arity == 2) return k2;
    if (arity == 3 && num_inputs(k3) == 3) return k3;
    if (arity == 4 && num_inputs(k4) == 4) return k4;
    require(false, [&] { return what(" (supported: 2-4)"); });
    return k2;
  };
  if (prim == "and") return pick(CellKind::kAnd2, CellKind::kAnd3, CellKind::kAnd4);
  if (prim == "nand") return pick(CellKind::kNand2, CellKind::kNand3, CellKind::kNand4);
  if (prim == "or") return pick(CellKind::kOr2, CellKind::kOr3, CellKind::kOr4);
  if (prim == "nor") return pick(CellKind::kNor2, CellKind::kNor3, CellKind::kNor4);
  if (prim == "xor") return pick(CellKind::kXor2, CellKind::kXor3, CellKind::kXor3);
  if (prim == "xnor") return pick(CellKind::kXnor2, CellKind::kXnor2, CellKind::kXnor2);
  require(false, [&] {
    return "verilog: unknown primitive '" + prim + "' in statement " +
           std::to_string(statement_index);
  });
  return CellKind::kBuf;
}

}  // namespace

Netlist read_verilog(std::string_view text, const Library& library) {
  const std::string clean = strip_comments(text);

  const std::size_t mod = clean.find("module");
  require(mod != std::string::npos, "verilog: no module found");
  const std::size_t endmod = clean.find("endmodule");
  require(endmod != std::string::npos, "verilog: missing endmodule");
  // Skip the header port list "module name (...);"
  const std::size_t header_end = clean.find(';', mod);
  require(header_end != std::string::npos && header_end < endmod,
          "verilog: malformed module header");
  const std::string_view body{clean.data() + header_end + 1, endmod - header_end - 1};

  Netlist netlist(library);
  std::map<std::string, SignalId> signals;
  std::vector<std::string> output_names;
  struct Instance {
    std::string prim, name, output;
    std::vector<std::string> inputs;
    int index;
  };
  std::vector<Instance> instances;

  int statement_index = 0;
  for (const std::string& stmt : statements(body)) {
    ++statement_index;
    const std::vector<std::string> tokens = split_whitespace(stmt);
    if (tokens.empty()) continue;
    const std::string& keyword = tokens[0];

    if (keyword == "input" || keyword == "output" || keyword == "wire") {
      const std::string rest{trim(std::string_view(stmt).substr(stmt.find(keyword) +
                                                                keyword.size()))};
      for (const std::string& name : split(rest, ',')) {
        require(!name.empty(), [&] {
          return "verilog: empty identifier in declaration (statement " +
                 std::to_string(statement_index) + ")";
        });
        require(name.find('[') == std::string::npos, [&] {
          return "verilog: vectors are not supported ('" + name + "')";
        });
        if (keyword == "input") {
          require(signals.find(name) == signals.end(), [&] {
            return "verilog: duplicate declaration of '" + name + "'";
          });
          signals.emplace(name, netlist.add_primary_input(name));
        } else {
          if (signals.find(name) == signals.end()) {
            signals.emplace(name, netlist.add_signal(name));
          }
          if (keyword == "output") output_names.push_back(name);
        }
      }
      continue;
    }
    require(keyword != "assign" && keyword != "always" && keyword != "reg", [&] {
      return "verilog: construct '" + keyword + "' is not supported (statement " +
             std::to_string(statement_index) + ")";
    });

    // Primitive instantiation: prim name ( out , in... )
    const std::size_t open = stmt.find('(');
    const std::size_t close = stmt.rfind(')');
    require(open != std::string::npos && close != std::string::npos && close > open, [&] {
      return "verilog: malformed instantiation (statement " + std::to_string(statement_index) + ")";
    });
    Instance inst;
    inst.index = statement_index;
    const std::vector<std::string> head = split_whitespace(stmt.substr(0, open));
    require(head.size() == 2, [&] {
      return "verilog: expected 'primitive name (' (statement " + std::to_string(statement_index) +
             ")";
    });
    inst.prim = to_lower(head[0]);
    inst.name = head[1];
    const std::vector<std::string> ports = split(
        std::string_view(stmt).substr(open + 1, close - open - 1), ',');
    require(ports.size() >= 2, [&] {
      return "verilog: instantiation needs output and inputs (statement " +
             std::to_string(statement_index) + ")";
    });
    inst.output = ports[0];
    inst.inputs.assign(ports.begin() + 1, ports.end());
    instances.push_back(std::move(inst));
  }

  for (const Instance& inst : instances) {
    const auto lookup = [&](const std::string& name) {
      const auto it = signals.find(name);
      require(it != signals.end(), [&] {
        return "verilog: undeclared signal '" + name + "' (statement " +
               std::to_string(inst.index) + ")";
      });
      return it->second;
    };
    const CellKind kind = primitive_kind(inst.prim, inst.inputs.size(), inst.index);
    std::vector<SignalId> ins;
    for (const std::string& name : inst.inputs) ins.push_back(lookup(name));
    (void)netlist.add_gate(inst.name, kind, ins, lookup(inst.output));
  }

  for (const std::string& name : output_names) {
    netlist.mark_primary_output(signals.at(name));
  }
  netlist.check();
  return netlist;
}

std::string write_verilog(const Netlist& netlist) {
  std::ostringstream out;
  out << "module top (";
  bool first = true;
  for (SignalId pi : netlist.primary_inputs()) {
    if (!first) out << ", ";
    out << netlist.signal(pi).name;
    first = false;
  }
  for (SignalId po : netlist.primary_outputs()) {
    if (!first) out << ", ";
    out << netlist.signal(po).name;
    first = false;
  }
  out << ");\n";
  for (SignalId pi : netlist.primary_inputs()) {
    out << "  input " << netlist.signal(pi).name << ";\n";
  }
  for (SignalId po : netlist.primary_outputs()) {
    out << "  output " << netlist.signal(po).name << ";\n";
  }
  for (std::size_t s = 0; s < netlist.num_signals(); ++s) {
    const SignalId sid{static_cast<SignalId::underlying_type>(s)};
    const Signal& sig = netlist.signal(sid);
    if (!sig.is_primary_input && !sig.is_primary_output) {
      out << "  wire " << sig.name << ";\n";
    }
  }
  for (std::size_t g = 0; g < netlist.num_gates(); ++g) {
    const GateId gid{static_cast<GateId::underlying_type>(g)};
    const Gate& gate = netlist.gate(gid);
    const CellKind kind = netlist.cell_of(gid).kind;
    std::string prim;
    switch (kind) {
      case CellKind::kBuf: prim = "buf"; break;
      case CellKind::kInv: prim = "not"; break;
      case CellKind::kAnd2: case CellKind::kAnd3: case CellKind::kAnd4: prim = "and"; break;
      case CellKind::kNand2: case CellKind::kNand3: case CellKind::kNand4: prim = "nand"; break;
      case CellKind::kOr2: case CellKind::kOr3: case CellKind::kOr4: prim = "or"; break;
      case CellKind::kNor2: case CellKind::kNor3: case CellKind::kNor4: prim = "nor"; break;
      case CellKind::kXor2: case CellKind::kXor3: prim = "xor"; break;
      case CellKind::kXnor2: prim = "xnor"; break;
      default:
        require(false, [&] {
          return std::string("write_verilog(): cell kind ") + std::string(cell_kind_name(kind)) +
                 " has no gate-primitive representation";
        });
    }
    out << "  " << prim << ' ' << gate.name << " (" << netlist.signal(gate.output).name;
    for (SignalId in : gate.inputs) out << ", " << netlist.signal(in).name;
    out << ");\n";
  }
  out << "endmodule\n";
  return out.str();
}

}  // namespace halotis
