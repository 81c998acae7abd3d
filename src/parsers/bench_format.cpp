#include "src/parsers/bench_format.hpp"

#include <array>
#include <cstdint>
#include <fstream>
#include <span>
#include <sstream>
#include <vector>

#include "src/base/check.hpp"
#include "src/base/name_index.hpp"
#include "src/base/strings.hpp"

namespace halotis {

namespace {

/// ASCII case-insensitive comparison against an upper-case word.
bool iequals(std::string_view text, std::string_view upper) {
  if (text.size() != upper.size()) return false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
    if (c != upper[i]) return false;
  }
  return true;
}

bool istarts_with(std::string_view text, std::string_view upper) {
  return text.size() >= upper.size() && iequals(text.substr(0, upper.size()), upper);
}

/// The bench operators; AND..XNOR also decompose when wider than a cell.
enum class BenchOp : std::uint8_t { kNot, kBuff, kAnd, kNand, kOr, kNor, kXor, kXnor, kUnknown };

BenchOp classify(std::string_view op) {
  if (iequals(op, "NOT") || iequals(op, "INV")) return BenchOp::kNot;
  if (iequals(op, "BUFF") || iequals(op, "BUF")) return BenchOp::kBuff;
  if (iequals(op, "AND")) return BenchOp::kAnd;
  if (iequals(op, "NAND")) return BenchOp::kNand;
  if (iequals(op, "OR")) return BenchOp::kOr;
  if (iequals(op, "NOR")) return BenchOp::kNor;
  if (iequals(op, "XOR")) return BenchOp::kXor;
  if (iequals(op, "XNOR")) return BenchOp::kXnor;
  return BenchOp::kUnknown;
}

/// Cell kinds for a 2/3/4-input AND..XNOR; `inverting` reports whether the
/// overall function complements the associative core.
struct OpInfo {
  CellKind kind2;
  CellKind kind3;
  CellKind kind4;
  bool inverting;  // NAND/NOR/XNOR need a final inverter when decomposed
};

OpInfo op_info(BenchOp op) {
  switch (op) {
    case BenchOp::kAnd: return {CellKind::kAnd2, CellKind::kAnd3, CellKind::kAnd4, false};
    case BenchOp::kNand: return {CellKind::kNand2, CellKind::kNand3, CellKind::kNand4, true};
    case BenchOp::kOr: return {CellKind::kOr2, CellKind::kOr3, CellKind::kOr4, false};
    case BenchOp::kNor: return {CellKind::kNor2, CellKind::kNor3, CellKind::kNor4, true};
    case BenchOp::kXor: return {CellKind::kXor2, CellKind::kXor3, CellKind::kXor2, false};
    default: return {CellKind::kXnor2, CellKind::kXnor2, CellKind::kXnor2, true};  // XNOR
  }
}

/// One name of the deck: a view into the source text plus where it was
/// declared.  A name is interned when first seen, as a port, an output or a
/// fanin, so a fanin may precede its definition.
struct Name {
  std::string_view text;
  int input_line = 0;  ///< INPUT declaration line; 0 = not an INPUT
  int gate = -1;       ///< index of the defining gate; -1 = none yet
  SignalId signal;     ///< set once the netlist has the signal
};

/// One gate statement, resolved to name indices.
struct PendingGate {
  std::uint32_t output = 0;
  std::uint32_t first_fanin = 0;  ///< into the shared fanin array
  std::uint32_t num_fanins = 0;
  int line = 0;
  BenchOp op = BenchOp::kUnknown;
  std::string_view op_text;  ///< for the unknown-gate diagnostic
};

/// The reader's one name table.
class NameTable {
 public:
  explicit NameTable(std::size_t expected) {
    names_.reserve(expected);
    index_.reserve(expected);
  }
  std::uint32_t intern(std::string_view text) {
    const auto next = static_cast<std::uint32_t>(names_.size());
    const std::uint32_t id = index_.insert(
        text, next, [this](std::uint32_t known) { return names_[known].text; });
    if (id == next) names_.emplace_back().text = text;
    return id;
  }
  Name& operator[](std::uint32_t id) { return names_[id]; }
  [[nodiscard]] std::size_t size() const { return names_.size(); }

 private:
  NameIndex index_;
  std::vector<Name> names_;
};

std::string line_suffix(int line) { return " on line " + std::to_string(line); }

/// The deck, read in one pass: INPUTs become signals immediately (so they
/// take the first ids, in declaration order); everything else waits until
/// the whole deck is known.  Every check is made in the order the
/// diagnostics promise: statement syntax (line order), undeclared fanins,
/// cycles, then gate construction.
struct BenchDeck {
  /// Sized for a generated deck (one name per ~24 bytes of text).
  explicit BenchDeck(std::string_view text) : names(text.size() / 24) {}

  NameTable names;
  std::vector<std::uint32_t> outputs;  ///< OUTPUT declarations, in order
  std::vector<PendingGate> gates;
  std::vector<std::uint32_t> fanins;

  void scan(std::string_view text, Netlist& netlist) {
    int line_number = 0;
    std::size_t pos = 0;
    while (pos < text.size()) {
      std::string_view view = trim(next_line(text, pos));
      ++line_number;
      const std::size_t hash = view.find('#');
      if (hash != std::string_view::npos) view = trim(view.substr(0, hash));
      if (view.empty()) continue;
      const bool is_input = istarts_with(view, "INPUT(");
      if (is_input || istarts_with(view, "OUTPUT(")) {
        port(view, is_input, line_number, netlist);
      } else {
        gate(view, line_number);
      }
    }
  }

  void port(std::string_view view, bool is_input, int line, Netlist& netlist) {
    const std::size_t open = view.find('(');
    const std::size_t close = view.rfind(')');
    require(close != std::string_view::npos && close > open,
            [&] { return "bench: malformed port" + line_suffix(line); });
    const std::string_view text = trim(view.substr(open + 1, close - open - 1));
    require(!text.empty(), [&] { return "bench: empty port name" + line_suffix(line); });
    const std::uint32_t id = names.intern(text);
    if (!is_input) {
      outputs.push_back(id);
      return;
    }
    Name& name = names[id];
    require(name.input_line == 0, [&] {
      return "bench: duplicate INPUT '" + std::string(text) + "'" + line_suffix(line);
    });
    name.input_line = line;
    name.signal = netlist.add_primary_input(std::string(text));
  }

  void gate(std::string_view view, int line) {
    const std::size_t eq = view.find('=');
    require(eq != std::string_view::npos,
            [&] { return "bench: expected assignment" + line_suffix(line); });
    PendingGate pending;
    pending.line = line;
    const std::string_view output = trim(view.substr(0, eq));
    const std::string_view rhs = trim(view.substr(eq + 1));
    const std::size_t open = rhs.find('(');
    const std::size_t close = rhs.rfind(')');
    require(open != std::string_view::npos && close != std::string_view::npos && close > open,
            [&] { return "bench: malformed gate" + line_suffix(line); });
    pending.op_text = trim(rhs.substr(0, open));
    require(!iequals(pending.op_text, "DFF") && !iequals(pending.op_text, "DFFSR"), [&] {
      return "bench: sequential element" + line_suffix(line) +
             " (HALOTIS simulates combinational logic)";
    });
    pending.op = classify(pending.op_text);
    pending.first_fanin = static_cast<std::uint32_t>(fanins.size());
    std::string_view operands = rhs.substr(open + 1, close - open - 1);
    while (true) {
      const std::size_t comma = operands.find(',');
      const std::string_view operand = trim(operands.substr(0, comma));
      require(!operand.empty(), [&] { return "bench: empty operand" + line_suffix(line); });
      fanins.push_back(names.intern(operand));
      if (comma == std::string_view::npos) break;
      operands.remove_prefix(comma + 1);
    }
    pending.num_fanins = static_cast<std::uint32_t>(fanins.size()) - pending.first_fanin;
    require(!output.empty(), [&] { return "bench: empty gate output name" + line_suffix(line); });
    pending.output = names.intern(output);
    Name& name = names[pending.output];
    require(name.gate < 0, [&] {
      return "bench: duplicate definition of '" + std::string(output) + "'" + line_suffix(line) +
             " (first defined on line " +
             std::to_string(gates[static_cast<std::size_t>(name.gate)].line) + ")";
    });
    require(name.input_line == 0, [&] {
      return "bench: gate on line " + std::to_string(line) + " redefines INPUT '" +
             std::string(output) + "' (declared on line " + std::to_string(name.input_line) +
             ")";
    });
    name.gate = static_cast<int>(gates.size());
    gates.push_back(pending);
  }

  [[nodiscard]] std::span<const std::uint32_t> fanins_of(const PendingGate& g) const {
    return std::span<const std::uint32_t>(fanins).subspan(g.first_fanin, g.num_fanins);
  }

  /// Every fanin must be an INPUT or some gate's output -- a silently
  /// created undriven signal would only be diagnosed (nameless) much later.
  void check_fanins() {
    for (const PendingGate& g : gates) {
      for (const std::uint32_t id : fanins_of(g)) {
        const Name& name = names[id];
        require(name.input_line != 0 || name.gate >= 0, [&] {
          return "bench: undeclared fanin '" + std::string(name.text) + "'" +
                 line_suffix(g.line);
        });
      }
    }
  }

  /// A combinational deck must be acyclic; Netlist::check() cannot report
  /// the offending source line, so detect it here (iterative DFS, three
  /// colours, roots and fanins in deck order).
  void check_acyclic() {
    std::vector<std::uint8_t> colour(gates.size(), 0);  // 0 white, 1 grey, 2 black
    std::vector<std::pair<std::size_t, std::size_t>> stack;
    for (std::size_t root = 0; root < gates.size(); ++root) {
      if (colour[root] != 0) continue;
      stack.assign(1, {root, 0});
      colour[root] = 1;
      while (!stack.empty()) {
        auto& [g, next_in] = stack.back();
        if (next_in == gates[g].num_fanins) {
          colour[g] = 2;
          stack.pop_back();
          continue;
        }
        const int dep = names[fanins[gates[g].first_fanin + next_in++]].gate;
        if (dep < 0) continue;  // primary input
        const auto d = static_cast<std::size_t>(dep);
        require(colour[d] != 1, [&] {
          return "bench: cyclic definition of '" + std::string(names[gates[d].output].text) +
                 "'" + line_suffix(gates[d].line) + " (reached again from '" +
                 std::string(names[gates[g].output].text) + "'" + line_suffix(gates[g].line) +
                 ")";
        });
        if (colour[d] == 0) {
          colour[d] = 1;
          stack.emplace_back(d, 0);
        }
      }
    }
  }

  /// Gate-output signals first, in deck order (so their ids do not depend
  /// on where a fanin first names them), then the gates.
  void instantiate(Netlist& netlist) {
    netlist.reserve(names.size(), gates.size());
    for (const PendingGate& g : gates) {
      Name& name = names[g.output];
      if (!name.signal.valid()) name.signal = netlist.add_signal(std::string(name.text));
    }
    int synth_counter = 0;
    std::vector<SignalId> ins;
    std::vector<SignalId> level;
    std::vector<SignalId> next;
    for (const PendingGate& g : gates) {
      const SignalId out = names[g.output].signal;
      ins.clear();
      for (const std::uint32_t id : fanins_of(g)) ins.push_back(names[id].signal);
      std::string gate_name = "g_";
      gate_name += names[g.output].text;

      if (g.op == BenchOp::kNot) {
        require(ins.size() == 1, [&] {
          return "bench: NOT takes one input (line " + std::to_string(g.line) + ")";
        });
        (void)netlist.add_gate(std::move(gate_name), CellKind::kInv, ins, out);
        continue;
      }
      if (g.op == BenchOp::kBuff) {
        require(ins.size() == 1, [&] {
          return "bench: BUFF takes one input (line " + std::to_string(g.line) + ")";
        });
        (void)netlist.add_gate(std::move(gate_name), CellKind::kBuf, ins, out);
        continue;
      }
      require(g.op != BenchOp::kUnknown, [&] {
        return "bench: unknown gate '" + to_upper(g.op_text) + "'" + line_suffix(g.line);
      });
      const OpInfo info = op_info(g.op);
      if (ins.size() == 1) {
        // Degenerate 1-input AND/OR = BUF; NAND/NOR = NOT (seen in some decks).
        (void)netlist.add_gate(std::move(gate_name),
                               info.inverting ? CellKind::kInv : CellKind::kBuf, ins, out);
        continue;
      }
      if (ins.size() == 2) {
        (void)netlist.add_gate(std::move(gate_name), info.kind2, ins, out);
        continue;
      }
      if (ins.size() == 3 && num_inputs(info.kind3) == 3) {
        (void)netlist.add_gate(std::move(gate_name), info.kind3, ins, out);
        continue;
      }
      if (ins.size() == 4 && num_inputs(info.kind4) == 4) {
        (void)netlist.add_gate(std::move(gate_name), info.kind4, ins, out);
        continue;
      }

      // Wide gate: balanced tree of the non-inverting core kind, then a
      // final stage that applies the complement if needed.  XOR/XNOR chain
      // by parity, AND/OR/NAND/NOR by conjunction/disjunction.
      const bool is_parity = g.op == BenchOp::kXor || g.op == BenchOp::kXnor;
      const bool is_and = g.op == BenchOp::kAnd || g.op == BenchOp::kNand;
      const CellKind core2 = is_parity ? CellKind::kXor2
                             : is_and  ? CellKind::kAnd2
                                       : CellKind::kOr2;
      level = ins;
      while (level.size() > 2) {
        next.clear();
        for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
          const SignalId mid = netlist.add_signal("bench_t" + std::to_string(synth_counter));
          const std::array<SignalId, 2> pair{level[i], level[i + 1]};
          (void)netlist.add_gate("bench_g" + std::to_string(synth_counter), core2, pair, mid);
          ++synth_counter;
          next.push_back(mid);
        }
        if (level.size() % 2 == 1) next.push_back(level.back());
        level.swap(next);
      }
      // Final 2-input stage produces the complement directly when required.
      CellKind final_kind;
      if (is_parity) {
        final_kind = g.op == BenchOp::kXnor ? CellKind::kXnor2 : CellKind::kXor2;
      } else if (is_and) {
        final_kind = info.inverting ? CellKind::kNand2 : CellKind::kAnd2;
      } else {
        final_kind = info.inverting ? CellKind::kNor2 : CellKind::kOr2;
      }
      const std::array<SignalId, 2> pair{level[0], level[1]};
      (void)netlist.add_gate(std::move(gate_name), final_kind, pair, out);
    }

    for (const std::uint32_t id : outputs) {
      const Name& name = names[id];
      require(name.signal.valid(),
              [&] { return "bench: OUTPUT '" + std::string(name.text) + "' never defined"; });
      netlist.mark_primary_output(name.signal);
    }
  }
};

}  // namespace

Netlist read_bench(std::string_view text, const Library& library) {
  Netlist netlist(library);
  BenchDeck deck(text);
  deck.scan(text, netlist);
  deck.check_fanins();
  deck.check_acyclic();
  deck.instantiate(netlist);
  netlist.check();
  return netlist;
}

Netlist read_bench_file(const std::string& path, const Library& library) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), [&] { return "bench: cannot open file '" + path + "'"; });
  std::ostringstream text;
  text << in.rdbuf();
  return read_bench(text.str(), library);
}

std::string write_bench(const Netlist& netlist) {
  std::ostringstream out;
  out << "# written by HALOTIS\n";
  for (SignalId pi : netlist.primary_inputs()) {
    out << "INPUT(" << netlist.signal(pi).name << ")\n";
  }
  for (SignalId po : netlist.primary_outputs()) {
    out << "OUTPUT(" << netlist.signal(po).name << ")\n";
  }
  for (std::size_t g = 0; g < netlist.num_gates(); ++g) {
    const GateId gid{static_cast<GateId::underlying_type>(g)};
    const Gate& gate = netlist.gate(gid);
    const CellKind kind = netlist.cell_of(gid).kind;
    std::string op;
    switch (kind) {
      case CellKind::kBuf: op = "BUFF"; break;
      case CellKind::kInv: op = "NOT"; break;
      case CellKind::kAnd2: case CellKind::kAnd3: case CellKind::kAnd4: op = "AND"; break;
      case CellKind::kNand2: case CellKind::kNand3: case CellKind::kNand4: op = "NAND"; break;
      case CellKind::kOr2: case CellKind::kOr3: case CellKind::kOr4: op = "OR"; break;
      case CellKind::kNor2: case CellKind::kNor3: case CellKind::kNor4: op = "NOR"; break;
      case CellKind::kXor2: case CellKind::kXor3: op = "XOR"; break;
      case CellKind::kXnor2: op = "XNOR"; break;
      default:
        require(false, [&] {
          return "write_bench(): cell kind " + std::string(cell_kind_name(kind)) +
                 " has no bench representation";
        });
    }
    out << netlist.signal(gate.output).name << " = " << op << '(';
    for (std::size_t i = 0; i < gate.inputs.size(); ++i) {
      if (i > 0) out << ", ";
      out << netlist.signal(gate.inputs[i]).name;
    }
    out << ")\n";
  }
  return out.str();
}

std::string_view c17_bench_text() {
  return R"(# c17 ISCAS-85 benchmark
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
)";
}

}  // namespace halotis
