#include "src/parsers/sdf.hpp"

#include <algorithm>
#include <cctype>
#include <optional>
#include <sstream>

#include "src/base/check.hpp"
#include "src/base/strings.hpp"

namespace halotis {

std::string sdf_port_name(int index) {
  require(index >= 0 && index < 26, "sdf_port_name(): index out of range");
  return std::string(1, static_cast<char>('A' + index));
}

namespace {

/// SDF identifiers cannot carry '/'; hierarchy separators become '.'.
std::string sdf_escape(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '/') c = '.';
  }
  return out;
}

std::string sdf_unescape(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '.') c = '/';
  }
  return out;
}

}  // namespace

std::string write_sdf(const Netlist& netlist, TimeNs input_slew,
                      std::string_view design_name) {
  require(input_slew > 0.0, "write_sdf(): input slew must be positive");
  // One conventional (undegraded, underated) elaboration: the IOPATH values
  // are exactly the tp0@CL arcs every other consumer reads.
  const TimingGraph graph = TimingGraph::build(netlist, TimingPolicy{});
  std::ostringstream out;
  out << "(DELAYFILE\n";
  out << "  (SDFVERSION \"2.1\")\n";
  out << "  (DESIGN \"" << design_name << "\")\n";
  out << "  (VENDOR \"HALOTIS\")\n";
  out << "  (PROGRAM \"halotis convert\")\n";
  out << "  (VERSION \"1.0\")\n";
  out << "  (TIMESCALE 1ns)\n";
  out << "  // Conventional tp0 macro-model delays at the instantiated load;\n";
  out << "  // the degradation component (paper eq. 1) is dynamic and cannot\n";
  out << "  // be expressed in SDF.\n";

  for (std::size_t g = 0; g < netlist.num_gates(); ++g) {
    const GateId gid{static_cast<GateId::underlying_type>(g)};
    const Gate& gate = netlist.gate(gid);
    const Cell& cell = netlist.cell_of(gid);

    out << "  (CELL\n";
    out << "    (CELLTYPE \"" << cell.name << "\")\n";
    out << "    (INSTANCE " << sdf_escape(gate.name) << ")\n";
    out << "    (DELAY (ABSOLUTE\n";
    for (int pin = 0; pin < static_cast<int>(gate.inputs.size()); ++pin) {
      const TimingArc& rise_arc = graph.arc(graph.arc_id(gid, pin, Edge::kRise));
      const TimingArc& fall_arc = graph.arc(graph.arc_id(gid, pin, Edge::kFall));
      // 9 significant digits: delays are < 10 ns in this technology, so the
      // written form round-trips through read_sdf to better than 1e-9 ns.
      const std::string rise_str =
          format_double(rise_arc.tp_base + rise_arc.p_slew * input_slew, 9);
      const std::string fall_str =
          format_double(fall_arc.tp_base + fall_arc.p_slew * input_slew, 9);
      out << "      (IOPATH " << sdf_port_name(pin) << " Y (" << rise_str
          << "::" << rise_str << ") (" << fall_str << "::" << fall_str << "))\n";
    }
    out << "    ))\n";
    out << "  )\n";
  }
  out << ")\n";
  return out.str();
}

// ---- reader -----------------------------------------------------------------

namespace {

/// S-expression token with its 1-based source line.
struct Token {
  enum class Kind { kOpen, kClose, kAtom };
  Kind kind = Kind::kAtom;
  std::string text;
  int line = 1;
};

[[noreturn]] void fail(int line, const std::string& message) {
  require(false, [&] { return "sdf line " + std::to_string(line) + ": " + message; });
  std::abort();  // unreachable; require always throws on false
}

std::vector<Token> tokenize(std::string_view text) {
  std::vector<Token> tokens;
  int line = 1;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) continue;
    if (c == '/' && i + 1 < text.size() && text[i + 1] == '/') {
      while (i < text.size() && text[i] != '\n') ++i;
      ++line;
      continue;
    }
    if (c == '(') {
      tokens.push_back(Token{Token::Kind::kOpen, "(", line});
      continue;
    }
    if (c == ')') {
      tokens.push_back(Token{Token::Kind::kClose, ")", line});
      continue;
    }
    if (c == '"') {
      std::string atom;
      ++i;
      while (i < text.size() && text[i] != '"') {
        if (text[i] == '\n') fail(line, "unterminated string literal");
        atom.push_back(text[i]);
        ++i;
      }
      if (i >= text.size()) fail(line, "unterminated string literal");
      tokens.push_back(Token{Token::Kind::kAtom, std::move(atom), line});
      continue;
    }
    std::string atom;
    while (i < text.size() && text[i] != '(' && text[i] != ')' && text[i] != '"' &&
           std::isspace(static_cast<unsigned char>(text[i])) == 0) {
      atom.push_back(text[i]);
      ++i;
    }
    --i;
    tokens.push_back(Token{Token::Kind::kAtom, std::move(atom), line});
  }
  return tokens;
}

/// Cursor over the token stream with strict consumption helpers.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  [[nodiscard]] bool at_end() const { return pos_ >= tokens_.size(); }
  [[nodiscard]] const Token& peek() const {
    if (at_end()) fail(last_line(), "unexpected end of file");
    return tokens_[pos_];
  }
  const Token& next() {
    const Token& token = peek();
    ++pos_;
    return token;
  }
  [[nodiscard]] int last_line() const {
    return tokens_.empty() ? 1 : tokens_.back().line;
  }

  void expect_open(const char* what) {
    const Token& token = next();
    if (token.kind != Token::Kind::kOpen) fail(token.line, std::string("expected '(' ") + what);
  }
  void expect_close(const char* what) {
    const Token& token = next();
    if (token.kind != Token::Kind::kClose) {
      fail(token.line, std::string("expected ')' ") + what);
    }
  }
  std::string expect_atom(const char* what) {
    const Token& token = next();
    if (token.kind != Token::Kind::kAtom) {
      fail(token.line, std::string("expected ") + what);
    }
    return token.text;
  }

  /// Consumes tokens until the '(' already consumed is balanced.
  void skip_balanced(int open_line) {
    int depth = 1;
    while (depth > 0) {
      if (at_end()) fail(open_line, "unbalanced parentheses");
      const Token& token = next();
      if (token.kind == Token::Kind::kOpen) ++depth;
      if (token.kind == Token::Kind::kClose) --depth;
    }
  }

 private:
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

double parse_delay_number(const std::string& text, int line) {
  const std::optional<double> value = parse_finite(text);
  if (!value.has_value()) fail(line, "bad delay value '" + text + "'");
  return *value;
}

/// Parses one "(v)" / "(min:typ:max)" delay triple (empty fields allowed, as
/// in the writer's "(v::v)" form); returns typ if present, else max, else
/// min.  The '(' is already consumed.
double parse_rvalue(Parser& parser, int open_line) {
  const std::string text = parser.expect_atom("a delay value");
  parser.expect_close("after delay value");
  std::vector<std::string> fields;
  std::string current;
  for (const char c : text) {
    if (c == ':') {
      fields.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  fields.push_back(current);
  if (fields.size() != 1 && fields.size() != 3) {
    fail(open_line, "delay must be (v) or (min:typ:max), got '(" + text + ")'");
  }
  // Preference order: typ, then max, then min.
  const std::vector<std::size_t> order =
      fields.size() == 1 ? std::vector<std::size_t>{0} : std::vector<std::size_t>{1, 2, 0};
  for (const std::size_t index : order) {
    if (!fields[index].empty()) return parse_delay_number(fields[index], open_line);
  }
  fail(open_line, "delay triple '(" + text + ")' has no value");
}

double parse_timescale(const std::string& text, int line) {
  // Accept "1ns", "100ps", "1.0 us" (unit possibly a separate atom handled
  // by the caller; here the joined form).
  const std::size_t used = text.find_first_not_of("0123456789.eE+-");
  const std::optional<double> scale = parse_finite(std::string_view(text).substr(0, used));
  if (!scale.has_value()) fail(line, "bad TIMESCALE '" + text + "'");
  std::string unit = text.substr(std::min(used, text.size()));
  for (char& c : unit) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (unit == "ns") return *scale;
  if (unit == "ps") return *scale * 1e-3;
  if (unit == "us") return *scale * 1e3;
  fail(line, "unsupported TIMESCALE unit in '" + text + "' (ns|ps|us)");
}

int parse_port(const std::string& name, int line) {
  if (name.size() != 1 || name[0] < 'A' || name[0] > 'Z') {
    fail(line, "bad IOPATH input port '" + name + "' (expected A..Z)");
  }
  return name[0] - 'A';
}

/// Parses one (IOPATH port out (rise) (fall)); the "(IOPATH" is consumed.
SdfIopath parse_iopath(Parser& parser, int line, const std::string& celltype,
                       const std::string& instance, double timescale_ns) {
  SdfIopath iopath;
  iopath.celltype = celltype;
  iopath.instance = instance;
  iopath.line = line;
  iopath.pin = parse_port(parser.expect_atom("an IOPATH input port"), line);
  (void)parser.expect_atom("an IOPATH output port");  // any identifier (ours: Y)
  {
    const Token& open = parser.peek();
    if (open.kind != Token::Kind::kOpen) fail(open.line, "expected '(' before rise delay");
    parser.next();
    iopath.rise = parse_rvalue(parser, open.line) * timescale_ns;
  }
  {
    const Token& open = parser.peek();
    if (open.kind != Token::Kind::kOpen) fail(open.line, "expected '(' before fall delay");
    parser.next();
    iopath.fall = parse_rvalue(parser, open.line) * timescale_ns;
  }
  parser.expect_close("after IOPATH delays");
  if (iopath.rise < 0.0 || iopath.fall < 0.0) {
    fail(line, "negative IOPATH delay");
  }
  return iopath;
}

/// Parses one (CELL ...); the "(CELL" is consumed.
void parse_cell(Parser& parser, int cell_line, double timescale_ns, SdfFile& sdf) {
  std::string celltype;
  std::string instance;
  bool have_celltype = false;
  bool have_instance = false;
  bool have_delay = false;

  while (true) {
    const Token& token = parser.next();
    if (token.kind == Token::Kind::kClose) break;
    if (token.kind != Token::Kind::kOpen) {
      fail(token.line, "expected '(' or ')' inside CELL");
    }
    const int line = token.line;
    const std::string keyword = parser.expect_atom("a CELL entry keyword");
    if (keyword == "CELLTYPE") {
      celltype = parser.expect_atom("a CELLTYPE name");
      parser.expect_close("after CELLTYPE");
      have_celltype = true;
    } else if (keyword == "INSTANCE") {
      // An empty instance "(INSTANCE)" names the design top; we require a
      // concrete gate instance.
      const Token& name = parser.peek();
      if (name.kind != Token::Kind::kAtom) fail(line, "INSTANCE needs a gate name");
      instance = parser.next().text;
      parser.expect_close("after INSTANCE");
      have_instance = true;
    } else if (keyword == "DELAY") {
      if (!have_celltype) fail(line, "DELAY before CELLTYPE");
      if (!have_instance) fail(line, "DELAY before INSTANCE");
      parser.expect_open("after DELAY");
      const std::string mode = parser.expect_atom("ABSOLUTE");
      if (mode == "INCREMENT") fail(line, "INCREMENT delays are not supported");
      if (mode != "ABSOLUTE") fail(line, "expected ABSOLUTE, got '" + mode + "'");
      while (true) {
        const Token& entry = parser.next();
        if (entry.kind == Token::Kind::kClose) break;  // closes ABSOLUTE
        if (entry.kind != Token::Kind::kOpen) {
          fail(entry.line, "expected '(' or ')' inside ABSOLUTE");
        }
        const std::string what = parser.expect_atom("IOPATH");
        if (what != "IOPATH") {
          fail(entry.line, "unsupported delay entry '" + what + "' (only IOPATH)");
        }
        sdf.iopaths.push_back(
            parse_iopath(parser, entry.line, celltype, instance, timescale_ns));
      }
      parser.expect_close("after (DELAY (ABSOLUTE ...)");
      have_delay = true;
    } else {
      fail(line, "unsupported CELL entry '" + keyword + "'");
    }
  }
  if (!have_celltype) fail(cell_line, "CELL without CELLTYPE");
  if (!have_instance) fail(cell_line, "CELL without INSTANCE");
  if (!have_delay) fail(cell_line, "CELL without DELAY");
}

}  // namespace

SdfFile read_sdf(std::string_view text) {
  Parser parser(tokenize(text));
  SdfFile sdf;

  parser.expect_open("to start DELAYFILE");
  {
    const std::string keyword = parser.expect_atom("DELAYFILE");
    if (keyword != "DELAYFILE") {
      fail(parser.peek().line, "expected DELAYFILE, got '" + keyword + "'");
    }
  }

  bool seen_cell = false;
  while (true) {
    const Token& token = parser.next();
    if (token.kind == Token::Kind::kClose) break;  // closes DELAYFILE
    if (token.kind != Token::Kind::kOpen) {
      fail(token.line, "expected '(' or ')' inside DELAYFILE");
    }
    const int line = token.line;
    const std::string keyword = parser.expect_atom("a DELAYFILE entry keyword");
    if (keyword == "CELL") {
      parse_cell(parser, line, sdf.timescale_ns, sdf);
      seen_cell = true;
    } else if (keyword == "DESIGN") {
      sdf.design = parser.expect_atom("a design name");
      parser.expect_close("after DESIGN");
    } else if (keyword == "TIMESCALE") {
      // Delays are scaled as CELLs are parsed, so a late TIMESCALE would
      // silently mis-scale everything before it: reject instead (the
      // standard puts TIMESCALE in the header, before any CELL).
      if (seen_cell) fail(line, "TIMESCALE after the first CELL is not supported");
      std::string value = parser.expect_atom("a timescale");
      // Unit may be a separate atom ("1 ns") or joined ("1ns").
      if (parser.peek().kind == Token::Kind::kAtom) value += parser.next().text;
      sdf.timescale_ns = parse_timescale(value, line);
      parser.expect_close("after TIMESCALE");
    } else if (keyword == "SDFVERSION" || keyword == "VENDOR" || keyword == "PROGRAM" ||
               keyword == "VERSION" || keyword == "DATE" || keyword == "DIVIDER" ||
               keyword == "VOLTAGE" || keyword == "PROCESS" || keyword == "TEMPERATURE") {
      parser.skip_balanced(line);
    } else {
      fail(line, "unsupported DELAYFILE entry '" + keyword + "'");
    }
  }
  if (!parser.at_end()) {
    fail(parser.peek().line, "trailing tokens after DELAYFILE");
  }
  return sdf;
}

std::size_t apply_sdf(TimingGraph& graph, const SdfFile& sdf) {
  const Netlist& netlist = graph.netlist();
  for (const SdfIopath& iopath : sdf.iopaths) {
    auto gate_id = netlist.find_gate(iopath.instance);
    if (!gate_id.has_value()) gate_id = netlist.find_gate(sdf_unescape(iopath.instance));
    if (!gate_id.has_value()) {
      fail(iopath.line, "INSTANCE '" + iopath.instance + "' not found in the netlist");
    }
    const Cell& cell = netlist.cell_of(*gate_id);
    if (cell.name != iopath.celltype) {
      fail(iopath.line, "CELLTYPE '" + iopath.celltype + "' does not match instance '" +
                            iopath.instance + "' of cell '" + cell.name + "'");
    }
    const Gate& gate = netlist.gate(*gate_id);
    if (iopath.pin >= static_cast<int>(gate.inputs.size())) {
      fail(iopath.line, "IOPATH port '" + sdf_port_name(iopath.pin) +
                            "' out of range for instance '" + iopath.instance + "'");
    }
    graph.annotate_iopath(*gate_id, iopath.pin, iopath.rise, iopath.fall);
  }
  return sdf.iopaths.size();
}

std::vector<PinRef> sdf_unannotated_pins(const TimingGraph& graph) {
  const Netlist& netlist = graph.netlist();
  std::vector<PinRef> pins;
  for (std::uint32_t gi = 0; gi < netlist.num_gates(); ++gi) {
    const GateId gate{gi};
    const int fan_in = static_cast<int>(netlist.gate(gate).inputs.size());
    for (int pin = 0; pin < fan_in; ++pin) {
      const std::uint8_t flags = graph.arc(graph.arc_id(gate, pin, Edge::kRise)).flags |
                                 graph.arc(graph.arc_id(gate, pin, Edge::kFall)).flags;
      if ((flags & kArcSdfAnnotated) == 0) pins.push_back({gate, pin});
    }
  }
  return pins;
}

}  // namespace halotis
