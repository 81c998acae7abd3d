#include "src/waveform/vcd_reader.hpp"

#include <sstream>
#include <vector>

#include "src/base/check.hpp"
#include "src/base/strings.hpp"

namespace halotis {

namespace {

double parse_timescale(const std::string& spec) {
  // e.g. "1ps", "10 ns", "100fs".
  std::string digits;
  std::string unit;
  for (const char c : spec) {
    if (std::isdigit(static_cast<unsigned char>(c))) {
      digits.push_back(c);
    } else if (std::isalpha(static_cast<unsigned char>(c))) {
      unit.push_back(c);
    }
  }
  require(!digits.empty() && !unit.empty(), [&] {
    return "vcd: malformed $timescale '" + spec + "'";
  });
  const double value = parse_double(digits, "vcd timescale");
  if (unit == "fs") return value * 1e-6;
  if (unit == "ps") return value * 1e-3;
  if (unit == "ns") return value;
  if (unit == "us") return value * 1e3;
  require(false, [&] { return "vcd: unsupported timescale unit '" + unit + "'"; });
  return 1.0;
}

}  // namespace

VcdDocument read_vcd(std::string_view text) {
  VcdDocument doc;
  std::istringstream stream{std::string(text)};
  std::string token;

  struct Var {
    std::string name;
    bool initial = false;
    bool have_initial = false;
    std::vector<std::pair<long long, bool>> changes;  // (tick, value)
  };
  std::map<std::string, Var> vars;  // by identifier code
  bool in_definitions = true;
  long long now = 0;

  // Token-level scan: VCD is whitespace-separated.
  std::vector<std::string> tokens;
  while (stream >> token) tokens.push_back(token);

  std::size_t i = 0;
  const auto skip_to_end = [&](const char* what) {
    while (i < tokens.size() && tokens[i] != "$end") ++i;
    require(i < tokens.size(), [&] { return std::string("vcd: unterminated ") + what; });
    ++i;  // consume $end
  };

  while (i < tokens.size()) {
    const std::string& t = tokens[i];
    if (t == "$timescale") {
      std::string spec;
      ++i;
      while (i < tokens.size() && tokens[i] != "$end") spec += tokens[i++];
      require(i < tokens.size(), "vcd: unterminated $timescale");
      ++i;
      doc.tick_ns = parse_timescale(spec);
    } else if (t == "$var") {
      // $var wire 1 <id> <name> $end
      require(i + 5 < tokens.size(), "vcd: malformed $var");
      const std::string& kind = tokens[i + 1];
      const std::string& width = tokens[i + 2];
      const std::string& id = tokens[i + 3];
      const std::string& name = tokens[i + 4];
      require(kind == "wire" || kind == "reg", [&] {
        return "vcd: unsupported var kind '" + kind + "'";
      });
      require(width == "1", [&] {
        return "vcd: only scalar signals supported (got width " + width + " for '" + name + "')";
      });
      vars[id].name = name;
      i += 5;
      skip_to_end("$var");
    } else if (t == "$enddefinitions") {
      ++i;
      skip_to_end("$enddefinitions");
      in_definitions = false;
    } else if (t == "$dumpvars" || t == "$dumpall" || t == "$dumpon" || t == "$end") {
      ++i;  // value changes inside dump sections parse like normal ones
    } else if (t == "$scope" || t == "$upscope" || t == "$date" || t == "$version" ||
               t == "$comment") {
      ++i;
      skip_to_end(t.c_str());
    } else if (!t.empty() && t[0] == '#') {
      now = static_cast<long long>(parse_unsigned(t.substr(1), "vcd time"));
      ++i;
    } else if (!t.empty() && (t[0] == '0' || t[0] == '1')) {
      require(!in_definitions, "vcd: value change before $enddefinitions");
      const bool value = t[0] == '1';
      const std::string id = t.substr(1);
      const auto it = vars.find(id);
      require(it != vars.end(), [&] { return "vcd: value change for unknown id '" + id + "'"; });
      if (!it->second.have_initial && now == 0) {
        it->second.initial = value;
        it->second.have_initial = true;
      } else {
        it->second.changes.emplace_back(now, value);
      }
      ++i;
    } else if (!t.empty() && (t[0] == 'x' || t[0] == 'z' || t[0] == 'X' || t[0] == 'Z')) {
      require(false, "vcd: x/z values are not supported");
    } else if (!t.empty() && t[0] == 'b') {
      require(false, "vcd: vector values are not supported");
    } else {
      require(false, [&] { return "vcd: unexpected token '" + t + "'"; });
    }
  }

  for (auto& [id, var] : vars) {
    DigitalWaveform wave(var.initial);
    bool value = var.initial;
    for (const auto& [tick, new_value] : var.changes) {
      if (new_value == value) continue;  // redundant dump entry
      wave.append(static_cast<double>(tick) * doc.tick_ns,
                  new_value ? Edge::kRise : Edge::kFall);
      value = new_value;
    }
    doc.signals.emplace(var.name, std::move(wave));
  }
  return doc;
}

}  // namespace halotis
