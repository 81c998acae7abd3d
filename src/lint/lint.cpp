#include "src/lint/lint.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

#include "src/base/check.hpp"
#include "src/base/fnv.hpp"
#include "src/base/strings.hpp"
#include "src/lint/hazard.hpp"

namespace halotis::lint {

namespace {

// Finding ids are the repo-wide FNV-1a (src/base/fnv.hpp), the same
// function repro goldens use; test_lint.cpp pins the rendering.
using halotis::fnv1a64;

std::string hex16(std::uint64_t value) { return fnv_hex(value); }

/// Conventional SDF-style input port name ("A", "B", ...); matches
/// sdf_port_name() without depending on the parsers layer.
std::string port_name(int pin) { return std::string(1, static_cast<char>('A' + pin)); }

const char* hazard_kind_name(HazardKind kind) {
  switch (kind) {
    case HazardKind::kStatic0: return "static-0";
    case HazardKind::kStatic1: return "static-1";
    case HazardKind::kDynamic: return "dynamic";
  }
  return "?";
}

class FindingSink {
 public:
  explicit FindingSink(std::vector<Finding>* out) : out_(out) {}

  void add(std::string rule, Severity severity, std::string location, std::string message) {
    Finding finding;
    finding.id = finding_id(rule, location);
    finding.rule = std::move(rule);
    finding.severity = severity;
    finding.location = std::move(location);
    finding.message = std::move(message);
    out_->push_back(std::move(finding));
  }

 private:
  std::vector<Finding>* out_;
};

// ---- structural pass -------------------------------------------------------

/// Strongly connected components of the gate graph (iterative Tarjan);
/// every SCC with more than one gate -- or a gate feeding itself -- is a
/// combinational cycle finding.
void cycle_findings(const Netlist& netlist, FindingSink& sink) {
  const std::size_t n = netlist.num_gates();
  std::vector<std::uint32_t> index(n, 0);
  std::vector<std::uint32_t> low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::uint32_t> stack;
  std::uint32_t next_index = 1;
  std::vector<std::vector<std::uint32_t>> sccs;

  struct Frame {
    std::uint32_t v = 0;
    std::size_t edge = 0;
  };
  std::vector<Frame> call;
  for (std::uint32_t root = 0; root < n; ++root) {
    if (index[root] != 0) continue;
    call.push_back({root, 0});
    while (!call.empty()) {
      Frame& frame = call.back();
      const std::uint32_t v = frame.v;
      if (frame.edge == 0) {
        index[v] = low[v] = next_index++;
        stack.push_back(v);
        on_stack[v] = true;
      }
      const Signal& out = netlist.signal(netlist.gate(GateId{v}).output);
      bool descended = false;
      while (frame.edge < out.fanout.size()) {
        const std::uint32_t w = out.fanout[frame.edge].gate.value();
        ++frame.edge;
        if (index[w] == 0) {
          call.push_back({w, 0});
          descended = true;
          break;
        }
        if (on_stack[w]) low[v] = std::min(low[v], index[w]);
      }
      if (descended) continue;
      if (low[v] == index[v]) {
        std::vector<std::uint32_t> scc;
        for (;;) {
          const std::uint32_t w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          scc.push_back(w);
          if (w == v) break;
        }
        std::sort(scc.begin(), scc.end());
        sccs.push_back(std::move(scc));
      }
      call.pop_back();
      if (!call.empty()) low[call.back().v] = std::min(low[call.back().v], low[v]);
    }
  }

  // Deterministic report order: by lowest member gate id.
  std::sort(sccs.begin(), sccs.end());
  for (const std::vector<std::uint32_t>& scc : sccs) {
    bool cyclic = scc.size() > 1;
    if (!cyclic) {
      const Gate& g = netlist.gate(GateId{scc[0]});
      for (const SignalId in : g.inputs) cyclic = cyclic || in == g.output;
    }
    if (!cyclic) continue;
    std::ostringstream message;
    message << "combinational cycle through " << scc.size() << " gate"
            << (scc.size() == 1 ? "" : "s") << ":";
    const std::size_t shown = std::min<std::size_t>(scc.size(), 8);
    for (std::size_t i = 0; i < shown; ++i) {
      message << (i == 0 ? " " : ", ") << netlist.gate(GateId{scc[i]}).name;
    }
    if (scc.size() > shown) message << " (+" << scc.size() - shown << " more)";
    message << " -- unclocked feedback; simulation may oscillate";
    sink.add("STR-CYCLE", Severity::kError, "gate " + netlist.gate(GateId{scc[0]}).name,
             message.str());
  }
}

void structural_pass(const Netlist& netlist, const LintOptions& options, FindingSink& sink) {
  // Signal checks: undriven inputs, floating outputs, fanout counts.
  for (std::uint32_t si = 0; si < netlist.num_signals(); ++si) {
    const Signal& sig = netlist.signal(SignalId{si});
    if (!sig.is_primary_input && !sig.driver.valid() && !sig.fanout.empty()) {
      std::ostringstream message;
      message << "undriven signal feeds " << sig.fanout.size() << " gate input"
              << (sig.fanout.size() == 1 ? "" : "s") << " (first: gate "
              << netlist.gate(sig.fanout[0].gate).name << " pin "
              << port_name(sig.fanout[0].pin) << ")";
      sink.add("STR-UNDRIVEN", Severity::kError, "signal " + sig.name, message.str());
    }
    if (sig.fanout.empty() && !sig.is_primary_output) {
      sink.add("STR-FLOATING", Severity::kNote, "signal " + sig.name,
               sig.is_primary_input
                   ? "primary input drives no gate and is not an output"
                   : (sig.driver.valid()
                          ? "gate output drives no load and is not a primary output"
                          : "signal is completely disconnected"));
    }
    if (static_cast<int>(sig.fanout.size()) > options.fanout_limit) {
      std::ostringstream message;
      message << "fanout " << sig.fanout.size() << " exceeds limit " << options.fanout_limit
              << " -- slew and load on this net degrade every receiver's timing";
      sink.add("STR-FANOUT", Severity::kWarning, "signal " + sig.name, message.str());
    }
  }

  // Dead gates: reverse reachability from the primary outputs.
  std::vector<bool> live_gate(netlist.num_gates(), false);
  {
    std::vector<SignalId> work(netlist.primary_outputs().begin(),
                               netlist.primary_outputs().end());
    while (!work.empty()) {
      const SignalId sig = work.back();
      work.pop_back();
      const GateId driver = netlist.signal(sig).driver;
      if (!driver.valid() || live_gate[driver.value()]) continue;
      live_gate[driver.value()] = true;
      for (const SignalId in : netlist.gate(driver).inputs) work.push_back(in);
    }
  }
  for (std::uint32_t gi = 0; gi < netlist.num_gates(); ++gi) {
    if (live_gate[gi]) continue;
    sink.add("STR-DEAD", Severity::kWarning, "gate " + netlist.gate(GateId{gi}).name,
             "no path to any primary output -- the gate burns power and events "
             "but cannot affect an observable value");
  }

  // Duplicate logic: same cell, same ordered input signals.  (The netlist
  // builder already enforces single drivers, so true duplicate *drivers*
  // cannot be constructed; redundant duplicate gates are the real-world
  // residue of that bug class.)
  std::map<std::pair<std::uint32_t, std::vector<std::uint32_t>>, GateId> seen;
  for (std::uint32_t gi = 0; gi < netlist.num_gates(); ++gi) {
    const Gate& g = netlist.gate(GateId{gi});
    std::vector<std::uint32_t> ins;
    ins.reserve(g.inputs.size());
    for (const SignalId in : g.inputs) ins.push_back(in.value());
    const auto [it, inserted] =
        seen.try_emplace({g.cell.value(), std::move(ins)}, GateId{gi});
    if (!inserted) {
      sink.add("STR-DUPGATE", Severity::kWarning, "gate " + g.name,
               "computes the same function of the same inputs as gate " +
                   netlist.gate(it->second).name + " -- redundant logic");
    }
  }

  cycle_findings(netlist, sink);
}

// ---- timing pass -----------------------------------------------------------

void timing_pass(const Netlist& netlist, const TimingGraph& timing,
                 const LintOptions& options, FindingSink& sink) {
  constexpr TimeNs kMaxSaneSlew = 20.0;  // ns; far past any u6 output ramp
  const TimeNs slew = options.input_slew;
  for (std::uint32_t gi = 0; gi < netlist.num_gates(); ++gi) {
    const GateId gate{gi};
    const Gate& g = netlist.gate(gate);
    bool in_band = false;
    TimeNs band_tp = 0.0;
    TimeNs band_edge = 0.0;
    std::string band_arc;
    for (int p = 0; p < static_cast<int>(g.inputs.size()); ++p) {
      bool annotated = false;
      for (const Edge edge : {Edge::kRise, Edge::kFall}) {
        const TimingArc& arc = timing.arc(timing.arc_id(gate, p, edge));
        const char* edge_name = edge == Edge::kRise ? "rise" : "fall";
        const TimeNs tp = (arc.tp_base + arc.p_slew * slew) * arc.factor;
        if (tp <= 0.0) {
          sink.add("TIM-NEGDELAY", Severity::kError,
                   "gate " + g.name + " pin " + port_name(p) + " " + edge_name,
                   "non-positive propagation delay " + format_double(tp, 6) +
                       " ns at slew " + format_double(slew, 6) +
                       " ns -- events would be scheduled in the past");
        }
        // The output ramp is a gate-level property (same for every pin), so
        // sanity-check it once, at pin 0.
        if (p == 0 && (arc.tau_out <= 0.0 || arc.tau_out > kMaxSaneSlew)) {
          sink.add("TIM-SLEW", Severity::kWarning,
                   "gate " + g.name + " " + edge_name,
                   "output ramp duration " + format_double(arc.tau_out, 6) +
                       " ns outside the sane range (0, " +
                       format_double(kMaxSaneSlew, 6) + "] ns");
        }
        if ((arc.flags & kArcDegradation) != 0 && !in_band) {
          const TimeNs edge_hi =
              (arc.t0_slope * slew + 3.0 * arc.deg_tau) * arc.factor;
          if (tp <= edge_hi) {
            in_band = true;
            band_tp = tp;
            band_edge = edge_hi;
            band_arc = port_name(p) + std::string(" ") + edge_name;
          }
        }
        annotated = annotated || (arc.flags & kArcSdfAnnotated) != 0;
      }
      if (options.sdf_coverage && !annotated) {
        sink.add("TIM-SDF-MISSING", Severity::kWarning,
                 "gate " + g.name + " pin " + port_name(p),
                 "no IOPATH annotation for this input -- the library delay "
                 "stays in effect");
      }
      const double vt = timing.threshold_fraction(gate, p);
      if (vt <= 0.0 || vt >= 1.0) {
        sink.add("TIM-THRESH", Severity::kError,
                 "gate " + g.name + " pin " + port_name(p),
                 "threshold fraction " + format_double(vt, 6) +
                     " outside (0, 1) -- ramp crossings are undefined");
      }
    }
    if (in_band) {
      sink.add("TIM-DEGBAND", Severity::kNote, "gate " + g.name,
               "nominal delay " + format_double(band_tp, 6) +
                   " ns sits inside the degradation band (pulse separation <= " +
                   format_double(band_edge, 6) + " ns degrades, arc " + band_arc +
                   ") -- back-to-back events through this gate shrink");
    }
  }
}

// ---- hazard findings -------------------------------------------------------

void hazard_findings(const Netlist& netlist, const HazardAnalysis& analysis,
                     FindingSink& sink) {
  for (std::uint32_t gi = 0; gi < netlist.num_gates(); ++gi) {
    const GateHazard& hz = analysis.gates[gi];
    if (!hz.origin_capable) continue;
    const Gate& g = netlist.gate(GateId{gi});
    const std::string pins = port_name(hz.pin_a) + "/" + port_name(hz.pin_b);
    std::ostringstream message;
    switch (hz.cls) {
      case HazardClass::kGlitch:
        message << hazard_kind_name(hz.kind) << " hazard, reconvergence of signal "
                << netlist.signal(hz.source).name << " at pins " << pins
                << ": path skew [" << format_double(hz.skew_min, 6) << ", "
                << format_double(hz.skew_max, 6) << "] ns clears the degradation band (T0 "
                << format_double(hz.t0, 6) << ", band edge " << format_double(hz.band_hi, 6)
                << " ns) -- the glitch will propagate";
        sink.add("HAZ-GLITCH", Severity::kWarning, "gate " + g.name, message.str());
        break;
      case HazardClass::kMarginal:
        message << hazard_kind_name(hz.kind) << " hazard, reconvergence of signal "
                << netlist.signal(hz.source).name << " at pins " << pins
                << ": path skew [" << format_double(hz.skew_min, 6) << ", "
                << format_double(hz.skew_max, 6)
                << "] ns straddles the degradation band (T0 " << format_double(hz.t0, 6)
                << ", band edge " << format_double(hz.band_hi, 6)
                << " ns) -- glitch survival depends on the actual pulse separation";
        sink.add("HAZ-MARGINAL", Severity::kWarning, "gate " + g.name, message.str());
        break;
      case HazardClass::kFiltered:
        message << hazard_kind_name(hz.kind) << " hazard, reconvergence of signal "
                << netlist.signal(hz.source).name << " at pins " << pins
                << ": path skew [" << format_double(hz.skew_min, 6) << ", "
                << format_double(hz.skew_max, 6) << "] ns within T0 "
                << format_double(hz.t0, 6)
                << " ns -- the degradation model collapses the pulse";
        sink.add("HAZ-FILTERED", Severity::kNote, "gate " + g.name, message.str());
        break;
      case HazardClass::kMic:
        message << hazard_kind_name(hz.kind) << " hazard at pins " << pins
                << " with no reconvergent source -- needs independently skewed "
                   "input arrivals (multi-input change) to glitch";
        sink.add("HAZ-MIC", Severity::kNote, "gate " + g.name, message.str());
        break;
      case HazardClass::kNone:
        break;
    }
  }
  if (analysis.capped_sources > 0) {
    std::ostringstream message;
    message << "reconvergence classification capped: " << analysis.capped_sources << " of "
            << analysis.branch_sources
            << " branch sources not fully traced (cone/budget limit) -- affected "
               "hazards report as multi-input-change";
    sink.add("HAZ-CAP", Severity::kNote, "netlist", message.str());
  }
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kNote: return "note";
  }
  return "?";
}

std::uint64_t finding_id(std::string_view rule, std::string_view location) {
  std::string key;
  key.reserve(rule.size() + 1 + location.size());
  key.append(rule);
  key.push_back('|');
  key.append(location);
  return fnv1a64(key);
}

bool LintReport::has_rule(std::string_view rule) const {
  for (const Finding& finding : findings) {
    if (finding.rule == rule) return true;
  }
  return false;
}

bool LintReport::is_hazard_gate(GateId gate) const {
  return std::binary_search(hazard_gates.begin(), hazard_gates.end(), gate,
                            [](GateId a, GateId b) { return a.value() < b.value(); });
}

LintReport run_lint(const Netlist& netlist, const TimingGraph& timing,
                    const LintOptions& options) {
  require(&timing.netlist() == &netlist, "run_lint: timing graph built from another netlist");
  LintReport report;
  FindingSink sink(&report.findings);

  if (options.supervisor != nullptr) options.supervisor->check_coarse("lint.structural");
  structural_pass(netlist, options, sink);

  const HazardAnalysis analysis = analyze_hazards(netlist, timing, options);
  hazard_findings(netlist, analysis, sink);
  report.capped_sources = analysis.capped_sources;
  for (std::uint32_t gi = 0; gi < netlist.num_gates(); ++gi) {
    if (analysis.gates[gi].origin_capable) report.hazard_gates.push_back(GateId{gi});
  }

  if (options.supervisor != nullptr) options.supervisor->check_coarse("lint.timing");
  timing_pass(netlist, timing, options, sink);

  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.severity != b.severity) return a.severity < b.severity;
              if (a.rule != b.rule) return a.rule < b.rule;
              if (a.location != b.location) return a.location < b.location;
              return a.message < b.message;
            });
  for (const Finding& finding : report.findings) {
    if (finding.severity == Severity::kError) ++report.errors;
    else if (finding.severity == Severity::kWarning) ++report.warnings;
    else ++report.notes;
  }
  return report;
}

std::string format_text(const LintReport& report) {
  std::ostringstream out;
  for (const Finding& finding : report.findings) {
    out << severity_name(finding.severity) << ": [" << finding.rule << "] "
        << finding.location << ": " << finding.message << " [" << hex16(finding.id)
        << "]\n";
  }
  out << "lint: " << report.errors << (report.errors == 1 ? " error, " : " errors, ")
      << report.warnings << (report.warnings == 1 ? " warning, " : " warnings, ")
      << report.notes << (report.notes == 1 ? " note" : " notes");
  if (report.suppressed > 0) out << " (" << report.suppressed << " suppressed by baseline)";
  out << "; " << report.hazard_gates.size() << " hazard-capable gate"
      << (report.hazard_gates.size() == 1 ? "" : "s") << "\n";
  return out.str();
}

std::string format_json(const LintReport& report, const Netlist& netlist) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"tool\": \"halotis-lint\",\n";
  out << "  \"format_version\": 1,\n";
  out << "  \"netlist\": {\"gates\": " << netlist.num_gates() << ", \"signals\": "
      << netlist.num_signals() << ", \"primary_inputs\": " << netlist.primary_inputs().size()
      << ", \"primary_outputs\": " << netlist.primary_outputs().size() << "},\n";
  out << "  \"summary\": {\"errors\": " << report.errors << ", \"warnings\": "
      << report.warnings << ", \"notes\": " << report.notes << ", \"suppressed\": "
      << report.suppressed << ", \"hazard_gates\": " << report.hazard_gates.size()
      << ", \"capped_sources\": " << report.capped_sources << "},\n";
  out << "  \"findings\": [";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& finding = report.findings[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"id\": \"" << hex16(finding.id) << "\", \"rule\": \"" << finding.rule
        << "\", \"severity\": \"" << severity_name(finding.severity)
        << "\", \"location\": \"" << json_escape(finding.location)
        << "\", \"message\": \"" << json_escape(finding.message) << "\"}";
  }
  out << (report.findings.empty() ? "]\n" : "\n  ]\n");
  out << "}\n";
  return out.str();
}

std::string format_baseline(const LintReport& report) {
  std::ostringstream out;
  out << "# halotis lint baseline; format: <id> <rule> <location>.\n"
         "# Findings whose id appears here are suppressed; regenerate with\n"
         "# halotis lint --netlist F --write-baseline THIS_FILE.\n";
  for (const Finding& finding : report.findings) {
    out << hex16(finding.id) << ' ' << finding.rule << ' ' << finding.location << '\n';
  }
  return out.str();
}

std::unordered_set<std::uint64_t> parse_baseline(std::string_view text) {
  std::unordered_set<std::uint64_t> ids;
  int line_no = 0;
  for (const std::string& raw : split(text, '\n')) {
    ++line_no;
    const std::string line{trim(raw)};
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> tokens = split_whitespace(line);
    require(!tokens.empty(), "baseline: empty record");
    const std::string& id_text = tokens[0];
    require(id_text.size() == 16, [&] {
      return "baseline line " + std::to_string(line_no) + ": id '" + id_text +
             "' is not 16 hex digits";
    });
    std::uint64_t id = 0;
    for (const char c : id_text) {
      int digit = -1;
      if (c >= '0' && c <= '9') digit = c - '0';
      else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
      require(digit >= 0, [&] {
        return "baseline line " + std::to_string(line_no) + ": id '" + id_text +
               "' is not lower-case hex";
      });
      id = (id << 4) | static_cast<std::uint64_t>(digit);
    }
    ids.insert(id);
  }
  return ids;
}

std::size_t apply_baseline(LintReport& report,
                           const std::unordered_set<std::uint64_t>& baseline) {
  const auto removed =
      std::remove_if(report.findings.begin(), report.findings.end(),
                     [&](const Finding& f) { return baseline.count(f.id) != 0; });
  const std::size_t suppressed =
      static_cast<std::size_t>(report.findings.end() - removed);
  report.findings.erase(removed, report.findings.end());
  report.suppressed += suppressed;
  report.errors = report.warnings = report.notes = 0;
  for (const Finding& finding : report.findings) {
    if (finding.severity == Severity::kError) ++report.errors;
    else if (finding.severity == Severity::kWarning) ++report.warnings;
    else ++report.notes;
  }
  return suppressed;
}

bool should_fail(const LintReport& report, Severity threshold) {
  if (report.errors > 0) return true;
  return threshold == Severity::kWarning && report.warnings > 0;
}

}  // namespace halotis::lint
