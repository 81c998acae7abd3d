#include "src/serve/elaboration.hpp"

#include "src/base/check.hpp"
#include "src/base/fnv.hpp"
#include "src/parsers/bench_format.hpp"
#include "src/parsers/hierarchy.hpp"
#include "src/parsers/netlist_io.hpp"
#include "src/parsers/sdf.hpp"
#include "src/parsers/verilog.hpp"

namespace halotis::serve {

void print_sdf_facts(std::ostream& out, const SdfFacts& facts, const std::string& path) {
  if (!facts.used) return;
  out << "annotated " << facts.applied << " IOPATH record"
      << (facts.applied == 1 ? "" : "s") << " from " << path;
  if (!facts.design.empty()) out << " (design \"" << facts.design << "\")";
  out << "\n";
  for (const auto& [gate, port] : facts.missing_named) {
    out << "warning: sdf: no IOPATH for gate '" << gate << "' pin " << port
        << " -- keeping library delay\n";
  }
  if (facts.missing_total > facts.missing_named.size()) {
    out << "warning: sdf: ... and " << facts.missing_total - facts.missing_named.size()
        << " more unannotated gate inputs\n";
  }
}

std::size_t Elaboration::footprint_bytes() const {
  // Per-element estimates: a Signal carries a name + fanout vector (~160 B
  // loaded), a Gate a name + input vector (~128 B), an arc is exactly 64 B,
  // plus map/header slack.
  return netlist.num_signals() * 160 + netlist.num_gates() * 128 +
         graph.num_arcs() * sizeof(TimingArc) + 4096;
}

Netlist parse_netlist_text(std::string_view text, const std::string& format,
                           const Library& lib) {
  if (format == "bench") return read_bench(text, lib);
  if (format == "verilog") return read_verilog(text, lib);
  if (format == "native") {
    // Native files may use the flat or the hierarchical dialect.
    return looks_hierarchical(text) ? read_hierarchical(text, lib) : read_netlist(text, lib);
  }
  require(false, [&] { return "unknown netlist format '" + format + "'"; });
  return Netlist(lib);  // unreachable
}

std::uint64_t elaboration_key(const std::string& format, std::string_view netlist_text,
                              const TimingPolicy& policy, const std::string* sdf_text) {
  std::uint64_t hash = kFnv1aOffset;
  const auto fold_str = [&hash](std::string_view s) {
    const std::uint64_t n = s.size();
    hash = fnv1a(hash, &n, sizeof n);  // length-prefixed: no field bleed
    hash = fnv1a(hash, s.data(), s.size());
  };
  fold_str(format);
  fold_str(netlist_text);
  // Every TimingPolicy field the elaborated arc table depends on.
  const std::uint8_t degradation = policy.degradation ? 1 : 0;
  const auto window = static_cast<std::uint8_t>(policy.window);
  const auto threshold = static_cast<std::uint8_t>(policy.threshold);
  hash = fnv1a(hash, &degradation, sizeof degradation);
  hash = fnv1a(hash, &window, sizeof window);
  hash = fnv1a(hash, &policy.fixed_window, sizeof policy.fixed_window);
  hash = fnv1a(hash, &threshold, sizeof threshold);
  const std::uint8_t has_sdf = sdf_text != nullptr ? 1 : 0;
  hash = fnv1a(hash, &has_sdf, sizeof has_sdf);
  if (sdf_text != nullptr) fold_str(*sdf_text);
  return hash;
}

std::shared_ptr<const Elaboration> build_elaboration(const Library& lib,
                                                     std::string_view netlist_text,
                                                     const std::string& format,
                                                     const TimingPolicy& policy,
                                                     const std::string* sdf_text) {
  // Two-phase: the Netlist must reach its final heap address before
  // TimingGraph::build captures a pointer to it.
  auto elab = std::make_shared<Elaboration>(parse_netlist_text(netlist_text, format, lib));
  elab->graph = TimingGraph::build(elab->netlist, policy);
  if (sdf_text != nullptr) {
    const SdfFile sdf = read_sdf(*sdf_text);
    elab->sdf.used = true;
    elab->sdf.applied = apply_sdf(elab->graph, sdf);
    elab->sdf.design = sdf.design;
    const std::vector<PinRef> missing = sdf_unannotated_pins(elab->graph);
    elab->sdf.missing_total = missing.size();
    for (std::size_t i = 0; i < missing.size() && i < kSdfMissingListed; ++i) {
      elab->sdf.missing_named.emplace_back(elab->netlist.gate(missing[i].gate).name,
                                           sdf_port_name(missing[i].pin));
    }
  }
  elab->key = elaboration_key(format, netlist_text, policy, sdf_text);
  return elab;
}

}  // namespace halotis::serve
