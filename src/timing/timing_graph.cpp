#include "src/timing/timing_graph.hpp"

#include <sstream>

#include "src/base/check.hpp"
#include "src/base/strings.hpp"

namespace halotis {

TimingGraph TimingGraph::build(const Netlist& netlist, const TimingPolicy& policy) {
  TimingGraph graph;
  graph.netlist_ = &netlist;
  graph.policy_ = policy;
  graph.vdd_ = netlist.library().vdd();

  const std::size_t num_gates = netlist.num_gates();
  graph.gates_.resize(num_gates);
  std::size_t total_pins = 0;
  for (std::size_t g = 0; g < num_gates; ++g) {
    total_pins += netlist.gate(GateId{static_cast<GateId::underlying_type>(g)}).inputs.size();
  }
  graph.arcs_.reserve(2 * total_pins);
  graph.vt_frac_.reserve(total_pins);

  for (std::size_t g = 0; g < num_gates; ++g) {
    const GateId gid{static_cast<GateId::underlying_type>(g)};
    const Gate& gate = netlist.gate(gid);
    const Cell& cell = netlist.cell_of(gid);
    GateTiming& gt = graph.gates_[g];
    gt.arc_base = static_cast<std::uint32_t>(graph.arcs_.size());
    gt.pin_base = static_cast<std::uint32_t>(graph.vt_frac_.size());
    gt.out_load = netlist.load_of(gate.output);

    for (int pin = 0; pin < static_cast<int>(gate.inputs.size()); ++pin) {
      graph.arcs_.push_back(
          elaborate_arc(cell, pin, Edge::kRise, gt.out_load, graph.vdd_, policy));
      graph.arcs_.push_back(
          elaborate_arc(cell, pin, Edge::kFall, gt.out_load, graph.vdd_, policy));
      const double frac = policy.threshold == TimingPolicy::Threshold::kPerPinVt
                              ? cell.pin(pin).vt / graph.vdd_
                              : 0.5;
      require(frac > 0.0 && frac < 1.0,
              "TimingGraph: event threshold must lie inside the logic swing");
      graph.vt_frac_.push_back(frac);
    }
  }
  return graph;
}

void TimingGraph::annotate_iopath(GateId gate, int pin, TimeNs rise, TimeNs fall) {
  require(gate.valid() && gate.value() < gates_.size(),
          "TimingGraph::annotate_iopath(): gate out of range");
  const Gate& g = netlist_->gate(gate);
  require(pin >= 0 && pin < static_cast<int>(g.inputs.size()),
          "TimingGraph::annotate_iopath(): pin out of range");
  require(rise >= 0.0 && fall >= 0.0,
          "TimingGraph::annotate_iopath(): negative IOPATH delay");
  for (const Edge edge : {Edge::kRise, Edge::kFall}) {
    TimingArc& arc = arcs_[arc_id(gate, pin, edge)];
    if ((arc.flags & kArcSdfAnnotated) == 0) ++annotated_arcs_;
    arc.tp_base = edge == Edge::kRise ? rise : fall;
    arc.p_slew = 0.0;  // SDF delays are absolute: no slew dependence left
    arc.flags |= kArcSdfAnnotated;
  }
}

TimingGraph TimingGraph::vary(double sigma, std::uint64_t seed) const {
  TimingGraph graph = *this;
  for (std::size_t g = 0; g < gates_.size(); ++g) {
    const GateId gid{static_cast<GateId::underlying_type>(g)};
    const double scale = variation_factor(seed, sigma, gid);
    const std::uint32_t base = gates_[g].arc_base;
    const auto n = static_cast<std::uint32_t>(2 * netlist_->gate(gid).inputs.size());
    for (std::uint32_t a = base; a < base + n; ++a) graph.arcs_[a].factor *= scale;
  }
  return graph;
}

std::string TimingGraph::format_arcs() const {
  std::ostringstream out;
  out << "timing graph: " << num_gates() << " gates, " << num_arcs() << " arcs";
  if (policy_.degradation) out << ", degradation";
  if (annotated_arcs_ > 0) out << ", " << annotated_arcs_ << " SDF-annotated";
  out << "\n";
  out << "  arc  instance             cell        pin edge  tp0@CL     p_slew  "
         "   tau        T0slope    tau_out    factor\n";
  for (std::size_t g = 0; g < gates_.size(); ++g) {
    const GateId gid{static_cast<GateId::underlying_type>(g)};
    const Gate& gate = netlist_->gate(gid);
    const Cell& cell = netlist_->cell_of(gid);
    for (int pin = 0; pin < static_cast<int>(gate.inputs.size()); ++pin) {
      for (const Edge edge : {Edge::kRise, Edge::kFall}) {
        const std::uint32_t id = arc_id(gid, pin, edge);
        const TimingArc& arc = arcs_[id];
        char line[256];
        std::snprintf(line, sizeof line,
                      "  %-4u %-20s %-11s %-3d %-5s %-10s %-10s %-10s %-10s %-10s %s%s\n",
                      id, gate.name.c_str(), cell.name.c_str(), pin,
                      edge == Edge::kRise ? "rise" : "fall",
                      format_double(arc.tp_base, 6).c_str(),
                      format_double(arc.p_slew, 6).c_str(),
                      format_double(arc.deg_tau, 6).c_str(),
                      format_double(arc.t0_slope, 6).c_str(),
                      format_double(arc.tau_out, 6).c_str(),
                      format_double(arc.factor, 6).c_str(),
                      (arc.flags & kArcSdfAnnotated) != 0 ? "  [sdf]" : "");
        out << line;
      }
    }
  }
  return out.str();
}

}  // namespace halotis
