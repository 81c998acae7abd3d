// The elaborated per-instance timing database (paper section 2 applied to
// section 3's engine).
//
// Built once from Netlist + Library under a TimingPolicy, the TimingGraph
// stores one dense TimingArc per (gate instance, input pin, output edge)
// with the net's actual static load CL already folded in, plus the
// event-threshold crossing fraction of every receiving pin.  Every timing
// consumer -- the event kernel, STA, the fault campaign, the replayer, the
// SDF writer/reader, the variation flow -- reads these same arcs, so the
// layers can never silently disagree about an instance's delay, and the
// kernel hot path evaluates delays through a flat table lookup instead of a
// per-request delay computation.  The engines take the graph from their
// caller (the CLI and the daemon pass one cached elaboration to all of
// them); only the Simulator keeps a self-elaborating convenience
// constructor.  A process-variation corner is a derated copy, vary().
//
// Arc layout: arcs of gate g occupy the contiguous range
// [arc_base(g), arc_base(g) + 2 * num_inputs), ordered pin-major with the
// rise arc first:  arc_id = arc_base(g) + 2*pin + (out-edge == fall).
//
// SDF back-annotation (parsers/sdf.hpp) overrides the conventional part of
// individual arcs in place (tp_base = the IOPATH absolute delay, p_slew =
// 0); thresholds, output slopes and degradation parameters keep their
// library-elaborated values -- SDF cannot express them, which is the
// paper's argument for a dedicated simulator.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/base/ids.hpp"
#include "src/base/units.hpp"
#include "src/netlist/netlist.hpp"
#include "src/timing/timing_arc.hpp"

namespace halotis {

class TimingGraph {
 public:
  /// Elaborates every arc of `netlist` under `policy`.  The netlist (and
  /// its library) must outlive the graph.
  [[nodiscard]] static TimingGraph build(const Netlist& netlist,
                                         const TimingPolicy& policy);

  // ---- arc access -----------------------------------------------------------

  [[nodiscard]] std::uint32_t arc_base(GateId gate) const {
    return gates_[gate.value()].arc_base;
  }
  /// Dense arc id of (gate, input pin, output edge).
  [[nodiscard]] std::uint32_t arc_id(GateId gate, int pin, Edge out_edge) const {
    return gates_[gate.value()].arc_base + 2u * static_cast<std::uint32_t>(pin) +
           (out_edge == Edge::kFall ? 1u : 0u);
  }
  [[nodiscard]] const TimingArc& arc(std::uint32_t id) const { return arcs_[id]; }
  [[nodiscard]] std::span<const TimingArc> arcs() const { return arcs_; }
  [[nodiscard]] std::size_t num_arcs() const { return arcs_.size(); }
  [[nodiscard]] std::size_t num_gates() const { return gates_.size(); }

  /// Static capacitive load folded into the gate's arcs.
  [[nodiscard]] Farad load(GateId gate) const { return gates_[gate.value()].out_load; }

  /// Event-threshold crossing fraction VT/VDD of one receiving pin (rising
  /// ramps cross at t_start + tau * fraction; falling ones at
  /// t_start + tau * (1 - fraction)).
  [[nodiscard]] double threshold_fraction(GateId gate, int pin) const {
    return vt_frac_[gates_[gate.value()].pin_base + static_cast<std::uint32_t>(pin)];
  }

  [[nodiscard]] const Netlist& netlist() const { return *netlist_; }
  [[nodiscard]] const TimingPolicy& policy() const { return policy_; }
  [[nodiscard]] Volt vdd() const { return vdd_; }

  // ---- SDF back-annotation --------------------------------------------------

  /// Overrides the conventional delay of both arcs of (gate, pin) with
  /// absolute IOPATH delays: tp_base becomes the annotated value, the slew
  /// sensitivity is cleared (SDF delays are absolute).  Degradation
  /// parameters, output slopes and thresholds keep their elaborated values.
  void annotate_iopath(GateId gate, int pin, TimeNs rise, TimeNs fall);

  /// Number of arcs carrying an SDF override.
  [[nodiscard]] std::size_t annotated_arcs() const { return annotated_arcs_; }

  // ---- perturbation (variation / replay) -------------------------------------

  /// A copy with every gate's arcs derated by variation_factor(seed,
  /// sigma, gate) -- one per-instance process-variation corner (eval_arc
  /// scales tp, tau_out and the inertial window by the factor).  This is
  /// the one way to derate a graph: elaboration leaves every factor at 1,
  /// so varying a fresh elaboration stores variation_factor() verbatim,
  /// and varying a varied or SDF-annotated graph multiplies on top.  The
  /// base graph is never touched.
  [[nodiscard]] TimingGraph vary(double sigma, std::uint64_t seed) const;

  /// Multiplies one arc's derating factor (per-arc fuzz perturbation).
  void scale_arc_factor(std::uint32_t id, double scale) { arcs_[id].factor *= scale; }

  // ---- debugging ------------------------------------------------------------

  /// Human-readable per-arc dump (the `halotis sta --per-arc` divergence
  /// debugging aid): arc id, instance, cell, pin, edge, tp0@CL, p_slew,
  /// tau (eq. 2), T0 slope (eq. 3), tau_out, derating factor, flags.
  [[nodiscard]] std::string format_arcs() const;

 private:
  struct GateTiming {
    std::uint32_t arc_base = 0;  ///< first arc of this gate
    std::uint32_t pin_base = 0;  ///< first vt_frac_ entry of this gate
    Farad out_load = 0.0;        ///< static CL folded into the arcs
  };

  const Netlist* netlist_ = nullptr;
  TimingPolicy policy_;
  Volt vdd_ = 5.0;
  std::vector<GateTiming> gates_;
  std::vector<TimingArc> arcs_;
  std::vector<double> vt_frac_;  ///< flattened (gate, pin) threshold fractions
  std::size_t annotated_arcs_ = 0;
};

}  // namespace halotis
