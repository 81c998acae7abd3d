// The elaborated timing arc: HALOTIS's single source of per-instance truth.
//
// A TimingArc is one (gate instance, input pin, output edge) delay record
// with every load-dependent part of the paper's equations already folded
// against the net's actual static capacitance CL:
//
//   tp0(tau_in)   = tp_base + p_slew * tau_in          tp_base = p0 + p_load*CL
//   tau(eq. 2)    = deg_tau                            (A + B*CL) / VDD, clamped
//   T0(eq. 3)     = t0_slope * tau_in                  t0_slope = 1/2 - C/VDD
//   tau_out       = tau_out                            s0 + s_load*CL
//
// and the model policy (degradation on/off, classical inertial window)
// encoded in flags, so one non-virtual eval_arc() serves the event kernel,
// STA, the SDF exporter and every other consumer.  Each partial sum keeps
// the exact association order of the macro-model expressions
// (EdgeTiming::tp0, deg_tau, deg_t0).  Elaboration leaves every arc's
// per-instance derating factor at 1; TimingGraph::vary() derates a copy of
// the graph, and the factor multiplies last, after the full model
// computation (x * 1.0 is exact, so unconditional multiplication costs
// nothing in accuracy).
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "src/base/check.hpp"
#include "src/base/ids.hpp"
#include "src/base/units.hpp"
#include "src/netlist/timing.hpp"

namespace halotis {

/// Graph-wide model policy: everything TimingGraph::build() needs to know
/// about the delay model (a DelayModel is this value plus a name).  Process
/// variation is not part of it: TimingGraph::vary() derates an elaborated
/// graph.
struct TimingPolicy {
  /// Apply the paper's degradation (eq. 1-3) to arcs.  Off = conventional.
  bool degradation = false;

  /// Classical output-inertial filtering (CDM only; kNone for DDM and the
  /// paper's observed transport-like CDM).
  enum class Window : std::uint8_t { kNone, kGateDelay, kFixed };
  Window window = Window::kNone;
  TimeNs fixed_window = 0.0;

  /// Event-threshold policy: DDM uses each receiving pin's own VT, CDM the
  /// midswing voltage.
  enum class Threshold : std::uint8_t { kMidswing, kPerPinVt };
  Threshold threshold = Threshold::kMidswing;
};

/// Per-arc policy bits (folded from TimingPolicy at elaboration).
enum : std::uint8_t {
  kArcDegradation = 1u << 0,   ///< apply eq. 1-3 against the previous output
  kArcWindowGate = 1u << 1,    ///< inertial window = this transition's tp
  kArcWindowFixed = 1u << 2,   ///< inertial window = TimingArc::window
  kArcSdfAnnotated = 1u << 3,  ///< tp_base overridden by an SDF IOPATH
};

/// One elaborated (gate, pin, out-edge) record.  64 bytes.
struct TimingArc {
  double tp_base = 0.0;   ///< ns: p0 + p_load*CL (or the SDF absolute delay)
  double p_slew = 0.0;    ///< ns/ns input-slope sensitivity (0 once annotated)
  double tau_out = 0.0;   ///< ns: output ramp duration at CL
  double deg_tau = 0.0;   ///< ns: eq. 2 at CL, clamped to kMinDegradationTau
  double t0_slope = 0.0;  ///< eq. 3 slope: T0 = t0_slope * tau_in
  double window = 0.0;    ///< ns: fixed classical inertial window (kArcWindowFixed)
  double factor = 1.0;    ///< per-instance derating (TimingGraph::vary), applied last
  std::uint8_t flags = 0;
  /// Explicit zero padding: every byte of an arc is determinate, so arcs
  /// compare as bytes (the simulator interns bitwise identical arc blocks).
  std::array<std::uint8_t, 7> pad{};
};
static_assert(sizeof(TimingArc) == 64, "TimingArc should fill one cache line");
static_assert(offsetof(TimingArc, pad) + sizeof(TimingArc::pad) == sizeof(TimingArc),
              "TimingArc must have no implicit padding");

/// Outputs of one arc evaluation.
struct ArcDelay {
  TimeNs tp = 0.0;
  TimeNs tau_out = 0.0;
  bool filtered = false;         ///< DDM T <= T0 pulse annihilation
  TimeNs inertial_window = 0.0;  ///< CDM classical window; 0 disables

  /// Applies the per-instance derating after the full model computation,
  /// to every time-valued output.
  void factor_scale(double k) {
    tp *= k;
    tau_out *= k;
    inertial_window *= k;
  }
};

/// Characterized (A, B) fits can cross zero at extreme loads (eq. 2 is a
/// linear extrapolation); a non-positive tau means "instant recovery", so
/// elaboration clamps to a tiny positive constant -- the exponential then
/// evaluates to ~1 (no degradation) past T0 and the T <= T0 collapse still
/// applies.
inline constexpr TimeNs kMinDegradationTau = 1e-6;  // 1 femtosecond, in ns

/// Folds one (cell, pin, out-edge) against the static load `cl` under
/// `policy`; the derating factor stays 1 (nominal).
[[nodiscard]] inline TimingArc elaborate_arc(const Cell& cell, int pin, Edge out_edge,
                                             Farad cl, Volt vdd,
                                             const TimingPolicy& policy) {
  require(pin >= 0 && pin < static_cast<int>(cell.pins.size()),
          "elaborate_arc(): pin out of range");
  const EdgeTiming& edge = cell.pins[static_cast<std::size_t>(pin)].edge(out_edge);
  TimingArc arc;
  arc.tp_base = edge.p0 + edge.p_load * cl;
  arc.p_slew = edge.p_slew;
  arc.tau_out = cell.drive.tau_out(out_edge, cl);
  if (policy.degradation) {
    arc.flags |= kArcDegradation;
    arc.deg_tau = std::max(edge.deg_tau(cl, vdd), kMinDegradationTau);
    arc.t0_slope = 0.5 - edge.deg_c / vdd;
  }
  switch (policy.window) {
    case TimingPolicy::Window::kNone:
      break;
    case TimingPolicy::Window::kGateDelay:
      arc.flags |= kArcWindowGate;
      break;
    case TimingPolicy::Window::kFixed:
      arc.flags |= kArcWindowFixed;
      arc.window = policy.fixed_window;
      break;
  }
  return arc;
}

/// The devirtualized delay kernel: evaluates one arc for a causing input
/// ramp of duration `tau_in` whose threshold crossing happened at `t_event`.
/// `has_prev` / `t_prev_out50` describe the gate's previous surviving output
/// transition (the paper's internal-state measure); degradation only applies
/// when one exists.
[[nodiscard]] inline ArcDelay eval_arc(const TimingArc& arc, TimeNs tau_in,
                                       TimeNs t_event, bool has_prev,
                                       TimeNs t_prev_out50) {
  ArcDelay result;
  result.tp = arc.tp_base + arc.p_slew * tau_in;
  result.tau_out = arc.tau_out;
  if ((arc.flags & kArcDegradation) != 0 && has_prev) {
    // The paper's T, referenced to the triggering event (threshold crossing).
    const TimeNs t_elapsed = t_event - t_prev_out50;
    const TimeNs t0 = arc.t0_slope * tau_in;
    if (t_elapsed <= t0) {
      // The gate's internal state never recovered enough to produce an
      // output pulse at all (eq. 1 would give tp <= 0): annihilate, with no
      // output ramp either.
      result.filtered = true;
      result.tp = 0.0;
      result.tau_out = 0.0;
      result.factor_scale(arc.factor);
      return result;
    }
    result.tp *= 1.0 - std::exp(-(t_elapsed - t0) / arc.deg_tau);
  }
  if ((arc.flags & kArcWindowGate) != 0) {
    result.inertial_window = result.tp;
  } else if ((arc.flags & kArcWindowFixed) != 0) {
    result.inertial_window = arc.window;
  }
  result.factor_scale(arc.factor);
  return result;
}

/// Deterministic per-(seed, gate) lognormal derating factor
/// exp(sigma * z), z ~ N(0,1): two splitmix64 draws -> Box-Muller.
/// TimingGraph::vary() multiplies it into every arc of the gate, so a
/// variation sample is a pure function of (seed, sigma).
[[nodiscard]] inline double variation_factor(std::uint64_t seed, double sigma,
                                             GateId gate) {
  const auto mix = [](std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  };
  const std::uint64_t h1 = mix(seed ^ (static_cast<std::uint64_t>(gate.value()) << 1));
  const std::uint64_t h2 = mix(h1 ^ 0xD1B54A32D192ED03ULL);
  const double u1 = (static_cast<double>(h1 >> 11) + 0.5) * (1.0 / 9007199254740992.0);
  const double u2 = static_cast<double>(h2 >> 11) * (1.0 / 9007199254740992.0);
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  return std::exp(sigma * z);
}

}  // namespace halotis
