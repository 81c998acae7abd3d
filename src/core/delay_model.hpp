// Delay models: the paper's Degradation Delay Model (DDM, eq. 1-3) and the
// Conventional Delay Model (CDM) baseline that HALOTIS-CDM uses.
//
// A model is a policy value, not an algorithm.  TimingGraph::build()
// elaborates its TimingPolicy into per-instance arcs, and the kernel, STA
// and the replayer evaluate those arcs with eval_arc()
// (timing/timing_arc.hpp).  The event thresholds live in the graph too
// (TimingGraph::threshold_fraction).  Per-instance process variation is not
// a model: TimingGraph::vary() derates an elaborated graph of either one.
#pragma once

#include <string_view>

#include "src/base/units.hpp"
#include "src/timing/timing_arc.hpp"

namespace halotis {

/// One delay model: the elaboration policy plus the name reports print.
/// DdmDelayModel and CdmDelayModel below only construct one and add no
/// state (pinned by the static_assert after them), so copying either into a
/// DelayModel loses nothing.
class DelayModel {
 public:
  explicit DelayModel(const TimingPolicy& policy) : policy_(policy) {}

  /// Elaboration policy consumed by TimingGraph::build().
  [[nodiscard]] const TimingPolicy& timing_policy() const { return policy_; }

  /// "HALOTIS-DDM" when the policy degrades delays, else "HALOTIS-CDM".
  [[nodiscard]] std::string_view name() const {
    return policy_.degradation ? "HALOTIS-DDM" : "HALOTIS-CDM";
  }

 private:
  TimingPolicy policy_;
};

/// The paper's Inertial and Degradation Delay Model:
///   tp = tp0 * (1 - exp(-(T - T0)/tau))                        (eq. 1)
/// with tau and T0 from the cell's characterized (A, B, C) parameters
/// (eq. 2 / eq. 3) and T the time elapsed between the previous output
/// transition's midswing crossing and the triggering input event.
/// T <= T0 collapses the pulse at the output.  Each receiving pin triggers
/// at its own VT.
class DdmDelayModel final : public DelayModel {
 public:
  DdmDelayModel()
      : DelayModel({.degradation = true, .threshold = TimingPolicy::Threshold::kPerPinVt}) {}
};

/// Conventional delay model: tp = tp0 always (no degradation), every pin
/// triggers at midswing, and glitches are handled by the classical
/// output-inertial rule.
///
/// The default window is `kNone` (transport-like), matching the paper's
/// HALOTIS-CDM: its Table 1 reports only 1 and 6 filtered events against
/// hundreds of glitch transitions, i.e. the conventional inertial rule
/// essentially never triggered on this workload.  (Pulse collapse at the
/// output -- a zero-width pulse -- is still annihilated by the engine, which
/// is where those few filtered events come from.)  `kGateDelay` gives the
/// strict VHDL-style window and is exercised by the ablation bench; in this
/// technology it *over*-filters relative to the electrical reference.
class CdmDelayModel final : public DelayModel {
 public:
  using InertialWindow = TimingPolicy::Window;

  /// `fixed_window` is the window width under `InertialWindow::kFixed`.
  explicit CdmDelayModel(InertialWindow window = InertialWindow::kNone,
                         TimeNs fixed_window = 0.0)
      : DelayModel({.window = window, .fixed_window = fixed_window}) {}
};

static_assert(sizeof(DdmDelayModel) == sizeof(DelayModel) &&
                  sizeof(CdmDelayModel) == sizeof(DelayModel),
              "the named models are copied as DelayModel values: they must add no state");

}  // namespace halotis
