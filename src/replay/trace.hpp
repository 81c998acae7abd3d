// The causal trace: record-once / re-time-many (ROADMAP item 3).
//
// A recording run of the serial event kernel appends one TraceOp per
// scheduling decision -- transition creation, event spawn, pair
// cancellation, firing, annihilation-path cancellation, resurrection --
// in the exact order the kernel made them.  The ops carry only the
// *timing-dependent* part of each decision (which transition, which arc,
// which neighbour event the comparison ran against); everything purely
// structural (truth tables, perceived-input words, history membership,
// can_annihilate) is a deterministic function of the decision sequence
// and is therefore not recorded.
//
// A TraceReplayer (replayer.hpp) walks the op stream under a *perturbed*
// TimingArc table, recomputing every transition time through the same
// eval_arc expressions the kernel used and checking that every recorded
// ordering / filtering decision still holds under the new times.  Two
// fires that touch disjoint state (different gates, different pending
// lists) commute -- the kernel processes every event with now_ equal to
// the event's own time, so their relative pop order cannot influence any
// computed value.  The replayer therefore certifies only the *dependent*
// order: ops touching the same pending list or the same gate must keep
// their recorded relative order under the perturbed times (strictly
// earlier time, or an equal time whose (time, creation-id) tie-break is
// provably the same -- see replayer.cpp).  If all checks pass, the
// perturbed full simulation executes an op sequence equal to the recorded
// one up to reordering of commuting fires, so the replayer's recomputed
// history is bit-for-bit the full run's history -- without a heap,
// pending lists or gate evaluation.  Any violated check invalidates the
// schedule and the caller falls back to a full event simulation.
//
// The recorder is attached to a Simulator with record_into(); the
// simulator calls the on_*() hooks from its kernel (nullable-pointer
// guarded, mirroring supervise()) and finish_recording() seals the trace.
#pragma once

#include <cstdint>
#include <vector>

#include "src/base/check.hpp"
#include "src/base/ids.hpp"
#include "src/base/units.hpp"

namespace halotis::replay {

/// Sentinel for "no event / no transition" operand slots.
inline constexpr std::uint32_t kNone = 0xFFFFFFFFu;

// An "event id" below is the event's creation sequence (EventSeq): its
// ordinal among the run's created events, never reused, even though the
// kernel recycles the event's storage slot once it fires or is cancelled.
// A "list" is a pending list, named by the receiving input's fanout slot
// (its entry in the simulator's flattened fanout table); the replayer uses
// it only as a serialization domain.

enum class OpKind : std::uint8_t {
  /// Gate output evaluation at the instant of the last kFire event:
  /// a = new transition id (kNone when the annihilate branch ran),
  /// b = arc id, c = causing transition, d = previous output transition
  /// (kNone if none); flags = the collapse decisions taken (below).
  kGateTr,
  /// Fanout event inserted at the tail of an input's pending list:
  /// a = event id, b = causing transition, c = previous tail event
  /// (kNone if the list was empty), d = list,
  /// x = applied threshold fraction.
  kSpawn,
  /// Pair rule fired (paper Fig. 4): the new crossing did not come after
  /// the pending previous event, which was cancelled and the new one
  /// suppressed.  a = cancelled event, b = causing transition,
  /// c = list, x = applied threshold fraction; kOpWasHead set when
  /// the cancelled event was the list head (i.e. live in the heap).
  kPairCancel,
  /// Event popped and processed: a = event id, b = list,
  /// c = target gate.
  kFire,
  /// Annihilation-path cancellation of a still-pending spawned event:
  /// a = event id, b = list; kOpWasHead as for kPairCancel.
  kCancel,
  /// Pair-cancelled partner event restored by an output-pulse
  /// annihilation: a = new event id, b = the cancelled partner event it
  /// recreates, c / d = pending-list neighbours after the sorted insert
  /// (kNone at either end), x = list (the integer slots are full).
  kResurrect,
  /// Event still pending when the run stopped: a = event id.  Emitted by
  /// finish_recording() so the replayer can verify the perturbed times
  /// stay beyond the horizon.
  kResidual,
};

/// kGateTr decision flags: which branches schedule_output() took.
enum : std::uint8_t {
  kOpHasPrev = 1u << 0,      ///< the gate had a previous surviving output
  kOpFiltered = 1u << 1,     ///< DDM T <= T0 collapse (eval_arc filtered)
  kOpOrdCollapse = 1u << 2,  ///< t_out50 <= prev50 + kMinPulseWidth
  kOpInertial = 1u << 3,     ///< CDM classical inertial window collapse
  kOpAnnihilated = 1u << 4,  ///< collapse executed as an annihilation
  kOpClamped = 1u << 5,      ///< collapse emitted a min-width pulse instead
  kOpWasHead = 1u << 6,      ///< cancelled event was its pending list's head
};

/// One recorded decision.  32 bytes (replay throughput is bound by the
/// sequential walk of this stream); the fixed-value stimulus transitions
/// live in Trace::stim instead, applied once per replayer.
struct TraceOp {
  OpKind kind = OpKind::kFire;
  std::uint8_t flags = 0;
  std::uint32_t a = kNone;
  std::uint32_t b = kNone;
  std::uint32_t c = kNone;
  std::uint32_t d = kNone;
  double x = 0.0;
};

/// One stimulus transition: fixed (never perturbed) ramp values.
struct StimInit {
  std::uint32_t transition = 0;
  TimeNs t_start = 0.0;
  TimeNs tau = 0.0;
};

/// One surviving history entry: the transition id (its recomputed time
/// lives in the replayer's per-sample state) and its edge sense.
struct TraceHistoryEntry {
  std::uint32_t transition = 0;
  std::uint8_t rise = 0;
};

/// The sealed recording.  Immutable after finish_recording(); one Trace is
/// shared read-only by every replay session (thread-safe by constness).
struct Trace {
  std::vector<TraceOp> ops;
  /// Stimulus ramps, in application order (before any op executes).
  std::vector<StimInit> stim;
  /// Surviving transitions per signal, in history order -- the recorded
  /// run's final waveform membership (identical in any run that passes
  /// every check; only the times differ).
  std::vector<std::vector<TraceHistoryEntry>> history;
  std::size_t num_transitions = 0;
  std::size_t num_events = 0;  ///< events created: every event id is below it
  std::size_t num_arcs = 0;
  std::size_t num_inputs = 0;  ///< pending-list (fanout slot) count: serialization domains
  std::size_t num_gates = 0;   ///< gate count (serialization domains)
  TimeNs horizon = kNeverNs;
  /// Sealed by finish_recording() and re-timeable.  A run stopped by the
  /// event limit is not: the limit truncates the schedule at an ordinal,
  /// not a time, so a perturbed run could process a different prefix.
  bool replayable = false;

  [[nodiscard]] std::uint64_t op_bytes() const { return ops.size() * sizeof(TraceOp); }
};

/// Builds a Trace from the Simulator's hook calls.  Append-only; the
/// hooks stay branch-free so a recording run costs one predictable store
/// per decision on top of the normal kernel work.
class TraceRecorder {
 public:
  void clear() { trace_ = Trace{}; }

  /// The sealed trace.  Valid only after the simulator's
  /// finish_recording() ran (trace().replayable says so).
  [[nodiscard]] const Trace& trace() const { return trace_; }

  // ---- simulator hooks ------------------------------------------------------

  void on_stim_transition(TransitionId id, TimeNs t_start, TimeNs tau) {
    trace_.stim.push_back(StimInit{id.value(), t_start, tau});
  }

  void on_gate_transition(std::uint32_t new_tr, std::uint32_t arc_id,
                          TransitionId cause, std::uint32_t prev_tr,
                          std::uint8_t flags) {
    TraceOp op;
    op.kind = OpKind::kGateTr;
    op.flags = flags;
    op.a = new_tr;
    op.b = arc_id;
    op.c = cause.value();
    op.d = prev_tr;
    trace_.ops.push_back(op);
  }

  void on_spawn(std::uint32_t event, TransitionId cause, double frac, std::uint32_t prev_tail,
                std::uint32_t list) {
    TraceOp op;
    op.kind = OpKind::kSpawn;
    op.a = event;
    op.b = cause.value();
    op.c = prev_tail;
    op.d = list;
    op.x = frac;
    trace_.ops.push_back(op);
  }

  void on_pair_cancel(std::uint32_t prev, TransitionId cause, double frac,
                      std::uint32_t list, bool was_head) {
    TraceOp op;
    op.kind = OpKind::kPairCancel;
    op.flags = was_head ? kOpWasHead : 0;
    op.a = prev;
    op.b = cause.value();
    op.c = list;
    op.x = frac;
    trace_.ops.push_back(op);
  }

  void on_fire(std::uint32_t event, std::uint32_t list, std::uint32_t gate) {
    TraceOp op;
    op.kind = OpKind::kFire;
    op.a = event;
    op.b = list;
    op.c = gate;
    trace_.ops.push_back(op);
  }

  void on_cancel(std::uint32_t event, std::uint32_t list, bool was_head) {
    TraceOp op;
    op.kind = OpKind::kCancel;
    op.flags = was_head ? kOpWasHead : 0;
    op.a = event;
    op.b = list;
    trace_.ops.push_back(op);
  }

  void on_resurrect(std::uint32_t event, std::uint32_t partner,
                    std::uint32_t prev_neighbour, std::uint32_t next_neighbour,
                    std::uint32_t list) {
    TraceOp op;
    op.kind = OpKind::kResurrect;
    op.a = event;
    op.b = partner;
    op.c = prev_neighbour;
    op.d = next_neighbour;
    op.x = static_cast<double>(list);
    trace_.ops.push_back(op);
  }

  void on_residual(std::uint32_t event) {
    TraceOp op;
    op.kind = OpKind::kResidual;
    op.a = event;
    trace_.ops.push_back(op);
  }

  /// Called by Simulator::finish_recording() with the final counts and the
  /// surviving history; seals the trace.  `replayable` is false when the
  /// event limit stopped the run.
  void seal(std::vector<std::vector<TraceHistoryEntry>> history,
            std::size_t num_transitions, std::size_t num_events,
            std::size_t num_arcs, std::size_t num_inputs, std::size_t num_gates,
            TimeNs horizon, bool replayable) {
    trace_.history = std::move(history);
    trace_.num_transitions = num_transitions;
    trace_.num_events = num_events;
    trace_.num_arcs = num_arcs;
    trace_.num_inputs = num_inputs;
    trace_.num_gates = num_gates;
    trace_.horizon = horizon;
    trace_.replayable = replayable;
  }

 private:
  Trace trace_;
};

}  // namespace halotis::replay
