// The HALOTIS simulation engine (paper section 3, Fig. 4).
//
// The loop pops the earliest event, updates the receiving gate input's
// perceived value, evaluates the gate, computes the output transition with
// the configured delay model (DDM or CDM) and generates the fanout events,
// applying the inertial pair rule: a new event Ej that does not come after
// the pending previous event Ej-1 on the same input annihilates both
// (the pulse never crossed that input's threshold).
//
// Output-pulse annihilation: when the model reports a collapse (DDM's
// T <= T0), the new midswing crossing would not come after the previous
// one, or the CDM inertial window swallows the pulse, the previous output
// transition and the new one are both removed.  If part of the previous
// transition's fanout already consumed it, the engine instead emits a
// minimum-width pulse and lets the receiving inputs filter it (the paper's
// philosophy: filtering belongs to the inputs).
//
// Hot-path layout: the per-event cost is allocation-free, devirtualized and
// mostly sequential reads.
//   * All per-arc timing comes from the elaborated TimingGraph: gate
//     evaluation computes DDM/CDM delays by indexing a dense TimingArc
//     table (load already folded, eval_arc() inlined); the DelayModel is
//     the policy that elaborated the table.
//   * Arc blocks are interned: a gate whose arcs are bitwise identical to
//     an earlier gate's (same cell, same load, same policy) evaluates that
//     gate's arcs, so the loop touches only the distinct arcs (1 372 of
//     366 592 on perf_report's 500 x 200 layered design) instead of a
//     per-instance table far larger than the cache.  The remap is taken from the graph at
//     construction and at rebind(): a graph must not be mutated while a
//     simulator is bound to it.
//   * Gate functions are compiled to per-instance truth tables: a
//     packed input word is maintained incrementally (one XOR per event) and
//     the output is one shift -- no per-event input-array walk, no
//     `eval_cell` call.
//   * A flattened fanout table built at construction stores, per
//     (signal, fanout pin): the receiving pin and the precomputed threshold
//     crossing fractions VT/VDD -- so spawn_events() walks one contiguous
//     array with no threshold or cell lookups.  Each gate input is exactly
//     one entry of the table, and that entry's index (its fanout slot)
//     numbers the input's pending list: a transition's receiver lists sit
//     side by side, as its fanout entries do.
//   * A transition is one 48-byte record plus the suppressed pairs its
//     spawn recorded, chained through a recycled pool.  A chain is released
//     when the transition's first event fires (it can then never be
//     annihilated) and consumed when it is annihilated, so live chains are
//     bounded by circuit activity, not by stimulus length.  Annihilation
//     finds the transition's pending events through the per-slot pending
//     lists below: no second per-transition index.
//   * A signal's waveform history is the Transition::prev chain back from
//     its 8-byte head {newest surviving transition, count}; creating a
//     transition writes the head, annihilating the newest moves it back.
//     No per-signal list is kept, so an event writes no history beyond the
//     transition record itself.  histories() lays every chain out at once.
//   * The EventQueue owns the per-slot pending lists and the heads-only
//     heap over them (event_queue.hpp): O(1) pop-front and unlink, O(k)
//     ordered insert on resurrection, and the queue keeps each non-empty
//     list's head scheduled.  The simulator only decides: which event the
//     pair rule cancels, which events an annihilation removes, which ones
//     it resurrects.  Each event carries its input's slot, so firing or
//     cancelling it indexes its pending list directly.  The queue recycles
//     a fired or cancelled event's slot at once, so the kernel never holds
//     an EventId past the event's end: the trace and the suppressed pairs
//     name events by creation sequence.
//   * A gate record holds its output's fanout range, so an event that
//     reaches a gate prefetches the first fanout entry and its pending-list
//     ends before the gate is evaluated: when the output changes, the
//     spawn finds them in cache.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/base/ids.hpp"
#include "src/base/supervision.hpp"
#include "src/base/units.hpp"
#include "src/core/delay_model.hpp"
#include "src/core/event_queue.hpp"
#include "src/core/stats.hpp"
#include "src/core/stimulus.hpp"
#include "src/core/transition.hpp"
#include "src/netlist/netlist.hpp"
#include "src/timing/timing_graph.hpp"

namespace halotis {

namespace replay {
class TraceRecorder;
}  // namespace replay

/// Minimum output pulse width, used when a collapse cannot be executed
/// cleanly because the previous edge was already consumed downstream.
inline constexpr TimeNs kMinPulseWidth = 0.001;  // 1 ps

struct SimConfig {
  /// Simulation horizon; events after it stay unprocessed.
  TimeNs t_end = kNeverNs;
  /// Hard safety bound on processed events (oscillating feedback guard).
  std::uint64_t max_events = 100'000'000;
};

/// Why run() returned.
enum class StopReason { kQueueExhausted, kHorizonReached, kEventLimit };

struct RunResult {
  StopReason reason = StopReason::kQueueExhausted;
  TimeNs end_time = 0.0;
};

/// Every signal's surviving history at once, as one CSR over transition
/// ids: signal s owns ids[offsets[s], offsets[s + 1]), oldest first.  The
/// whole-waveform readers (the history hash, VCD export, activity, the
/// trace snapshot) walk it instead of one history() copy per signal.
struct SignalHistories {
  std::vector<std::uint32_t> offsets;  ///< num_signals + 1 prefix sums
  std::vector<TransitionId> ids;

  [[nodiscard]] std::span<const TransitionId> of(SignalId signal) const {
    const std::uint32_t begin = offsets[signal.value()];
    return std::span<const TransitionId>(ids).subspan(begin,
                                                     offsets[signal.value() + 1] - begin);
  }
};

class Simulator {
 public:
  /// `netlist` must outlive the simulator; `model` is copied.  Elaborates
  /// the netlist's TimingGraph under the model's policy internally.
  Simulator(const Netlist& netlist, const DelayModel& model, SimConfig config = {});

  /// Runs on an externally elaborated TimingGraph -- the shared-database
  /// path used by the fault campaign (one elaboration for every worker) and
  /// by SDF back-annotation (`halotis sim --sdf`).  `timing` must be built
  /// over this same `netlist` and must outlive the simulator; `model` is
  /// copied for reporting only.
  Simulator(const Netlist& netlist, const DelayModel& model, const TimingGraph& timing,
            SimConfig config = {});
  /// A temporary graph would dangle: bind it to a variable first.
  Simulator(const Netlist&, const DelayModel&, TimingGraph&&, SimConfig = {}) = delete;

  /// Sets initial values (steady state from the stimulus initial word) and
  /// schedules every stimulus edge.  Must be called exactly once per re-arm
  /// cycle (construction or reset()), before run().
  void apply_stimulus(const Stimulus& stimulus);

  /// Re-arms the simulator for another stimulus on the same netlist: clears
  /// every piece of dynamic state (queue, transitions, pair chains, histories,
  /// pending lists, stats, any injected fault) while keeping the static
  /// tables and the arenas' capacity, so a reset + apply_stimulus + run
  /// cycle is bit-identical to a freshly constructed Simulator but performs
  /// no per-cycle reallocation.  The fault-campaign engine's workers rely on
  /// this to recycle one Simulator across thousands of faulty runs.
  void reset();

  /// Injects a single stuck-at fault before the next apply_stimulus():
  /// every receiver of `signal` perceives the constant `value` for the whole
  /// run (steady-state initialization included) and transitions on `signal`
  /// generate no events -- exactly the observable behaviour of rewiring the
  /// line's receivers to a constant net, without copying the netlist or
  /// rebuilding the static tables.  The signal's own history
  /// still records its driver, which feeds nothing; a faulted primary
  /// *output* must be observed as the constant by the caller.  Cleared by
  /// reset().
  void inject_stuck_at(SignalId signal, bool value);

  /// Re-arms the simulator onto a *different* elaborated design: swaps in
  /// `netlist`/`model`/`timing` (same contract as the external-graph
  /// constructor), rebuilds the static tables, and reset()s -- bit-identical
  /// to constructing a fresh Simulator on the new design while keeping the
  /// arenas' capacity.  The daemon's per-worker simulator pool depends on
  /// this.  Rebinding onto the graph already bound is a plain reset() (the
  /// static tables are reused).  Detaches any supervisor and recorder: they
  /// are per-design configuration, re-attach after rebinding.
  void rebind(const Netlist& netlist, const DelayModel& model, const TimingGraph& timing,
              SimConfig config = {});

  /// Attaches a run supervisor (nullptr detaches).  The kernel then trips
  /// the event budget on the exact over-budget event and polls the
  /// deadline / cancellation / memory budgets every RunBudget::poll_events
  /// events,
  /// throwing RunError from run() when a limit trips; the simulator itself
  /// stays valid and inspectable (history, stats) at the stop point, which
  /// is bit-deterministic for the budget checks.  The memory budget charges
  /// transition_arena_bytes() + event_arena_bytes(): this run's records
  /// only, so a fresh, a reset() and a rebind()-ed simulator trip at the
  /// same event ordinal whatever they ran before.  `supervisor` must
  /// outlive the runs; survives reset() (it is configuration, not state).
  void supervise(const RunSupervisor* supervisor) {
    supervisor_ = supervisor;
    if (supervisor != nullptr) sup_countdown_ = sup_reload();
  }
  [[nodiscard]] const RunSupervisor* supervisor() const { return supervisor_; }

  /// Attaches a causal-trace recorder (nullptr detaches).
  /// Must be called before apply_stimulus(): the recorder captures every
  /// scheduling decision of exactly one apply_stimulus() + run() cycle.
  /// After run() returns, finish_recording() seals the trace for replay
  /// (src/replay/).  Recording another cycle needs a fresh record_into().
  void record_into(replay::TraceRecorder* recorder);
  /// Seals the attached recorder's trace: enumerates residual pending
  /// events, snapshots the surviving history and whether the stop condition
  /// leaves it replayable.
  /// `result` must be the RunResult of the recorded run() (not run_until():
  /// the trace horizon is the config horizon).
  void finish_recording(const RunResult& result);

  /// Runs until the queue empties, the horizon passes or the event limit
  /// trips.
  RunResult run();

  /// Runs until every event with time <= t_end has been processed (bounded
  /// by the config horizon and event limit).  Repeated calls with growing
  /// horizons advance the same run in segments -- the campaign engine's
  /// early-exit observation hook samples primary outputs between segments.
  RunResult run_until(TimeNs t_end);

  // ---- results --------------------------------------------------------------

  [[nodiscard]] TimeNs now() const { return now_; }
  [[nodiscard]] const SimStats& stats() const { return stats_; }
  [[nodiscard]] const Netlist& netlist() const { return *netlist_; }
  [[nodiscard]] const DelayModel& model() const { return model_; }
  /// The elaborated timing database the kernel evaluates.
  [[nodiscard]] const TimingGraph& timing() const { return *timing_; }

  /// Value of `signal` before any transition.
  [[nodiscard]] bool initial_value(SignalId signal) const;
  /// Scheduled driver value after all surviving transitions.
  [[nodiscard]] bool final_value(SignalId signal) const;
  /// Surviving transitions on `signal`, time-ordered (a copy of its chain).
  [[nodiscard]] std::vector<Transition> history(SignalId signal) const;
  /// Every signal's surviving history as one CSR: one pass over the
  /// transition arena, placed by the heads' counts.  A snapshot: it does not
  /// follow later runs, reset() or rebind().
  [[nodiscard]] SignalHistories histories() const;
  /// The newest surviving transition on `signal` (invalid when none): the
  /// head of its history chain, O(1).
  [[nodiscard]] TransitionId newest_transition(SignalId signal) const {
    return heads_.at(signal.value()).newest;
  }
  [[nodiscard]] const Transition& transition(TransitionId id) const {
    return transitions_[id.value()].tr;
  }
  /// Logic value of `signal` at time `t`, midswing-referenced -- identical
  /// to DigitalWaveform::value_at over the surviving history, but
  /// allocation-free (walks the chain back from the newest transition).
  /// Valid for any `t` not later than the horizon already simulated.
  [[nodiscard]] bool value_at(SignalId signal, TimeNs t) const;
  /// Number of surviving transitions (toggle count) on `signal`.
  [[nodiscard]] std::size_t toggle_count(SignalId signal) const;
  /// Perceived logic value at a gate input (for consistency checks).
  [[nodiscard]] bool perceived_value(const PinRef& pin) const;
  /// The `n` signals with the most transitions, most active first --
  /// the oscillation-diagnosis aid when run() stops on the event limit
  /// (combinational feedback loops show up at the top of this list).
  [[nodiscard]] std::vector<SignalId> most_active_signals(std::size_t n) const;

  /// Peak number of transitions holding a suppressed-pair chain at once
  /// (perf_report's bounded-memory metric): how large the reclaimable part
  /// of the transition bookkeeping ever got.
  [[nodiscard]] std::uint64_t peak_live_transitions() const { return peak_live_transitions_; }
  /// Transitions holding a suppressed-pair chain right now: still
  /// annihilatable (no event fired yet) with at least one pair to restore.
  [[nodiscard]] std::uint64_t live_transitions() const { return live_transitions_; }
  /// Bytes of transition records and suppressed-pair nodes this run has
  /// written (sizes, not the capacity an earlier run on a recycled
  /// simulator reserved).  Grows with run length.
  [[nodiscard]] std::uint64_t transition_arena_bytes() const;
  /// Bytes of event slots and heap slots at this run's high-water marks
  /// (see EventQueue::arena_bytes).
  [[nodiscard]] std::uint64_t event_arena_bytes() const { return queue_.arena_bytes(); }
  /// Arcs the kernel evaluates: the graph's arcs less the blocks interned
  /// onto an identical earlier gate's (see build_static_tables()).
  [[nodiscard]] std::size_t distinct_arcs() const { return distinct_arcs_; }
  /// Most events scheduled in the heap at once during this run (the heap
  /// high-water mark): at most one per gate input, since only each input's
  /// earliest pending event is scheduled.  Reset by reset() and rebind().
  [[nodiscard]] std::uint64_t peak_scheduled_events() const { return queue_.peak_size(); }

 private:
  // ---- static tables (built once in the constructor) ----------------------

  /// One receiving pin of a signal, with everything spawn_events() needs
  /// resolved: the receiving (gate, pin) and the precomputed crossing
  /// fractions (VT/VDD for rising ramps, 1 - VT/VDD for falling ones; read
  /// once from TimingGraph::threshold_fraction).  The entry's index in
  /// fanout_ is its slot: the receiving input's pending list.
  struct FanoutEntry {
    GateId gate;               ///< receiving gate
    std::uint16_t pin = 0;     ///< receiving input pin of `gate`
    double vt_frac = 0.5;      ///< rising crossing = t_start + tau * vt_frac;
                               ///< falling uses (1 - vt_frac), computed inline
  };
  static_assert(sizeof(FanoutEntry) == 16, "FanoutEntry: four to a cache line");

  /// One per-gate record holding both the static tables (the output's
  /// fanout slots, interned TimingArc block, the boolean function compiled
  /// to a truth table indexed by the packed input word; fan-in <= 4 by
  /// CellKind) and the dynamic state (packed perceived-input word,
  /// scheduled output value, the newest surviving output transition's
  /// midswing instant) -- 32 bytes, so an event touches one cache line of
  /// gate state instead of three parallel arrays and never loads the
  /// previous output transition.
  struct GateRec {
    TimeNs last_out50 = 0.0;         ///< dynamic: the output head's t50(), when valid
    std::uint32_t fanout_begin = 0;  ///< first fanout slot of `output`
    /// First arc of the first gate whose arc block is bitwise identical to
    /// this gate's (the graph's own arc_base when none precedes it).
    std::uint32_t arc_base = 0;
    SignalId output;
    std::uint32_t fanout_end = 0;    ///< one past the last fanout slot of `output`
    std::uint16_t truth = 0;         ///< bit w = output for input word w
    std::uint8_t num_inputs = 0;
    std::uint8_t word = 0;           ///< dynamic: packed perceived-input word
    bool output_value = false;       ///< dynamic: scheduled output value
  };
  static_assert(sizeof(GateRec) == 32, "GateRec: half a cache line");

  /// A signal's history head: the newest surviving transition (its chain
  /// runs back through Transition::prev) and the chain's length.
  struct SignalHead {
    TransitionId newest;
    std::uint32_t count = 0;
  };
  static_assert(sizeof(SignalHead) == 8, "SignalHead: eight to a cache line");

  // ---- dynamic state -------------------------------------------------------

  /// Snapshot allowing resurrection of a pair-cancelled event.
  struct SuppressedPair {
    std::uint32_t slot = 0;      ///< the receiving input's fanout slot (pending list)
    TransitionId partner_cause;  ///< transition whose event was deleted
    EventSeq partner_event = 0;  ///< the deleted event's creation sequence (trace id)
    TimeNs partner_time = 0.0;
  };

  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  /// Per-transition record: the waveform POD plus the chain of pairs its
  /// spawn cancelled.  Grows with the history (that is the waveform
  /// output, chained per signal through tr.prev); the chain nodes live in
  /// the recycled pair_pool_.
  struct TransitionRec {
    Transition tr;
    std::uint32_t sup_head = kNil;  ///< suppressed-pair chain, append order
    std::uint32_t sup_tail = kNil;
    std::uint8_t fired_any = 0;     ///< any spawned event fired => never annihilatable
  };
  static_assert(sizeof(TransitionRec) == 48, "TransitionRec: the history's record size");

  struct PairNode {
    SuppressedPair pair;
    std::uint32_t next = kNil;
  };

  RunResult run_impl(TimeNs horizon);
  /// Appends a transition on `signal` behind its history head.
  TransitionId create_transition(SignalId signal, Edge edge, TimeNs t_start, TimeNs tau);
  /// Generates a fresh transition's events on the fanout slots
  /// [first, last) of its signal, applying the pair rule.
  void spawn_events(TransitionId tr_id, std::uint32_t first, std::uint32_t last);
  void handle_event(const Event& ev);
  void schedule_output(GateId gate_id, int pin, const Event& ev, bool new_output);
  [[nodiscard]] bool can_annihilate(TransitionId tr_id) const;
  void annihilate(GateId gate_id, TransitionId tr_id);

  // -- suppressed-pair chains ------------------------------------------------
  void append_pair(TransitionRec& rec, const SuppressedPair& pair);
  /// Recycles `rec`'s (non-empty) suppressed-pair chain.  With `resurrect`
  /// set, each non-cancelled partner's deleted event is restored first (the
  /// output-pulse annihilation path).
  void consume_pair_chain(TransitionRec& rec, bool resurrect);

  /// Shared table-build step of both constructors.
  void build_static_tables();

  const Netlist* netlist_;
  DelayModel model_;
  SimConfig config_;

  // static tables
  std::unique_ptr<TimingGraph> owned_timing_;  ///< set by the internal-build ctor
  const TimingGraph* timing_ = nullptr;
  const TimingArc* arcs_ = nullptr;  ///< timing_->arcs().data(), cached
  std::vector<GateRec> gates_;  ///< static + dynamic per-gate record
  std::size_t distinct_arcs_ = 0;            // arcs in non-interned blocks
  std::vector<FanoutEntry> fanout_;          // flattened over signals; index = slot
  std::vector<std::uint32_t> fanout_base_;   // signal -> first slot; size+1
  std::vector<GateId> topo_order_;           // cached: steady-state sweep order
  int depth_ = 0;                            // cached: arena reserve estimate
  bool has_cycles_ = false;                  // cached: steady-state sweep bound

  // dynamic state
  EventQueue queue_;  ///< events, per-slot pending lists, heads-only heap
  std::vector<TransitionRec> transitions_;
  std::vector<PairNode> pair_pool_;
  std::uint32_t pair_free_ = kNil;
  std::uint64_t live_transitions_ = 0;  ///< transitions holding a pair chain
  std::uint64_t peak_live_transitions_ = 0;
  /// Per signal, its history head: create_transition() pushes onto the
  /// chain, annihilate() pops the newest, so the chain never holds a
  /// cancelled transition.
  std::vector<SignalHead> heads_;
  std::vector<bool> initial_values_;
  TimeNs now_ = 0.0;
  bool stimulus_applied_ = false;
  const RunSupervisor* supervisor_ = nullptr;  ///< optional; see supervise()
  std::uint32_t sup_countdown_ = 0;  ///< events until the next slow check
  replay::TraceRecorder* recorder_ = nullptr;  ///< optional; see record_into()

  /// Events until the next supervision slow path: the poll cadence, pulled
  /// in so the countdown expires exactly on the first over-budget event
  /// ordinal.  The hot path then only decrements -- the event-budget
  /// compare lives in the slow path without losing the bit-exact stop
  /// point.  Requires stats_.events_processed <= max_events (the slow path
  /// has already thrown otherwise).
  [[nodiscard]] std::uint32_t sup_reload() const {
    std::uint64_t steps = supervisor_->budget().poll_events;
    const std::uint64_t max_events = supervisor_->budget().max_events;
    if (max_events != 0) {
      const std::uint64_t remaining = max_events - stats_.events_processed;
      if (remaining < steps) steps = remaining + 1;
    }
    return static_cast<std::uint32_t>(steps);
  }
  SignalId fault_signal_;        ///< injected stuck-at site (invalid: none)
  bool fault_value_ = false;
  SimStats stats_;
};

}  // namespace halotis
