#include "src/core/simulator.hpp"

#include <algorithm>
#include <new>
#include <string_view>

#include "src/base/check.hpp"
#include "src/base/failpoint.hpp"
#include "src/base/name_index.hpp"
#include "src/replay/trace.hpp"

namespace halotis {

Simulator::Simulator(const Netlist& netlist, const DelayModel& model, SimConfig config)
    : netlist_(&netlist), model_(model), config_(config) {
  owned_timing_ =
      std::make_unique<TimingGraph>(TimingGraph::build(netlist, model.timing_policy()));
  timing_ = owned_timing_.get();
  build_static_tables();
}

Simulator::Simulator(const Netlist& netlist, const DelayModel& model,
                     const TimingGraph& timing, SimConfig config)
    : netlist_(&netlist), model_(model), config_(config), timing_(&timing) {
  require(&timing.netlist() == &netlist,
          "Simulator: TimingGraph was elaborated over a different netlist");
  build_static_tables();
}

void Simulator::rebind(const Netlist& netlist, const DelayModel& model,
                       const TimingGraph& timing, SimConfig config) {
  require(&timing.netlist() == &netlist,
          "Simulator::rebind(): TimingGraph was elaborated over a different netlist");
  const bool same_tables = netlist_ == &netlist && timing_ == &timing;
  netlist_ = &netlist;
  model_ = model;
  config_ = config;
  supervisor_ = nullptr;
  recorder_ = nullptr;
  if (!same_tables) {
    owned_timing_.reset();
    timing_ = &timing;
    build_static_tables();
  }
  reset();
}

void Simulator::build_static_tables() {
  netlist_->check();
  arcs_ = timing_->arcs().data();

  const std::size_t num_signals = netlist_->num_signals();
  const std::size_t num_gates = netlist_->num_gates();
  heads_.assign(num_signals, SignalHead{});
  initial_values_.assign(num_signals, false);
  gates_.assign(num_gates, GateRec{});

  // Arc-block interning: each gate evaluates the arcs of the first gate
  // whose arc block is bitwise identical to its own (TimingArc has no
  // indeterminate padding bytes), found by content through a NameIndex.
  const auto arc_block = [this](std::uint32_t g) {
    const GateId gid{g};
    return std::string_view(reinterpret_cast<const char*>(arcs_ + timing_->arc_base(gid)),
                            2 * netlist_->gate(gid).inputs.size() * sizeof(TimingArc));
  };
  NameIndex blocks;
  distinct_arcs_ = 0;
  // A gate's boolean function depends on its cell only: one truth table per
  // cell, compiled on first use.
  std::vector<std::int32_t> cell_truth(netlist_->library().size(), -1);

  for (std::size_t g = 0; g < num_gates; ++g) {
    const GateId gid{static_cast<GateId::underlying_type>(g)};
    const Gate& gate = netlist_->gate(gid);
    GateRec& gi = gates_[g];
    gi.output = gate.output;
    const std::uint32_t twin = blocks.insert(arc_block(gid.value()), gid.value(), arc_block);
    if (twin == gid.value()) distinct_arcs_ += 2 * gate.inputs.size();
    gi.arc_base = timing_->arc_base(GateId{twin});
    gi.num_inputs = static_cast<std::uint8_t>(gate.inputs.size());

    std::int32_t& truth = cell_truth[gate.cell.value()];
    if (truth < 0) truth = truth_table(netlist_->cell_of(gid).kind);
    gi.truth = static_cast<std::uint16_t>(truth);
  }

  // Flattened fanout table: resolve, once, everything spawn_events() needs
  // per (signal, receiving pin) -- the receiving pin and its TimingGraph
  // threshold crossing fractions.
  std::size_t total_fanout = 0;
  for (std::size_t s = 0; s < num_signals; ++s) {
    total_fanout +=
        netlist_->signal(SignalId{static_cast<SignalId::underlying_type>(s)}).fanout.size();
  }
  fanout_.clear();  // rebind() rebuilds over the new design's fanout
  fanout_.reserve(total_fanout);
  fanout_base_.resize(num_signals + 1);
  for (std::size_t s = 0; s < num_signals; ++s) {
    fanout_base_[s] = static_cast<std::uint32_t>(fanout_.size());
    const Signal& sig = netlist_->signal(SignalId{static_cast<SignalId::underlying_type>(s)});
    for (const PinRef& target : sig.fanout) {
      FanoutEntry entry;
      entry.gate = target.gate;
      entry.pin = static_cast<std::uint16_t>(target.pin);
      entry.vt_frac = timing_->threshold_fraction(target.gate, target.pin);
      fanout_.push_back(entry);
    }
  }
  fanout_base_[num_signals] = static_cast<std::uint32_t>(fanout_.size());
  for (GateRec& gi : gates_) {
    gi.fanout_begin = fanout_base_[gi.output.value()];
    gi.fanout_end = fanout_base_[gi.output.value() + 1];
  }

  // A fanout slot numbers its input's pending list, so the slots must cover
  // every gate input exactly once (Netlist::check() verifies only that each
  // fanout entry points back at its signal).
  std::vector<std::uint8_t> covered(num_gates, 0);  // pin bit mask; fan-in <= 4
  for (const FanoutEntry& fo : fanout_) {
    const auto bit = static_cast<std::uint8_t>(1u << fo.pin);
    require((covered[fo.gate.value()] & bit) == 0,
            "Simulator: a gate input appears twice in the fanout table");
    covered[fo.gate.value()] |= bit;
  }
  for (std::size_t g = 0; g < num_gates; ++g) {
    require(covered[g] == (1u << gates_[g].num_inputs) - 1u,
            "Simulator: a gate input is missing from its signal's fanout");
  }
  queue_.clear(fanout_.size());  // one pending list per slot

  // Cached once for the reset()/re-arm path: apply_stimulus runs once per
  // fault in a campaign, and these are all O(gates + signals) walks with
  // allocations.
  Netlist::Levelization levels = netlist_->levelize();
  topo_order_ = std::move(levels.order);
  depth_ = levels.depth;
  has_cycles_ = levels.has_cycles;
}

void Simulator::reset() {
  queue_.clear(queue_.num_inputs());
  transitions_.clear();
  pair_pool_.clear();
  pair_free_ = kNil;
  live_transitions_ = 0;
  peak_live_transitions_ = 0;
  heads_.assign(heads_.size(), SignalHead{});
  initial_values_.assign(initial_values_.size(), false);
  for (GateRec& gate : gates_) {
    gate.word = 0;
    gate.output_value = false;
    gate.last_out50 = 0.0;
  }
  now_ = 0.0;
  stimulus_applied_ = false;
  fault_signal_ = SignalId{};
  fault_value_ = false;
  stats_ = SimStats{};
  // Re-prime the slow-poll countdown so every run polls on the same event
  // ordinals regardless of what previous runs consumed.
  if (supervisor_ != nullptr) sup_countdown_ = sup_reload();
}

void Simulator::inject_stuck_at(SignalId signal, bool value) {
  require(!stimulus_applied_,
          "Simulator::inject_stuck_at(): must be called before apply_stimulus()");
  require(signal.valid() && signal.value() < netlist_->num_signals(),
          "Simulator::inject_stuck_at(): signal out of range");
  fault_signal_ = signal;
  fault_value_ = value;
}

void Simulator::apply_stimulus(const Stimulus& stimulus) {
  require(!stimulus_applied_, "Simulator::apply_stimulus(): stimulus already applied");
  stimulus_applied_ = true;

  // 1. Steady-state initialization from the stimulus initial word, with the
  // injected fault (if any) pinned so downstream logic settles around it.
  // Netlist::settle() over the cached topological order: the same fixpoint
  // as Netlist::steady_state(), but the campaign's per-fault re-arm pays no
  // graph walk.
  const auto pis = netlist_->primary_inputs();
  initial_values_.assign(netlist_->num_signals(), false);
  for (const SignalId pi : pis) initial_values_[pi.value()] = stimulus.initial_value(pi);
  if (fault_signal_.valid()) initial_values_[fault_signal_.value()] = fault_value_;
  const int max_sweeps = has_cycles_ ? depth_ + static_cast<int>(gates_.size()) + 2 : 1;
  (void)netlist_->settle(topo_order_, max_sweeps, fault_signal_, initial_values_);

  for (std::size_t g = 0; g < gates_.size(); ++g) {
    const Gate& gate = netlist_->gate(GateId{static_cast<GateId::underlying_type>(g)});
    std::uint8_t word = 0;
    for (std::size_t pin = 0; pin < gate.inputs.size(); ++pin) {
      if (initial_values_[gate.inputs[pin].value()]) {
        word |= static_cast<std::uint8_t>(1u << pin);
      }
    }
    gates_[g].word = word;
    gates_[g].output_value = initial_values_[gate.output.value()];
  }

  // 2. Pre-size the transition arena from the stimulus and netlist so the
  // run does not pay growth reallocations mid-flight.  The estimate is a
  // heuristic (edges ripple through at most `depth` gate levels), capped so
  // a huge stimulus cannot demand a huge up-front allocation.  The event
  // arena needs no estimate: it recycles slots and holds only the pending
  // high-water mark.
  std::size_t num_edges = 0;
  for (SignalId pi : pis) num_edges += stimulus.edges(pi).size();
  {
    constexpr std::size_t kReserveCap = std::size_t{1} << 21;
    const auto depth = static_cast<std::size_t>(std::max(depth_, 1));
    const std::size_t est_transitions = std::min(64 + num_edges * (depth + 1), kReserveCap);
    // Deterministic OOM injection: the transition-arena pre-reserve is the
    // simulator's one big up-front allocation (transitions are the waveform
    // history and grow with the run), so the fail-point models allocation
    // failure exactly where a constrained host would actually hit it.
    if (failpoint("alloc.simulator.arena")) throw std::bad_alloc();
    transitions_.reserve(est_transitions);
  }

  // 3. Schedule every stimulus edge as a transition on its primary input.
  for (SignalId pi : pis) {
    bool value = stimulus.initial_value(pi);
    for (const StimulusEdge& edge : stimulus.edges(pi)) {
      if (edge.value == value) continue;
      value = edge.value;
      const TimeNs tau = edge.tau > 0.0 ? edge.tau : stimulus.default_slew();
      const Edge sense = edge.value ? Edge::kRise : Edge::kFall;
      const TimeNs t_start = edge.time - 0.5 * tau;
      const TransitionId id = create_transition(pi, sense, t_start, tau);
      if (recorder_ != nullptr) recorder_->on_stim_transition(id, t_start, tau);
      spawn_events(id, fanout_base_[pi.value()], fanout_base_[pi.value() + 1]);
    }
  }
}

TransitionId Simulator::create_transition(SignalId signal, Edge edge, TimeNs t_start,
                                          TimeNs tau) {
  require(tau > 0.0, "Simulator: transition tau must be positive");
  const TransitionId id{static_cast<TransitionId::underlying_type>(transitions_.size())};
  SignalHead& head = heads_[signal.value()];
  TransitionRec rec;
  rec.tr.signal = signal;
  rec.tr.edge = edge;
  rec.tr.t_start = t_start;
  rec.tr.tau = tau;
  rec.tr.prev = head.newest;
  transitions_.push_back(rec);
  head.newest = id;
  ++head.count;
  ++stats_.transitions_created;
  return id;
}

void Simulator::spawn_events(TransitionId tr_id, std::uint32_t first, std::uint32_t last) {
  // The loop never grows transitions_, so one lookup serves every fanout;
  // the POD copy keeps the loop's arena writes from forcing reloads of it.
  TransitionRec& rec = transitions_[tr_id.value()];
  const Transition tr = rec.tr;
  // A transition on the stuck-at site is gagged: receivers perceive the
  // injected constant, so the line's ramps generate no events (rewiring the
  // receivers to a constant net, without the netlist copy).
  if (tr.signal == fault_signal_) return;
  const bool rising = tr.edge == Edge::kRise;
  for (std::uint32_t slot = first; slot < last; ++slot) {
    const FanoutEntry& fo = fanout_[slot];
    const PinRef target{fo.gate, fo.pin};
    const double frac = rising ? fo.vt_frac : 1.0 - fo.vt_frac;
    TimeNs ej = tr.t_start + tr.tau * frac;
    const EventId prev_tail = queue_.tail(slot);

    if (prev_tail.valid()) {
      const Event& prev_ev = queue_.event(prev_tail);
      if (ej <= prev_ev.time) {
        // Paper Fig. 4: the pulse never crosses this input's threshold.
        // Delete Ej-1, do not insert Ej.
        SuppressedPair pair;
        pair.slot = slot;
        pair.partner_cause = prev_ev.transition;
        pair.partner_event = queue_.seq(prev_tail);
        pair.partner_time = prev_ev.time;
        append_pair(rec, pair);
        const bool was_head = queue_.cancel(prev_tail);
        ++stats_.events_cancelled;
        if (recorder_ != nullptr) {
          recorder_->on_pair_cancel(pair.partner_event, tr_id, frac, slot, was_head);
        }
        ++stats_.pair_cancellations;
        ++stats_.events_suppressed;
        continue;
      }
    }
    if (ej < now_) ej = now_;  // causality clamp for extreme slope ratios
    const EventId id = queue_.append(slot, ej, tr_id, target);
    if (recorder_ != nullptr) {
      recorder_->on_spawn(queue_.seq(id), tr_id, frac, queue_.seq(prev_tail), slot);
    }
    ++stats_.events_created;
  }
}

RunResult Simulator::run() { return run_impl(config_.t_end); }

RunResult Simulator::run_until(TimeNs t_end) {
  return run_impl(std::min(t_end, config_.t_end));
}

void Simulator::record_into(replay::TraceRecorder* recorder) {
  require(recorder == nullptr || !stimulus_applied_,
          "Simulator::record_into(): attach the recorder before apply_stimulus()");
  recorder_ = recorder;
  if (recorder != nullptr) recorder->clear();
}

void Simulator::finish_recording(const RunResult& result) {
  require(recorder_ != nullptr, "Simulator::finish_recording(): no recorder attached");
  // Deterministic trace-I/O failure injection: sealing is the moment the
  // trace becomes an artifact replay sessions depend on.
  failpoint_throw("replay.trace");

  // Residual pending events, in creation order: the replayer verifies each
  // stays beyond the horizon under perturbation.
  std::vector<EventSeq> residual;
  for (std::uint32_t in = 0; in < queue_.num_inputs(); ++in) {
    for (EventId e = queue_.head(in); e.valid(); e = queue_.next(e)) {
      residual.push_back(queue_.seq(e));
    }
  }
  std::sort(residual.begin(), residual.end());
  for (const EventSeq seq : residual) recorder_->on_residual(seq);

  // Surviving-history snapshot, identical membership to history().
  const SignalHistories all = histories();
  std::vector<std::vector<replay::TraceHistoryEntry>> history(heads_.size());
  for (std::size_t s = 0; s < heads_.size(); ++s) {
    const auto line = all.of(SignalId{static_cast<SignalId::underlying_type>(s)});
    history[s].reserve(line.size());
    for (const TransitionId id : line) {
      const Transition& tr = transitions_[id.value()].tr;
      history[s].push_back(replay::TraceHistoryEntry{
          id.value(), static_cast<std::uint8_t>(tr.edge == Edge::kRise ? 1 : 0)});
    }
  }
  recorder_->seal(std::move(history), transitions_.size(), queue_.created_count(),
                  timing_->arcs().size(), queue_.num_inputs(), gates_.size(),
                  config_.t_end,
                  /*replayable=*/result.reason != StopReason::kEventLimit);
}

RunResult Simulator::run_impl(TimeNs horizon) {
  require(stimulus_applied_, "Simulator::run(): apply_stimulus() first");
  RunResult result;
  while (!queue_.empty()) {
    const EventId eid = queue_.peek();
    const Event ev = queue_.event(eid);  // copy: pop() recycles the slot
    // The two random-access records this event will touch; issue the loads
    // early so the pop/list maintenance below covers their latency.
    __builtin_prefetch(&transitions_[ev.transition.value()], 0);
    __builtin_prefetch(&gates_[ev.target.gate.value()], 1);
    if (ev.time > horizon) {
      result.reason = StopReason::kHorizonReached;
      result.end_time = now_;
      return result;
    }
    if (stats_.events_processed >= config_.max_events) {
      result.reason = StopReason::kEventLimit;
      result.end_time = now_;
      return result;
    }
    const EventSeq fired = queue_.pop();
    now_ = std::max(now_, ev.time);
    ++stats_.events_processed;
    if (supervisor_ != nullptr && --sup_countdown_ == 0) {
      // Slow path, reached every poll_events events AND exactly on the
      // first over-budget event ordinal (sup_reload() pulls the countdown
      // in), so the event-budget stop point stays bit-deterministic while
      // the hot path only decrements.
      supervisor_->check_events(stats_.events_processed, "simulator");
      supervisor_->check_poll(transition_arena_bytes() + event_arena_bytes(), "simulator");
      sup_countdown_ = sup_reload();
    }

    // Once any spawned event fires the causing transition can never be
    // annihilated, so its suppressed pairs can never resurrect anything.
    TransitionRec& cause = transitions_[ev.transition.value()];
    cause.fired_any = 1;
    if (cause.sup_head != kNil) consume_pair_chain(cause, /*resurrect=*/false);

    if (recorder_ != nullptr) {
      recorder_->on_fire(fired, ev.input, ev.target.gate.value());
    }
    handle_event(ev);
  }
  result.reason = StopReason::kQueueExhausted;
  result.end_time = now_;
  return result;
}

void Simulator::handle_event(const Event& ev) {
  const TransitionRec& cause = transitions_[ev.transition.value()];
  debug_ensure(!cause.tr.cancelled,
               "Simulator: fired event belongs to a cancelled transition");

  const std::size_t g = ev.target.gate.value();
  GateRec& gi = gates_[g];
  // Should the output change, spawn_events() reads the output's first
  // fanout entry and its pending-list ends: scattered over a large design,
  // so start their loads before the evaluation and delay computation.
  __builtin_prefetch(fanout_.data() + gi.fanout_begin);
  queue_.prefetch_list(gi.fanout_begin);
  const auto pin = static_cast<std::uint32_t>(ev.target.pin);
  const std::uint8_t bit = static_cast<std::uint8_t>(1u << pin);
  const std::uint8_t old_word = gi.word;
  const bool new_value = cause.tr.final_value();
  if (((old_word >> pin) & 1u) == static_cast<unsigned>(new_value)) {
    // Can only happen after a resurrected event re-delivered a level the
    // input already holds; harmless.
    return;
  }
  // The packed perceived-input word is the whole input state; the compiled
  // truth table turns gate evaluation into one shift.
  const std::uint8_t word = old_word ^ bit;
  gi.word = word;

  ++stats_.gate_evaluations;
  const bool out = ((gi.truth >> word) & 1u) != 0;
  if (out == gi.output_value) return;
  schedule_output(ev.target.gate, ev.target.pin, ev, out);
}

void Simulator::schedule_output(GateId gate_id, int pin, const Event& ev, bool new_output) {
  GateRec& gate = gates_[gate_id.value()];
  // Only two fields of the causing transition matter here; read them before
  // any arena mutation instead of copying the whole record.
  const TimeNs tau_in = transitions_[ev.transition.value()].tr.tau;
  const TimeNs in50 = transitions_[ev.transition.value()].tr.t50();

  const TransitionId prev_id = heads_[gate.output.value()].newest;
  const bool has_prev = prev_id.valid();
  const TimeNs prev50 = has_prev ? gate.last_out50 : 0.0;

  // Devirtualized delay computation: index the (interned) elaborated
  // TimingArc of (gate, pin, out-edge) -- the load is already folded in --
  // and evaluate it inline.  This is the whole delay model on the hot path.
  const std::uint32_t arc_offset =
      2u * static_cast<std::uint32_t>(pin) + (new_output ? 0u : 1u);
  const ArcDelay delay =
      eval_arc(arcs_[gate.arc_base + arc_offset], tau_in, ev.time, has_prev, prev50);
  // The trace names the graph's own arc, not the interned twin.
  const auto graph_arc = [&] { return timing_->arc_base(gate_id) + arc_offset; };
  TimeNs t_out50 = in50 + delay.tp;

  bool collapse = false;
  std::uint8_t rflags = has_prev ? replay::kOpHasPrev : 0;
  if (delay.filtered) {
    collapse = true;
    rflags |= replay::kOpFiltered;
    ++stats_.ddm_collapses;
  }
  if (has_prev) {
    if (!collapse && t_out50 <= prev50 + kMinPulseWidth) {
      collapse = true;  // ordering collapse: the pulse has no width
      rflags |= replay::kOpOrdCollapse;
    }
    if (!collapse && delay.inertial_window > 0.0 &&
        (t_out50 - prev50) < delay.inertial_window) {
      collapse = true;  // CDM classical inertial filtering
      rflags |= replay::kOpInertial;
      ++stats_.cdm_inertial_filtered;
    }
  }

  if (collapse) {
    ensure(has_prev, "Simulator: collapse without a previous output transition");
    if (can_annihilate(prev_id)) {
      if (recorder_ != nullptr) {
        // The gate-eval op precedes the annihilation's cancel/resurrect ops.
        recorder_->on_gate_transition(replay::kNone, graph_arc(), ev.transition,
                                      prev_id.value(),
                                      rflags | replay::kOpAnnihilated);
      }
      annihilate(gate_id, prev_id);
      gate.output_value = new_output;  // back to the pre-pulse value
      return;
    }
    // Part of the fanout already consumed the previous edge: emit a
    // minimum-width pulse instead and let the receiving inputs filter it.
    t_out50 = prev50 + kMinPulseWidth;
    rflags |= replay::kOpClamped;
    ++stats_.clamped_pulses;
  }

  const Edge out_edge = new_output ? Edge::kRise : Edge::kFall;
  const TimeNs tau_out = std::max(delay.tau_out, kMinPulseWidth);
  const TransitionId id =
      create_transition(gate.output, out_edge, t_out50 - 0.5 * tau_out, tau_out);
  if (recorder_ != nullptr) {
    recorder_->on_gate_transition(id.value(), graph_arc(), ev.transition,
                                  has_prev ? prev_id.value() : replay::kNone, rflags);
  }
  gate.last_out50 = transitions_[id.value()].tr.t50();
  gate.output_value = new_output;
  spawn_events(id, gate.fanout_begin, gate.fanout_end);
}

bool Simulator::can_annihilate(TransitionId tr_id) const {
  return transitions_[tr_id.value()].fired_any == 0;
}

void Simulator::annihilate(GateId gate_id, TransitionId tr_id) {
  TransitionRec& rec = transitions_[tr_id.value()];
  ensure(!rec.tr.cancelled, "Simulator::annihilate(): transition already cancelled");

  // Remove the transition's still-pending fanout events.  Each targets a
  // fanout slot of its line, at most one per slot, and a slot's list holds
  // only that line's events.
  GateRec& gate = gates_[gate_id.value()];
  for (std::uint32_t slot = gate.fanout_begin; slot < gate.fanout_end; ++slot) {
    // The transition is its line's latest, so its event is normally the
    // tail; a resurrected one may sit further up the list.
    EventId mine;
    for (EventId e = queue_.tail(slot); e.valid(); e = queue_.prev(e)) {
      if (queue_.event(e).transition != tr_id) continue;
      debug_ensure(!mine.valid(),
                   "Simulator::annihilate(): two pending events of one transition on an input");
      mine = e;
    }
    if (!mine.valid()) continue;
    const EventSeq seq = queue_.seq(mine);
    const bool was_head = queue_.cancel(mine);
    ++stats_.events_cancelled;
    if (recorder_ != nullptr) recorder_->on_cancel(seq, slot, was_head);
  }

  // The annihilated pulse never existed at the output, so pair
  // cancellations it performed at spawn time were premature: the partner
  // events (from the still-live preceding transitions) must be restored.
  if (rec.sup_head != kNil) consume_pair_chain(rec, /*resurrect=*/true);

  rec.tr.cancelled = true;
  SignalHead& head = heads_[rec.tr.signal.value()];
  ensure(head.newest == tr_id,
         "Simulator::annihilate(): not the most recent transition on the line");
  head.newest = rec.tr.prev;
  --head.count;
  gate.last_out50 = rec.tr.prev.valid() ? transitions_[rec.tr.prev.value()].tr.t50() : 0.0;
  ++stats_.transitions_annihilated;
  ++stats_.annihilations;
}

// ---- suppressed-pair chains -------------------------------------------------

void Simulator::append_pair(TransitionRec& rec, const SuppressedPair& pair) {
  std::uint32_t n;
  if (pair_free_ != kNil) {
    n = pair_free_;
    pair_free_ = pair_pool_[n].next;
    pair_pool_[n] = PairNode{pair, kNil};
  } else {
    n = static_cast<std::uint32_t>(pair_pool_.size());
    pair_pool_.push_back(PairNode{pair, kNil});
  }
  if (rec.sup_tail == kNil) {
    rec.sup_head = n;
    ++live_transitions_;
    peak_live_transitions_ = std::max(peak_live_transitions_, live_transitions_);
  } else {
    pair_pool_[rec.sup_tail].next = n;
  }
  rec.sup_tail = n;
}

void Simulator::consume_pair_chain(TransitionRec& rec, bool resurrect) {
  std::uint32_t n = rec.sup_head;
  rec.sup_head = rec.sup_tail = kNil;
  debug_ensure(live_transitions_ > 0, "Simulator: live-transition accounting out of sync");
  --live_transitions_;
  while (n != kNil) {
    const PairNode node = pair_pool_[n];  // copy before recycling the slot
    pair_pool_[n].next = pair_free_;
    pair_free_ = n;
    n = node.next;

    const TransitionId partner = node.pair.partner_cause;
    if (!resurrect || transitions_[partner.value()].tr.cancelled) continue;
    const TimeNs when = std::max(node.pair.partner_time, now_);
    const std::uint32_t slot = node.pair.slot;
    const FanoutEntry& fo = fanout_[slot];
    const EventId id = queue_.insert_sorted(slot, when, partner, PinRef{fo.gate, fo.pin});
    ++stats_.events_created;
    ++stats_.events_resurrected;
    if (recorder_ != nullptr) {
      recorder_->on_resurrect(queue_.seq(id), node.pair.partner_event,
                              queue_.seq(queue_.prev(id)), queue_.seq(queue_.next(id)),
                              slot);
    }
  }
}

// ---- results ----------------------------------------------------------------

bool Simulator::initial_value(SignalId signal) const {
  return initial_values_.at(signal.value());
}

bool Simulator::final_value(SignalId signal) const {
  const TransitionId newest = heads_.at(signal.value()).newest;
  if (!newest.valid()) return initial_values_[signal.value()];
  return transitions_[newest.value()].tr.final_value();
}

std::vector<Transition> Simulator::history(SignalId signal) const {
  const SignalHead& head = heads_.at(signal.value());
  std::vector<Transition> out(head.count);
  TransitionId id = head.newest;
  for (std::size_t k = out.size(); k-- > 0;) {
    out[k] = transitions_[id.value()].tr;
    id = out[k].prev;
  }
  return out;
}

SignalHistories Simulator::histories() const {
  // offsets[s + 1] starts as signal s's first position and serves as its
  // cursor: after the placing pass it is one past s's last, as a CSR wants.
  SignalHistories out;
  out.offsets.resize(heads_.size() + 1);
  std::uint32_t total = 0;
  for (std::size_t s = 0; s < heads_.size(); ++s) {
    out.offsets[s + 1] = total;
    total += heads_[s].count;
  }
  out.ids.resize(total);
  // Creation order is chain order, so one forward pass places each
  // signal's surviving transitions oldest first.
  for (std::size_t t = 0; t < transitions_.size(); ++t) {
    const Transition& tr = transitions_[t].tr;
    if (tr.cancelled) continue;
    out.ids[out.offsets[tr.signal.value() + 1]++] =
        TransitionId{static_cast<TransitionId::underlying_type>(t)};
  }
  return out;
}

bool Simulator::value_at(SignalId signal, TimeNs t) const {
  for (TransitionId id = heads_.at(signal.value()).newest; id.valid();) {
    const Transition& tr = transitions_[id.value()].tr;
    if (tr.t50() <= t) return tr.final_value();
    id = tr.prev;
  }
  return initial_values_[signal.value()];
}

std::size_t Simulator::toggle_count(SignalId signal) const {
  return heads_.at(signal.value()).count;
}

bool Simulator::perceived_value(const PinRef& pin) const {
  require(pin.gate.valid() && pin.gate.value() < gates_.size(),
          "Simulator::perceived_value(): gate out of range");
  const GateRec& gi = gates_[pin.gate.value()];
  require(pin.pin >= 0 && pin.pin < static_cast<int>(gi.num_inputs),
          "Simulator::perceived_value(): pin out of range");
  return ((gi.word >> static_cast<unsigned>(pin.pin)) & 1u) != 0;
}

std::uint64_t Simulator::transition_arena_bytes() const {
  // The pair pool recycles nodes through a free list, so its size is this
  // run's high-water mark; transitions are never freed within a run.
  return transitions_.size() * sizeof(TransitionRec) + pair_pool_.size() * sizeof(PairNode);
}

std::vector<SignalId> Simulator::most_active_signals(std::size_t n) const {
  std::vector<SignalId> ids;
  ids.reserve(heads_.size());
  for (std::size_t s = 0; s < heads_.size(); ++s) {
    ids.push_back(SignalId{static_cast<SignalId::underlying_type>(s)});
  }
  std::sort(ids.begin(), ids.end(), [this](SignalId a, SignalId b) {
    const auto ta = heads_[a.value()].count;
    const auto tb = heads_[b.value()].count;
    return ta != tb ? ta > tb : a < b;
  });
  if (ids.size() > n) ids.resize(n);
  return ids;
}

}  // namespace halotis
