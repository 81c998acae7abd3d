// The built-in paper experiments (see docs/REPRODUCTION.md for the
// experiment-to-figure map and how to add one).
//
// Every experiment body is a pure function of the context: fixed seeds,
// fixed sweeps, fixed-precision formatting, and no environment leakage
// into artifacts.  Quick mode shrinks sweeps and skips the analog
// (transistor-level) reference where it dominates runtime; the committed
// goldens pin quick mode, CI diffs them on every push.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/analog/analog_sim.hpp"
#include "src/base/rng.hpp"
#include "src/base/strings.hpp"
#include "src/characterize/characterize.hpp"
#include "src/circuits/generators.hpp"
#include "src/circuits/stimuli.hpp"
#include "src/core/delay_model.hpp"
#include "src/core/simulator.hpp"
#include "src/power/activity.hpp"
#include "src/repro/experiment.hpp"
#include "src/sta/sta.hpp"
#include "src/waveform/vcd.hpp"

namespace halotis::repro {

namespace {

const char* edge_name(Edge edge) { return edge == Edge::kRise ? "rise" : "fall"; }

// ---- 1. delay vs input slope ------------------------------------------------
//
// The tp0 macro-model underneath eq. 1 (paper section 2, refs [1, 2]):
// isolated-transition delay as a function of the input ramp duration,
// model prediction vs the transistor-level reference.

ExperimentResult run_delay_vs_slope(const ExperimentContext& ctx) {
  const std::vector<TimeNs> slews =
      ctx.quick ? std::vector<TimeNs>{0.3, 0.6, 1.0}
                : std::vector<TimeNs>{0.2, 0.3, 0.45, 0.6, 0.8, 1.0};
  struct Target {
    const char* cell;
    Edge in_edge;
  };
  std::vector<Target> targets{{"INV_X1", Edge::kFall}, {"NAND2_X1", Edge::kFall}};
  if (!ctx.quick) {
    targets.push_back({"INV_X1", Edge::kRise});
    targets.push_back({"NAND2_X1", Edge::kRise});
  }
  const Farad extra_load = 0.06;

  CsvBuilder csv({"cell", "pin", "in_edge", "tau_in_ns", "tp_model_ns", "tau_out_model_ns",
                  "tp_analog_ns", "tau_out_analog_ns", "tp_err_pct"});
  double max_abs_err = 0.0;
  int rows = 0;
  for (const Target& target : targets) {
    const Cell& cell = ctx.lib.cell(ctx.lib.find(target.cell));
    const CellBench bench = make_cell_bench(ctx.lib, target.cell, extra_load);
    const Farad cl = bench.netlist.load_of(bench.out);
    const Edge out_edge =
        is_inverting(cell.kind) ? opposite(target.in_edge) : target.in_edge;
    for (const TimeNs tau_in : slews) {
      const EdgeTiming& timing = cell.pin(0).edge(out_edge);
      const TimeNs tp_model = timing.tp0(cl, tau_in);
      const TimeNs tau_out_model = cell.drive.tau_out(out_edge, cl);
      const DelayMeasurement analog =
          measure_delay(ctx.lib, target.cell, 0, target.in_edge, extra_load, tau_in);
      const double err = 100.0 * (tp_model - analog.tp) / analog.tp;
      max_abs_err = std::max(max_abs_err, std::abs(err));
      csv.cell(target.cell).cell(0).cell(edge_name(target.in_edge)).cell(tau_in);
      csv.cell(tp_model).cell(tau_out_model).cell(analog.tp).cell(analog.tau_out).cell(err);
      csv.end_row();
      ++rows;
    }
  }

  ExperimentResult result;
  result.artifacts.push_back(Artifact{"delay_vs_slope.csv", csv.str()});
  result.metric("points", std::to_string(rows));
  result.metric("max_abs_tp_error_pct", format_double(max_abs_err, 4));
  result.narrative =
      "Isolated-transition propagation delay over an input-slope sweep: the "
      "conventional macro-model `tp0 = p0 + p_load*CL + p_slew*tau_in` that eq. 1 "
      "degrades, against the transistor-level reference (the HSPICE stand-in). "
      "The model tracks the reference within a few percent across the slew range "
      "-- the baseline accuracy on which the degradation comparison stands.";
  return result;
}

// ---- 2. pulse degradation / glitch filtering (Fig. 1) -----------------------
//
// The paper's headline experiment: a degraded runt pulse must drive the
// low-threshold receiver chain (g1) while staying invisible to the
// high-threshold one (g2).  The conventional inertial model cannot
// discriminate -- it filters (or passes) at the output, for both chains.

Stimulus fig1_pulse(const Fig1Circuit& fx, TimeNs width) {
  Stimulus stim(0.5);
  stim.set_initial(fx.in, true);
  stim.add_edge(fx.in, 5.0, false);
  stim.add_edge(fx.in, 5.0 + width, true);
  return stim;
}

const char* fig1_shape(std::size_t out1c_edges, std::size_t out2c_edges) {
  if (out1c_edges > 0 && out2c_edges == 0) return "g1-only";
  if (out1c_edges > 0) return "both";
  if (out2c_edges == 0) return "neither";
  return "g2-only";
}

ExperimentResult run_glitch_filtering_sweep(const ExperimentContext& ctx) {
  const std::vector<TimeNs> widths =
      ctx.quick ? std::vector<TimeNs>{0.4, 0.6, 0.8, 0.9, 1.0, 1.2}
                : std::vector<TimeNs>{0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.5, 2.0};

  const DdmDelayModel ddm;
  const CdmDelayModel cdm;  // transport-like, the paper's observed CDM
  const CdmDelayModel cdm_classical(CdmDelayModel::InertialWindow::kGateDelay);
  struct ModelRow {
    const char* name;
    const DelayModel* model;
  };
  const ModelRow models[] = {
      {"ddm", &ddm}, {"cdm", &cdm}, {"cdm-classical", &cdm_classical}};

  CsvBuilder csv({"width_ns", "model", "out0_edges", "out1c_edges", "out2c_edges",
                  "shape", "filtered_events", "out0_pulse_ns"});
  int ddm_g1_only = 0;
  int cdm_g1_only = 0;
  int classical_g1_only = 0;
  for (const TimeNs width : widths) {
    Fig1Circuit fx = make_fig1(ctx.lib);
    for (const ModelRow& row : models) {
      Simulator sim(fx.netlist, *row.model);
      sim.apply_stimulus(fig1_pulse(fx, width));
      (void)sim.run();
      const auto out0 = sim.history(fx.out0);
      const std::size_t out1c = sim.history(fx.out1c).size();
      const std::size_t out2c = sim.history(fx.out2c).size();
      const TimeNs out0_pulse =
          out0.size() == 2 ? out0[1].t50() - out0[0].t50() : 0.0;
      const char* shape = fig1_shape(out1c, out2c);
      csv.cell(width).cell(row.name).cell(std::uint64_t{out0.size()});
      csv.cell(std::uint64_t{out1c}).cell(std::uint64_t{out2c}).cell(shape);
      csv.cell(sim.stats().filtered_events()).cell(out0_pulse);
      csv.end_row();
      if (std::string_view(shape) == "g1-only") {
        if (row.model == &ddm) ++ddm_g1_only;
        if (row.model == &cdm) ++cdm_g1_only;
        if (row.model == &cdm_classical) ++classical_g1_only;
      }
    }
    if (!ctx.quick) {
      AnalogSim analog(fx.netlist);
      analog.apply_stimulus(fig1_pulse(fx, width));
      analog.run(18.0);
      const Volt vdd = ctx.lib.vdd();
      const std::size_t out0 = analog.trace(fx.out0).digitize(vdd).edge_count();
      const std::size_t out1c = analog.trace(fx.out1c).digitize(vdd).edge_count();
      const std::size_t out2c = analog.trace(fx.out2c).digitize(vdd).edge_count();
      csv.cell(width).cell("analog-ref").cell(std::uint64_t{out0});
      csv.cell(std::uint64_t{out1c}).cell(std::uint64_t{out2c});
      csv.cell(fig1_shape(out1c, out2c)).cell(std::uint64_t{0}).cell(0.0);
      csv.end_row();
    }
  }

  // The closed-form eq. 1 degradation curve of the driver cell: how much of
  // the conventional delay remains as a function of the internal-state time
  // T (normalized; T0 and tau from the characterized INV_X1 coefficients).
  CsvBuilder curve({"t_ns", "tp_over_tp0"});
  {
    const Cell& inv = ctx.lib.cell(ctx.lib.find("INV_X1"));
    const EdgeTiming& timing = inv.pin(0).edge(Edge::kRise);
    const Farad cl = 0.06;
    const TimeNs tau_in = 0.5;
    const TimeNs tau = timing.deg_tau(cl, ctx.lib.vdd());
    const TimeNs t0 = timing.deg_t0(tau_in, ctx.lib.vdd());
    const int points = 25;
    for (int i = 0; i <= points; ++i) {
      const TimeNs t = t0 + 5.0 * tau * static_cast<double>(i) / points;
      const double ratio = 1.0 - std::exp(-(t - t0) / tau);
      curve.cell(t).cell(std::max(ratio, 0.0));
      curve.end_row();
    }
  }

  // Paper-style waveforms at a width inside the discrimination band.
  Fig1Circuit fx = make_fig1(ctx.lib);
  Simulator sim(fx.netlist, ddm);
  sim.apply_stimulus(fig1_pulse(fx, 0.9));
  (void)sim.run();
  const SignalId signals[] = {fx.in, fx.out0, fx.out1, fx.out1c, fx.out2, fx.out2c};
  const std::string vcd = vcd_from_simulator(sim, signals, "fig1_ddm").to_string();

  ExperimentResult result;
  result.artifacts.push_back(Artifact{"glitch_filtering_sweep.csv", csv.str()});
  result.artifacts.push_back(Artifact{"ddm_eq1_curve.csv", curve.str()});
  result.artifacts.push_back(Artifact{"fig1_ddm_w0.9.vcd", vcd});
  result.metric("widths", std::to_string(widths.size()));
  result.metric("ddm_g1_only_widths", std::to_string(ddm_g1_only));
  result.metric("cdm_g1_only_widths", std::to_string(cdm_g1_only));
  result.metric("cdm_classical_g1_only_widths", std::to_string(classical_g1_only));
  result.narrative =
      "Input pulse-width sweep through the Fig. 1 circuit: a three-inverter "
      "driver whose degraded output fans out to a low-threshold (g1) and a "
      "high-threshold (g2) receiver chain.  `shape` records which chains saw the "
      "pulse.  The DDM shows a band of widths where only g1 responds (per-input "
      "threshold filtering of a degraded ramp); both conventional variants "
      "propagate to both chains or to neither.  `ddm_eq1_curve.csv` is the "
      "closed-form eq. 1 degradation curve of the driver cell; the VCD holds the "
      "DDM waveforms at the discriminating 0.9 ns width.";
  return result;
}

// ---- 3. multiplier glitch activity (Table 1 at 8x8) -------------------------

ExperimentResult run_mult8_glitch_activity(const ExperimentContext& ctx) {
  const int bits = 8;
  const std::size_t num_words = ctx.quick ? 8 : 32;
  MultiplierCircuit mult = make_multiplier(ctx.lib, bits);
  const auto words = random_word_stream(2 * bits, num_words, 0x5851F42D4C957F2DULL);

  const DdmDelayModel ddm;
  const CdmDelayModel cdm;
  const std::vector<TimeNs> bin_edges{0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0};

  CsvBuilder summary({"model", "events_processed", "filtered_events",
                      "surviving_transitions", "glitch_transitions",
                      "glitch_fraction_pct", "energy_pj", "glitch_energy_pj"});
  std::vector<std::vector<std::uint64_t>> histograms;
  std::uint64_t ddm_events = 0, cdm_events = 0;
  std::uint64_t ddm_filtered = 0, cdm_filtered = 0;
  std::uint64_t ddm_glitch = 0, cdm_glitch = 0;
  std::string top_csv;
  std::string vcd;
  for (const bool is_cdm : {false, true}) {
    const DelayModel model = is_cdm ? DelayModel(cdm) : DelayModel(ddm);
    Simulator sim(mult.netlist, model);
    sim.apply_stimulus(multiplier_stimulus(mult, words));
    (void)sim.run();
    const ActivityReport activity = compute_activity(sim, 1.0);
    summary.cell(is_cdm ? "cdm" : "ddm").cell(sim.stats().events_processed);
    summary.cell(sim.stats().filtered_events()).cell(sim.stats().surviving_transitions());
    summary.cell(activity.total_glitch_transitions);
    summary.cell(100.0 * activity.glitch_fraction());
    summary.cell(activity.total_energy_pj).cell(activity.glitch_energy_pj);
    summary.end_row();
    histograms.push_back(pulse_width_histogram(sim, bin_edges));
    (is_cdm ? cdm_events : ddm_events) = sim.stats().events_processed;
    (is_cdm ? cdm_filtered : ddm_filtered) = sim.stats().filtered_events();
    (is_cdm ? cdm_glitch : ddm_glitch) = activity.total_glitch_transitions;

    if (!is_cdm) {
      // Top energy consumers under the DDM (stable order: energy desc, then
      // signal id -- per_signal is already in id order).
      std::vector<const SignalActivity*> rows;
      for (const SignalActivity& a : activity.per_signal) {
        if (a.transitions > 0) rows.push_back(&a);
      }
      std::stable_sort(rows.begin(), rows.end(),
                       [](const SignalActivity* a, const SignalActivity* b) {
                         return a->energy_pj > b->energy_pj;
                       });
      if (rows.size() > 12) rows.resize(12);
      CsvBuilder top({"signal", "transitions", "glitch_transitions", "energy_pj"});
      for (const SignalActivity* a : rows) {
        top.cell(a->name).cell(std::uint64_t{a->transitions});
        top.cell(std::uint64_t{a->glitch_transitions}).cell(a->energy_pj);
        top.end_row();
      }
      top_csv = top.str();
      vcd = vcd_from_simulator(sim, mult.s, "mult8_ddm_product").to_string();
    }
  }

  CsvBuilder histogram({"pulse_width_bin_ns", "ddm_pulses", "cdm_pulses"});
  for (std::size_t i = 0; i < histograms[0].size(); ++i) {
    const std::string label =
        i == 0 ? "<" + format_double(bin_edges[0], 6)
        : i < bin_edges.size()
            ? format_double(bin_edges[i - 1], 6) + ".." + format_double(bin_edges[i], 6)
            : ">=" + format_double(bin_edges.back(), 6);
    histogram.cell(label).cell(histograms[0][i]).cell(histograms[1][i]);
    histogram.end_row();
  }

  ExperimentResult result;
  result.artifacts.push_back(Artifact{"activity_summary.csv", summary.str()});
  result.artifacts.push_back(Artifact{"pulse_width_histogram.csv", histogram.str()});
  result.artifacts.push_back(Artifact{"top_signals_ddm.csv", top_csv});
  result.artifacts.push_back(Artifact{"mult8_ddm_product.vcd", vcd});
  result.metric("vectors", std::to_string(num_words));
  result.metric("ddm_events", std::to_string(ddm_events));
  result.metric("cdm_events", std::to_string(cdm_events));
  result.metric("cdm_event_overestimate_pct",
                format_double(100.0 * (static_cast<double>(cdm_events) /
                                           static_cast<double>(ddm_events) -
                                       1.0),
                              4));
  result.metric("ddm_filtered_events", std::to_string(ddm_filtered));
  result.metric("cdm_filtered_events", std::to_string(cdm_filtered));
  result.metric("ddm_glitch_transitions", std::to_string(ddm_glitch));
  result.metric("cdm_glitch_transitions", std::to_string(cdm_glitch));
  result.narrative =
      "The paper's Table 1 workload scaled to the 8x8 carry-save multiplier "
      "under a fixed pseudo-random operand stream.  The conventional model "
      "processes substantially more events (it propagates glitches the DDM "
      "degrades away) while filtering far fewer of them, and the pulse-width "
      "histogram shows where the difference lives: the narrow bins.  Glitch "
      "energy uses C*VDD^2/2 per transition over each line's real load.";
  return result;
}

// ---- 4. chain degradation & resurrection ------------------------------------

ExperimentResult run_chain_resurrection(const ExperimentContext& ctx) {
  const int length = ctx.quick ? 8 : 12;
  // The survival boundary of this chain sits between ~0.08 ns (dies at the
  // first stage) and ~0.25 ns (reaches the end); the sweep brackets it.
  const std::vector<TimeNs> widths =
      ctx.quick ? std::vector<TimeNs>{0.1, 0.15, 0.2, 0.25}
                : std::vector<TimeNs>{0.05, 0.08, 0.1, 0.12, 0.15, 0.18, 0.2, 0.22, 0.25, 0.3};
  const DdmDelayModel ddm;

  // Part A: how deep a pulse survives an inverter chain as a function of
  // its width -- degradation narrows it stage by stage until annihilation.
  CsvBuilder survival({"width_ns", "deepest_stage", "filtered_events", "annihilations",
                       "clamped_pulses"});
  std::string vcd;
  for (const TimeNs width : widths) {
    ChainCircuit chain = make_chain(ctx.lib, length);
    Stimulus stim(0.4);
    stim.set_initial(chain.nodes[0], false);
    stim.add_edge(chain.nodes[0], 5.0, true);
    stim.add_edge(chain.nodes[0], 5.0 + width, false);
    Simulator sim(chain.netlist, ddm);
    sim.apply_stimulus(stim);
    (void)sim.run();
    int deepest = 0;
    for (int stage = 1; stage <= length; ++stage) {
      if (sim.history(chain.nodes[static_cast<std::size_t>(stage)]).size() >= 2) {
        deepest = stage;
      }
    }
    survival.cell(width).cell(deepest).cell(sim.stats().filtered_events());
    survival.cell(sim.stats().annihilations).cell(sim.stats().clamped_pulses);
    survival.end_row();
    if (vcd.empty() && deepest > 0 && deepest < length) {
      // First width whose pulse dies mid-chain: the degradation staircase.
      vcd = vcd_from_simulator(sim, chain.nodes, "chain_ddm").to_string();
    }
  }

  // Part B: the engine's rarest repair path.  These seeds provably drive an
  // output-pulse annihilation that must resurrect an event its leading edge
  // had pair-cancelled earlier (the same recipe tests/test_properties.cpp
  // pins); the quiescent state must still equal the combinational steady
  // state.
  CsvBuilder repair({"seed", "events_resurrected", "events_cancelled",
                     "events_suppressed", "annihilations", "steady_state_ok"});
  std::uint64_t total_resurrected = 0;
  bool all_settled = true;
  for (const std::uint64_t seed : {7ull, 35ull, 73ull, 216ull}) {
    RandomCircuit circuit = make_random_circuit(ctx.lib, 6, 50, seed);
    SplitMix64 rng(seed ^ 0xABCDEF);
    Stimulus stim(0.4);
    std::vector<bool> value(circuit.inputs.size());
    for (std::size_t i = 0; i < circuit.inputs.size(); ++i) {
      value[i] = rng.next_bool();
      stim.set_initial(circuit.inputs[i], value[i]);
    }
    TimeNs t = 2.0;
    for (int e = 0; e < 60; ++e) {
      const std::size_t pick = rng.next_below(circuit.inputs.size());
      value[pick] = !value[pick];
      stim.add_edge(circuit.inputs[pick], t, value[pick]);
      t += rng.next_double_in(0.05, 2.0);
    }
    Simulator sim(circuit.netlist, ddm);
    sim.apply_stimulus(stim);
    (void)sim.run();

    const std::unique_ptr<bool[]> pi_values(new bool[circuit.inputs.size()]);
    for (std::size_t i = 0; i < circuit.inputs.size(); ++i) pi_values[i] = value[i];
    const std::vector<bool> expected = circuit.netlist.steady_state(
        std::span<const bool>(pi_values.get(), circuit.inputs.size()));
    bool settled = true;
    for (std::size_t s = 0; s < circuit.netlist.num_signals(); ++s) {
      const SignalId sid{static_cast<SignalId::underlying_type>(s)};
      settled = settled && sim.final_value(sid) == expected[s];
    }
    all_settled = all_settled && settled;
    total_resurrected += sim.stats().events_resurrected;
    repair.cell(seed).cell(sim.stats().events_resurrected);
    repair.cell(sim.stats().events_cancelled).cell(sim.stats().events_suppressed);
    repair.cell(sim.stats().annihilations).cell(settled ? "yes" : "NO");
    repair.end_row();
  }

  ExperimentResult result;
  result.artifacts.push_back(Artifact{"chain_survival.csv", survival.str()});
  result.artifacts.push_back(Artifact{"resurrection.csv", repair.str()});
  if (!vcd.empty()) {
    result.artifacts.push_back(Artifact{"chain_ddm_staircase.vcd", vcd});
  }
  result.metric("chain_length", std::to_string(length));
  result.metric("events_resurrected_total", std::to_string(total_resurrected));
  result.metric("steady_state_consistent", all_settled ? "yes" : "NO");
  result.narrative =
      "Two views of the engine's pulse bookkeeping.  `chain_survival.csv`: a "
      "single pulse entering an INV_X1 chain is degraded stage by stage; below a "
      "critical width it annihilates mid-chain (the VCD captures one such "
      "staircase).  `resurrection.csv`: random-logic stimuli that force the "
      "rarest repair path -- an output-pulse annihilation resurrecting an event "
      "its leading edge had pair-cancelled -- and the final state still matches "
      "the combinational steady state.";
  return result;
}

// ---- 5. STA vs simulation cross-check ---------------------------------------

ExperimentResult run_sta_vs_sim(const ExperimentContext& ctx) {
  struct Vehicle {
    std::string name;
    Netlist netlist;
    std::vector<SignalId> inputs;
  };
  std::vector<Vehicle> vehicles;
  {
    C17Circuit c17 = make_c17(ctx.lib);
    vehicles.push_back(Vehicle{"c17", std::move(c17.netlist), std::move(c17.inputs)});
  }
  {
    const int bits = ctx.quick ? 4 : 8;
    AdderCircuit adder = make_ripple_adder(ctx.lib, bits);
    std::vector<SignalId> inputs;
    for (SignalId s : adder.a) inputs.push_back(s);
    for (SignalId s : adder.b) inputs.push_back(s);
    vehicles.push_back(Vehicle{"adder" + std::to_string(bits), std::move(adder.netlist),
                               std::move(inputs)});
  }
  {
    MultiplierCircuit mult = make_multiplier(ctx.lib, 4);
    std::vector<SignalId> inputs;
    for (SignalId s : mult.a) inputs.push_back(s);
    for (SignalId s : mult.b) inputs.push_back(s);
    vehicles.push_back(Vehicle{"mult4", std::move(mult.netlist), std::move(inputs)});
  }

  const TimeNs period = 8.0;
  const TimeNs slew = 0.5;  // == the STA's assumed input slew
  const std::size_t num_words = ctx.quick ? 12 : 48;
  const CdmDelayModel transport;  // conventional delays, nothing filtered
  const DdmDelayModel ddm;

  CsvBuilder csv({"circuit", "gates", "sta_critical_ns", "cdm_max_arrival_ns",
                  "ddm_max_arrival_ns", "sta_pessimism_pct", "bound_holds"});
  bool all_bounds_hold = true;
  for (Vehicle& vehicle : vehicles) {
    // One elaborated timing database per vehicle: STA reads the very arcs
    // the transport-mode simulation evaluates, so the bound and the dynamic
    // arrivals cannot come from diverging macro-model elaborations.  (The
    // DDM run elaborates its own graph -- same conventional part, plus the
    // degradation terms.)
    const TimingGraph conventional =
        TimingGraph::build(vehicle.netlist, transport.timing_policy());
    const StaticTimingAnalyzer sta(vehicle.netlist, conventional, slew);
    const TimingReport timing = sta.analyze();

    const auto words = random_word_stream(static_cast<int>(vehicle.inputs.size()),
                                          num_words, 0x9E3779B97F4A7C15ULL);
    const auto max_arrival = [&](const DelayModel& model, const TimingGraph* graph) {
      Simulator sim = graph != nullptr ? Simulator(vehicle.netlist, model, *graph)
                                       : Simulator(vehicle.netlist, model);
      sim.apply_stimulus(word_stimulus(vehicle.inputs, words, period, slew));
      (void)sim.run();
      // Attribute each surviving transition to the vector applied at k*period
      // (period >> critical delay, so responses never spill into the next
      // window) and take the worst arrival relative to that application.
      TimeNs worst = 0.0;
      for (std::size_t s = 0; s < vehicle.netlist.num_signals(); ++s) {
        const SignalId sid{static_cast<SignalId::underlying_type>(s)};
        if (vehicle.netlist.signal(sid).is_primary_input) continue;
        for (const Transition& tr : sim.history(sid)) {
          const double vector_index = std::floor((tr.t50() - 1e-9) / period);
          if (vector_index < 1.0) continue;  // settling before the first vector
          worst = std::max(worst, tr.t50() - vector_index * period);
        }
      }
      return worst;
    };
    const TimeNs cdm_arrival = max_arrival(transport, &conventional);
    const TimeNs ddm_arrival = max_arrival(ddm, nullptr);
    const bool bound = cdm_arrival <= timing.critical_delay + 1e-9 &&
                       ddm_arrival <= timing.critical_delay + 1e-9;
    all_bounds_hold = all_bounds_hold && bound;
    const double pessimism =
        cdm_arrival > 0.0
            ? 100.0 * (timing.critical_delay - cdm_arrival) / cdm_arrival
            : 0.0;
    csv.cell(vehicle.name).cell(std::uint64_t{vehicle.netlist.num_gates()});
    csv.cell(timing.critical_delay).cell(cdm_arrival).cell(ddm_arrival);
    csv.cell(pessimism).cell(bound ? "yes" : "NO");
    csv.end_row();
  }

  ExperimentResult result;
  result.artifacts.push_back(Artifact{"sta_crosscheck.csv", csv.str()});
  result.metric("vectors_per_circuit", std::to_string(num_words));
  result.metric("bounds_hold", all_bounds_hold ? "yes" : "NO");
  result.narrative =
      "Static worst-case arrival vs the worst *simulated* arrival over a fixed "
      "random vector stream, per circuit.  The invariant: no simulated "
      "transition -- conventional or degraded -- may arrive later than the STA "
      "critical delay computed from the same macro-models.  `sta_pessimism_pct` "
      "is the margin glitch-free static analysis carries over the dynamic "
      "worst case actually excited by these vectors.";
  return result;
}

}  // namespace

void register_builtin_experiments(ExperimentRegistry& registry) {
  registry.add(Experiment{
      "delay_vs_slope", "Delay vs input slope characterization",
      "sec. 2 (tp0 macro-model under eq. 1)",
      "Model tp0/tau_out vs the transistor-level reference over a slew sweep",
      run_delay_vs_slope});
  registry.add(Experiment{
      "glitch_filtering_sweep", "Pulse degradation and per-input glitch filtering",
      "Fig. 1 (inertial delay wrong results)",
      "Fig. 1 pulse-width sweep: DDM vs conventional inertial filtering",
      run_glitch_filtering_sweep});
  registry.add(Experiment{
      "mult8_glitch_activity", "8x8 multiplier glitch activity",
      "Table 1 (simulation results statistics)",
      "DDM-vs-CDM events, filtered events, glitch power on the 8x8 multiplier",
      run_mult8_glitch_activity});
  registry.add(Experiment{
      "chain_resurrection", "Chain degradation and event resurrection",
      "sec. 3 / Fig. 4 (event cancellation machinery)",
      "Pulse survival depth along an INV chain + the annihilation repair path",
      run_chain_resurrection});
  registry.add(Experiment{
      "sta_vs_sim", "STA vs simulation critical-path cross-check",
      "sec. 1 (timing verification motivation)",
      "Static worst-case arrival bounds every simulated arrival",
      run_sta_vs_sim});
}

}  // namespace halotis::repro
