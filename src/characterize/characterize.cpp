#include "src/characterize/characterize.hpp"

#include <cmath>
#include <string>

#include "src/base/check.hpp"
#include "src/base/mathfit.hpp"

namespace halotis {

namespace {

constexpr TimeNs kSettle = 4.0;  ///< quiet time before the first edge, ns

/// Output midswing-crossing instants, via the sampled trace.
std::vector<TimeNs> output_crossings(const AnalogSim& sim, SignalId out, Edge sense,
                                     Volt vdd) {
  return sim.trace(out).crossings(0.5 * vdd, sense);
}

}  // namespace

CellBench make_cell_bench(const Library& lib, std::string_view cell_name, Farad extra_load) {
  CellBench bench(lib);
  const CellId cell_id = lib.find(cell_name);
  const Cell& cell = lib.cell(cell_id);
  for (int i = 0; i < num_inputs(cell.kind); ++i) {
    bench.pins.push_back(bench.netlist.add_primary_input("p" + std::to_string(i)));
  }
  bench.out = bench.netlist.add_signal("out");
  bench.netlist.mark_primary_output(bench.out);
  (void)bench.netlist.add_gate("dut", cell_id, bench.pins, bench.out);
  bench.netlist.set_wire_cap(bench.out, extra_load);
  return bench;
}

std::vector<bool> sensitizing_assignment(const Cell& cell, int pin, Edge in_edge) {
  const int n = num_inputs(cell.kind);
  require(pin >= 0 && pin < n, "sensitizing_assignment(): pin out of range");
  for (unsigned pattern = 0; pattern < (1u << n); ++pattern) {
    bool low[8];
    bool high[8];
    for (int i = 0; i < n; ++i) {
      low[i] = ((pattern >> i) & 1u) != 0;
      high[i] = low[i];
    }
    low[pin] = false;
    high[pin] = true;
    const std::span<const bool> low_span(low, static_cast<std::size_t>(n));
    const std::span<const bool> high_span(high, static_cast<std::size_t>(n));
    if (eval_cell(cell.kind, low_span) != eval_cell(cell.kind, high_span)) {
      std::vector<bool> assignment(low, low + n);
      // The switching pin starts at the pre-transition value.
      assignment[static_cast<std::size_t>(pin)] = (in_edge == Edge::kFall);
      return assignment;
    }
  }
  require(false, "sensitizing_assignment(): pin never controls the output");
  return {};
}

DelayMeasurement measure_delay(const Library& lib, std::string_view cell_name, int pin,
                               Edge in_edge, Farad extra_load, TimeNs tau_in,
                               const AnalogConfig& cfg) {
  CellBench bench = make_cell_bench(lib, cell_name, extra_load);
  const Cell& cell = lib.cell(lib.find(cell_name));
  const Volt vdd = lib.vdd();

  const std::vector<bool> assignment = sensitizing_assignment(cell, pin, in_edge);
  Stimulus stim(tau_in);
  for (std::size_t i = 0; i < bench.pins.size(); ++i) {
    stim.set_initial(bench.pins[i], assignment[i]);
  }
  const TimeNs t_edge = kSettle + 0.5 * tau_in;
  stim.add_edge(bench.pins[static_cast<std::size_t>(pin)], t_edge,
                in_edge == Edge::kRise, tau_in);

  AnalogSim sim(bench.netlist, cfg);
  sim.apply_stimulus(stim);
  sim.run(t_edge + tau_in + 6.0);

  // Output sense: how the cell output moves when the pin takes its final
  // value.
  bool before[8];
  bool after[8];
  for (std::size_t i = 0; i < assignment.size(); ++i) before[i] = after[i] = assignment[i];
  after[pin] = (in_edge == Edge::kRise);
  const std::span<const bool> before_span(before, assignment.size());
  const std::span<const bool> after_span(after, assignment.size());
  const bool out_after = eval_cell(cell.kind, after_span);
  ensure(eval_cell(cell.kind, before_span) != out_after,
         "measure_delay(): assignment is not sensitizing");
  const Edge out_edge = out_after ? Edge::kRise : Edge::kFall;

  const auto crossings = output_crossings(sim, bench.out, out_edge, vdd);
  require(!crossings.empty(), [&] {
    return std::string("measure_delay(): output never crossed midswing for ") +
           std::string(cell_name);
  });

  DelayMeasurement result;
  result.out_edge = out_edge;
  result.tp = crossings.front() - t_edge;

  // 20 %-80 % slope scaled to full swing.
  const Volt v20 = (out_edge == Edge::kRise ? 0.2 : 0.8) * vdd;
  const Volt v80 = (out_edge == Edge::kRise ? 0.8 : 0.2) * vdd;
  const auto c20 = sim.trace(bench.out).crossings(v20, out_edge);
  const auto c80 = sim.trace(bench.out).crossings(v80, out_edge);
  if (!c20.empty() && !c80.empty() && c80.front() > c20.front()) {
    result.tau_out = (c80.front() - c20.front()) / 0.6;
  }
  return result;
}

std::vector<DegradationPoint> measure_degradation(const Library& lib,
                                                  std::string_view cell_name, int pin,
                                                  Edge in_edge, Farad extra_load,
                                                  TimeNs tau_in,
                                                  std::span<const TimeNs> pulse_widths,
                                                  const AnalogConfig& cfg) {
  const Cell& cell = lib.cell(lib.find(cell_name));
  const Volt vdd = lib.vdd();
  const std::vector<bool> assignment = sensitizing_assignment(cell, pin, in_edge);

  std::vector<DegradationPoint> points;
  for (const TimeNs width : pulse_widths) {
    CellBench bench = make_cell_bench(lib, cell_name, extra_load);
    Stimulus stim(tau_in);
    for (std::size_t i = 0; i < bench.pins.size(); ++i) {
      stim.set_initial(bench.pins[i], assignment[i]);
    }
    const TimeNs t1 = kSettle + 0.5 * tau_in;
    const TimeNs t2 = t1 + width;
    stim.add_edge(bench.pins[static_cast<std::size_t>(pin)], t1, in_edge == Edge::kRise,
                  tau_in);
    stim.add_edge(bench.pins[static_cast<std::size_t>(pin)], t2, in_edge == Edge::kFall,
                  tau_in);

    AnalogSim sim(bench.netlist, cfg);
    sim.apply_stimulus(stim);
    sim.run(t2 + tau_in + 8.0);

    // First output edge responds to `in_edge`, second to the opposite.
    bool buffer[8];
    for (std::size_t i = 0; i < assignment.size(); ++i) buffer[i] = assignment[i];
    buffer[pin] = (in_edge == Edge::kRise);
    const bool mid_value =
        eval_cell(cell.kind, std::span<const bool>(buffer, assignment.size()));
    const Edge first_out = mid_value ? Edge::kRise : Edge::kFall;
    const Edge second_out = opposite(first_out);

    const auto first_crossings = output_crossings(sim, bench.out, first_out, vdd);
    const auto second_crossings = output_crossings(sim, bench.out, second_out, vdd);

    DegradationPoint point;
    if (first_crossings.empty() || second_crossings.empty() ||
        second_crossings.front() <= first_crossings.front()) {
      point.filtered = true;
      point.t_elapsed = first_crossings.empty() ? 0.0 : t2 - first_crossings.front();
    } else {
      point.t_elapsed = t2 - first_crossings.front();
      point.tp = second_crossings.front() - t2;
    }
    points.push_back(point);
  }
  return points;
}

DegradationFit fit_degradation(std::span<const DegradationPoint> points, TimeNs tp0) {
  require(tp0 > 0.0, "fit_degradation(): tp0 must be positive");
  std::vector<double> xs;
  std::vector<double> ys;
  for (const DegradationPoint& p : points) {
    if (p.filtered || p.tp <= 0.0) continue;
    const double ratio = p.tp / tp0;
    if (ratio >= 0.999) continue;  // fully settled: log() blows up, no info
    xs.push_back(p.t_elapsed);
    ys.push_back(std::log(1.0 - ratio));
  }
  DegradationFit fit;
  fit.points_used = static_cast<int>(xs.size());
  if (xs.size() < 2) return fit;
  const LinearFit line = fit_line(xs, ys);
  if (line.slope >= 0.0) return fit;  // no degradation detected
  fit.tau = -1.0 / line.slope;
  fit.t0 = line.intercept * fit.tau;
  fit.r_squared = line.r_squared;
  return fit;
}

MacroModelFit fit_tp0(const Library& lib, std::string_view cell_name, int pin, Edge in_edge,
                      std::span<const Farad> loads, std::span<const TimeNs> slews,
                      const AnalogConfig& cfg) {
  require(loads.size() >= 2 && slews.size() >= 2,
          "fit_tp0(): need at least a 2x2 load x slew grid");
  // The regression is against the *digital* load definition (fanout +
  // wire + driver parasitic) so the fitted coefficients drop straight into
  // the EdgeTiming macro-model.
  std::vector<std::vector<double>> rows;
  std::vector<double> delays;
  for (const Farad load : loads) {
    for (const TimeNs slew : slews) {
      const DelayMeasurement m = measure_delay(lib, cell_name, pin, in_edge, load, slew, cfg);
      CellBench bench = make_cell_bench(lib, cell_name, load);
      const Farad cl = bench.netlist.load_of(bench.out);
      rows.push_back({1.0, cl, slew});
      delays.push_back(m.tp);
    }
  }
  const std::vector<double> coeffs = fit_least_squares(rows, delays);
  MacroModelFit fit;
  fit.p0 = coeffs[0];
  fit.p_load = coeffs[1];
  fit.p_slew = coeffs[2];
  std::vector<double> predicted;
  predicted.reserve(rows.size());
  for (const auto& row : rows) {
    predicted.push_back(coeffs[0] * row[0] + coeffs[1] * row[1] + coeffs[2] * row[2]);
  }
  fit.r_squared = r_squared(predicted, delays);
  return fit;
}

namespace {

/// Pulse widths spanning the degraded regime at one operating point: the
/// informative region starts just above the first-edge delay and ends once
/// the gate has recovered (a few output time constants later).
std::vector<TimeNs> auto_widths(TimeNs tp_first_edge) {
  std::vector<TimeNs> widths;
  for (const double factor : {1.25, 1.45, 1.7, 2.0, 2.4, 3.0, 3.8, 5.0}) {
    widths.push_back(std::max(0.05, tp_first_edge) * factor);
  }
  return widths;
}

}  // namespace

Eq2Fit fit_eq2(const Library& lib, std::string_view cell_name, int pin, Edge in_edge,
               std::span<const Farad> loads, TimeNs tau_in,
               std::span<const TimeNs> pulse_widths, const AnalogConfig& cfg) {
  require(loads.size() >= 2, "fit_eq2(): need at least two loads");
  std::vector<double> cls;
  std::vector<double> tau_vdd;
  for (const Farad load : loads) {
    // The degraded edge of the pulse is the *second* one (opposite sense).
    const DelayMeasurement first =
        measure_delay(lib, cell_name, pin, in_edge, load, tau_in, cfg);
    const DelayMeasurement settled =
        measure_delay(lib, cell_name, pin, opposite(in_edge), load, tau_in, cfg);
    const std::vector<TimeNs> local_widths =
        pulse_widths.empty() ? auto_widths(first.tp)
                             : std::vector<TimeNs>(pulse_widths.begin(), pulse_widths.end());
    const auto points = measure_degradation(lib, cell_name, pin, in_edge, load, tau_in,
                                            local_widths, cfg);
    const DegradationFit fit = fit_degradation(points, settled.tp);
    if (fit.points_used < 2 || fit.tau <= 0.0) continue;
    CellBench bench = make_cell_bench(lib, cell_name, load);
    cls.push_back(bench.netlist.load_of(bench.out));
    tau_vdd.push_back(fit.tau * lib.vdd());
  }
  Eq2Fit result;
  if (cls.size() < 2) return result;
  const LinearFit line = fit_line(cls, tau_vdd);
  result.a = line.intercept;
  result.b = line.slope;
  result.r_squared = line.r_squared;
  return result;
}

Eq3Fit fit_eq3(const Library& lib, std::string_view cell_name, int pin, Edge in_edge,
               Farad extra_load, std::span<const TimeNs> slews,
               std::span<const TimeNs> pulse_widths, const AnalogConfig& cfg) {
  require(slews.size() >= 2, "fit_eq3(): need at least two slews");
  // T0 = (1/2 - C/VDD) * tau_in: regress T0 against tau_in through the
  // origin; the slope gives C.
  std::vector<double> xs;
  std::vector<double> ys;
  for (const TimeNs slew : slews) {
    const DelayMeasurement first =
        measure_delay(lib, cell_name, pin, in_edge, extra_load, slew, cfg);
    const DelayMeasurement settled =
        measure_delay(lib, cell_name, pin, opposite(in_edge), extra_load, slew, cfg);
    const std::vector<TimeNs> local_widths =
        pulse_widths.empty() ? auto_widths(first.tp)
                             : std::vector<TimeNs>(pulse_widths.begin(), pulse_widths.end());
    const auto points = measure_degradation(lib, cell_name, pin, in_edge, extra_load, slew,
                                            local_widths, cfg);
    const DegradationFit fit = fit_degradation(points, settled.tp);
    if (fit.points_used < 2) continue;
    xs.push_back(slew);
    ys.push_back(fit.t0);
  }
  Eq3Fit result;
  if (xs.size() < 2) return result;
  // Least squares through the origin: slope = sum(xy)/sum(xx).
  double sxy = 0.0;
  double sxx = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxy += xs[i] * ys[i];
    sxx += xs[i] * xs[i];
  }
  const double slope = sxy / sxx;  // = 1/2 - C/VDD
  result.c = (0.5 - slope) * lib.vdd();
  std::vector<double> predicted;
  for (const double x : xs) predicted.push_back(slope * x);
  result.r_squared = r_squared(predicted, ys);
  return result;
}

Volt measure_vm(const Library& lib, std::string_view cell_name, int pin) {
  CellBench bench = make_cell_bench(lib, cell_name, 0.02);
  const Cell& cell = lib.cell(lib.find(cell_name));
  const Volt vdd = lib.vdd();
  const std::vector<bool> assignment = sensitizing_assignment(cell, pin, Edge::kRise);

  AnalogSim sim(bench.netlist);
  std::vector<Volt> pi_voltages(bench.pins.size());
  for (std::size_t i = 0; i < bench.pins.size(); ++i) {
    pi_voltages[i] = assignment[i] ? vdd : 0.0;
  }

  // Output polarity vs the pin: rising input gives which output value?
  bool buffer[8];
  for (std::size_t i = 0; i < assignment.size(); ++i) buffer[i] = assignment[i];
  buffer[pin] = true;
  const bool out_high_when_pin_high =
      eval_cell(cell.kind, std::span<const bool>(buffer, assignment.size()));

  Volt lo = 0.0;
  Volt hi = vdd;
  for (int iter = 0; iter < 40; ++iter) {
    const Volt mid = 0.5 * (lo + hi);
    pi_voltages[static_cast<std::size_t>(pin)] = mid;
    const auto solution = sim.dc_solve(pi_voltages);
    const bool out_high = solution[bench.out.value()] > 0.5 * vdd;
    if (out_high == out_high_when_pin_high) {
      hi = mid;  // pin already past its threshold
    } else {
      lo = mid;
    }
  }
  return 0.5 * (lo + hi);
}

Library characterize_library(const Library& lib,
                             std::span<const std::string_view> cell_names,
                             const CharacterizeOptions& options) {
  Library fitted = lib;
  std::vector<std::string> names;
  if (cell_names.empty()) {
    for (const Cell& cell : lib.cells()) names.push_back(cell.name);
  } else {
    for (const std::string_view name : cell_names) names.emplace_back(name);
  }

  for (const std::string& name : names) {
    const CellId id = fitted.find(name);
    Cell& cell = fitted.mutable_cell(id);
    for (int pin = 0; pin < num_inputs(cell.kind); ++pin) {
      if (options.fit_thresholds) {
        cell.pins[static_cast<std::size_t>(pin)].vt = measure_vm(lib, name, pin);
      }
      for (const Edge in_edge : {Edge::kRise, Edge::kFall}) {
        // Input rise drives output fall for inverting paths; the fit is
        // stored under the *output* edge like EdgeTiming expects.
        const DelayMeasurement probe =
            measure_delay(lib, name, pin, in_edge, options.loads.front(),
                          options.slews.front(), options.analog);
        EdgeTiming& timing =
            cell.pins[static_cast<std::size_t>(pin)].edge(probe.out_edge);
        if (options.fit_delay) {
          const MacroModelFit fit = fit_tp0(lib, name, pin, in_edge, options.loads,
                                            options.slews, options.analog);
          timing.p0 = fit.p0;
          timing.p_load = fit.p_load;
          timing.p_slew = fit.p_slew;
        }
        if (options.fit_degradation) {
          const Eq2Fit eq2 = fit_eq2(lib, name, pin, in_edge, options.loads,
                                     options.slews[options.slews.size() / 2],
                                     options.pulse_widths, options.analog);
          if (eq2.r_squared > 0.0 && eq2.a > 0.0) {
            timing.deg_a = eq2.a;
            timing.deg_b = std::max(0.0, eq2.b);
          }
          const Eq3Fit eq3 = fit_eq3(lib, name, pin, in_edge, options.loads.front(),
                                     options.slews, options.pulse_widths, options.analog);
          if (eq3.r_squared > 0.0) {
            timing.deg_c = eq3.c;
          }
        }
      }
    }
  }
  return fitted;
}

}  // namespace halotis
