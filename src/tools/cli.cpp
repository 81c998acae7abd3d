#include "src/tools/cli.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "src/analog/analog_sim.hpp"
#include "src/base/check.hpp"
#include "src/base/failpoint.hpp"
#include "src/base/fileio.hpp"
#include "src/base/strings.hpp"
#include "src/core/simulator.hpp"
#include "src/fault/campaign.hpp"
#include "src/fault/fault.hpp"
#include "src/lint/lint.hpp"
#include "src/netlist/library.hpp"
#include "src/parsers/bench_format.hpp"
#include "src/parsers/netlist_io.hpp"
#include "src/parsers/sdf.hpp"
#include "src/parsers/stimulus_file.hpp"
#include "src/parsers/verilog.hpp"
#include "src/power/activity.hpp"
#include "src/replay/history_hash.hpp"
#include "src/replay/resim.hpp"
#include "src/replay/variation.hpp"
#include "src/repro/experiment.hpp"
#include "src/repro/runner.hpp"
#include "src/serve/client.hpp"
#include "src/serve/elaboration.hpp"
#include "src/serve/server.hpp"
#include "src/serve/service.hpp"
#include "src/sta/sta.hpp"
#include "src/timing/timing_graph.hpp"
#include "src/waveform/ascii_plot.hpp"
#include "src/waveform/vcd.hpp"

namespace halotis {

namespace {

/// A malformed or contradictory command line: exits 2 with the usage text
/// (distinct from ContractViolation / RunError failures, which exit 1+).
struct UsageError : std::runtime_error {
  explicit UsageError(const std::string& what) : std::runtime_error(what) {}
};

struct Options {
  std::string command;
  std::map<std::string, std::string> flags;

  [[nodiscard]] std::optional<std::string> get(const std::string& name) const {
    const auto it = flags.find(name);
    if (it == flags.end()) return std::nullopt;
    return it->second;
  }
  [[nodiscard]] std::string require_flag(const std::string& name) const {
    const auto value = get(name);
    if (!value.has_value()) throw UsageError("missing required flag --" + name);
    return *value;
  }
  /// A real-valued flag: a finite number (parse_finite) or a usage error.
  [[nodiscard]] double number(const std::string& name, double fallback) const {
    const auto value = get(name);
    if (!value.has_value()) return fallback;
    const std::optional<double> parsed = parse_finite(trim(*value));
    if (!parsed.has_value()) {
      throw UsageError("--" + name + " expects a finite number, got '" + *value + "'");
    }
    return *parsed;
  }
};

/// Strict unsigned-integer flag parse (decimal or 0x-hex).  Anything that
/// is not a whole integer -- `--samples 1.5`, `--seed banana`, an empty
/// value -- is a usage error (exit 2), never a silent clamp through the
/// double round-trip that `number()` would apply.
std::uint64_t usage_unsigned(const Options& options, const std::string& name,
                             std::uint64_t fallback) {
  const auto value = options.get(name);
  if (!value.has_value()) return fallback;
  const std::string& text = *value;
  int base = 10;
  std::size_t start = 0;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    base = 16;
    start = 2;
  }
  std::uint64_t parsed = 0;
  const char* first = text.data() + start;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, parsed, base);
  if (first == last || ec != std::errc{} || ptr != last) {
    throw UsageError("--" + name + " expects an unsigned integer, got '" + text + "'");
  }
  return parsed;
}

/// usage_unsigned for a count held in an int (threads, limits).
int usage_count(const Options& options, const std::string& name, int fallback) {
  const std::uint64_t value =
      usage_unsigned(options, name, static_cast<std::uint64_t>(fallback));
  if (value > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
    throw UsageError("--" + name + " is out of range, got '" + *options.get(name) + "'");
  }
  return static_cast<int>(value);
}

/// A size flag given in MiB, as bytes: finite, non-negative and below 2^64
/// bytes (2^44 MiB), so the conversion is defined.
std::uint64_t usage_mebibytes(const Options& options, const std::string& name,
                              double fallback) {
  const double bytes = options.number(name, fallback) * 1024.0 * 1024.0;
  if (!(bytes >= 0.0 && bytes < 0x1p64)) {
    throw UsageError("--" + name + " must be >= 0 and below 2^44");
  }
  return static_cast<std::uint64_t>(bytes);
}

[[nodiscard]] std::string hex64(std::uint64_t v) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(v));
  return buffer;
}

Options parse_args(const std::vector<std::string>& args) {
  require(!args.empty(), "no command given");
  Options options;
  options.command = args[0];
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (!starts_with(arg, "--")) throw UsageError("expected --flag, got '" + arg + "'");
    const std::string name = arg.substr(2);
    // Boolean flags (no value) vs valued flags.
    if (i + 1 < args.size() && !starts_with(args[i + 1], "--")) {
      options.flags[name] = args[i + 1];
      ++i;
    } else {
      options.flags[name] = "1";
    }
  }
  return options;
}

/// Which side of the daemon seam this invocation runs on: plain local mode
/// (both null) or a daemon-side request (context + io set; see
/// run_cli_service).  Cheap to copy; threaded by value through the command
/// helpers.
struct ServiceEnv {
  serve::ServeContext* ctx = nullptr;
  serve::RequestIo* io = nullptr;
  [[nodiscard]] bool daemon() const { return io != nullptr; }
};

/// The one process-wide cell library.  Cached Elaborations keep Netlists
/// that point into it across requests, so it must outlive every cache
/// entry -- a function-local static, never a per-command stack copy.
const Library& default_library() {
  static const Library lib = Library::default_u6();
  return lib;
}

/// Builds the run supervisor for sim/fault/repro from the shared budget
/// flags (--budget-events, --budget-mem-mb, --deadline-s; 0 / absent =
/// unlimited) wired to the process-wide SIGINT token -- or, under the
/// daemon, to the daemon's drain token, so shutdown unwinds in-flight
/// requests (exit 5) instead of waiting them out.  Every supervised
/// command attaches one even with no budget set, so Ctrl-C always unwinds
/// cleanly with exit 5.
RunSupervisor make_supervisor(const Options& options, const ServiceEnv& env = {}) {
  RunBudget budget;
  budget.max_events = usage_unsigned(options, "budget-events", 0);
  budget.max_arena_bytes = usage_mebibytes(options, "budget-mem-mb", 0.0);
  budget.deadline_s = options.number("deadline-s", 0.0);
  if (budget.deadline_s < 0.0) throw UsageError("--deadline-s must be >= 0");
  RunSupervisor supervisor(budget,
                           env.ctx != nullptr ? env.ctx->stop : cli_cancel_token());
  supervisor.arm();
  // A token tripped before the run starts (Ctrl-C during parsing) exits 5
  // here, deterministically -- a tiny workload might otherwise finish
  // without ever reaching a poll.
  supervisor.check_coarse("startup");
  return supervisor;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), [&] { return "cannot open '" + path + "'"; });
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Reads one named input through the request's virtual filesystem: a
/// daemon request resolves the path against the files the client shipped
/// in the request frame (the daemon never opens client paths itself);
/// local mode reads the real file.  The error text matches read_file, so
/// responses stay byte-identical to local runs.
std::string read_input(const ServiceEnv& env, const std::string& path) {
  if (env.daemon()) {
    const auto it = env.io->files.find(path);
    require(it != env.io->files.end(), [&] { return "cannot open '" + path + "'"; });
    return it->second;
  }
  return read_file(path);
}

/// Publishes one output artifact: collected into the response frame under
/// the daemon (the *client* writes it via write_file_atomic on receipt),
/// written atomically right here in local mode.  Either way the console
/// gets the same "wrote PATH" line at the same position.
void publish_artifact(const ServiceEnv& env, const std::string& path, std::string bytes,
                      std::ostream& out) {
  if (env.daemon()) {
    env.io->artifacts.emplace_back(path, std::move(bytes));
  } else {
    write_file_atomic(path, bytes);
  }
  out << "wrote " << path << "\n";
}

std::string extension_format(const std::string& path) {
  if (path.size() >= 6 && path.substr(path.size() - 6) == ".bench") return "bench";
  if (path.size() >= 2 && path.substr(path.size() - 2) == ".v") return "verilog";
  return "native";
}

std::string detect_format(const Options& options, const std::string& path) {
  if (const auto fmt = options.get("format")) return *fmt;
  return extension_format(path);
}

Netlist load_netlist(const Options& options, const Library& lib) {
  const std::string path = options.require_flag("netlist");
  return serve::parse_netlist_text(read_file(path), detect_format(options, path), lib);
}

DelayModel make_model(const Options& options) {
  const std::string name = options.get("model").value_or("ddm");
  if (name == "ddm") return DdmDelayModel{};
  if (name == "cdm" || name == "transport") return CdmDelayModel{};
  if (name == "cdm-classical") return CdmDelayModel{CdmDelayModel::InertialWindow::kGateDelay};
  throw UsageError("unknown model '" + name + "' (ddm|cdm|cdm-classical|transport)");
}

Stimulus load_stimulus(const ServiceEnv& env, const Options& options,
                       const Netlist& netlist) {
  if (const auto path = options.get("stim")) {
    return read_stimulus(read_input(env, *path), netlist);
  }
  return Stimulus(0.5);  // quiescent testbench
}

/// The elaboration path shared by sim / sta / fault / variation in both
/// modes: parse + TimingGraph::build + optional SDF annotation, keyed off
/// the input *bytes*.  Daemon requests consult the keyed LRU cache (a warm
/// hit skips the whole pipeline); local mode builds fresh.  Both modes run
/// the identical serve::build_elaboration, so results and console output
/// cannot depend on which side -- or which cache state -- served the
/// request.
std::shared_ptr<const serve::Elaboration> service_elaboration(const ServiceEnv& env,
                                                              const Options& options,
                                                              const TimingPolicy& policy,
                                                              bool want_sdf) {
  const std::string path = options.require_flag("netlist");
  const std::string format = detect_format(options, path);
  const std::string netlist_text = read_input(env, path);
  std::optional<std::string> sdf_text;
  if (want_sdf) {
    if (const auto sdf_path = options.get("sdf")) sdf_text = read_input(env, *sdf_path);
  }
  const std::string* sdf_ptr = sdf_text.has_value() ? &*sdf_text : nullptr;
  if (env.ctx != nullptr && env.ctx->cache != nullptr) {
    const std::uint64_t key =
        serve::elaboration_key(format, netlist_text, policy, sdf_ptr);
    return env.ctx->cache->get_or_build(key, [&] {
      return serve::build_elaboration(default_library(), netlist_text, format, policy,
                                      sdf_ptr);
    });
  }
  return serve::build_elaboration(default_library(), netlist_text, format, policy,
                                  sdf_ptr);
}

/// `sim --sdf A.sdf[,B.sdf...] --replay`: records the causal trace once
/// on the first corner, then re-times every SDF corner through the
/// replayer, falling back to a full event simulation for any corner that
/// breaks a recorded ordering/filtering decision (docs/REPLAY.md).
/// `library` is the command's own unannotated elaboration (the daemon's
/// cached one under --connect); every graph here is a copy of it.
int sim_replay_corners(const ServiceEnv& env, const Options& options,
                       const TimingGraph& library, const DelayModel& model,
                       const Stimulus& stimulus, std::ostream& out) {
  const auto sdf_flag = options.get("sdf");
  if (!sdf_flag.has_value()) {
    throw UsageError("sim --replay needs --sdf corner file(s) to re-time");
  }
  if (options.get("report") || options.get("vcd") || options.get("waves")) {
    throw UsageError(
        "sim --replay re-times arrival times and waveform hashes only; "
        "drop --report/--vcd/--waves");
  }
  std::vector<std::string> corners;
  for (const std::string& path : split(*sdf_flag, ',')) {
    if (!path.empty()) corners.push_back(path);
  }
  if (corners.empty()) throw UsageError("--sdf lists no corner files");

  SimConfig config;
  config.t_end = options.number("t-end", kNeverNs);
  const RunSupervisor supervisor = make_supervisor(options, env);

  // Record at the first corner's elaboration: the trace's scheduling
  // decisions then hold exactly for that corner (bit-exact fast replay)
  // and usually for the neighbouring corners of the same annotation.
  TimingGraph reference = library;
  const std::size_t ref_applied =
      apply_sdf(reference, read_sdf(read_input(env, corners.front())));
  replay::ResimEngine engine(std::move(reference), model, stimulus, config);
  engine.record(&supervisor);
  const replay::Trace& trace = engine.trace();
  out << "model: " << model.name() << "\n";
  out << "reference corner " << corners.front() << ": " << ref_applied
      << " IOPATH records annotate the recording\n";
  out << "recorded trace: " << trace.ops.size() << " ops ("
      << (trace.op_bytes() + 1023) / 1024 << " KiB), " << trace.num_events
      << " events"
      << (trace.replayable ? "" : " -- not replayable (event limit), corners run full")
      << "\n";

  replay::ResimSession session(engine);
  for (const std::string& path : corners) {
    // Every corner is the library elaboration plus that corner's own SDF: a
    // pin one corner leaves unannotated keeps its library delay, never the
    // reference corner's.
    TimingGraph corner = library;
    const SdfFile sdf = read_sdf(read_input(env, path));
    const std::size_t applied = apply_sdf(corner, sdf);
    const replay::ResimSample sample = session.evaluate(
        corner, library.netlist().primary_outputs(), /*want_hash=*/true, &supervisor);
    out << "corner " << path << ": " << applied << " IOPATH record"
        << (applied == 1 ? "" : "s") << ", critical t50 "
        << format_double(sample.critical_t50, 9) << " ns, hash "
        << hex64(sample.history_hash)
        << (sample.fallback ? " [full fallback]" : " [replayed]") << "\n";
  }
  if (session.fallbacks() > 0) {
    out << "fallbacks: " << session.fallbacks() << " / " << corners.size()
        << " corners\n";
  }
  return 0;
}

int cmd_sim(const Options& options, std::ostream& out, const ServiceEnv& env) {
  const DelayModel model = make_model(options);
  const bool replay = options.get("replay").has_value();
  // One elaborated timing database for the run; --sdf back-annotates it
  // (the third-party-netlist scenario: IOPATH delays replace the library's
  // conventional part, the inertial/degradation treatment stays).  Under
  // --replay the flag instead lists corner files, so the elaboration skips
  // it (sim_replay_corners annotates copies of it, one per corner).
  const std::shared_ptr<const serve::Elaboration> elab =
      service_elaboration(env, options, model.timing_policy(), /*want_sdf=*/!replay);
  const Netlist& netlist = elab->netlist;
  const Stimulus stimulus = load_stimulus(env, options, netlist);
  if (replay) {
    return sim_replay_corners(env, options, elab->graph, model, stimulus, out);
  }
  if (const auto sdf_path = options.get("sdf")) {
    serve::print_sdf_facts(out, elab->sdf, *sdf_path);
  }
  const TimingGraph& timing = elab->graph;

  SimConfig config;
  config.t_end = options.number("t-end", kNeverNs);
  const RunSupervisor supervisor = make_supervisor(options, env);

  // Daemon workers recycle one pooled Simulator across requests
  // (SimulatorLease rebind()s it onto this request's elaboration -- results
  // are bit-identical to a fresh construction); local mode builds its own.
  std::unique_ptr<Simulator> owned_sim;
  Simulator* simp = nullptr;
  if (env.daemon() && env.io->lease != nullptr) {
    simp = &env.io->lease->acquire(elab, model, config);
  } else {
    owned_sim = std::make_unique<Simulator>(netlist, model, timing, config);
    simp = owned_sim.get();
  }
  Simulator& sim = *simp;
  sim.supervise(&supervisor);
  sim.apply_stimulus(stimulus);
  const RunResult result = sim.run();

  const SimStats& stats = sim.stats();
  out << "model: " << model.name() << "\n";
  out << "finished at t = " << format_double(result.end_time, 6) << " ns ("
      << (result.reason == StopReason::kQueueExhausted    ? "queue exhausted"
          : result.reason == StopReason::kHorizonReached  ? "horizon reached"
                                                          : "event limit")
      << ")\n";
  out << "events: processed " << stats.events_processed << ", filtered "
      << stats.filtered_events() << ", transitions " << stats.surviving_transitions()
      << "\n";
  if (result.reason == StopReason::kEventLimit) {
    out << "event limit hit -- most active signals (possible oscillation):\n";
    for (const SignalId sig : sim.most_active_signals(5)) {
      out << "  " << netlist.signal(sig).name << ": " << sim.toggle_count(sig)
          << " transitions\n";
    }
  }
  out << "final output values:\n";
  for (const SignalId po : netlist.primary_outputs()) {
    out << "  " << netlist.signal(po).name << " = " << (sim.final_value(po) ? 1 : 0)
        << "\n";
  }
  if (options.get("hash")) {
    out << "history hash: " << hex64(replay::hash_sim_history(sim)) << "\n";
  }

  if (options.get("report")) {
    out << '\n' << format_activity(compute_activity(sim), 20);
  }
  if (options.get("waves")) {
    const TimeNs horizon = std::max(result.end_time, 1.0);
    AsciiPlot plot(0.0, horizon * 1.05, 100);
    for (const SignalId po : netlist.primary_outputs()) {
      plot.add_digital(netlist.signal(po).name,
                       DigitalWaveform::from_transitions(sim.initial_value(po),
                                                         sim.history(po)));
    }
    out << '\n' << plot.render();
  }
  if (const auto vcd_path = options.get("vcd")) {
    const VcdWriter vcd = vcd_from_simulator(sim);
    std::ostringstream bytes;
    vcd.write(bytes);
    publish_artifact(env, *vcd_path, bytes.str(), out);
  }
  return 0;
}

/// Monte-Carlo per-gate delay variation.  With --replay, samples re-time
/// a recorded trace instead of re-simulating; the CSV/report artifacts
/// are byte-identical with or without it, at any thread count.
int cmd_variation(const Options& options, std::ostream& out, const ServiceEnv& env) {
  const DelayModel model = make_model(options);
  // Variation builds per-sample graphs itself, so only the parsed netlist
  // is consumed here -- it still flows through the shared elaboration so a
  // daemon serves it from (and primes) the same cache entry sim/sta use.
  const std::shared_ptr<const serve::Elaboration> elab =
      service_elaboration(env, options, model.timing_policy(), /*want_sdf=*/false);
  const Netlist& netlist = elab->netlist;
  const Stimulus stimulus = load_stimulus(env, options, netlist);

  replay::VariationConfig config;
  const std::uint64_t samples = usage_unsigned(options, "samples", 200);
  if (samples < 1) throw UsageError("--samples must be >= 1");
  config.samples = static_cast<std::size_t>(samples);
  config.seed = usage_unsigned(options, "seed", 1);
  config.sigma = options.number("sigma", 0.1);
  if (!(config.sigma >= 0.0)) throw UsageError("--sigma must be >= 0");
  config.threads = usage_count(options, "threads", 1);
  config.use_replay = options.get("replay").has_value();
  config.sim.t_end = options.number("t-end", kNeverNs);

  const RunSupervisor supervisor = make_supervisor(options, env);
  const replay::VariationResult result = replay::run_variation(
      netlist, model, stimulus, netlist.primary_outputs(), config, &supervisor);

  out << replay::format_variation_report(result, config);
  if (result.replay_used) {
    // Console-only diagnostics: the artifacts below carry no mode, thread,
    // or fallback information (byte-identity across modes).
    out << "replay: " << (result.rows.size() - result.fallbacks) << " replayed, "
        << result.fallbacks << " full fallback" << (result.fallbacks == 1 ? "" : "s")
        << "\n";
  }
  if (const auto csv_path = options.get("csv")) {
    publish_artifact(env, *csv_path, replay::format_variation_csv(result), out);
  }
  if (const auto report_path = options.get("out")) {
    publish_artifact(env, *report_path, replay::format_variation_report(result, config),
                     out);
  }
  return 0;
}

int cmd_analog(const Options& options, std::ostream& out, const ServiceEnv& env) {
  const Netlist netlist = load_netlist(options, default_library());
  const Stimulus stimulus = load_stimulus(env, options, netlist);
  const TimeNs t_end = options.number("t-end", stimulus.last_edge_time() + 10.0);

  AnalogSim sim(netlist);
  sim.apply_stimulus(stimulus);
  sim.run(t_end);
  out << "analog reference: " << sim.steps() << " steps, " << sim.stage_evals()
      << " stage evaluations\n";
  out << "final output values:\n";
  for (const SignalId po : netlist.primary_outputs()) {
    out << "  " << netlist.signal(po).name << " = "
        << format_double(sim.voltage(po), 4) << " V\n";
  }
  if (const auto csv_path = options.get("csv")) {
    std::ostringstream csv;
    csv << "t_ns";
    for (const SignalId po : netlist.primary_outputs()) {
      csv << ',' << netlist.signal(po).name;
    }
    csv << '\n';
    const AnalogTrace& first = sim.trace(netlist.primary_outputs()[0]);
    for (std::size_t i = 0; i < first.size(); ++i) {
      csv << format_double(first.time_of(i), 6);
      for (const SignalId po : netlist.primary_outputs()) {
        csv << ',' << format_double(sim.trace(po).sample(i), 5);
      }
      csv << '\n';
    }
    write_file_atomic(*csv_path, csv.str());
    out << "wrote " << *csv_path << "\n";
  }
  return 0;
}

int cmd_sta(const Options& options, std::ostream& out, const ServiceEnv& env) {
  // STA reads the same elaborated arcs the simulator would evaluate;
  // --sdf analyzes the back-annotated database.
  const std::shared_ptr<const serve::Elaboration> elab =
      service_elaboration(env, options, TimingPolicy{}, /*want_sdf=*/true);
  if (const auto sdf_path = options.get("sdf")) {
    serve::print_sdf_facts(out, elab->sdf, *sdf_path);
  }
  const StaticTimingAnalyzer sta(elab->netlist, elab->graph,
                                 options.number("slew", 0.5));
  const TimingReport report = sta.analyze();
  out << StaticTimingAnalyzer::format(report, elab->netlist);
  if (options.get("per-arc")) {
    out << '\n' << elab->graph.format_arcs();
  }
  return 0;
}

int cmd_lint(const Options& options, std::ostream& out, const ServiceEnv& env) {
  const std::string format = options.get("format").value_or("text");
  if (format != "text" && format != "json") throw UsageError("--format must be text|json");
  const std::string fail_on = options.get("fail-on").value_or("error");
  if (fail_on != "error" && fail_on != "warn" && fail_on != "warning" && fail_on != "none") {
    throw UsageError("--fail-on must be error|warn|none");
  }
  // `--format` selects the *output* format here, so the netlist dialect
  // comes from `--netlist-format` or the file extension.
  const std::string netlist_path = options.require_flag("netlist");
  const std::string netlist_format =
      options.get("netlist-format").value_or(extension_format(netlist_path));
  const std::string netlist_text = read_file(netlist_path);
  const DelayModel model = make_model(options);
  const RunSupervisor supervisor = make_supervisor(options, env);
  const auto sdf_path = options.get("sdf");
  std::optional<std::string> sdf_text;
  if (sdf_path) sdf_text = read_file(*sdf_path);
  const std::shared_ptr<const serve::Elaboration> elab = serve::build_elaboration(
      default_library(), netlist_text, netlist_format, model.timing_policy(),
      sdf_text.has_value() ? &*sdf_text : nullptr);
  const Netlist& netlist = elab->netlist;

  // SDF annotation progress and per-pin warnings go to the console only in
  // text mode: `--format json` on stdout must stay a pure JSON document
  // (the same information is in the TIM-SDF-MISSING findings).
  std::ostringstream timing_log;
  if (sdf_path) serve::print_sdf_facts(timing_log, elab->sdf, *sdf_path);

  lint::LintOptions lint_options;
  lint_options.input_slew = options.number("slew", 0.5);
  lint_options.fanout_limit = usage_count(options, "fanout-limit", 64);
  lint_options.sdf_coverage = sdf_path.has_value();
  lint_options.supervisor = &supervisor;
  lint::LintReport report = lint::run_lint(netlist, elab->graph, lint_options);

  if (const auto baseline_path = options.get("baseline")) {
    lint::apply_baseline(report, lint::parse_baseline(read_file(*baseline_path)));
  }
  if (const auto baseline_path = options.get("write-baseline")) {
    write_file_atomic(*baseline_path, lint::format_baseline(report));
  }

  const std::string rendered = format == "json" ? lint::format_json(report, netlist)
                                                : lint::format_text(report);
  if (const auto out_path = options.get("out")) {
    write_file_atomic(*out_path, rendered);
    out << timing_log.str();
    out << "wrote " << *out_path << " (" << report.findings.size() << " finding"
        << (report.findings.size() == 1 ? "" : "s") << ")\n";
  } else {
    if (format == "text") out << timing_log.str();
    out << rendered;
  }

  if (fail_on == "none") return 0;
  const lint::Severity threshold =
      fail_on == "error" ? lint::Severity::kError : lint::Severity::kWarning;
  return lint::should_fail(report, threshold) ? 1 : 0;
}

int cmd_fault(const Options& options, std::ostream& out, const ServiceEnv& env) {
  const DelayModel model = make_model(options);
  const std::shared_ptr<const serve::Elaboration> elab =
      service_elaboration(env, options, model.timing_policy(), /*want_sdf=*/false);
  const Netlist& netlist = elab->netlist;
  const int threads = usage_count(options, "threads", 0);
  const RunSupervisor supervisor = make_supervisor(options, env);

  if (options.get("atpg")) {
    AtpgOptions atpg;
    atpg.period = options.number("period", 5.0);
    atpg.max_candidates = usage_count(options, "candidates", 200);
    atpg.seed = usage_unsigned(options, "seed", 1);
    atpg.threads = threads;
    atpg.supervisor = &supervisor;
    const AtpgResult result = generate_tests(netlist, model, elab->graph, atpg);
    out << "ATPG: " << result.words.size() << " vectors, coverage " << result.detected
        << " / " << result.total_faults << " ("
        << format_double(100.0 * result.coverage(), 4) << "%)\n";
    out << "vectors (hex, PI bit 0 = " << netlist.signal(netlist.primary_inputs()[0]).name
        << "):";
    for (const std::uint64_t word : result.words) {
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, " 0x%llX",
                    static_cast<unsigned long long>(word));
      out << buffer;
    }
    out << "\n";
    if (!result.undetected.empty()) {
      out << "undetected:";
      for (const Fault& fault : result.undetected) {
        out << ' ' << fault_name(netlist, fault);
      }
      out << "\n";
    }
    return 0;
  }

  const Stimulus stimulus = load_stimulus(env, options, netlist);
  require(stimulus.last_edge_time() > 0.0, "fault simulation needs a --stim file");

  FaultSimOptions sampling;
  sampling.sample_period = options.number("period", 5.0);
  const bool early_exit = !options.get("no-early-exit");
  const auto start = std::chrono::steady_clock::now();
  // The engine runs on the shared elaboration's graph (the daemon's cached
  // one on a warm hit) instead of re-elaborating; verdicts are
  // bit-identical either way.
  CampaignEngine engine(netlist, model, elab->graph, threads);
  engine.supervise(&supervisor);
  const CampaignResult result = engine.run(stimulus, {}, sampling, early_exit);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  out << "stuck-at coverage: " << result.detected << " / " << result.total << " ("
      << format_double(100.0 * result.coverage(), 4) << "%) under " << model.name()
      << "\n";
  out << "campaign: " << result.threads_used << " thread"
      << (result.threads_used == 1 ? "" : "s") << ", "
      << result.events_processed << " events, "
      << format_double(wall_s, 4) << " s ("
      << format_double(wall_s > 0.0 ? static_cast<double>(result.total) / wall_s : 0.0, 5)
      << " faults/sec)\n";
  if (result.errors > 0) {
    out << "errors: " << result.errors << " faulty run"
        << (result.errors == 1 ? "" : "s") << " failed";
    if (result.retried > 0) out << " (" << result.retried << " retried)";
    out << "; first: " << result.first_error << "\n";
  } else if (result.retried > 0) {
    out << "retried: " << result.retried << " faulty run"
        << (result.retried == 1 ? "" : "s") << " after a transient failure\n";
  }
  if (!result.undetected.empty()) {
    out << "undetected:";
    for (const Fault& fault : result.undetected) {
      out << ' ' << fault_name(netlist, fault);
    }
    out << "\n";
  }
  return result.errors > 0 ? 1 : 0;
}

int cmd_repro(const Options& options, std::ostream& out, const ServiceEnv& env) {
  const repro::ExperimentRegistry registry = repro::ExperimentRegistry::builtin();

  if (options.get("list")) {
    out << "registered experiments:\n";
    for (const repro::Experiment& experiment : registry.experiments()) {
      char line[256];
      std::snprintf(line, sizeof line, "  %-24s %-42s %s\n", experiment.id.c_str(),
                    ("[paper " + experiment.paper_ref + "]").c_str(),
                    experiment.description.c_str());
      out << line;
    }
    return 0;
  }

  repro::RunOptions run_options;
  run_options.quick = options.get("quick").has_value();
  run_options.threads = usage_count(options, "threads", 0);
  if (const auto only = options.get("only")) {
    for (const std::string& id : split(*only, ',')) {
      if (!id.empty()) run_options.only.push_back(id);
    }
    require(!run_options.only.empty(), "--only needs at least one experiment id");
  }
  if (const auto golden = options.get("golden")) {
    run_options.golden_text = read_file(*golden);
  }
  const RunSupervisor supervisor = make_supervisor(options, env);
  run_options.supervisor = &supervisor;

  const auto start = std::chrono::steady_clock::now();
  const repro::RunReport report = repro::run_experiments(registry, run_options);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  // Write the artifact tree: <out>/<experiment>/<artifact>, plus the report
  // and the flat hash listing (HASHES.txt is byte-compatible with the
  // committed golden file).  All crash-safe: temp file + atomic rename, so
  // an aborted run never leaves a torn artifact behind.
  const std::filesystem::path out_dir{options.get("out").value_or("repro-out")};
  std::filesystem::create_directories(out_dir);
  for (const repro::ExperimentOutcome& outcome : report.outcomes) {
    std::filesystem::create_directories(out_dir / outcome.id);
    for (const repro::Artifact& artifact : outcome.result.artifacts) {
      write_file_atomic(out_dir / outcome.id / artifact.name, artifact.content);
    }
  }
  write_file_atomic(out_dir / "REPORT.md", repro::format_report_markdown(report));
  // The header makes HASHES.txt self-describing, so blessing new goldens is
  // exactly `cp HASHES.txt tests/repro/golden_quick.txt` (comments survive
  // the copy; parse_goldens skips them).
  const std::string hashes_header =
      std::string("# HALOTIS repro artifact hashes (") +
      (run_options.quick ? "quick" : "full") +
      " mode); format: <experiment> <artifact> <fnv1a64>.\n"
      "# Bless as goldens (quick mode only): cp HASHES.txt "
      "tests/repro/golden_quick.txt -- see docs/REPRODUCTION.md.\n";
  write_file_atomic(out_dir / "HASHES.txt",
                    hashes_header + repro::format_goldens(report.hashes()));

  // Console summary (wall time and verdicts stay out of the artifacts).
  for (const repro::ExperimentOutcome& outcome : report.outcomes) {
    char line[256];
    std::snprintf(line, sizeof line, "  %-24s %-38s %s\n", outcome.id.c_str(),
                  ("[paper " + outcome.paper_ref + "]").c_str(),
                  !outcome.error.empty() ? "ERROR"
                  : outcome.failed()     ? "GOLDEN MISMATCH"
                                         : "ok");
    out << line;
    if (!outcome.error.empty()) out << "    " << outcome.error << "\n";
  }
  out << "wrote " << (out_dir / "REPORT.md").string() << " ("
      << report.outcomes.size() << " experiments, " << report.artifacts_total
      << " artifacts, " << format_double(wall_s, 4) << " s)\n";
  if (report.compared_goldens) {
    out << "golden hashes: " << report.golden_matches << "/" << report.artifacts_total
        << " match";
    if (report.golden_mismatches > 0) {
      out << ", " << report.golden_mismatches << " MISMATCH";
    }
    if (report.golden_missing > 0) out << ", " << report.golden_missing << " without golden";
    if (!report.stale_goldens.empty()) {
      out << ", " << report.stale_goldens.size() << " stale";
    }
    out << "\n";
  }
  return report.ok() ? 0 : 1;
}

int cmd_convert(const Options& options, std::ostream& out, const ServiceEnv& /*env*/) {
  const Netlist netlist = load_netlist(options, default_library());
  const std::string to = options.require_flag("to");
  std::string text;
  if (to == "bench") {
    text = write_bench(netlist);
  } else if (to == "verilog") {
    text = write_verilog(netlist);
  } else if (to == "native") {
    text = write_netlist(netlist);
  } else if (to == "sdf") {
    text = write_sdf(netlist, options.number("slew", 0.5));
  } else {
    throw UsageError("unknown target format '" + to + "'");
  }
  if (const auto path = options.get("out")) {
    write_file_atomic(*path, text);
    out << "wrote " << *path << "\n";
  } else {
    out << text;
  }
  return 0;
}

/// `halotis serve`: the resident daemon (docs/DAEMON.md).  Binds the Unix
/// socket, parks the worker pool in accept loops, and blocks until SIGINT
/// or SIGTERM trips the process token -- then drains, unlinks the socket
/// and reports what it served.
int cmd_serve(const Options& options, std::ostream& out, const ServiceEnv& /*env*/) {
  serve::ServeOptions serve_options;
  serve_options.socket_path = options.require_flag("socket");
  serve_options.threads = usage_count(options, "threads", 0);
  serve_options.cache_bytes = usage_mebibytes(options, "cache-mb", 256.0);
  if (serve_options.cache_bytes == 0) throw UsageError("--cache-mb must be > 0");
  serve_options.idle_timeout_ms = usage_count(options, "idle-timeout-ms", 30000);
  serve_options.stop = cli_cancel_token();
  // SIGTERM drains exactly like Ctrl-C: systemd stop / CI teardown get a
  // clean socket unlink and only whole artifacts.
  install_sigterm_cancel(cli_cancel_token());

  serve::Server server(
      serve_options,
      [](const std::vector<std::string>& request_args, serve::ServeContext& context,
         serve::RequestIo& io, std::ostream& request_out, std::ostream& request_err) {
        return run_cli_service(request_args, request_out, request_err, &context, &io);
      });
  out << "serving on " << serve_options.socket_path << " (" << server.threads()
      << " worker" << (server.threads() == 1 ? "" : "s") << ", cache "
      << serve_options.cache_bytes / (1024 * 1024) << " MiB)\n";
  out.flush();
  server.run();

  const serve::Server::Stats stats = server.stats();
  const serve::ElabCache::Stats cache = server.cache_stats();
  out << "drained: " << stats.requests << " request" << (stats.requests == 1 ? "" : "s")
      << " over " << stats.connections << " connection"
      << (stats.connections == 1 ? "" : "s") << ", cache " << cache.hits << " hit"
      << (cache.hits == 1 ? "" : "s") << " / " << cache.misses << " miss"
      << (cache.misses == 1 ? "" : "es") << ", " << stats.protocol_errors
      << " protocol error" << (stats.protocol_errors == 1 ? "" : "s") << ", "
      << stats.aborted_connections << " aborted connection"
      << (stats.aborted_connections == 1 ? "" : "s") << "\n";
  return 0;
}

/// One command: its handler and the flags it reads (its cmd_* and the
/// helpers it calls: service_elaboration, load_stimulus, make_model, ...).
/// Any other flag is a usage error naming it, so a typo (`--budget-event`)
/// or another command's flag never runs silently ignored.  Every command
/// also takes --failpoints.
struct Command {
  std::string_view name;
  int (*run)(const Options&, std::ostream&, const ServiceEnv&);
  bool routable;    ///< the daemon serves it: takes --connect
  bool supervised;  ///< takes make_supervisor's --budget-events,
                    ///< --budget-mem-mb and --deadline-s
  std::vector<std::string_view> flags;
};

/// The command named `name`, or nullptr.
const Command* find_command(std::string_view name) {
  static const std::vector<Command> commands{
      {"sim", cmd_sim, true, true,
       {"netlist", "format", "stim", "model", "t-end", "sdf", "replay", "vcd", "report",
        "waves", "hash"}},
      {"variation", cmd_variation, true, true,
       {"netlist", "format", "stim", "model", "sigma", "samples", "seed", "threads",
        "replay", "t-end", "csv", "out"}},
      {"analog", cmd_analog, false, false, {"netlist", "format", "stim", "t-end", "csv"}},
      {"sta", cmd_sta, true, false, {"netlist", "format", "sdf", "slew", "per-arc"}},
      {"lint", cmd_lint, false, true,
       {"netlist", "netlist-format", "format", "model", "sdf", "slew", "fanout-limit",
        "out", "baseline", "write-baseline", "fail-on"}},
      {"fault", cmd_fault, true, true,
       {"netlist", "format", "stim", "model", "period", "threads", "no-early-exit", "atpg",
        "candidates", "seed"}},
      {"repro", cmd_repro, false, true,
       {"list", "only", "quick", "out", "threads", "golden"}},
      {"convert", cmd_convert, false, false, {"netlist", "format", "to", "slew", "out"}},
      {"serve", cmd_serve, false, false,
       {"socket", "threads", "cache-mb", "idle-timeout-ms"}},
  };
  for (const Command& command : commands) {
    if (command.name == name) return &command;
  }
  return nullptr;
}

/// Throws a UsageError for the first flag `command` does not take.
void check_flags(const Command& command, const Options& options) {
  static constexpr std::string_view kSupervision[] = {"budget-events", "budget-mem-mb",
                                                      "deadline-s"};
  for (const auto& [name, value] : options.flags) {
    const bool taken = name == "failpoints" || (name == "connect" && command.routable) ||
                       (command.supervised && std::ranges::count(kSupervision, name) > 0) ||
                       std::ranges::count(command.flags, name) > 0;
    if (!taken) throw UsageError(std::string(command.name) + " has no --" + name);
  }
}

/// `--connect PATH` interception (local mode): ship the command's argv and
/// input files to a resident daemon, write the returned artifacts
/// atomically on this side, relay the captured console bytes -- a
/// successful exchange is byte-identical to running the command locally.
int run_connect(const Options& options, const std::vector<std::string>& args,
                std::ostream& out, std::ostream& err) {
  const std::string socket_path = *options.get("connect");
  std::vector<std::pair<std::string, std::string>> files;
  const auto ship = [&files](const std::string& path) {
    files.emplace_back(path, read_file(path));
  };
  if (const auto path = options.get("netlist")) ship(*path);
  if (const auto path = options.get("stim")) ship(*path);
  if (const auto path = options.get("sdf")) {
    if (options.command == "sim" && options.get("replay")) {
      // Replay corners: --sdf lists several files, comma-separated.
      for (const std::string& corner : split(*path, ',')) {
        if (!corner.empty()) ship(corner);
      }
    } else {
      ship(*path);
    }
  }
  // Forward everything but the flags consumed on this side: --connect
  // itself, and --failpoints (already armed in this process so the io.*
  // sites fire on the client-side artifact writes; the daemon rejects a
  // forwarded copy).
  std::vector<std::string> forwarded;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--connect" || args[i] == "--failpoints") {
      if (i + 1 < args.size() && !starts_with(args[i + 1], "--")) ++i;
      continue;
    }
    forwarded.push_back(args[i]);
  }
  return serve::run_connected(socket_path, forwarded, files, out, err,
                              &cli_cancel_token());
}

}  // namespace

const CancelToken& cli_cancel_token() {
  static const CancelToken token;
  return token;
}

std::string cli_usage() {
  return R"(halotis -- high-accuracy logic timing simulator (IDDM)

usage: halotis <command> [flags]

commands:
  sim      event-driven timing simulation
           --netlist F [--format bench|verilog|native] [--stim F]
           [--model ddm|cdm|cdm-classical|transport] [--t-end NS]
           [--sdf F] [--vcd F] [--report] [--waves] [--hash]
           one serial event loop; batch work in parallel with fault,
           variation or serve --threads
           --sdf A[,B...] --replay   record the causal trace once, re-time
           each SDF corner through the replayer (docs/REPLAY.md)
  variation  Monte-Carlo per-gate delay variation (docs/REPLAY.md)
           --netlist F [--stim F] [--model M] [--sigma S] [--samples N]
           [--seed N] [--threads N] [--replay] [--csv F] [--out F]
           --replay re-times a recorded trace per sample; CSV/report
           artifacts are byte-identical with or without it, at any N
  analog   transistor-level reference simulation
           --netlist F [--stim F] [--t-end NS] [--csv F]
  sta      static timing analysis (conventional worst case)
           --netlist F [--slew NS] [--sdf F] [--per-arc]
  lint     static structural / hazard / timing analysis (docs/LINT.md)
           --netlist F (or: halotis lint F)
           [--netlist-format bench|verilog|native] [--format text|json]
           [--sdf F] [--slew NS] [--fanout-limit N] [--out F]
           [--baseline F] [--write-baseline F] [--fail-on error|warn|none]
           exit 1 when findings at/above --fail-on survive the baseline
  fault    parallel stuck-at fault campaign / test generation
           --netlist F --stim F [--model M] [--period NS]
           [--threads N] [--no-early-exit]
           --netlist F --atpg [--candidates N] [--seed N] [--threads N]
  repro    paper-reproduction experiment engine (docs/REPRODUCTION.md)
           [--list] [--only ID[,ID...]] [--quick] [--out DIR]
           [--threads N] [--golden F]
  convert  netlist format conversion / delay annotation export
           --netlist F --to bench|verilog|native|sdf [--slew NS] [--out F]
  serve    resident simulation daemon (docs/DAEMON.md)
           --socket PATH [--threads N] [--cache-mb M] (default 256)
           keeps a keyed LRU cache of elaborated designs and a pooled
           simulator per worker; SIGINT/SIGTERM drain gracefully
           sim, sta, fault and variation accept --connect PATH to route
           the request through a running daemon -- console output and
           artifacts are byte-identical to running locally

supervision (sim, variation, fault, repro, lint -- docs/ARCHITECTURE.md):
  --budget-events N    error out (exit 3) after N processed events
  --budget-mem-mb N    error out (exit 3) past N MiB of kernel arenas
  --deadline-s S       error out (exit 4) after S wall-clock seconds
  --failpoints SPEC    arm fail points, e.g. "io.write@2;worker.task*"
                       (also read from $HALOTIS_FAILPOINTS); any command
  Ctrl-C cancels cooperatively (exit 5); artifacts are written via temp
  file + atomic rename, so no partial file survives any failure.

exit codes: 0 ok, 1 error, 2 usage, 3 budget, 4 deadline, 5 cancelled, 6 I/O
)";
}

int run_cli(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  return run_cli_service(args, out, err, nullptr, nullptr);
}

int run_cli_service(const std::vector<std::string>& args, std::ostream& out,
                    std::ostream& err, serve::ServeContext* context,
                    serve::RequestIo* io) {
  const ServiceEnv env{context, io};
  // Fail-point arming is scoped to this invocation: sites armed from the
  // environment or --failpoints are disarmed on every exit path so repeated
  // in-process calls (tests) stay isolated.  Sites armed through the test
  // API before the call are intentionally cleared too -- arm per call.
  // Daemon-side requests never touch the registry: the sites stay whatever
  // the daemon process armed (per-request arming would race across
  // workers).
  bool armed_failpoints = false;
  struct DisarmGuard {
    bool* armed;
    ~DisarmGuard() {
      if (*armed) FailPoints::instance().disarm_all();
    }
  } disarm_guard{&armed_failpoints};
  try {
    if (args.empty() || args[0] == "help" || args[0] == "--help") {
      out << cli_usage();
      return args.empty() ? 2 : 0;
    }
    // `halotis lint <netlist>` convenience form: a bare first operand is
    // the netlist path (the documented house style stays --netlist).
    std::vector<std::string> expanded = args;
    if (expanded.size() >= 2 && expanded[0] == "lint" && !starts_with(expanded[1], "--")) {
      expanded.insert(expanded.begin() + 1, "--netlist");
    }
    const Options options = parse_args(expanded);
    const Command* command = find_command(options.command);
    // The daemon serves the four commands whose inputs ship in the request
    // frame and whose elaborations cache; everything else -- and anything
    // process-global -- is a usage error back to the client.
    if (env.daemon() && (command == nullptr || !command->routable)) {
      throw UsageError("daemon serves sim, sta, fault and variation (got '" +
                       options.command + "')");
    }
    if (command == nullptr) {
      err << "unknown command '" << options.command << "'\n" << cli_usage();
      return 2;
    }
    check_flags(*command, options);
    if (env.daemon()) {
      if (options.get("connect")) {
        throw UsageError("--connect cannot be forwarded through a daemon");
      }
      if (options.get("failpoints")) {
        throw UsageError("--failpoints is process-wide; arm it on the daemon itself");
      }
    } else {
      std::string failpoint_spec;
      if (const char* env_spec = std::getenv("HALOTIS_FAILPOINTS")) {
        failpoint_spec = env_spec;
      }
      if (const auto flag = options.get("failpoints")) failpoint_spec = *flag;
      if (!failpoint_spec.empty()) {
        FailPoints::instance().arm_spec(failpoint_spec);
        armed_failpoints = true;
      }
      if (options.get("connect")) return run_connect(options, expanded, out, err);
    }
    return command->run(options, out, env);
  } catch (const UsageError& e) {
    err << "usage error: " << e.what() << "\n" << cli_usage();
    return 2;
  } catch (const RunError& e) {
    // The structured taxonomy maps onto documented exit codes (README.md):
    // 3 budget, 4 deadline, 5 cancelled, 6 I/O, 1 contract violation.
    err << "error (" << RunError::kind_name(e.kind()) << "): " << e.what() << "\n";
    return e.exit_code();
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace halotis
