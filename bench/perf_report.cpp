// Kernel perf report: deterministic hot-path workloads -> BENCH_kernel.json.
//
// Runs the Table-2 multiplier sequences plus larger scaling workloads (the
// 8x8 multiplier under a pseudo-random word stream, a random DAG and a
// layered synthetic design) under both delay models, and emits one JSON
// run-record containing, per workload: events/sec, best-of-N wall time,
// the full SimStats counters and a 64-bit FNV-1a hash of every surviving
// transition (signal, edge, t_start, tau).
// The hash makes kernel regressions visible: any change to event ordering,
// filtering decisions or float arithmetic changes it, so two kernels that
// report the same hash on all workloads produced bit-identical waveforms.
// First of all it records the cold path -- parse, TimingGraph::build and
// Simulator construction, per deck -- and, in full mode, the warm event
// loop alone on the 100k-gate layered design (docs/BENCHMARKS.md).
//
// Usage: perf_report [--quick] [--label NAME] [--out FILE] [--append]
//   --quick    shorter sequences / fewer repetitions (CI smoke tier)
//   --label    run label recorded in the JSON (default "dev")
//   --out      output path (default BENCH_kernel.json in the CWD)
//   --append   append this run to an existing JSON array instead of
//              overwriting (the perf-trajectory mode: one entry per PR)
//
// The committed /BENCH_kernel.json is the perf trajectory: every PR that
// touches the kernel appends a labelled entry (see docs/BENCHMARKS.md).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/base/fileio.hpp"
#include "src/base/fnv.hpp"
#include "src/base/rng.hpp"
#include "src/base/supervision.hpp"
#include "src/circuits/generators.hpp"
#include "src/core/delay_model.hpp"
#include "src/core/simulator.hpp"
#include "src/fault/campaign.hpp"
#include "src/fault/fault.hpp"
#include "src/lint/lint.hpp"
#include "src/parsers/bench_format.hpp"
#include "src/parsers/netlist_io.hpp"
#include "src/replay/history_hash.hpp"
#include "src/replay/resim.hpp"
#include "src/serve/client.hpp"
#include "src/serve/server.hpp"
#include "src/serve/service.hpp"
#include "src/serve/socket_io.hpp"
#include "src/timing/timing_graph.hpp"
#include "src/tools/cli.hpp"

using namespace halotis;
using namespace halotis::bench;

namespace {

struct WorkloadResult {
  std::string name;
  std::string model;
  std::size_t gates = 0;
  double wall_s = 0.0;  // minimum over repetitions (noise-robust)
  double events_per_sec = 0.0;
  SimStats stats;
  std::uint64_t history_hash = 0;
  std::uint64_t transitions_total = 0;   // transition-arena length after run
  std::uint64_t peak_live_transitions = 0;  // peak transitions holding a pair chain
  std::uint64_t arena_bytes = 0;            // transition + event arena footprint
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// ---- cold-path workload ------------------------------------------------------

/// One deck of the cold path a one-shot request pays before its first
/// event: netlist text -> Netlist (parse) -> TimingGraph::build ->
/// Simulator construction.  Each phase is timed per rep; the record keeps
/// the median and the quartiles, plus the peak-RSS growth over the reps.
struct ColdPathDeck {
  std::string name;
  std::string format;  ///< "bench" or "native"
  std::size_t bytes = 0;
  std::size_t gates = 0;
  int reps = 0;
  std::array<double, 3> parse_ms{};      ///< q1, median, q3
  std::array<double, 3> build_ms{};
  std::array<double, 3> construct_ms{};
  double peak_rss_growth_mb = 0.0;
};

/// q1, median, q3 by linear interpolation between order statistics.
std::array<double, 3> quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const auto at = [&values](double q) {
    const double k = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(k);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (k - static_cast<double>(lo));
  };
  return {at(0.25), at(0.5), at(0.75)};
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

ColdPathDeck run_cold_path_deck(const std::string& name, const std::string& format,
                                const std::string& text, const Library& lib, int reps) {
  const DdmDelayModel ddm;
  ColdPathDeck deck;
  deck.name = name;
  deck.format = format;
  deck.bytes = text.size();
  deck.reps = reps;
  std::vector<double> parse_ms;
  std::vector<double> build_ms;
  std::vector<double> construct_ms;
  const double rss_before = peak_rss_mb();
  for (int rep = 0; rep < reps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    const Netlist netlist =
        format == "bench" ? read_bench(text, lib) : read_netlist(text, lib);
    parse_ms.push_back(1e3 * seconds_since(start));
    start = std::chrono::steady_clock::now();
    const TimingGraph graph = TimingGraph::build(netlist, ddm.timing_policy());
    build_ms.push_back(1e3 * seconds_since(start));
    start = std::chrono::steady_clock::now();
    const Simulator sim(netlist, ddm, graph, SimConfig{});
    construct_ms.push_back(1e3 * seconds_since(start));
    deck.gates = netlist.num_gates();
  }
  deck.peak_rss_growth_mb = peak_rss_mb() - rss_before;
  deck.parse_ms = quartiles(parse_ms);
  deck.build_ms = quartiles(build_ms);
  deck.construct_ms = quartiles(construct_ms);
  return deck;
}

/// The three cold-path decks, smallest first so each RSS growth is its own:
/// the 8x8 multiplier as .bench, a 2 000-gate random DAG in the native
/// format (it has AOI21 cells), and the 100k-gate layered design as .bench.
std::vector<ColdPathDeck> run_cold_path(const Library& lib, bool quick) {
  std::vector<ColdPathDeck> decks;
  decks.push_back(run_cold_path_deck("mult8", "bench",
                                     write_bench(make_multiplier(lib, 8).netlist), lib,
                                     quick ? 5 : 21));
  decks.push_back(run_cold_path_deck(
      "random_dag_2000", "native",
      write_netlist(make_random_circuit(lib, 48, 2000, 0xC01DULL).netlist), lib,
      quick ? 5 : 21));
  decks.push_back(run_cold_path_deck(
      "layered100k", "bench",
      write_bench(make_layered_circuit(lib, 500, 200, 0xC01DULL).netlist), lib,
      quick ? 2 : 7));
  return decks;
}

std::string cold_path_json(const std::vector<ColdPathDeck>& decks) {
  std::string json = "   \"cold_path\": [\n";
  for (std::size_t i = 0; i < decks.size(); ++i) {
    const ColdPathDeck& d = decks[i];
    const auto triple = [](const std::array<double, 3>& q) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "{\"q1\": %.4f, \"median\": %.4f, \"q3\": %.4f}",
                    q[0], q[1], q[2]);
      return std::string(buf);
    };
    char head[256];
    std::snprintf(head, sizeof head,
                  "    {\"deck\": \"%s\", \"format\": \"%s\", \"bytes\": %zu,"
                  " \"gates\": %zu, \"reps\": %d,\n",
                  d.name.c_str(), d.format.c_str(), d.bytes, d.gates, d.reps);
    char tail[160];
    std::snprintf(tail, sizeof tail,
                  "     \"parse_over_build\": %.2f, \"peak_rss_growth_mb\": %.1f}%s\n",
                  d.parse_ms[1] / d.build_ms[1], d.peak_rss_growth_mb,
                  i + 1 == decks.size() ? "" : ",");
    json += head;
    json += "     \"parse_ms\": " + triple(d.parse_ms) + ",\n";
    json += "     \"build_ms\": " + triple(d.build_ms) + ",\n";
    json += "     \"construct_ms\": " + triple(d.construct_ms) + ",\n";
    json += tail;
  }
  return json + "   ],\n";
}

// ---- warm kernel-loop workload ----------------------------------------------

/// The event loop alone, warm: one Simulator held on the 500 x 200 layered
/// design under DDM, re-armed with reset() + apply_stimulus() and timed
/// over run() only, for three staggered stimuli.  Each run's history hash
/// is timed on its own (hash_ms: the histories() layout plus the walk).
/// Full mode only.
struct KernelLoopSeed {
  std::uint64_t seed = 0;
  std::uint64_t events = 0;
  std::uint64_t peak_scheduled_events = 0;
  std::uint64_t history_hash = 0;
};
struct KernelLoopResult {
  std::string model;
  std::size_t gates = 0;
  std::size_t graph_arcs = 0;
  std::size_t distinct_arcs = 0;  ///< arcs the kernel evaluates (interned)
  int rounds = 0;
  std::array<double, 3> ns_per_event{};  ///< q1, median, q3 over every run
  double hash_ms = 0.0;                  ///< median hash_sim_history() over every run
  std::vector<KernelLoopSeed> seeds;
};

KernelLoopResult run_kernel_loop(const Library& lib, int rounds) {
  const DdmDelayModel ddm;
  const LayeredCircuit circuit = make_layered_circuit(lib, 500, 200, 0xC01DULL);
  const TimingGraph graph = TimingGraph::build(circuit.netlist, ddm.timing_policy());
  Simulator sim(circuit.netlist, ddm, graph);
  KernelLoopResult result;
  result.model = std::string(ddm.name());
  result.gates = circuit.netlist.num_gates();
  result.graph_arcs = graph.num_arcs();
  result.distinct_arcs = sim.distinct_arcs();
  result.rounds = rounds;
  std::vector<double> ns_per_event;
  std::vector<double> hash_ms;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Stimulus stim = staggered_random_stimulus(circuit.inputs, 4, seed);
    KernelLoopSeed row;
    row.seed = seed;
    for (int round = 0; round < rounds; ++round) {
      sim.reset();
      sim.apply_stimulus(stim);
      const auto start = std::chrono::steady_clock::now();
      (void)sim.run();
      const double wall_s = seconds_since(start);
      const std::uint64_t events = sim.stats().events_processed;
      ns_per_event.push_back(1e9 * wall_s / static_cast<double>(events));
      const auto hash_start = std::chrono::steady_clock::now();
      const std::uint64_t hash = replay::hash_sim_history(sim);
      hash_ms.push_back(1e3 * seconds_since(hash_start));
      if (round == 0) {
        row.events = events;
        row.peak_scheduled_events = sim.peak_scheduled_events();
        row.history_hash = hash;
      }
    }
    result.seeds.push_back(row);
  }
  result.ns_per_event = quartiles(ns_per_event);
  result.hash_ms = quartiles(hash_ms)[1];
  return result;
}

std::string kernel_loop_json(const KernelLoopResult& k) {
  char head[512];
  std::snprintf(head, sizeof head,
                "   \"kernel_loop\": {\"workload\": \"layered100k\", \"model\": \"%s\","
                " \"gates\": %zu, \"graph_arcs\": %zu, \"distinct_arcs\": %zu,"
                " \"rounds\": %d,\n"
                "    \"ns_per_event\": {\"q1\": %.1f, \"median\": %.1f, \"q3\": %.1f},"
                " \"hash_ms\": {\"median\": %.2f},\n"
                "    \"seeds\": [\n",
                k.model.c_str(), k.gates, k.graph_arcs, k.distinct_arcs, k.rounds,
                k.ns_per_event[0], k.ns_per_event[1], k.ns_per_event[2], k.hash_ms);
  std::string json = head;
  for (std::size_t i = 0; i < k.seeds.size(); ++i) {
    const KernelLoopSeed& row = k.seeds[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "     {\"seed\": %llu, \"events\": %llu, \"peak_scheduled_events\": %llu,"
                  " \"history_hash\": \"%016llx\"}%s\n",
                  static_cast<unsigned long long>(row.seed),
                  static_cast<unsigned long long>(row.events),
                  static_cast<unsigned long long>(row.peak_scheduled_events),
                  static_cast<unsigned long long>(row.history_hash),
                  i + 1 == k.seeds.size() ? "" : ",");
    json += line;
  }
  return json + "    ]},\n";
}

// ---- fault-campaign workload ------------------------------------------------

/// Full stuck-at campaign on the 8x8 multiplier (4x4 in quick mode) at 1
/// and 4 threads.  test_campaign checks the quick-mode workload's verdicts
/// against the serial reference simulator.
struct FaultCampaignResult {
  std::string name;
  std::size_t gates = 0;
  std::size_t faults = 0;
  std::size_t vectors = 0;
  std::size_t detected = 0;
  double campaign_1t_wall_s = 0.0;
  double campaign_4t_wall_s = 0.0;
  double faults_per_sec_4t = 0.0;
  bool verdicts_identical = false;  // 1t vs 4t verdicts
};

FaultCampaignResult run_fault_campaign_workload(const Library& lib, bool quick) {
  const DdmDelayModel ddm;
  const int bits = quick ? 4 : 8;
  MultiplierCircuit mult = make_multiplier(lib, bits);
  const std::size_t num_vectors = quick ? 6 : 10;
  const auto words = random_word_stream(2 * bits, num_vectors, 0x5851F42D4C957F2DULL);
  const Stimulus stim = multiplier_stimulus(mult, words);

  FaultCampaignResult result;
  result.name = bits == 8 ? "mult8_stuckat" : "mult4_stuckat";
  result.gates = mult.netlist.num_gates();
  result.vectors = num_vectors;

  const auto faults = enumerate_faults(mult.netlist);
  result.faults = faults.size();

  CampaignOptions options;
  options.threads = 1;
  auto start = std::chrono::steady_clock::now();
  const CampaignResult one = run_fault_campaign(mult.netlist, stim, ddm, faults, options);
  result.campaign_1t_wall_s = seconds_since(start);

  options.threads = 4;
  start = std::chrono::steady_clock::now();
  const CampaignResult four = run_fault_campaign(mult.netlist, stim, ddm, faults, options);
  result.campaign_4t_wall_s = seconds_since(start);

  result.detected = four.detected;
  result.verdicts_identical = four.detected == one.detected &&
                              four.verdicts == one.verdicts &&
                              four.undetected == one.undetected;
  result.faults_per_sec_4t =
      result.campaign_4t_wall_s > 0.0
          ? static_cast<double>(result.faults) / result.campaign_4t_wall_s
          : 0.0;
  return result;
}

template <class MakeStimulus>
WorkloadResult run_workload(const std::string& name, const Netlist& netlist,
                            const DelayModel& model, MakeStimulus&& make_stimulus,
                            int reps, const RunSupervisor* supervisor = nullptr) {
  WorkloadResult result;
  result.name = name;
  result.model = std::string(model.name());
  result.gates = netlist.num_gates();

  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    Simulator sim(netlist, model);
    sim.supervise(supervisor);
    sim.apply_stimulus(make_stimulus());
    (void)sim.run();
    times.push_back(seconds_since(start));
    if (r == 0) {
      result.stats = sim.stats();
      result.history_hash = replay::hash_sim_history(sim);
      result.transitions_total = sim.stats().transitions_created;
      result.peak_live_transitions = sim.peak_live_transitions();
      result.arena_bytes = sim.transition_arena_bytes() + sim.event_arena_bytes();
    }
  }
  // Minimum, not median: on a shared machine scheduling noise only ever
  // adds time, so the fastest repetition is the best estimate of the
  // kernel's intrinsic cost.
  result.wall_s = *std::min_element(times.begin(), times.end());
  result.events_per_sec =
      result.wall_s > 0.0 ? static_cast<double>(result.stats.events_processed) / result.wall_s
                          : 0.0;
  return result;
}

// ---- event-storm guard workload ---------------------------------------------

/// A NAND-kicked inverter-ring oscillator under DDM: once enabled the ring
/// re-excites itself indefinitely, the workload no SimConfig horizon would
/// tame without knowing the circuit.  The run is stopped by the
/// supervision layer's event budget instead (RunError, exit 3 at the CLI);
/// the stop point is a pure function of the event ordinal, so the
/// surviving history hashes bit-identically on every rerun -- the hash
/// rides the CI quick-hash diff like every other workload.
struct StormGuardResult {
  std::size_t gates = 0;
  std::uint64_t budget_events = 0;
  std::uint64_t events_processed = 0;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  bool budget_tripped = false;
  std::uint64_t history_hash = 0;
};

StormGuardResult run_storm_guard(const Library& lib, bool quick, int reps) {
  const DdmDelayModel ddm;
  Netlist nl(lib);
  const SignalId en = nl.add_primary_input("en");
  constexpr int kRingInverters = 6;  // even: NAND provides the ring inversion
  std::vector<SignalId> ring;
  for (int i = 0; i < kRingInverters + 1; ++i) {
    ring.push_back(nl.add_signal("r" + std::to_string(i)));
  }
  const SignalId nand_in[] = {en, ring.back()};
  nl.add_gate("g_kick", CellKind::kNand2, nand_in, ring[0]);
  for (int i = 0; i < kRingInverters; ++i) {
    const SignalId inv_in[] = {ring[static_cast<std::size_t>(i)]};
    nl.add_gate("g_inv" + std::to_string(i), CellKind::kInv, inv_in,
                ring[static_cast<std::size_t>(i) + 1]);
  }
  nl.mark_primary_output(ring.back());

  StormGuardResult result;
  result.gates = nl.num_gates();
  result.budget_events = quick ? 50000 : 500000;

  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    RunBudget budget;
    budget.max_events = result.budget_events;
    RunSupervisor supervisor(budget);
    supervisor.arm();
    const auto start = std::chrono::steady_clock::now();
    Simulator sim(nl, ddm);
    sim.supervise(&supervisor);
    Stimulus stim(0.4);
    stim.set_initial(en, false);
    stim.add_edge(en, 1.0, true);
    sim.apply_stimulus(stim);
    bool tripped = false;
    try {
      (void)sim.run();
    } catch (const RunError& e) {
      tripped = e.kind() == RunErrorKind::kBudgetExceeded;
    }
    times.push_back(seconds_since(start));
    if (r == 0) {
      result.budget_tripped = tripped;
      result.events_processed = sim.stats().events_processed;
      result.history_hash = replay::hash_sim_history(sim);
    }
  }
  result.wall_s = *std::min_element(times.begin(), times.end());
  result.events_per_sec =
      result.wall_s > 0.0
          ? static_cast<double>(result.events_processed) / result.wall_s
          : 0.0;
  return result;
}

// ---- lint throughput workload -----------------------------------------------

/// Static analyzer (PR 8) over the same layered circuit as the layered
/// workload: full structural + hazard + timing lint on the 100k-gate
/// generator output (10k quick).  Gates/sec keeps lint on the perf
/// trajectory; findings_hash (FNV-1a over the sorted finding ids, which
/// already encode rule + location) pins the analyzer's verdicts.  The field
/// is deliberately NOT called history_hash -- the CI quick-hash diff greps
/// every history_hash in order and lint findings are not a waveform.
struct LintThroughputResult {
  std::string name;
  std::size_t gates = 0;
  std::size_t findings = 0;
  std::size_t hazard_gates = 0;
  std::size_t capped_sources = 0;
  double wall_s = 0.0;
  double gates_per_sec = 0.0;
  std::uint64_t findings_hash = 0;
};

LintThroughputResult run_lint_throughput(const Library& lib, bool quick,
                                         int reps) {
  const DdmDelayModel ddm;
  const int width = quick ? 100 : 500;
  const int depth = quick ? 100 : 200;
  LayeredCircuit circuit = make_layered_circuit(lib, width, depth, 7);
  const TimingGraph timing =
      TimingGraph::build(circuit.netlist, ddm.timing_policy());

  LintThroughputResult result;
  result.name = quick ? "layered10k_lint" : "layered100k_lint";
  result.gates = circuit.netlist.num_gates();

  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    const lint::LintReport report =
        lint::run_lint(circuit.netlist, timing, lint::LintOptions{});
    times.push_back(seconds_since(start));
    if (r == 0) {
      result.findings = report.findings.size();
      result.hazard_gates = report.hazard_gates.size();
      result.capped_sources = report.capped_sources;
      std::uint64_t hash = kFnv1aOffset;
      for (const lint::Finding& finding : report.findings) {
        hash = fnv1a(hash, &finding.id, sizeof finding.id);
      }
      result.findings_hash = hash;
    }
  }
  result.wall_s = *std::min_element(times.begin(), times.end());
  result.gates_per_sec =
      result.wall_s > 0.0 ? static_cast<double>(result.gates) / result.wall_s
                          : 0.0;
  return result;
}

// ---- replay throughput workload ---------------------------------------------

/// Record-once / re-time-many engine on the 8x8 multiplier under a
/// tie-free staggered stimulus: one recording run, then `samples` per-gate
/// variation corners (sigma 1e-8, the corner-retiming regime where the
/// discrete scheduling decisions survive) evaluated twice -- one at a time
/// through ResimSession::evaluate (trace replay with full-sim fallback, the
/// walk `variation --replay` runs) and as independent full event
/// simulations.  samples/sec and the speedup keep the replay engine on the
/// perf trajectory; the two sample-0 hashes (replayed vs full) ride the CI
/// quick-hash diff as a pair and must be identical -- the bit-for-bit
/// differential oracle on the perf path.
struct ReplayThroughputResult {
  std::string name;
  std::size_t gates = 0;
  std::size_t samples = 0;
  std::uint64_t replayed = 0;
  std::uint64_t fallbacks = 0;
  std::size_t trace_ops = 0;
  double record_wall_s = 0.0;
  double replay_wall_s = 0.0;  ///< all samples through the session
  double full_wall_s = 0.0;    ///< all samples as independent full sims
  double samples_per_sec_replay = 0.0;
  double speedup = 0.0;  ///< full_wall_s / replay_wall_s
  std::uint64_t hash_replay = 0;
  std::uint64_t hash_full = 0;
};

ReplayThroughputResult run_replay_throughput(const Library& lib, bool quick) {
  const DdmDelayModel ddm;
  MultiplierCircuit mult = make_multiplier(lib, 8);
  std::vector<SignalId> inputs = mult.a;
  inputs.insert(inputs.end(), mult.b.begin(), mult.b.end());
  Stimulus stim = staggered_random_stimulus(inputs, quick ? 4 : 8, 424242);
  stim.set_initial(mult.tie0, false);

  const double sigma = 1e-8;
  ReplayThroughputResult result;
  result.name = quick ? "mult8_resim_quick" : "mult8_resim";
  result.gates = mult.netlist.num_gates();
  result.samples = quick ? 100 : 1000;

  std::vector<std::uint64_t> seeds(result.samples);
  SplitMix64 seed_rng(0x5EEDBA5EULL);
  for (std::uint64_t& s : seeds) s = seed_rng.next();

  replay::ResimEngine engine(TimingGraph::build(mult.netlist, ddm.timing_policy()), ddm, stim,
                             SimConfig{});
  auto start = std::chrono::steady_clock::now();
  engine.record();
  result.record_wall_s = seconds_since(start);
  result.trace_ops = engine.trace().ops.size();

  // The corners are prebuilt outside both timed loops: the metric is
  // evaluation throughput, and both paths see identical inputs.
  std::vector<TimingGraph> corners;
  corners.reserve(result.samples);
  for (std::size_t i = 0; i < result.samples; ++i) {
    corners.push_back(engine.base_graph().vary(sigma, seeds[i]));
  }

  replay::ResimSession session(engine);
  start = std::chrono::steady_clock::now();
  for (const TimingGraph& graph : corners) {
    session.evaluate(graph, mult.s, /*want_hash=*/false);
  }
  result.replay_wall_s = seconds_since(start);
  result.fallbacks = session.fallbacks();
  result.replayed = session.evaluated() - session.fallbacks();

  start = std::chrono::steady_clock::now();
  for (const TimingGraph& graph : corners) {
    Simulator sim(mult.netlist, ddm, graph, SimConfig{});
    sim.apply_stimulus(stim);
    (void)sim.run();
  }
  result.full_wall_s = seconds_since(start);

  // The sample-0 oracle pair: both paths hash the same corner's waveform.
  {
    const replay::ResimSample sample =
        session.evaluate(corners[0], mult.s, /*want_hash=*/true);
    result.hash_replay = sample.history_hash;
    Simulator sim(mult.netlist, ddm, corners[0], SimConfig{});
    sim.apply_stimulus(stim);
    (void)sim.run();
    result.hash_full = replay::hash_sim_history(sim);
  }

  result.samples_per_sec_replay =
      result.replay_wall_s > 0.0
          ? static_cast<double>(result.samples) / result.replay_wall_s
          : 0.0;
  result.speedup =
      result.replay_wall_s > 0.0 ? result.full_wall_s / result.replay_wall_s : 0.0;
  return result;
}

// ---- daemon throughput workload ---------------------------------------------

/// Resident-daemon workload (PR 10): the 8x8 multiplier shipped as bench
/// text through `halotis serve`.  Cold = the full per-request cost a
/// one-shot CLI invocation pays (parse + elaborate + simulate, measured
/// through the same service layer with the cache disabled); warm = socket
/// round-trips against a primed daemon, where the keyed elaboration cache
/// and the worker's pooled simulator leave only the simulation itself on
/// the request path.  Every response must be byte-identical to the cold
/// baseline (the daemon's iron determinism contract), and the baseline's
/// `--hash` line joins the CI quick-hash diff.
struct DaemonThroughputResult {
  std::string name;
  std::size_t gates = 0;
  std::size_t cold_runs = 0;       ///< timed cache-less service runs
  std::size_t warm_requests = 0;   ///< timed socket requests (after priming)
  double cold_s_per_request = 0.0;
  double warm_s_per_request = 0.0;
  double requests_per_sec_warm = 0.0;
  double speedup = 0.0;  ///< cold_s_per_request / warm_s_per_request
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  bool responses_identical = false;
  std::uint64_t history_hash = 0;  ///< from the baseline's "history hash:" line
};

DaemonThroughputResult run_daemon_throughput(const Library& lib, bool quick) {
  MultiplierCircuit mult = make_multiplier(lib, 8);
  const std::string netlist_text = write_bench(mult.netlist);

  // A short word sequence keeps simulation small relative to elaboration:
  // the workload isolates the request-path overhead the daemon removes.
  // The stimulus is the same in both modes (only the repetition counts
  // change), so the quick-hash golden also pins the full run.
  std::string stim_text;
  {
    std::vector<std::string> names;
    for (const SignalId id : mult.a) names.push_back(mult.netlist.signal(id).name);
    for (const SignalId id : mult.b) names.push_back(mult.netlist.signal(id).name);
    const auto words = random_word_stream(16, 3, 0xC0FFEEULL);
    std::ostringstream text;
    text << "slew 0.5\n";
    std::vector<bool> value(names.size(), false);
    for (std::size_t j = 0; j < names.size(); ++j) {
      value[j] = ((words[0] >> j) & 1) != 0;
      text << "init " << names[j] << ' ' << (value[j] ? 1 : 0) << '\n';
    }
    double t = 5.0;
    for (std::size_t i = 1; i < words.size(); ++i, t += 5.0) {
      for (std::size_t j = 0; j < names.size(); ++j) {
        const bool v = ((words[i] >> j) & 1) != 0;
        if (v != value[j]) {
          text << "edge " << names[j] << ' ' << t << ' ' << (v ? 1 : 0) << '\n';
          value[j] = v;
        }
      }
    }
    stim_text = text.str();
  }

  const std::vector<std::string> args{"sim",    "--netlist", "mult8.bench",
                                      "--stim", "mult8.stim", "--hash"};
  const std::vector<std::pair<std::string, std::string>> files{
      {"mult8.bench", netlist_text}, {"mult8.stim", stim_text}};

  // One cache-less pass through the daemon's own service layer: identical
  // output formatting to a daemon response, full elaboration every call.
  const auto cold_run = [&]() -> std::string {
    serve::ServeContext context;  // no cache attached
    serve::RequestIo io;
    for (const auto& [path, bytes] : files) io.files.emplace(path, bytes);
    std::ostringstream out;
    std::ostringstream err;
    const int code = run_cli_service(args, out, err, &context, &io);
    if (code != 0) {
      std::fprintf(stderr, "daemon_throughput: cold run failed (%d): %s\n", code,
                   err.str().c_str());
      std::exit(1);
    }
    return out.str();
  };

  DaemonThroughputResult result;
  result.name = "mult8_daemon";
  result.gates = mult.netlist.num_gates();
  const std::string baseline = cold_run();
  const std::size_t hash_at = baseline.find("history hash: ");
  if (hash_at != std::string::npos) {
    result.history_hash =
        std::strtoull(baseline.c_str() + hash_at + 14, nullptr, 16);
  }

  const std::string socket_path =
      (std::filesystem::temp_directory_path() /
       ("halotis_perf_" + std::to_string(::getpid()) + ".sock"))
          .string();
  CancelToken stop;
  serve::ServeOptions serve_options;
  serve_options.socket_path = socket_path;
  serve_options.threads = 2;
  serve_options.stop = stop;
  serve::Server server(serve_options,
                       [](const std::vector<std::string>& request_args,
                          serve::ServeContext& context, serve::RequestIo& io,
                          std::ostream& out, std::ostream& err) {
                         return run_cli_service(request_args, out, err, &context, &io);
                       });
  std::thread daemon([&server] { server.run(); });
  for (int attempt = 0; attempt < 5000; ++attempt) {
    try {
      (void)serve::connect_unix(socket_path);
      break;
    } catch (const RunError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  bool identical = true;
  const auto warm_request = [&]() -> std::string {
    std::ostringstream out;
    std::ostringstream err;
    const int code =
        serve::run_connected(socket_path, args, files, out, err, nullptr);
    if (code != 0) {
      std::fprintf(stderr, "daemon_throughput: request failed (%d): %s\n", code,
                   err.str().c_str());
      std::exit(1);
    }
    return out.str();
  };
  identical = warm_request() == baseline;  // priming miss, outside the timing

  result.warm_requests = quick ? 50 : 200;
  auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < result.warm_requests; ++i) {
    identical = (warm_request() == baseline) && identical;
  }
  const double warm_wall_s = seconds_since(start);

  const serve::ElabCache::Stats cache = server.cache_stats();
  result.cache_hits = cache.hits;
  result.cache_misses = cache.misses;
  stop.cancel();
  daemon.join();

  result.cold_runs = quick ? 8 : 25;
  start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < result.cold_runs; ++i) {
    identical = (cold_run() == baseline) && identical;
  }
  const double cold_wall_s = seconds_since(start);

  result.responses_identical = identical;
  result.cold_s_per_request = cold_wall_s / static_cast<double>(result.cold_runs);
  result.warm_s_per_request =
      warm_wall_s / static_cast<double>(result.warm_requests);
  result.requests_per_sec_warm =
      result.warm_s_per_request > 0.0 ? 1.0 / result.warm_s_per_request : 0.0;
  result.speedup = result.warm_s_per_request > 0.0
                       ? result.cold_s_per_request / result.warm_s_per_request
                       : 0.0;
  return result;
}

void print_json_workload(std::FILE* f, const WorkloadResult& w, bool last) {
  const SimStats& s = w.stats;
  std::fprintf(f,
               "    {\"workload\": \"%s\", \"model\": \"%s\", \"gates\": %zu,\n"
               "     \"wall_s\": %.6f, \"events_per_sec\": %.1f,\n"
               "     \"events_processed\": %llu, \"events_created\": %llu,"
               " \"events_cancelled\": %llu, \"events_suppressed\": %llu,"
               " \"events_resurrected\": %llu,\n"
               "     \"transitions_created\": %llu, \"transitions_annihilated\": %llu,"
               " \"gate_evaluations\": %llu, \"filtered_events\": %llu,\n"
               "     \"peak_live_transitions\": %llu, \"arena_bytes\": %llu,\n"
               "     \"history_hash\": \"%016llx\"}%s\n",
               w.name.c_str(), w.model.c_str(), w.gates, w.wall_s, w.events_per_sec,
               static_cast<unsigned long long>(s.events_processed),
               static_cast<unsigned long long>(s.events_created),
               static_cast<unsigned long long>(s.events_cancelled),
               static_cast<unsigned long long>(s.events_suppressed),
               static_cast<unsigned long long>(s.events_resurrected),
               static_cast<unsigned long long>(s.transitions_created),
               static_cast<unsigned long long>(s.transitions_annihilated),
               static_cast<unsigned long long>(s.gate_evaluations),
               static_cast<unsigned long long>(s.filtered_events()),
               static_cast<unsigned long long>(w.peak_live_transitions),
               static_cast<unsigned long long>(w.arena_bytes),
               static_cast<unsigned long long>(w.history_hash), last ? "" : ",");
}

/// Appends `entry` (a complete JSON object, no trailing newline) to the JSON
/// array in `path`; creates the file as a one-element array when absent or
/// not an array.  Crash-safe: the whole array is assembled in memory and
/// written via temp file + atomic rename, so an interrupted report run can
/// never truncate the committed perf trajectory.
bool write_report(const std::string& path, const std::string& entry, bool append) {
  std::string existing;
  if (append) {
    if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
      char buf[4096];
      std::size_t n = 0;
      while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) existing.append(buf, n);
      std::fclose(f);
    }
    while (!existing.empty() &&
           (existing.back() == '\n' || existing.back() == ' ' || existing.back() == '\r')) {
      existing.pop_back();
    }
  }
  std::string out;
  if (!existing.empty() && existing.back() == ']') {
    existing.pop_back();
    while (!existing.empty() &&
           (existing.back() == '\n' || existing.back() == ' ')) {
      existing.pop_back();
    }
    const bool empty_array = !existing.empty() && existing.back() == '[';
    out = existing + (empty_array ? "" : ",") + "\n" + entry + "\n]\n";
  } else {
    out = "[\n" + entry + "\n]\n";
  }
  try {
    write_file_atomic(path, out);
  } catch (const RunError& e) {
    std::fprintf(stderr, "perf_report: %s\n", e.what());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool append = false;
  std::string label = "dev";
  std::string out = "BENCH_kernel.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--append") {
      append = true;
    } else if (arg == "--label" && i + 1 < argc) {
      label = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: perf_report [--quick] [--label NAME] [--out FILE] [--append]\n");
      return 2;
    }
  }

  const Library lib = Library::default_u6();
  const DdmDelayModel ddm;
  const CdmDelayModel cdm;
  // Minimum over repetitions estimates the kernel's intrinsic cost (noise
  // only ever adds time); more repetitions tighten the estimate on the
  // shared-vCPU containers the trajectory is recorded on.
  const int reps = quick ? 3 : 25;
  const std::size_t mult8_words = quick ? 12 : 48;
  const std::size_t dag_words = quick ? 16 : 64;

  // Cold path first, while the process's peak RSS is still its own.
  const std::vector<ColdPathDeck> cold_path = run_cold_path(lib, quick);

  std::vector<WorkloadResult> results;

  // Table-2 workloads: the paper's 4x4 multiplier sequences.
  for (const bool fig7 : {false, true}) {
    MultiplierCircuit mult = make_multiplier(lib, 4);
    const auto words = fig7 ? fig7_sequence() : fig6_sequence();
    const std::string base = fig7 ? "mult4_fig7" : "mult4_fig6";
    for (const DelayModel& model : {DelayModel(ddm), DelayModel(cdm)}) {
      results.push_back(run_workload(
          base, mult.netlist, model,
          [&] { return multiplier_stimulus(mult, words); }, reps));
    }
  }

  // Scaling workload 1: 8x8 multiplier under a pseudo-random word stream
  // (the acceptance workload: "mult8_rand" + HALOTIS-DDM).  The DDM run is
  // repeated with a fully armed supervisor (every budget set, none close)
  // to measure the supervision layer's hot-path overhead; the supervised
  // history hash must equal the unsupervised one (supervision may only
  // abort work, never change a completed run).
  double supervision_base_wall_s = 0.0;
  double supervision_supervised_wall_s = 0.0;
  bool supervision_hash_identical = false;
  {
    MultiplierCircuit mult = make_multiplier(lib, 8);
    const auto words = random_word_stream(16, mult8_words, 0x9E3779B97F4A7C15ULL);
    for (const DelayModel& model : {DelayModel(ddm), DelayModel(cdm)}) {
      results.push_back(run_workload(
          "mult8_rand", mult.netlist, model,
          [&] { return multiplier_stimulus(mult, words); }, reps));
    }
    const WorkloadResult& base = results[results.size() - 2];  // the DDM run
    RunBudget budget;
    budget.max_events = ~0ull;
    budget.max_arena_bytes = ~0ull;
    budget.deadline_s = 3600.0;
    RunSupervisor supervisor(budget);
    supervisor.arm();
    const WorkloadResult supervised = run_workload(
        "mult8_rand_supervised", mult.netlist, ddm,
        [&] { return multiplier_stimulus(mult, words); }, reps, &supervisor);
    supervision_base_wall_s = base.wall_s;
    supervision_supervised_wall_s = supervised.wall_s;
    supervision_hash_identical = supervised.history_hash == base.history_hash;
  }

  // Scaling workload 2: random combinational DAG.
  {
    RandomCircuit dag = make_random_circuit(lib, 24, 1500, 12345);
    const auto words = random_word_stream(24, dag_words, 0xD1B54A32D192ED03ULL);
    results.push_back(run_workload(
        "random_dag_1500", dag.netlist, ddm,
        [&] {
          Stimulus stim(0.5);
          stim.apply_sequence(dag.inputs, words, 5.0, 5.0);
          return stim;
        },
        reps));
  }

  // Scaling workload 3: the layered synthetic design (100k gates, 10k
  // quick) under CDM with a tie-free staggered stimulus.  Big runs are
  // expensive, so fewer repetitions than the microbenchmarks.
  {
    const int width = quick ? 100 : 500;
    const int depth = quick ? 100 : 200;
    LayeredCircuit circuit = make_layered_circuit(lib, width, depth, 7);
    const Stimulus stim = staggered_random_stimulus(circuit.inputs, quick ? 4 : 6, 911);
    results.push_back(run_workload(quick ? "layered10k" : "layered100k", circuit.netlist,
                                   cdm, [&] { return stim; }, quick ? 2 : 3));
  }

  // Resurrection at scale: a 6k-gate layered DDM design whose slow-slew
  // stimulus makes output-pulse annihilations restore pair-cancelled
  // events (the sorted re-insert path), which no other workload reaches.
  // CI fails the quick report if this row's events_resurrected reads 0.
  {
    LayeredCircuit circuit = make_layered_circuit(lib, 100, 60, 0xA000);
    const Stimulus stim = staggered_random_stimulus(circuit.inputs, 32, 2, 0.2);
    results.push_back(run_workload("layered_resurrect", circuit.netlist, ddm,
                                   [&] { return stim; }, quick ? 2 : 3));
  }

  // Fault-campaign workload: the campaign at 1 and 4 threads.
  const FaultCampaignResult fault = run_fault_campaign_workload(lib, quick);

  // Event-storm guard workload (PR 7): the supervision layer stopping a
  // self-sustaining oscillator at an exact event budget.
  const StormGuardResult storm = run_storm_guard(lib, quick, reps);

  // Lint throughput workload (PR 8): static analysis over the layered
  // circuit -- fewer repetitions, it is a whole-netlist pass like the
  // layered simulation workload.
  const LintThroughputResult lint_tp =
      run_lint_throughput(lib, quick, quick ? 2 : 3);

  // Replay throughput workload (PR 9): record-once / re-time-many versus
  // independent full simulations on the same variation corners.
  const ReplayThroughputResult replay_tp = run_replay_throughput(lib, quick);

  // Daemon throughput workload (PR 10): warm `halotis serve` requests versus
  // the per-request cold cost of a one-shot invocation.
  const DaemonThroughputResult daemon_tp = run_daemon_throughput(lib, quick);

  // Warm kernel loop on the 100k-gate design: full mode only, so quick mode
  // prints and records nothing new.
  const KernelLoopResult kernel_loop = quick ? KernelLoopResult{} : run_kernel_loop(lib, 7);

  // Human-readable summary.
  std::printf("== perf_report (%s) ==\n\n", quick ? "quick" : "full");
  std::printf("%-18s %-12s %8s %12s %14s %12s\n", "workload", "model", "gates",
              "wall (s)", "events/sec", "hash");
  for (const WorkloadResult& w : results) {
    std::printf("%-18s %-12s %8zu %12.6f %14.1f %012llx\n", w.name.c_str(),
                w.model.c_str(), w.gates, w.wall_s, w.events_per_sec,
                static_cast<unsigned long long>(w.history_hash & 0xFFFFFFFFFFFFULL));
  }
  std::printf(
      "\n%s: %zu faults x %zu vectors (%zu gates), detected %zu, 1t vs 4t verdicts %s\n"
      "  campaign 1t %.3f s | 4t %.3f s (%.0f faults/sec)\n",
      fault.name.c_str(), fault.faults, fault.vectors, fault.gates, fault.detected,
      fault.verdicts_identical ? "identical" : "DIVERGED", fault.campaign_1t_wall_s,
      fault.campaign_4t_wall_s, fault.faults_per_sec_4t);

  const double supervision_overhead_pct =
      supervision_base_wall_s > 0.0
          ? 100.0 * (supervision_supervised_wall_s / supervision_base_wall_s - 1.0)
          : 0.0;
  std::printf(
      "\nsupervision: mult8_rand DDM %.6f s unsupervised -> %.6f s armed"
      " (%+.2f%% overhead), hashes %s\n",
      supervision_base_wall_s, supervision_supervised_wall_s,
      supervision_overhead_pct,
      supervision_hash_identical ? "identical" : "DIVERGED");
  std::printf(
      "event_storm_guard: %zu-gate ring oscillator, budget %llu events -> %s"
      " at %llu events, %.6f s (%.0f events/sec)\n",
      storm.gates, static_cast<unsigned long long>(storm.budget_events),
      storm.budget_tripped ? "budget stop" : "NO BUDGET TRIP",
      static_cast<unsigned long long>(storm.events_processed), storm.wall_s,
      storm.events_per_sec);
  std::printf(
      "lint_throughput: %s, %zu gates -> %zu findings (%zu hazard-capable"
      " gates, %zu capped sources), %.6f s (%.0f gates/sec), findings hash"
      " %016llx\n",
      lint_tp.name.c_str(), lint_tp.gates, lint_tp.findings,
      lint_tp.hazard_gates, lint_tp.capped_sources, lint_tp.wall_s,
      lint_tp.gates_per_sec,
      static_cast<unsigned long long>(lint_tp.findings_hash));
  std::printf(
      "replay_throughput: %s, %zu gates, %zu samples -> %llu replayed /"
      " %llu fallbacks (trace %zu ops, recorded in %.6f s)\n"
      "  replay %.3f s (%.0f samples/sec) | full %.3f s | speedup %.2fx |"
      " sample-0 hashes %s\n",
      replay_tp.name.c_str(), replay_tp.gates, replay_tp.samples,
      static_cast<unsigned long long>(replay_tp.replayed),
      static_cast<unsigned long long>(replay_tp.fallbacks), replay_tp.trace_ops,
      replay_tp.record_wall_s, replay_tp.replay_wall_s,
      replay_tp.samples_per_sec_replay, replay_tp.full_wall_s, replay_tp.speedup,
      replay_tp.hash_replay == replay_tp.hash_full ? "identical" : "DIVERGED");
  std::printf(
      "daemon_throughput: %s, %zu gates -> cold %.6f s/req (%zu runs) |"
      " warm %.6f s/req over %zu requests (%.0f req/sec) | speedup %.2fx |"
      " cache %llu hits / %llu misses | responses %s\n",
      daemon_tp.name.c_str(), daemon_tp.gates, daemon_tp.cold_s_per_request,
      daemon_tp.cold_runs, daemon_tp.warm_s_per_request, daemon_tp.warm_requests,
      daemon_tp.requests_per_sec_warm, daemon_tp.speedup,
      static_cast<unsigned long long>(daemon_tp.cache_hits),
      static_cast<unsigned long long>(daemon_tp.cache_misses),
      daemon_tp.responses_identical ? "identical" : "DIVERGED");

  std::printf("\ncold_path: parse / build / construct, median ms [q1, q3]\n");
  for (const ColdPathDeck& d : cold_path) {
    std::printf(
        "  %-16s %-6s %7zu gates %9zu B  parse %9.3f [%9.3f, %9.3f]  build %8.3f"
        "  construct %8.3f  parse/build %6.2f  rss +%.1f MB\n",
        d.name.c_str(), d.format.c_str(), d.gates, d.bytes, d.parse_ms[1], d.parse_ms[0],
        d.parse_ms[2], d.build_ms[1], d.construct_ms[1], d.parse_ms[1] / d.build_ms[1],
        d.peak_rss_growth_mb);
  }

  if (!quick) {
    std::printf(
        "\nkernel_loop: layered100k %s, %zu of %zu arcs distinct, %d rounds x %zu seeds:"
        " %.1f ns/event [%.1f, %.1f], hash %.2f ms\n",
        kernel_loop.model.c_str(), kernel_loop.distinct_arcs, kernel_loop.graph_arcs,
        kernel_loop.rounds, kernel_loop.seeds.size(), kernel_loop.ns_per_event[1],
        kernel_loop.ns_per_event[0], kernel_loop.ns_per_event[2], kernel_loop.hash_ms);
    for (const KernelLoopSeed& row : kernel_loop.seeds) {
      std::printf("  seed %llu: %llu events, peak %llu scheduled, hash %016llx\n",
                  static_cast<unsigned long long>(row.seed),
                  static_cast<unsigned long long>(row.events),
                  static_cast<unsigned long long>(row.peak_scheduled_events),
                  static_cast<unsigned long long>(row.history_hash));
    }
  }

  // JSON entry.
  std::string entry;
  {
    char head[256];
    std::snprintf(head, sizeof head,
                  "  {\"label\": \"%s\", \"quick\": %s, \"unix_time\": %lld,\n"
                  "   \"workloads\": [\n",
                  label.c_str(), quick ? "true" : "false",
                  static_cast<long long>(std::time(nullptr)));
    entry = head;
    std::FILE* mem = std::tmpfile();
    if (mem == nullptr) {
      std::fprintf(stderr, "perf_report: tmpfile() failed\n");
      return 1;
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      print_json_workload(mem, results[i], i + 1 == results.size());
    }
    std::rewind(mem);
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, mem)) > 0) entry.append(buf, n);
    std::fclose(mem);
    entry += "  ],\n";
    entry += cold_path_json(cold_path);
    char fc[640];
    std::snprintf(fc, sizeof fc,
                  "   \"fault_campaign\": {\"workload\": \"%s\", \"gates\": %zu,"
                  " \"faults\": %zu, \"vectors\": %zu, \"detected\": %zu,\n"
                  "    \"campaign_1t_wall_s\": %.6f, \"campaign_4t_wall_s\": %.6f,"
                  " \"faults_per_sec_4t\": %.1f, \"verdicts_identical\": %s},\n",
                  fault.name.c_str(), fault.gates, fault.faults, fault.vectors,
                  fault.detected, fault.campaign_1t_wall_s, fault.campaign_4t_wall_s,
                  fault.faults_per_sec_4t, fault.verdicts_identical ? "true" : "false");
    entry += fc;
    // The storm-guard hash joins the CI quick-hash diff (grep picks up every
    // history_hash in order); the supervision block pins the overhead story.
    char sg[512];
    std::snprintf(
        sg, sizeof sg,
        "   \"event_storm_guard\": {\"gates\": %zu, \"budget_events\": %llu,"
        " \"events_processed\": %llu, \"budget_tripped\": %s,\n"
        "    \"wall_s\": %.6f, \"events_per_sec\": %.1f,"
        " \"history_hash\": \"%016llx\"},\n",
        storm.gates, static_cast<unsigned long long>(storm.budget_events),
        static_cast<unsigned long long>(storm.events_processed),
        storm.budget_tripped ? "true" : "false", storm.wall_s,
        storm.events_per_sec, static_cast<unsigned long long>(storm.history_hash));
    entry += sg;
    // findings_hash, not history_hash: the CI quick-hash diff greps every
    // history_hash in order and must keep seeing exactly the waveform hashes.
    char lt[512];
    std::snprintf(
        lt, sizeof lt,
        "   \"lint_throughput\": {\"workload\": \"%s\", \"gates\": %zu,"
        " \"findings\": %zu, \"hazard_gates\": %zu, \"capped_sources\": %zu,\n"
        "    \"wall_s\": %.6f, \"gates_per_sec\": %.1f,"
        " \"findings_hash\": \"%016llx\"},\n",
        lint_tp.name.c_str(), lint_tp.gates, lint_tp.findings,
        lint_tp.hazard_gates, lint_tp.capped_sources, lint_tp.wall_s,
        lint_tp.gates_per_sec,
        static_cast<unsigned long long>(lint_tp.findings_hash));
    entry += lt;
    // The replay/full sample-0 hashes are BOTH history_hash fields on the
    // CI quick-hash diff; any replay-vs-full divergence (or waveform
    // change) breaks the golden.
    char rp[768];
    std::snprintf(
        rp, sizeof rp,
        "   \"replay_throughput\": {\"workload\": \"%s\", \"gates\": %zu,"
        " \"samples\": %zu, \"replayed\": %llu, \"fallbacks\": %llu,"
        " \"trace_ops\": %zu,\n"
        "    \"record_wall_s\": %.6f, \"replay_wall_s\": %.6f,"
        " \"full_wall_s\": %.6f, \"samples_per_sec_replay\": %.1f,"
        " \"speedup_vs_full\": %.3f,\n"
        "    \"sample0_replay\": {\"history_hash\": \"%016llx\"},"
        " \"sample0_full\": {\"history_hash\": \"%016llx\"}},\n",
        replay_tp.name.c_str(), replay_tp.gates, replay_tp.samples,
        static_cast<unsigned long long>(replay_tp.replayed),
        static_cast<unsigned long long>(replay_tp.fallbacks), replay_tp.trace_ops,
        replay_tp.record_wall_s, replay_tp.replay_wall_s, replay_tp.full_wall_s,
        replay_tp.samples_per_sec_replay, replay_tp.speedup,
        static_cast<unsigned long long>(replay_tp.hash_replay),
        static_cast<unsigned long long>(replay_tp.hash_full));
    entry += rp;
    // The daemon baseline's hash is the quick-hash trajectory's last line:
    // a daemon whose responses drift from local mode breaks the golden.
    char dt[640];
    std::snprintf(
        dt, sizeof dt,
        "   \"daemon_throughput\": {\"workload\": \"%s\", \"gates\": %zu,"
        " \"cold_runs\": %zu, \"warm_requests\": %zu,\n"
        "    \"cold_s_per_request\": %.6f, \"warm_s_per_request\": %.6f,"
        " \"requests_per_sec_warm\": %.1f, \"speedup_warm_vs_cold\": %.3f,\n"
        "    \"cache_hits\": %llu, \"cache_misses\": %llu,"
        " \"responses_identical\": %s, \"history_hash\": \"%016llx\"},\n",
        daemon_tp.name.c_str(), daemon_tp.gates, daemon_tp.cold_runs,
        daemon_tp.warm_requests, daemon_tp.cold_s_per_request,
        daemon_tp.warm_s_per_request, daemon_tp.requests_per_sec_warm,
        daemon_tp.speedup, static_cast<unsigned long long>(daemon_tp.cache_hits),
        static_cast<unsigned long long>(daemon_tp.cache_misses),
        daemon_tp.responses_identical ? "true" : "false",
        static_cast<unsigned long long>(daemon_tp.history_hash));
    entry += dt;
    // After every earlier history_hash, so their order in a full-mode
    // record is unchanged.
    if (!quick) entry += kernel_loop_json(kernel_loop);
    char sv[384];
    std::snprintf(
        sv, sizeof sv,
        "   \"supervision\": {\"workload\": \"mult8_rand\", \"model\": \"%s\","
        " \"base_wall_s\": %.6f, \"supervised_wall_s\": %.6f,"
        " \"overhead_pct\": %.3f, \"hash_identical\": %s}}",
        std::string(ddm.name()).c_str(), supervision_base_wall_s,
        supervision_supervised_wall_s,
        supervision_overhead_pct, supervision_hash_identical ? "true" : "false");
    entry += sv;
  }
  if (!write_report(out, entry, append)) return 1;
  std::printf("\nwrote %s (label \"%s\"%s)\n", out.c_str(), label.c_str(),
              append ? ", appended" : "");
  return 0;
}
