// perfbench_tool: input generator and traced in-process replayer of the
// end-to-end benchmark (perfbench/run.py; metric map in
// perfbench/PREDICTIONS.md).
//
//   perfbench_tool gen   --workload W --seed N --seconds S --dir D
//       Writes the workload's netlists and stimuli under D/in and its two
//       request lists: D/setup.tsv (the untimed set-up pass) and
//       D/timed.tsv (the timed phase).  One request per line:
//       "<id>\t<kind>\t<argv...>" with paths relative to D.  The same
//       (workload, seed, seconds) always writes the same bytes.
//
//   perfbench_tool trace --workload W --dir D --spans FILE [--cache-mb M]
//       Replays both lists (run from inside D) twice, once with spans off
//       and once with spans on, by calling the layers' public functions
//       from this file.  CLI workloads call the layer functions in the
//       order the command does; daemon workloads send every request through
//       an in-process serve::Server over one connection and then re-run
//       the daemon-side sequence directly for the inner split.  Prints one
//       JSON object: per-request output digests and the per-layer metrics.
//       FILE receives every span of the traced pass.
//
//   perfbench_tool spawn
//       Runs the harness's CLI processes (see spawn_main).
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/fileio.hpp"
#include "src/base/rng.hpp"
#include "src/base/strings.hpp"
#include "src/circuits/generators.hpp"
#include "src/core/delay_model.hpp"
#include "src/core/simulator.hpp"
#include "src/fault/campaign.hpp"
#include "src/lint/lint.hpp"
#include "src/netlist/library.hpp"
#include "src/parsers/bench_format.hpp"
#include "src/parsers/netlist_io.hpp"
#include "src/parsers/stimulus_file.hpp"
#include "src/replay/history_hash.hpp"
#include "src/replay/variation.hpp"
#include "src/serve/elab_cache.hpp"
#include "src/serve/elaboration.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/server.hpp"
#include "src/serve/service.hpp"
#include "src/serve/socket_io.hpp"
#include "src/sta/sta.hpp"
#include "src/timing/timing_graph.hpp"
#include "src/tools/cli.hpp"
#include "src/waveform/vcd.hpp"

namespace halotis::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// ---- small utilities ---------------------------------------------------------

std::map<std::string, std::string> parse_flags(int argc, char** argv, int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    std::string name = argv[i];
    if (name.rfind("--", 0) != 0) throw std::runtime_error("expected --flag, got " + name);
    name = name.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags[name] = argv[++i];
    } else {
      flags[name] = "1";
    }
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& flags, const std::string& name) {
  const auto it = flags.find(name);
  if (it == flags.end()) throw std::runtime_error("missing --" + name);
  return it->second;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Shortest decimal text that parses back to exactly `v`.
std::string exact(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

// ---- output digests ------------------------------------------------------------
//
// A request's digest is CRC-32 (IEEE, as Python's zlib.crc32) plus length
// over: its stdout with the wall-clock tail of the fault campaign line cut
// off, then for each artifact a NUL, its path, a NUL and its bytes.

std::uint32_t crc32(std::uint32_t crc, std::string_view bytes) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t n = 0; n < 256; ++n) {
      std::uint32_t c = n;
      for (int k = 0; k < 8; ++k) c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
      t[n] = c;
    }
    return t;
  }();
  crc = ~crc;
  for (const char ch : bytes) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFFU] ^ (crc >> 8);
  }
  return ~crc;
}

/// "campaign: 1 thread, N events, 0.12 s (...)" -> "campaign: 1 thread, N events".
std::string normalize_stdout(std::string_view out) {
  std::string result;
  std::size_t pos = 0;
  while (pos < out.size()) {
    std::size_t end = out.find('\n', pos);
    end = end == std::string_view::npos ? out.size() : end + 1;
    std::string_view line = out.substr(pos, end - pos);
    if (line.rfind("campaign: ", 0) == 0) {
      const std::size_t cut = line.find(" events");
      if (cut != std::string_view::npos) {
        result.append(line.substr(0, cut + 7));
        result.push_back('\n');
        pos = end;
        continue;
      }
    }
    result.append(line);
    pos = end;
  }
  return result;
}

std::string digest(std::string_view out,
                   const std::vector<std::pair<std::string, std::string>>& artifacts) {
  const std::string text = normalize_stdout(out);
  std::uint32_t crc = crc32(0, text);
  std::size_t length = text.size();
  const std::string nul(1, '\0');
  for (const auto& [path, bytes] : artifacts) {
    crc = crc32(crc, nul);
    crc = crc32(crc, path);
    crc = crc32(crc, nul);
    crc = crc32(crc, bytes);
    length += path.size() + bytes.size() + 2;
  }
  char buffer[48];
  std::snprintf(buffer, sizeof buffer, "%08x:%zu", crc, length);
  return buffer;
}

// ---- generator -------------------------------------------------------------------

struct Request {
  std::string id;
  std::string kind;
  std::vector<std::string> args;

  [[nodiscard]] std::optional<std::string> flag(const std::string& name) const {
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (args[i] == "--" + name) {
        if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) return args[i + 1];
        return std::string("1");
      }
    }
    return std::nullopt;
  }
};

std::string format_tsv(const std::vector<Request>& requests) {
  std::string out;
  for (const Request& r : requests) {
    out += r.id + "\t" + r.kind;
    for (const std::string& a : r.args) out += "\t" + a;
    out += "\n";
  }
  return out;
}

std::vector<Request> read_tsv(const std::string& path) {
  std::vector<Request> requests;
  for (const std::string& line : split(read_text(path), '\n')) {
    if (line.empty()) continue;
    const std::vector<std::string> fields = split(line, '\t');
    if (fields.size() < 3) throw std::runtime_error("bad request line in " + path);
    requests.push_back({fields[0], fields[1], {fields.begin() + 2, fields.end()}});
  }
  return requests;
}

/// One generated design: its file and the inputs a stimulus may drive
/// (multiplier tie cells stay at their initial 0).
struct Design {
  std::string path;
  std::vector<std::string> inputs;
  std::vector<std::string> held_low;
};

class Generator {
 public:
  Generator(std::string workload, std::uint64_t seed, double seconds, std::string dir)
      : workload_(std::move(workload)),
        seed_(seed),
        seconds_(seconds),
        dir_(std::move(dir)),
        lib_(Library::default_u6()) {
    std::filesystem::create_directories(dir_ + "/in");
    std::filesystem::create_directories(dir_ + "/out");
  }

  void run() {
    if (workload_ == "oneshot_cli") {
      oneshot_cli();
    } else if (workload_ == "daemon_mix") {
      daemon_mix();
    } else if (workload_ == "kernel_large") {
      kernel_large();
    } else {
      throw std::runtime_error("unknown workload " + workload_);
    }
    write_text(dir_ + "/setup.tsv", format_tsv(setup_));
    write_text(dir_ + "/timed.tsv", format_tsv(timed_));
  }

 private:
  /// Independent stream per purpose and index, so a longer timed list
  /// keeps every earlier request byte-identical.
  [[nodiscard]] SplitMix64 stream(std::uint64_t purpose, std::uint64_t index) const {
    return SplitMix64(design_seed(purpose, index) ^ seed_);
  }

  /// Seed of generated circuit `index` for `purpose`, the same for every
  /// workload seed: a random circuit's activity, and with it the pool's
  /// simulation work, swings by up to 1.6x between structures, so the
  /// designs stay fixed and the workload seed draws the stimuli.
  static std::uint64_t design_seed(std::uint64_t purpose, std::uint64_t index) {
    return SplitMix64((purpose * 0x9E3779B97F4A7C15ULL) ^ (index * 0xD1B54A32D192ED03ULL)).next();
  }

  /// Point `k` of `n` log-uniformly spaced over [lo, hi] (stratum
  /// midpoints).  Sizes and lengths are the same for every seed, so the
  /// pool's total work barely moves between seeds.
  static double log_point(std::size_t k, std::size_t n, double lo, double hi) {
    const double u = (static_cast<double>(k) + 0.5) / static_cast<double>(n);
    return std::exp(std::log(lo) + u * (std::log(hi) - std::log(lo)));
  }

  Design save(const Netlist& netlist, const std::string& name) {
    Design d;
    bool bench_ok = true;
    std::string text;
    try {
      text = write_bench(netlist);
    } catch (const std::exception&) {
      bench_ok = false;  // a cell without a .bench form: use the native format
    }
    if (!bench_ok) text = write_netlist(netlist);
    d.path = "in/" + name + (bench_ok ? ".bench" : ".net");
    write_text(dir_ + "/" + d.path, text);
    for (const SignalId pi : netlist.primary_inputs()) {
      const std::string& n = netlist.signal(pi).name;
      (n == "tie0" ? d.held_low : d.inputs).push_back(n);
    }
    return d;
  }

  Design c17() {
    return save(read_bench(c17_bench_text(), lib_), "c17");
  }
  Design multiplier(int bits) {
    return save(make_multiplier(lib_, bits).netlist, "mult" + std::to_string(bits));
  }
  Design random_dag(const std::string& name, int gates, std::uint64_t seed) {
    const int inputs = std::clamp(gates / 24, 8, 48);
    return save(make_random_circuit(lib_, inputs, gates, seed).netlist, name);
  }

  /// Synchronized word stimulus: a fresh random word every 5 ns.
  std::string word_stim(const Design& d, const std::string& name, std::size_t words,
                        SplitMix64 rng) {
    std::string text = "slew 0.5\n";
    for (const std::string& s : d.held_low) text += "init " + s + " 0\n";
    std::vector<bool> value(d.inputs.size());
    for (std::size_t i = 0; i < d.inputs.size(); ++i) {
      value[i] = rng.next_bool(0.5);
      text += "init " + d.inputs[i] + (value[i] ? " 1\n" : " 0\n");
    }
    for (std::size_t w = 1; w < words; ++w) {
      const std::string t = exact(5.0 * static_cast<double>(w));
      for (std::size_t i = 0; i < d.inputs.size(); ++i) {
        const bool next = rng.next_bool(0.5);
        if (next == value[i]) continue;
        value[i] = next;
        text += "edge " + d.inputs[i] + " " + t + (next ? " 1\n" : " 0\n");
      }
    }
    const std::string path = "in/" + name + ".stim";
    write_text(dir_ + "/" + path, text);
    return path;
  }

  /// Staggered, tie-free stimulus: every input has its own random
  /// 20-bit-fraction period and phase (as staggered_random_stimulus).
  std::string staggered_stim(const Design& d, const std::string& name, std::size_t edges,
                             SplitMix64 rng) {
    std::string text = "slew 0.5\n";
    for (const std::string& s : d.held_low) text += "init " + s + " 0\n";
    std::string edge_lines;
    for (const std::string& input : d.inputs) {
      const double period = 4.0 + static_cast<double>(rng.next_below(1U << 20)) / (1U << 21);
      const double start = 3.0 + static_cast<double>(rng.next_below(1U << 20)) / (1U << 20);
      bool value = rng.next_bool(0.5);
      text += "init " + input + (value ? " 1\n" : " 0\n");
      for (std::size_t k = 0; k < edges; ++k) {
        if (rng.next_bool(0.3)) continue;
        value = !value;
        edge_lines += "edge " + input + " " + exact(start + period * static_cast<double>(k)) +
                      (value ? " 1\n" : " 0\n");
      }
    }
    const std::string path = "in/" + name + ".stim";
    write_text(dir_ + "/" + path, text + edge_lines);
    return path;
  }

  /// Timed list: at least `count` requests as whole seeded permutations of
  /// the pool -- the harness's timed rounds.
  void cycle_pool(std::size_t count) {
    SplitMix64 rng = stream(99, 0);
    std::vector<std::size_t> order(setup_.size());
    while (timed_.size() < count) {
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.next_below(i)]);
      }
      for (const std::size_t i : order) timed_.push_back(setup_[i]);
    }
  }

  [[nodiscard]] std::size_t list_length(double per_second, std::size_t minimum) const {
    return std::max(minimum, static_cast<std::size_t>(std::lround(per_second * seconds_)));
  }

  // Pool of 48: four commands x 12 designs.  Designs 0-2 are the
  // paper-scale c17 / mult4 / mult8; designs 3-11 are random DAGs with
  // log-spaced sizes.  Stimulus lengths are log-spaced too, paired with
  // the designs through one fixed permutation, so every seed has the same
  // size x length mix and only the stimulus bits differ.
  void oneshot_cli() {
    constexpr std::size_t kStrata = 12;
    constexpr std::array<std::size_t, kStrata> kWordPairing = {7, 2, 10, 5, 0, 8, 3, 11,
                                                               6, 1, 9, 4};
    static const char* const kKinds[] = {"sim_hash", "sim_vcd", "sta", "lint"};
    std::vector<Design> designs;
    designs.push_back(c17());
    designs.push_back(multiplier(4));
    designs.push_back(multiplier(8));
    for (std::size_t k = 3; k < kStrata; ++k) {
      const int gates = static_cast<int>(log_point(k - 3, kStrata - 3, 120.0, 2400.0));
      designs.push_back(random_dag("dag" + std::to_string(k), gates, design_seed(2, k)));
    }
    std::size_t n = 0;
    for (const char* kind : kKinds) {
      for (std::size_t k = 0; k < kStrata; ++k, ++n) {
        const Design& d = designs[k];
        Request r{"p" + std::to_string(n), kind, {}};
        const std::string netlist = d.path;
        const std::string k_str = std::to_string(n);
        if (r.kind == "sta") {
          r.args = {"sta", "--netlist", netlist, "--per-arc"};
        } else if (r.kind == "lint") {
          r.args = {"lint", "--netlist", netlist, "--format", "json", "--fail-on", "none"};
        } else {
          const auto words =
              static_cast<std::size_t>(log_point(kWordPairing[k], kStrata, 3.0, 160.0));
          const std::string stim = word_stim(d, "s" + k_str, words, stream(4, n));
          r.args = {"sim", "--netlist", netlist, "--stim", stim};
          if (r.kind == "sim_hash") {
            r.args.emplace_back("--hash");
          } else {
            r.args.insert(r.args.end(), {"--vcd", "out/r" + k_str + ".vcd"});
          }
        }
        setup_.push_back(std::move(r));
      }
    }
    cycle_pool(list_length(kOneshotPerSecond, 96));
  }

  // Pool of 50 over mult8 and random DAGs: ten requests of each of five
  // classes, every class sized to a few ms or more of warm daemon work.
  void daemon_mix() {
    constexpr std::size_t kPerClass = 10;
    std::vector<Design> sim_designs;   // mult8 + DAGs for sim / variation
    std::vector<Design> sta_designs;   // larger DAGs: multi-kB --per-arc responses
    std::vector<Design> fault_designs; // small layered designs: campaign ~ faults x words
    sim_designs.push_back(multiplier(8));
    for (std::size_t k = 1; k < kPerClass; ++k) {
      const int gates = static_cast<int>(log_point(k - 1, kPerClass - 1, 200, 1600));
      sim_designs.push_back(random_dag("sd" + std::to_string(k), gates, design_seed(12, k)));
    }
    for (std::size_t k = 0; k < kPerClass; ++k) {
      const int gates = static_cast<int>(log_point(k, kPerClass, 800, 3200));
      sta_designs.push_back(random_dag("ad" + std::to_string(k), gates, design_seed(13, k)));
    }
    for (std::size_t k = 0; k < kPerClass; ++k) {
      const int depth = static_cast<int>(log_point(k, kPerClass, 5, 20));
      fault_designs.push_back(
          save(make_layered_circuit(lib_, 12, depth, design_seed(14, k)).netlist,
               "fd" + std::to_string(k)));
    }
    constexpr std::array<std::size_t, kPerClass> kPairing = {6, 2, 9, 0, 4, 7, 1, 8, 3, 5};
    std::size_t n = 0;
    const auto add = [&](const std::string& kind, std::vector<std::string> args) {
      setup_.push_back({"p" + std::to_string(n), kind, std::move(args)});
      ++n;
    };
    for (std::size_t k = 0; k < kPerClass; ++k) {
      const Design& d = sim_designs[k];
      const auto words = static_cast<std::size_t>(
          log_point(kPairing[k], kPerClass, 24.0, 160.0));
      const std::string stim = word_stim(d, "h" + std::to_string(k), words, stream(16, k));
      add("sim_hash", {"sim", "--netlist", d.path, "--stim", stim, "--hash"});
    }
    for (std::size_t k = 0; k < kPerClass; ++k) {
      const Design& d = sim_designs[(k + 3) % kPerClass];
      const auto words = static_cast<std::size_t>(
          log_point(kPairing[k], kPerClass, 16.0, 96.0));
      const std::string stim = word_stim(d, "v" + std::to_string(k), words, stream(17, k));
      add("sim_vcd", {"sim", "--netlist", d.path, "--stim", stim, "--vcd",
                      "out/v" + std::to_string(k) + ".vcd"});
    }
    for (std::size_t k = 0; k < kPerClass; ++k) {
      add("sta", {"sta", "--netlist", sta_designs[k].path, "--per-arc"});
    }
    for (std::size_t k = 0; k < kPerClass; ++k) {
      const Design& d = fault_designs[k];
      const auto words = static_cast<std::size_t>(
          log_point(kPairing[k], kPerClass, 4.0, 16.0));
      const std::string stim = word_stim(d, "f" + std::to_string(k), words, stream(18, k));
      add("fault", {"fault", "--netlist", d.path, "--stim", stim, "--threads", "1"});
    }
    // Variation with replay on synchronized words and on staggered,
    // tie-free edges: how many samples replay depends on the stimulus
    // (replay.replayed_ratio).
    for (std::size_t k = 0; k < kPerClass; ++k) {
      const Design& d = sim_designs[(k + 5) % kPerClass];
      const bool staggered = k % 2 == 1;
      const std::string name = "m" + std::to_string(k);
      const std::string stim =
          staggered ? staggered_stim(d, name, 4 + kPairing[k] % 4, stream(19, k))
                    : word_stim(d, name, 4 + kPairing[k] % 4, stream(19, k));
      const double sigma = log_point(kPairing[k], kPerClass, 1e-8, 1e-6);
      const std::size_t samples = staggered ? 48 : 12;
      add(staggered ? "variation_staggered" : "variation_words",
          {"variation", "--netlist", d.path, "--stim", stim, "--replay", "--samples",
           std::to_string(samples), "--sigma", format_double(sigma, 3), "--seed",
           std::to_string(1 + k)});
    }
    cycle_pool(list_length(kDaemonPerSecond, 96));
  }

  // One 100k-gate layered design (500 wide x 200 deep).  Set-up is one
  // quiescent sim that parses and elaborates it; every timed request is
  // `sim --hash` with one of kKernelStimuli staggered stimuli, taken in
  // turn, so each stimulus repeats on the warm pooled simulator and the
  // local cross-check stays a few CLI runs.
  void kernel_large() {
    const Design d =
        save(make_layered_circuit(lib_, 500, 200, design_seed(21, 0)).netlist, "layered");
    setup_.push_back({"prime", "sim_quiescent", {"sim", "--netlist", d.path, "--hash"}});
    std::vector<Request> pool;
    for (std::size_t k = 0; k < kKernelStimuli; ++k) {
      const std::string name = "k" + std::to_string(k);
      const std::string stim = staggered_stim(d, name, kKernelEdges, stream(22, k));
      pool.push_back({name, "sim_hash", {"sim", "--netlist", d.path, "--stim", stim, "--hash"}});
    }
    const std::size_t passes = (list_length(kKernelPerSecond, 1) + kKernelStimuli - 1) /
                               kKernelStimuli;
    for (std::size_t k = 0; k < passes * kKernelStimuli; ++k) {
      timed_.push_back(pool[k % kKernelStimuli]);
    }
  }

  // Nominal request rates on a 4-core x86 host; they only size the lists.
  static constexpr double kOneshotPerSecond = 45.0;
  static constexpr double kDaemonPerSecond = 50.0;
  static constexpr double kKernelPerSecond = 0.9;
  static constexpr std::size_t kKernelEdges = 4;
  static constexpr std::size_t kKernelStimuli = 3;

  std::string workload_;
  std::uint64_t seed_;
  double seconds_;
  std::string dir_;
  Library lib_;
  std::vector<Request> setup_;
  std::vector<Request> timed_;
};

// ---- spans -------------------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int request = -1;
  int thread = 0;  ///< 0 = client thread, 1 = in-process server worker
  double weight = 1.0;  ///< requests this span stands for (see set_weight)
};

/// In-memory span and count recorder.  With `on` false every call is a
/// branch and nothing is stored -- the spans-off pass of the overhead
/// comparison runs exactly the same replay code.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  void begin_request(int request) {
    const std::lock_guard<std::mutex> lock(mutex_);
    request_ = request;
  }
  /// Spans and counts recorded from now on stand for `weight` requests:
  /// a re-run request represents every repeat of it in the list.
  void set_weight(double weight) {
    const std::lock_guard<std::mutex> lock(mutex_);
    weight_ = weight;
  }

  int open(const std::string& name, int thread = 0) {
    if (!on_) return -1;
    const std::int64_t now = since_origin();
    const std::lock_guard<std::mutex> lock(mutex_);
    const int parent = thread == 0 ? (stack_.empty() ? -1 : stack_.back()) : root_;
    spans_.push_back({name, now, now, parent, request_, thread, weight_});
    const int index = static_cast<int>(spans_.size()) - 1;
    if (thread == 0) {
      stack_.push_back(index);
      if (stack_.size() == 1) root_ = index;
    }
    return index;
  }

  void close(int index) {
    if (!on_ || index < 0) return;
    const std::int64_t now = since_origin();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end_ns = now;
    if (spans_[static_cast<std::size_t>(index)].thread == 0) {
      if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
    }
  }

  void count(const std::string& name, double value) {
    if (!on_) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    counts_[name] += value * weight_;
  }
  void peak(const std::string& name, double value) {
    if (!on_) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    double& slot = counts_[name];
    slot = std::max(slot, value);
  }

  [[nodiscard]] double counted(const std::string& name) const {
    const auto it = counts_.find(name);
    return it == counts_.end() ? 0.0 : it->second;
  }

  /// Weighted sum over spans named `name` of duration minus same-thread
  /// children.
  [[nodiscard]] double self_ms(const std::string& name) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0 && spans_[static_cast<std::size_t>(s.parent)].thread == s.thread) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    double total_ns = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) {
        total_ns += spans_[i].weight *
                    static_cast<double>(spans_[i].end_ns - spans_[i].start_ns - child_ns[i]);
      }
    }
    return total_ns / 1e6;
  }

  void write_json(const std::string& path) const {
    std::ostringstream out;
    out << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << ", \"parent\": " << s.parent << ", \"request\": " << s.request
          << ", \"thread\": " << s.thread << ", \"weight\": " << exact(s.weight) << "}";
    }
    out << "\n], \"counts\": {";
    bool first = true;
    for (const auto& [name, value] : counts_) {
      out << (first ? "" : ", ") << "\"" << name << "\": " << exact(value);
      first = false;
    }
    out << "}}\n";
    write_text(path, out.str());
  }

 private:
  [[nodiscard]] std::int64_t since_origin() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }

  bool on_;
  Clock::time_point origin_;
  std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<int> stack_;  ///< open client-thread spans
  int root_ = -1;           ///< outermost open client-thread span
  int request_ = -1;
  double weight_ = 1.0;
  std::map<std::string, double> counts_;
};

/// RAII span: `Scope s(tracer, "core.run");`
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name) : tracer_(tracer), index_(tracer.open(name)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

// ---- the layer sequences -----------------------------------------------------------

const Library& library() {
  static const Library lib = Library::default_u6();
  return lib;
}

std::string format_of(const std::string& path) {
  return path.size() >= 6 && path.substr(path.size() - 6) == ".bench" ? "bench" : "native";
}

Netlist parse_netlist(Tracer& tracer, const std::string& text, const std::string& format) {
  Scope span(tracer, "parsers.netlist");
  tracer.count("parsers.netlist_bytes", static_cast<double>(text.size()));
  return format == "bench" ? read_bench(text, library()) : read_netlist(text, library());
}

TimingGraph build_graph(Tracer& tracer, const Netlist& netlist, const TimingPolicy& policy) {
  Scope span(tracer, "timing.build");
  TimingGraph graph = TimingGraph::build(netlist, policy);
  tracer.count("timing.builds", 1);
  tracer.count("timing.arcs", static_cast<double>(graph.num_arcs()));
  return graph;
}

Stimulus parse_stimulus(Tracer& tracer, const std::string& path, const Netlist& netlist) {
  const std::string text = read_text(path);
  Scope span(tracer, "parsers.stimulus");
  return read_stimulus(text, netlist);
}

/// apply / run / hash / vcd on a constructed simulator; returns stdout.
std::string simulate(Tracer& tracer, Simulator& sim, const Stimulus& stimulus,
                     const Request& request,
                     std::vector<std::pair<std::string, std::string>>* artifacts) {
  {
    Scope span(tracer, "core.apply");
    sim.apply_stimulus(stimulus);
  }
  RunResult result;
  {
    Scope span(tracer, "core.run");
    result = sim.run();
  }
  const SimStats& stats = sim.stats();
  tracer.count("core.events", static_cast<double>(stats.events_processed));
  tracer.peak("core.event_arena_bytes", static_cast<double>(sim.event_arena_bytes()));
  tracer.peak("core.transition_arena_bytes",
              static_cast<double>(sim.transition_arena_bytes()));
  tracer.peak("core.peak_live_transitions", static_cast<double>(sim.peak_live_transitions()));

  std::ostringstream out;
  out << "model: " << sim.model().name() << "\n";
  out << "finished at t = " << format_double(result.end_time, 6) << " ns ("
      << (result.reason == StopReason::kQueueExhausted   ? "queue exhausted"
          : result.reason == StopReason::kHorizonReached ? "horizon reached"
                                                         : "event limit")
      << ")\n";
  out << "events: processed " << stats.events_processed << ", filtered "
      << stats.filtered_events() << ", transitions " << stats.surviving_transitions() << "\n";
  out << "final output values:\n";
  const Netlist& netlist = sim.netlist();
  for (const SignalId po : netlist.primary_outputs()) {
    out << "  " << netlist.signal(po).name << " = " << (sim.final_value(po) ? 1 : 0) << "\n";
  }
  if (request.flag("hash")) {
    std::uint64_t hash = 0;
    {
      Scope span(tracer, "replay.hash");
      hash = replay::hash_sim_history(sim);
    }
    char buffer[24];
    std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(hash));
    out << "history hash: " << buffer << "\n";
  }
  if (const auto vcd_path = request.flag("vcd")) {
    std::string bytes;
    {
      Scope span(tracer, "waveform.vcd");
      std::ostringstream vcd;
      vcd_from_simulator(sim).write(vcd);
      bytes = vcd.str();
    }
    tracer.count("waveform.vcd_bytes", static_cast<double>(bytes.size()));
    if (artifacts != nullptr) {
      Scope span(tracer, "base.write_file_atomic");
      write_file_atomic(*vcd_path, bytes);
      artifacts->emplace_back(*vcd_path, std::move(bytes));
    }
    out << "wrote " << *vcd_path << "\n";
  }
  return out.str();
}

/// One CLI request, layer by layer, in the order the command runs them.
std::string run_cli_request(Tracer& tracer, const Request& request) {
  const std::string& command = request.args.at(0);
  const std::string path = *request.flag("netlist");
  const std::string format = format_of(path);
  const DdmDelayModel model;
  std::vector<std::pair<std::string, std::string>> artifacts;
  std::string out;
  const Netlist netlist = parse_netlist(tracer, read_text(path), format);
  if (command == "sim") {
    const TimingGraph graph = build_graph(tracer, netlist, model.timing_policy());
    const Stimulus stimulus = parse_stimulus(tracer, *request.flag("stim"), netlist);
    std::optional<Simulator> sim;
    {
      Scope span(tracer, "core.construct");
      sim.emplace(netlist, model, graph, SimConfig{});
    }
    out = simulate(tracer, *sim, stimulus, request, &artifacts);
  } else if (command == "sta") {
    const TimingGraph graph = build_graph(tracer, netlist, TimingPolicy{});
    Scope span(tracer, "sta.analyze");
    const StaticTimingAnalyzer sta(netlist, graph, 0.5);
    out = StaticTimingAnalyzer::format(sta.analyze(), netlist) + "\n" + graph.format_arcs();
  } else if (command == "lint") {
    const TimingGraph graph = build_graph(tracer, netlist, model.timing_policy());
    Scope span(tracer, "lint.run");
    lint::LintOptions options;
    options.input_slew = 0.5;
    options.fanout_limit = 64;
    out = lint::format_json(lint::run_lint(netlist, graph, options), netlist);
  } else {
    throw std::runtime_error("not a CLI workload command: " + command);
  }
  return digest(out, artifacts);
}

/// The daemon-side sequence of one request, re-run directly against the
/// replayer's own cache and lease: the inner split of serve.execute.
void rerun_daemon_request(Tracer& tracer, serve::ElabCache& cache,
                            serve::SimulatorLease& lease, const Request& request) {
  const std::string& command = request.args.at(0);
  const std::string path = *request.flag("netlist");
  const std::string format = format_of(path);
  const std::string text = read_text(path);
  const DdmDelayModel model;
  const TimingPolicy policy = command == "sta" ? TimingPolicy{} : model.timing_policy();
  std::uint64_t key = 0;
  {
    Scope span(tracer, "serve.elaboration_key");
    key = serve::elaboration_key(format, text, policy, nullptr);
  }
  std::shared_ptr<const serve::Elaboration> elab;
  {
    Scope span(tracer, "serve.cache_lookup");
    elab = cache.get_or_build(key, [&] {
      auto built = std::make_shared<serve::Elaboration>(parse_netlist(tracer, text, format));
      built->graph = build_graph(tracer, built->netlist, policy);
      built->key = key;
      return std::shared_ptr<const serve::Elaboration>(std::move(built));
    });
  }
  const Netlist& netlist = elab->netlist;
  if (command == "sta") {
    Scope span(tracer, "sta.analyze");
    const StaticTimingAnalyzer sta(netlist, elab->graph, 0.5);
    const std::string text_out =
        StaticTimingAnalyzer::format(sta.analyze(), netlist) + "\n" + elab->graph.format_arcs();
    tracer.count("sta.bytes", static_cast<double>(text_out.size()));
    return;
  }
  const Stimulus stimulus =
      request.flag("stim") ? parse_stimulus(tracer, *request.flag("stim"), netlist)
                           : Stimulus(0.5);
  if (command == "sim") {
    Simulator* sim = nullptr;
    {
      Scope span(tracer, "core.construct");
      sim = &lease.acquire(elab, model, SimConfig{});
    }
    (void)simulate(tracer, *sim, stimulus, request, nullptr);
  } else if (command == "fault") {
    Scope span(tracer, "fault.campaign");
    CampaignEngine engine(netlist, model, elab->graph, 1);
    FaultSimOptions sampling;
    sampling.sample_period = 5.0;
    const CampaignResult result = engine.run(stimulus, {}, sampling, true);
    tracer.count("fault.faults", static_cast<double>(result.total));
  } else if (command == "variation") {
    Scope span(tracer, "replay.variation");
    replay::VariationConfig config;
    config.samples = std::stoul(*request.flag("samples"));
    config.seed = std::stoull(*request.flag("seed"));
    config.sigma = std::stod(*request.flag("sigma"));
    config.threads = 1;
    config.use_replay = request.flag("replay").has_value();
    const replay::VariationResult result = replay::run_variation(
        netlist, model, stimulus, netlist.primary_outputs(), config, nullptr);
    tracer.count("replay.samples", static_cast<double>(result.rows.size()));
    tracer.count("replay.replayed", static_cast<double>(result.rows.size() - result.fallbacks));
  } else {
    throw std::runtime_error("not a daemon workload command: " + command);
  }
}

/// Input files a request ships by content (netlist and stimulus).
std::vector<std::pair<std::string, std::string>> shipped_files(const Request& request) {
  std::vector<std::pair<std::string, std::string>> files;
  for (const char* flag : {"netlist", "stim"}) {
    if (const auto path = request.flag(flag)) files.emplace_back(*path, read_text(*path));
  }
  return files;
}

struct PassResult {
  std::map<std::string, std::string> digests;
  std::size_t requests = 0;
  std::size_t timed_requests = 0;
  double wall_s = 0.0;
  double round_trip_ms = 0.0;  ///< client encode start to decode end, summed
  double frame_bytes = 0.0;
  serve::ElabCache::Stats timed_cache;  ///< server cache delta over the timed phase
};

PassResult run_cli_pass(Tracer& tracer, const std::vector<Request>& setup,
                        const std::vector<Request>& timed) {
  PassResult pass;
  const auto start = Clock::now();
  int index = 0;
  for (const std::vector<Request>* list : {&setup, &timed}) {
    for (const Request& request : *list) {
      tracer.begin_request(index++);
      Scope span(tracer, "request");
      pass.digests[request.id] = run_cli_request(tracer, request);
      ++pass.requests;
    }
  }
  pass.timed_requests = timed.size();
  pass.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return pass;
}

PassResult run_daemon_pass(Tracer& tracer, const std::vector<Request>& setup,
                           const std::vector<Request>& timed, std::size_t cache_bytes,
                           const std::string& socket_path) {
  PassResult pass;
  serve::ServeOptions options;
  options.socket_path = socket_path;
  options.threads = 1;
  options.cache_bytes = cache_bytes;
  serve::Server server(options, [&tracer](const std::vector<std::string>& args,
                                          serve::ServeContext& context, serve::RequestIo& io,
                                          std::ostream& out, std::ostream& err) {
    const int span = tracer.open("serve.execute", 1);
    const int code = run_cli_service(args, out, err, &context, &io);
    tracer.close(span);
    return code;
  });
  std::thread daemon([&server] {
    try {
      server.run();
    } catch (const std::exception& e) {
      // The connect below then fails and ends the pass.
      std::cerr << "perfbench_tool: in-process server: " << e.what() << "\n";
    }
  });
  // Stop and join the server on every exit path out of this function.
  struct Drain {
    serve::ServeOptions& options;
    std::thread& thread;
    ~Drain() {
      options.stop.cancel();
      thread.join();
    }
  } drain{options, daemon};
  // server.run() binds asynchronously: retry the connect until it listens.
  serve::UnixFd conn;
  for (int attempt = 0; !conn.valid(); ++attempt) {
    try {
      conn = serve::connect_unix(socket_path);
    } catch (const RunError&) {
      if (attempt > 500) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  serve::ElabCache rerun_cache(cache_bytes);
  serve::SimulatorLease rerun_lease;
  // Every set-up request is re-run (cold cache); a timed request only at
  // its first occurrence, standing for all of its repeats.
  std::map<std::string, int> repeats;
  for (const Request& request : timed) ++repeats[request.id];
  const auto start = Clock::now();
  int index = 0;
  serve::ElabCache::Stats before_timed;
  for (const std::vector<Request>* list : {&setup, &timed}) {
    if (list == &timed) before_timed = server.cache_stats();
    std::map<std::string, bool> rerun_done;
    for (const Request& request : *list) {
      tracer.begin_request(index++);
      serve::ResponseFrame response;
      {
        Scope span(tracer, "request");
        serve::RequestFrame frame;
        frame.args = request.args;
        frame.files = shipped_files(request);
        std::string payload;
        const auto round_trip_start = Clock::now();
        {
          Scope codec(tracer, "serve.codec");
          payload = serve::encode_request(frame);
        }
        {
          Scope io(tracer, "serve.write_frame");
          serve::write_frame(conn.get(), payload, nullptr);
        }
        std::optional<std::string> reply;
        {
          Scope io(tracer, "serve.read_frame");
          reply = serve::read_frame(conn.get(), nullptr, 0);
        }
        if (!reply) throw std::runtime_error("daemon closed the connection");
        {
          Scope codec(tracer, "serve.codec");
          response = serve::decode_response(*reply);
        }
        pass.round_trip_ms +=
            std::chrono::duration<double, std::milli>(Clock::now() - round_trip_start).count();
        pass.frame_bytes += static_cast<double>(payload.size() + reply->size());
        if (response.exit_code != 0) {
          throw std::runtime_error("request " + request.id + " exited " +
                                   std::to_string(response.exit_code) + ": " + response.err);
        }
        for (const auto& [path, bytes] : response.artifacts) {
          Scope span_write(tracer, "base.write_file_atomic");
          write_file_atomic(path, bytes);
        }
        pass.digests[request.id] = digest(response.out, response.artifacts);
      }
      if (!std::exchange(rerun_done[request.id], true)) {
        // The daemon's own decode and encode (outside serve.execute), then
        // the layers inside it.
        tracer.set_weight(list == &timed ? repeats[request.id] : 1.0);
        Scope span(tracer, "rerun");
        serve::RequestFrame frame;
        frame.args = request.args;
        frame.files = shipped_files(request);
        const std::string payload = serve::encode_request(frame);
        {
          Scope codec(tracer, "serve.codec");
          (void)serve::decode_request(payload);
          (void)serve::encode_response(response);
        }
        rerun_daemon_request(tracer, rerun_cache, rerun_lease, request);
      }
      tracer.set_weight(1.0);
      ++pass.requests;
    }
  }
  pass.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  pass.timed_requests = timed.size();
  const serve::ElabCache::Stats after = server.cache_stats();
  pass.timed_cache.hits = after.hits - before_timed.hits;
  pass.timed_cache.misses = after.misses - before_timed.misses;
  conn.reset();
  return pass;
}

void emit_metric(std::ostream& out, bool& first, const std::string& name, double value,
                 const std::string& unit) {
  out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << exact(value)
      << ", \"unit\": \"" << unit << "\"}";
  first = false;
}

int trace_main(const std::map<std::string, std::string>& flags) {
  const std::string workload = need(flags, "workload");
  const std::string dir = need(flags, "dir");
  const std::string spans_path = need(flags, "spans");
  const double cache_mb = flags.count("cache-mb") != 0 ? std::stod(flags.at("cache-mb")) : 256.0;
  std::filesystem::current_path(dir);
  const std::vector<Request> setup = read_tsv("setup.tsv");
  const std::vector<Request> timed = read_tsv("timed.tsv");
  const bool daemon = workload != "oneshot_cli";
  const auto cache_bytes = static_cast<std::size_t>(cache_mb * 1024.0 * 1024.0);

  const auto pass = [&](Tracer& tracer, const std::string& socket) {
    return daemon ? run_daemon_pass(tracer, setup, timed, cache_bytes, socket)
                  : run_cli_pass(tracer, setup, timed);
  };
  Tracer off(false);
  const PassResult untraced = pass(off, "t0.sock");
  Tracer tracer(true);
  const PassResult traced = pass(tracer, "t1.sock");
  tracer.write_json(spans_path);

  const auto per_request = [&](double total) {
    return total / static_cast<double>(traced.requests);
  };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const double mb = 1024.0 * 1024.0;
  const double parse_ms = tracer.self_ms("parsers.netlist");
  const double run_ms = tracer.self_ms("core.run");
  const double codec_ms = tracer.self_ms("serve.codec");
  const double execute_ms = tracer.self_ms("serve.execute");
  const double campaign_ms = tracer.self_ms("fault.campaign");

  std::ostringstream out;
  out << "{\"digests\": {";
  bool first = true;
  for (const auto& [id, d] : traced.digests) {
    out << (first ? "" : ", ") << "\"" << id << "\": \"" << d << "\"";
    first = false;
  }
  out << "}, \"untraced_digests_equal\": "
      << (untraced.digests == traced.digests ? "true" : "false") << ", \"metrics\": {";
  first = true;
  emit_metric(out, first, "parsers.netlist_ms", per_request(parse_ms), "ms");
  emit_metric(out, first, "parsers.netlist_mb_per_s",
              ratio(tracer.counted("parsers.netlist_bytes") / mb, parse_ms / 1e3), "MB/s");
  emit_metric(out, first, "parsers.stimulus_ms", per_request(tracer.self_ms("parsers.stimulus")),
              "ms");
  emit_metric(out, first, "timing.build_ms", per_request(tracer.self_ms("timing.build")), "ms");
  emit_metric(out, first, "timing.arcs",
              ratio(tracer.counted("timing.arcs"), tracer.counted("timing.builds")), "count");
  emit_metric(out, first, "core.construct_ms", per_request(tracer.self_ms("core.construct")),
              "ms");
  emit_metric(out, first, "core.apply_ms", per_request(tracer.self_ms("core.apply")), "ms");
  emit_metric(out, first, "core.run_ms", per_request(run_ms), "ms");
  emit_metric(out, first, "core.events", per_request(tracer.counted("core.events")), "count");
  emit_metric(out, first, "core.ns_per_event",
              ratio(run_ms * 1e6, tracer.counted("core.events")), "ns");
  emit_metric(out, first, "core.event_arena_mb", tracer.counted("core.event_arena_bytes") / mb,
              "MB");
  emit_metric(out, first, "core.transition_arena_mb",
              tracer.counted("core.transition_arena_bytes") / mb, "MB");
  emit_metric(out, first, "core.peak_live_transitions",
              tracer.counted("core.peak_live_transitions"), "count");
  emit_metric(out, first, "replay.hash_ms", per_request(tracer.self_ms("replay.hash")), "ms");
  emit_metric(out, first, "replay.variation_ms",
              per_request(tracer.self_ms("replay.variation")), "ms");
  emit_metric(out, first, "replay.replayed_ratio",
              ratio(tracer.counted("replay.replayed"), tracer.counted("replay.samples")),
              "ratio");
  emit_metric(out, first, "fault.campaign_ms", per_request(campaign_ms), "ms");
  emit_metric(out, first, "fault.faults_per_s",
              ratio(tracer.counted("fault.faults"), campaign_ms / 1e3), "1/s");
  emit_metric(out, first, "sta.analyze_ms", per_request(tracer.self_ms("sta.analyze")), "ms");
  emit_metric(out, first, "lint.run_ms", per_request(tracer.self_ms("lint.run")), "ms");
  emit_metric(out, first, "waveform.vcd_ms", per_request(tracer.self_ms("waveform.vcd")), "ms");
  emit_metric(out, first, "waveform.vcd_mb",
              per_request(tracer.counted("waveform.vcd_bytes") / mb), "MB");
  emit_metric(out, first, "base.write_file_atomic_ms",
              per_request(tracer.self_ms("base.write_file_atomic")), "ms");
  emit_metric(out, first, "serve.codec_ms", per_request(codec_ms), "ms");
  emit_metric(out, first, "serve.frame_mb", per_request(traced.frame_bytes / mb), "MB");
  emit_metric(out, first, "serve.elaboration_key_ms",
              per_request(tracer.self_ms("serve.elaboration_key")), "ms");
  emit_metric(out, first, "serve.cache_lookup_ms",
              per_request(tracer.self_ms("serve.cache_lookup")), "ms");
  emit_metric(out, first, "serve.cache_hit_ratio",
              ratio(static_cast<double>(traced.timed_cache.hits),
                    static_cast<double>(traced.timed_cache.hits + traced.timed_cache.misses)),
              "ratio");
  emit_metric(out, first, "serve.execute_ms", per_request(execute_ms), "ms");
  // Round trip minus execute minus the codec work on both sides.
  emit_metric(out, first, "serve.transport_ms",
              daemon ? per_request(traced.round_trip_ms - execute_ms - codec_ms) : 0.0, "ms");
  emit_metric(out, first, "trace.overhead_pct",
              100.0 * (traced.wall_s - untraced.wall_s) / untraced.wall_s, "%");
  out << "}, \"requests\": " << traced.requests << ", \"timed_requests\": "
      << traced.timed_requests << ", \"timed_cache_misses\": " << traced.timed_cache.misses
      << "}";
  std::cout << out.str() << std::endl;
  return 0;
}

/// Runs CLI processes for the harness: one request line in
/// ("<stdout file>\t<stderr file>\t<program>\t<args...>"), one line out
/// ("<exit code>\t<wall ns>\t<user+sys us>\t<max rss KiB>").  A child's
/// ru_maxrss also holds the memory of the process that spawned it -- the
/// kernel carries the parent's high-water mark across exec -- so the CLI
/// children are spawned from this small process, not from the harness.
int spawn_main() {
  std::string line;
  while (std::getline(std::cin, line)) {
    const std::vector<std::string> fields = split(line, '\t');
    if (fields.size() < 3) throw std::runtime_error("bad spawn line: " + line);
    std::vector<char*> argv;
    for (std::size_t i = 2; i < fields.size(); ++i) {
      argv.push_back(const_cast<char*>(fields[i].c_str()));
    }
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 1, fields[0].c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&actions, 2, fields[1].c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const auto start = Clock::now();
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot spawn " + fields[2] + ": " + std::strerror(rc));
    int status = 0;
    rusage usage{};
    if (::wait4(pid, &status, 0, &usage) != pid) throw std::runtime_error("wait4 failed");
    const auto wall_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count();
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    const long long cpu_us =
        (static_cast<long long>(usage.ru_utime.tv_sec) + usage.ru_stime.tv_sec) * 1000000LL +
        usage.ru_utime.tv_usec + usage.ru_stime.tv_usec;
    std::cout << code << '\t' << wall_ns << '\t' << cpu_us << '\t' << usage.ru_maxrss
              << std::endl;
  }
  return 0;
}

int gen_main(const std::map<std::string, std::string>& flags) {
  const std::uint64_t seed = std::stoull(need(flags, "seed"));
  const double seconds = std::stod(need(flags, "seconds"));
  Generator(need(flags, "workload"), seed, seconds, need(flags, "dir")).run();
  return 0;
}

}  // namespace
}  // namespace halotis::perfbench

int main(int argc, char** argv) {
  using namespace halotis::perfbench;
  try {
    if (argc < 2) throw std::runtime_error("usage: perfbench_tool gen|trace|spawn --flags...");
    const std::string command = argv[1];
    const auto flags = parse_flags(argc, argv, 2);
    if (command == "gen") return gen_main(flags);
    if (command == "trace") return trace_main(flags);
    if (command == "spawn") return spawn_main();
    throw std::runtime_error("unknown command " + command);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_tool: " << e.what() << "\n";
    return 1;
  }
}
