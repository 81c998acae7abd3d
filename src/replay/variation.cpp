#include "src/replay/variation.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>

#include "src/base/check.hpp"
#include "src/base/mathfit.hpp"
#include "src/base/rng.hpp"
#include "src/base/strings.hpp"
#include "src/base/worker_pool.hpp"
#include "src/replay/resim.hpp"

namespace halotis::replay {

namespace {

[[nodiscard]] std::string hex64(std::uint64_t v) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%016" PRIx64, v);
  return buffer;
}

}  // namespace

VariationResult run_variation(const Netlist& netlist, const DelayModel& model,
                              const Stimulus& stimulus,
                              std::span<const SignalId> observed,
                              const VariationConfig& config,
                              const RunSupervisor* supervisor) {
  require(config.samples >= 1, "run_variation(): samples must be >= 1");
  require(config.sigma >= 0.0, "run_variation(): sigma must be >= 0");

  ResimEngine engine(TimingGraph::build(netlist, model.timing_policy()), model, stimulus,
                     config.sim);

  VariationResult result;
  result.replay_used = config.use_replay;

  // The nominal (unperturbed) run: the recording run in replay mode, one
  // full simulation otherwise -- the same kernel run on the base graph, so
  // the artifact value is mode-independent.
  result.nominal_t50 =
      config.use_replay
          ? engine.record(supervisor, observed)
          : full_sample(engine, engine.base_graph(), observed, /*want_hash=*/false,
                        supervisor)
                .critical_t50;

  // Per-sample seeds, drawn up front so row i is a pure function of
  // (master seed, i) regardless of scheduling.
  std::vector<std::uint64_t> seeds(config.samples);
  SplitMix64 rng(config.seed);
  for (std::uint64_t& s : seeds) s = rng.next();

  WorkerPool pool(config.threads);
  std::vector<std::unique_ptr<ResimSession>> sessions(
      static_cast<std::size_t>(pool.size()));
  if (config.use_replay) {
    for (auto& session : sessions) session = std::make_unique<ResimSession>(engine);
  }

  result.rows.resize(config.samples);
  pool.for_each_index(config.samples, [&](int worker, std::size_t i) {
    const TimingGraph graph = engine.base_graph().vary(config.sigma, seeds[i]);
    ResimSession* session = sessions[static_cast<std::size_t>(worker)].get();
    const ResimSample sample =
        session != nullptr
            ? session->evaluate(graph, observed, /*want_hash=*/true, supervisor)
            : full_sample(engine, graph, observed, /*want_hash=*/true, supervisor);
    result.rows[i] =
        VariationSampleRow{seeds[i], sample.critical_t50, sample.history_hash};
  });

  for (const auto& session : sessions) {
    if (session != nullptr) result.fallbacks += session->fallbacks();
  }
  return result;
}

std::string format_variation_csv(const VariationResult& result) {
  std::string out = "sample,seed,critical_t50,history_hash\n";
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    const VariationSampleRow& row = result.rows[i];
    out += std::to_string(i);
    out += ",0x";
    out += hex64(row.sample_seed);
    out += ',';
    out += format_double(row.critical_t50, 17);
    out += ',';
    out += hex64(row.history_hash);
    out += '\n';
  }
  return out;
}

std::string format_variation_report(const VariationResult& result,
                                    const VariationConfig& config) {
  std::vector<double> t50s;
  t50s.reserve(result.rows.size());
  for (const VariationSampleRow& row : result.rows) t50s.push_back(row.critical_t50);
  double t_min = 0.0;
  double t_max = 0.0;
  if (!t50s.empty()) {
    const auto [lo, hi] = std::minmax_element(t50s.begin(), t50s.end());
    t_min = *lo;
    t_max = *hi;
  }
  std::vector<std::uint64_t> hashes;
  hashes.reserve(result.rows.size());
  for (const VariationSampleRow& row : result.rows) hashes.push_back(row.history_hash);
  std::sort(hashes.begin(), hashes.end());
  const auto distinct = static_cast<std::size_t>(
      std::unique(hashes.begin(), hashes.end()) - hashes.begin());

  std::string out = "variation report\n";
  out += "  samples            : " + std::to_string(result.rows.size()) + "\n";
  out += "  sigma              : " + format_double(config.sigma, 6) + "\n";
  out += "  seed               : " + std::to_string(config.seed) + "\n";
  out += "  nominal t50        : " + format_double(result.nominal_t50, 9) + " ns\n";
  out += "  mean t50           : " + format_double(mean(t50s), 9) + " ns\n";
  out += "  stddev t50         : " + format_double(stddev(t50s), 9) + " ns\n";
  out += "  min / max t50      : " + format_double(t_min, 9) + " / " +
         format_double(t_max, 9) + " ns\n";
  out += "  distinct waveforms : " + std::to_string(distinct) + "\n";
  return out;
}

}  // namespace halotis::replay
