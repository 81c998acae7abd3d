// Ablation: Monte-Carlo process variation.
//
// Per-instance lognormal delay derating (sigma in {5%, 15%}) applied on
// top of the DDM, 60 samples each: distribution of the 4x4 multiplier's
// dynamic settling time (last product-bit transition after the FxF vector)
// and of the glitch activity.  Two shape expectations: settling-time spread
// grows with sigma, and the DDM-vs-CDM activity ordering survives
// variation (the paper's conclusions are not a knife-edge artifact of
// nominal timing).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/base/mathfit.hpp"

using namespace halotis;
using namespace halotis::bench;

namespace {

struct Sample {
  TimeNs settle = 0.0;
  std::uint64_t activity = 0;
};

Sample run_sample(const MultiplierCircuit& mult, const DelayModel& model,
                  const TimingGraph& timing, const std::vector<std::uint64_t>& words) {
  Simulator sim(mult.netlist, model, timing);
  sim.apply_stimulus(multiplier_stimulus(mult, words));
  (void)sim.run();
  Sample sample;
  sample.activity = sim.stats().surviving_transitions();
  for (const SignalId s : mult.s) {
    const auto history = sim.history(s);
    if (!history.empty()) sample.settle = std::max(sample.settle, history.back().t50());
  }
  return sample;
}

}  // namespace

int main() {
  const Library lib = Library::default_u6();
  MultiplierCircuit mult = make_multiplier(lib, 4);
  const auto words = fig6_sequence();
  const int kSamples = 60;

  std::printf("== Ablation: Monte-Carlo process variation (%d samples/corner) ==\n\n",
              kSamples);
  const DdmDelayModel ddm;
  const CdmDelayModel cdm;
  const TimingGraph ddm_graph = TimingGraph::build(mult.netlist, ddm.timing_policy());
  const TimingGraph cdm_graph = TimingGraph::build(mult.netlist, cdm.timing_policy());

  const Sample nominal = run_sample(mult, ddm, ddm_graph, words);
  std::printf("nominal DDM: settle %.3f ns, activity %llu\n\n", nominal.settle,
              static_cast<unsigned long long>(nominal.activity));

  std::printf("%-8s | %-30s | %-22s | %s\n", "sigma", "settle ns (mean/min/max/sd)",
              "activity (mean/sd)", "CDM>DDM activity");
  double spread[2] = {0.0, 0.0};
  bool ordering_holds = true;
  int corner_index = 0;
  for (const double sigma : {0.05, 0.15}) {
    std::vector<double> settles;
    std::vector<double> activities;
    int cdm_wins = 0;
    for (int s = 0; s < kSamples; ++s) {
      const std::uint64_t seed = 1000u + static_cast<unsigned>(s);
      const Sample sample = run_sample(mult, ddm, ddm_graph.vary(sigma, seed), words);
      settles.push_back(sample.settle);
      activities.push_back(static_cast<double>(sample.activity));

      const Sample cdm_sample = run_sample(mult, cdm, cdm_graph.vary(sigma, seed), words);
      if (cdm_sample.activity > sample.activity) ++cdm_wins;
    }
    const double sd = stddev(settles);
    spread[corner_index++] = sd;
    std::printf("%-8.2f | %6.3f / %6.3f / %6.3f / %5.3f | %9.1f / %8.1f | %d/%d\n", sigma,
                mean(settles), *std::min_element(settles.begin(), settles.end()),
                *std::max_element(settles.begin(), settles.end()), sd, mean(activities),
                stddev(activities), cdm_wins, kSamples);
    ordering_holds = ordering_holds && cdm_wins >= kSamples * 9 / 10;
  }

  const bool pass = spread[1] > spread[0] && ordering_holds;
  std::printf("\nshape check (spread grows with sigma; CDM>DDM activity in >=90%% of"
              " samples): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
