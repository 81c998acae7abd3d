// Regenerates paper Table 1: "HALOTIS simulation results statistics" --
// processed events and filtered events for HALOTIS-DDM vs HALOTIS-CDM on
// both multiplication sequences, plus the CDM event-overestimation
// percentage.
//
// Paper values for reference:
//   sequence               DDM events  CDM events  overst.  DDM filt  CDM filt
//   0x0 7x7 5xA Ex6 FxF          959        1411      47%        27         1
//   0x0 FxF 0x0 FxF ...         1312        1992      52%        66         6
//
// Expected *shape* (absolute numbers depend on the technology): CDM events
// exceed DDM events by tens of percent, DDM filters many more pulses than
// CDM, and total switching activity follows the same ordering.
#include <cstdio>

#include "bench/bench_util.hpp"

using namespace halotis;
using namespace halotis::bench;

namespace {

struct Row {
  std::uint64_t events = 0;
  std::uint64_t filtered = 0;
  std::uint64_t activity = 0;
};

Row run(const MultiplierCircuit& mult, const DelayModel& model,
        const std::vector<std::uint64_t>& words) {
  Simulator sim(mult.netlist, model);
  sim.apply_stimulus(multiplier_stimulus(mult, words));
  (void)sim.run();
  return Row{sim.stats().events_processed, sim.stats().filtered_events(),
             sim.stats().surviving_transitions()};
}

}  // namespace

int main() {
  const Library lib = Library::default_u6();
  const DdmDelayModel ddm;
  const CdmDelayModel cdm;

  std::printf("== Table 1: HALOTIS simulation results statistics ==\n\n");
  std::printf("%-28s | %-21s | %-9s | %-21s\n", "", "Events", "Overst.", "Filtered events");
  std::printf("%-28s | %10s %10s | %9s | %10s %10s\n", "Sequence", "DDM", "CDM", "CDM (%)",
              "DDM", "CDM");

  bool shape_holds = true;
  for (const bool fig7 : {false, true}) {
    MultiplierCircuit mult = make_multiplier(lib, 4);
    const auto words = fig7 ? fig7_sequence() : fig6_sequence();
    const Row ddm_row = run(mult, ddm, words);
    const Row cdm_row = run(mult, cdm, words);
    const double overst = 100.0 * (static_cast<double>(cdm_row.events) /
                                       static_cast<double>(ddm_row.events) -
                                   1.0);
    std::printf("%-28s | %10llu %10llu | %8.0f%% | %10llu %10llu\n", sequence_name(fig7),
                static_cast<unsigned long long>(ddm_row.events),
                static_cast<unsigned long long>(cdm_row.events), overst,
                static_cast<unsigned long long>(ddm_row.filtered),
                static_cast<unsigned long long>(cdm_row.filtered));
    shape_holds = shape_holds && cdm_row.events > ddm_row.events &&
                  ddm_row.filtered > cdm_row.filtered;
  }

  std::printf("\npaper (0.6 um, authors' cells):\n");
  std::printf("%-28s | %10d %10d | %8d%% | %10d %10d\n", "0x0, 7x7, 5xA, Ex6, FxF", 959,
              1411, 47, 27, 1);
  std::printf("%-28s | %10d %10d | %8d%% | %10d %10d\n", "0x0, FxF, 0x0, FxF, ...", 1312,
              1992, 52, 66, 6);

  std::printf("\nswitching activity (surviving transitions):\n");
  for (const bool fig7 : {false, true}) {
    MultiplierCircuit mult = make_multiplier(lib, 4);
    const auto words = fig7 ? fig7_sequence() : fig6_sequence();
    const Row ddm_row = run(mult, ddm, words);
    const Row cdm_row = run(mult, cdm, words);
    std::printf("  %-28s DDM %6llu   CDM %6llu   (%+.0f%%)\n", sequence_name(fig7),
                static_cast<unsigned long long>(ddm_row.activity),
                static_cast<unsigned long long>(cdm_row.activity),
                100.0 * (static_cast<double>(cdm_row.activity) /
                             static_cast<double>(ddm_row.activity) -
                         1.0));
  }

  std::printf("\nshape check (CDM events > DDM events AND DDM filters more): %s\n",
              shape_holds ? "PASS" : "FAIL");
  return shape_holds ? 0 : 1;
}
