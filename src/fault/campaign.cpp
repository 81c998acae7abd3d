#include "src/fault/campaign.hpp"

#include <algorithm>

#include "src/base/check.hpp"
#include "src/base/failpoint.hpp"

namespace halotis {

namespace {

/// Everything one run() shares read-only across the workers.
struct CampaignPlan {
  const Netlist* netlist = nullptr;
  const Stimulus* stimulus = nullptr;
  const std::vector<Fault>* faults = nullptr;
  std::vector<TimeNs> times;
  /// good_samples[o][k]: good-machine value of primary output `o` at
  /// sample instant `times[k]`.
  std::vector<std::vector<bool>> good_samples;
  /// Index into primary_outputs() of each signal that is one (kNotPo
  /// otherwise): resolves "is this fault site a PO" in O(1).
  std::vector<std::uint32_t> po_index;
  bool early_exit = true;
};

constexpr std::uint32_t kNotPo = 0xFFFFFFFFu;

/// Simulates fault `index` on `sim` (recycled via reset()) and returns its
/// verdict.  Bit-deterministic: depends on nothing but the fault and the
/// shared plan.  `events` accumulates this run's processed-event count.
bool simulate_fault(Simulator& sim, const CampaignPlan& plan, std::size_t index,
                    std::uint64_t& events) {
  const Fault& fault = (*plan.faults)[index];
  const auto pos = plan.netlist->primary_outputs();
  const std::vector<TimeNs>& times = plan.times;

  // Deterministic worker-failure injection: fires before any simulator
  // state changes, so a retried task starts clean.
  failpoint_throw("worker.task");

  sim.reset();
  sim.inject_stuck_at(fault.signal, fault.stuck_value);
  sim.apply_stimulus(*plan.stimulus);

  // A faulted primary output is observed as the stuck constant itself (a
  // rewired netlist would list the constant net as that output); if the
  // constant already disagrees with any good sample, the fault is detected
  // before simulating anything.
  const std::uint32_t fault_po = plan.po_index[fault.signal.value()];

  const auto diverges_at = [&](std::size_t k) {
    for (std::size_t o = 0; o < pos.size(); ++o) {
      const bool observed =
          o == fault_po ? fault.stuck_value : sim.value_at(pos[o], times[k]);
      if (observed != plan.good_samples[o][k]) return true;
    }
    return false;
  };

  if (fault_po != kNotPo) {
    for (std::size_t k = 0; k < times.size(); ++k) {
      if (fault.stuck_value != plan.good_samples[fault_po][k]) return true;
    }
  }

  if (plan.early_exit) {
    // Segmented run with a one-segment verdict lag: sample k is compared
    // only once every event up to sample k+1 has been applied, so late
    // annihilations of pulses near sample k are already visible (see the
    // header's exactness note).  A detected fault stops simulating here,
    // skipping the rest of the stimulus entirely.
    for (std::size_t seg = 1; seg < times.size(); ++seg) {
      (void)sim.run_until(times[seg]);
      if (diverges_at(seg - 1)) {
        events += sim.stats().events_processed;
        return true;
      }
    }
  }
  (void)sim.run();
  events += sim.stats().events_processed;
  const std::size_t first = plan.early_exit && times.size() > 1 ? times.size() - 1 : 0;
  for (std::size_t k = first; k < times.size(); ++k) {
    if (diverges_at(k)) return true;
  }
  return false;
}

}  // namespace

CampaignEngine::CampaignEngine(const Netlist& netlist, const DelayModel& model,
                               const TimingGraph& timing, int threads)
    : netlist_(&netlist), pool_(threads), good_(netlist, model, timing) {
  // One timing elaboration serves the good machine and every worker: the
  // campaign's thousands of faulty runs all read the same arc table.
  sims_.reserve(static_cast<std::size_t>(pool_.size()));
  for (int w = 0; w < pool_.size(); ++w) {
    sims_.push_back(std::make_unique<Simulator>(netlist, model, timing));
  }
}

void CampaignEngine::supervise(const RunSupervisor* supervisor) {
  supervisor_ = supervisor;
  good_.supervise(supervisor);
  for (auto& sim : sims_) sim->supervise(supervisor);
}

CampaignResult CampaignEngine::run(const Stimulus& stimulus, std::vector<Fault> faults,
                                   const FaultSimOptions& sampling, bool early_exit) {
  require(sampling.sample_period > 0.0, "CampaignEngine::run(): period must be positive");
  if (faults.empty()) faults = enumerate_faults(*netlist_);
  for (const Fault& fault : faults) {
    require(fault.signal.valid() && fault.signal.value() < netlist_->num_signals(),
            "CampaignEngine::run(): invalid fault site");
  }

  CampaignPlan plan;
  plan.netlist = netlist_;
  plan.stimulus = &stimulus;
  plan.faults = &faults;
  plan.times = fault_sample_times(stimulus, sampling);
  plan.early_exit = early_exit;
  plan.po_index.assign(netlist_->num_signals(), kNotPo);
  const auto pos = netlist_->primary_outputs();
  for (std::size_t o = 0; o < pos.size(); ++o) {
    plan.po_index[pos[o].value()] = static_cast<std::uint32_t>(o);
  }

  CampaignResult result;
  result.total = faults.size();
  result.threads_used = pool_.size();
  result.verdicts.assign(faults.size(), kVerdictUndetected);
  result.error_messages.assign(faults.size(), std::string{});

  // Good-machine reference samples (full run; sampled from the final
  // history, so every annihilation is reflected).
  good_.reset();
  good_.apply_stimulus(stimulus);
  (void)good_.run();
  for (const SignalId po : pos) {
    std::vector<bool> row;
    row.reserve(plan.times.size());
    for (const TimeNs t : plan.times) row.push_back(good_.value_at(po, t));
    plan.good_samples.push_back(std::move(row));
  }

  // Shard the fault list: each worker recycles its own Simulator; verdicts
  // and error messages land in per-fault slots, so scheduling order cannot
  // change the result.  Failure semantics (docs/ARCHITECTURE.md):
  //   * deadline / cancellation aborts the whole campaign: rethrown out of
  //     the job, so the pool stops the sweep and run() throws the original
  //     RunError;
  //   * a per-fault budget trip is deterministic for that fault: verdict
  //     kVerdictError immediately, no retry (it would trip identically);
  //   * any other failure (injected fault point, allocation failure) is
  //     retried once from clean state, then becomes kVerdictError.
  std::vector<std::uint64_t> worker_events(sims_.size(), 0);
  std::vector<std::uint64_t> worker_retries(sims_.size(), 0);
  pool_.for_each_index(faults.size(), [&](int worker, std::size_t index) {
    const auto w = static_cast<std::size_t>(worker);
    for (int attempt = 0;; ++attempt) {
      try {
        result.verdicts[index] =
            simulate_fault(*sims_[w], plan, index, worker_events[w])
                ? kVerdictDetected
                : kVerdictUndetected;
        return;
      } catch (const RunError& e) {
        if (e.kind() == RunErrorKind::kDeadlineExceeded ||
            e.kind() == RunErrorKind::kCancelled) {
          throw;
        }
        result.verdicts[index] = kVerdictError;
        result.error_messages[index] = e.what();
        return;
      } catch (const std::exception& e) {
        if (attempt == 0) {
          ++worker_retries[w];
          continue;
        }
        result.verdicts[index] = kVerdictError;
        result.error_messages[index] = e.what();
        return;
      }
    }
  });

  // Aggregate in fault-index order: bit-identical for any thread count.
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (result.verdicts[i] == kVerdictDetected) {
      ++result.detected;
    } else if (result.verdicts[i] == kVerdictError) {
      ++result.errors;
      if (result.first_error.empty()) result.first_error = result.error_messages[i];
    } else {
      result.undetected.push_back(faults[i]);
    }
  }
  for (const std::uint64_t r : worker_retries) result.retried += r;
  result.events_processed = good_.stats().events_processed;
  for (const std::uint64_t e : worker_events) result.events_processed += e;
  return result;
}

CampaignResult run_fault_campaign(const Netlist& netlist, const Stimulus& stimulus,
                                  const DelayModel& model, std::vector<Fault> faults,
                                  CampaignOptions options) {
  const TimingGraph timing = TimingGraph::build(netlist, model.timing_policy());
  CampaignEngine engine(netlist, model, timing, options.threads);
  engine.supervise(options.supervisor);
  return engine.run(stimulus, std::move(faults), options.sampling, options.early_exit);
}

}  // namespace halotis
