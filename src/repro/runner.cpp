#include "src/repro/runner.hpp"

#include <exception>
#include <utility>

#include "src/base/check.hpp"
#include "src/base/worker_pool.hpp"

namespace halotis::repro {

namespace {

const char* status_label(GoldenStatus status) {
  switch (status) {
    case GoldenStatus::kNotChecked: return "-";
    case GoldenStatus::kMatch: return "match";
    case GoldenStatus::kMismatch: return "MISMATCH";
    case GoldenStatus::kMissingGolden: return "NO GOLDEN";
  }
  return "-";  // unreachable; keeps -Wreturn-type quiet.
}

}  // namespace

bool ExperimentOutcome::failed() const {
  if (!error.empty()) return true;
  for (const ArtifactRecord& record : records) {
    if (record.status == GoldenStatus::kMismatch ||
        record.status == GoldenStatus::kMissingGolden) {
      return true;
    }
  }
  return false;
}

bool RunReport::ok() const {
  if (!stale_goldens.empty()) return false;
  for (const ExperimentOutcome& outcome : outcomes) {
    if (outcome.failed()) return false;
  }
  return true;
}

std::vector<GoldenEntry> RunReport::hashes() const {
  std::vector<GoldenEntry> entries;
  for (const ExperimentOutcome& outcome : outcomes) {
    for (const ArtifactRecord& record : outcome.records) {
      entries.push_back(GoldenEntry{outcome.id, record.name, record.hash});
    }
  }
  return entries;
}

RunReport run_experiments(const ExperimentRegistry& registry, const RunOptions& options) {
  // Resolve the selection up front (registry order, so --only a,b == --only b,a).
  std::vector<const Experiment*> selected;
  if (options.only.empty()) {
    for (const Experiment& experiment : registry.experiments()) {
      selected.push_back(&experiment);
    }
  } else {
    for (const std::string& id : options.only) {
      const Experiment* experiment = registry.find(id);
      require(experiment != nullptr, [&] {
        return "unknown experiment '" + id + "' (halotis repro --list shows registered ids)";
      });
    }
    for (const Experiment& experiment : registry.experiments()) {
      for (const std::string& id : options.only) {
        if (experiment.id == id) {
          selected.push_back(&experiment);
          break;
        }
      }
    }
  }

  const std::vector<GoldenEntry> goldens = parse_goldens(options.golden_text);
  // A supplied golden file that pins nothing would turn the diff gate into
  // a vacuous pass (e.g. a truncated-to-comments golden_quick.txt); fail
  // loudly instead.
  require(options.golden_text.empty() || !goldens.empty(),
          "golden file contains no hash entries -- refusing a vacuous comparison");

  RunReport report;
  report.quick = options.quick;
  report.compared_goldens = !goldens.empty();
  report.outcomes.resize(selected.size());

  const Library lib = Library::default_u6();
  const ExperimentContext context{lib, options.quick};

  // Supervision: a deadline expiry / cancellation aborts the whole run --
  // rethrown out of the job, so the pool stops the sweep and the caller
  // sees the original RunError; every other failure inside an experiment
  // stays captured in its outcome.
  WorkerPool pool(options.threads);
  pool.for_each_index(selected.size(), [&](int /*worker*/, std::size_t index) {
    const Experiment& experiment = *selected[index];
    ExperimentOutcome& outcome = report.outcomes[index];
    outcome.id = experiment.id;
    outcome.title = experiment.title;
    outcome.paper_ref = experiment.paper_ref;
    try {
      if (options.supervisor != nullptr) {
        options.supervisor->check_coarse("repro experiment");
      }
      outcome.result = experiment.run(context);
    } catch (const RunError& e) {
      if (e.kind() == RunErrorKind::kDeadlineExceeded ||
          e.kind() == RunErrorKind::kCancelled) {
        throw;
      }
      outcome.error = e.what();
    } catch (const std::exception& e) {
      outcome.error = e.what();
    }
  });

  // Hash and (optionally) verify every artifact, in deterministic order.
  for (ExperimentOutcome& outcome : report.outcomes) {
    for (const Artifact& artifact : outcome.result.artifacts) {
      ArtifactRecord record;
      record.name = artifact.name;
      record.hash = fnv1a64(artifact.content);
      record.bytes = artifact.content.size();
      if (report.compared_goldens) {
        record.status = GoldenStatus::kMissingGolden;
        for (const GoldenEntry& golden : goldens) {
          if (golden.experiment == outcome.id && golden.artifact == record.name) {
            record.status = golden.hash == record.hash ? GoldenStatus::kMatch
                                                       : GoldenStatus::kMismatch;
            break;
          }
        }
      }
      ++report.artifacts_total;
      report.golden_matches += record.status == GoldenStatus::kMatch ? 1 : 0;
      report.golden_mismatches += record.status == GoldenStatus::kMismatch ? 1 : 0;
      report.golden_missing += record.status == GoldenStatus::kMissingGolden ? 1 : 0;
      outcome.records.push_back(std::move(record));
    }
  }

  // A full-registry run must also account for every golden entry: a golden
  // nothing regenerates is stale (renamed artifact, deleted experiment).
  if (report.compared_goldens && options.only.empty()) {
    for (const GoldenEntry& golden : goldens) {
      bool produced = false;
      for (const ExperimentOutcome& outcome : report.outcomes) {
        for (const ArtifactRecord& record : outcome.records) {
          if (outcome.id == golden.experiment && record.name == golden.artifact) {
            produced = true;
            break;
          }
        }
      }
      if (!produced) report.stale_goldens.push_back(golden);
    }
  }
  return report;
}

std::string format_report_markdown(const RunReport& report) {
  std::string out;
  out += "# HALOTIS paper-reproduction report\n\n";
  out += "Mode: ";
  out += report.quick ? "quick" : "full";
  out += ". Experiments: " + std::to_string(report.outcomes.size()) + ". ";
  if (report.compared_goldens) {
    out += "Golden hashes: " + std::to_string(report.golden_matches) + "/" +
           std::to_string(report.artifacts_total) + " match";
    if (report.golden_mismatches > 0) {
      out += ", " + std::to_string(report.golden_mismatches) + " MISMATCH";
    }
    if (report.golden_missing > 0) {
      out += ", " + std::to_string(report.golden_missing) + " without golden";
    }
    if (!report.stale_goldens.empty()) {
      out += ", " + std::to_string(report.stale_goldens.size()) + " stale golden";
    }
    out += ".";
  } else {
    out += "Golden hashes: not compared.";
  }
  out += " Overall: ";
  out += report.ok() ? "PASS" : "FAIL";
  out += ".\n";

  for (const ExperimentOutcome& outcome : report.outcomes) {
    out += "\n## " + outcome.title + " (`" + outcome.id + "`)\n\n";
    out += "Reproduces: paper " + outcome.paper_ref + ".\n";
    if (!outcome.error.empty()) {
      out += "\n**ERROR:** " + outcome.error + "\n";
      continue;
    }
    if (!outcome.result.narrative.empty()) {
      out += "\n" + outcome.result.narrative + "\n";
    }
    if (!outcome.result.metrics.empty()) {
      out += "\n| metric | value |\n|---|---|\n";
      for (const auto& [key, value] : outcome.result.metrics) {
        out += "| " + key + " | " + value + " |\n";
      }
    }
    if (!outcome.records.empty()) {
      out += "\n| artifact | bytes | fnv1a-64 | golden |\n|---|---|---|---|\n";
      for (const ArtifactRecord& record : outcome.records) {
        out += "| " + record.name + " | " + std::to_string(record.bytes) + " | `" +
               hash_hex(record.hash) + "` | " + status_label(record.status) + " |\n";
      }
    }
  }

  if (!report.stale_goldens.empty()) {
    out += "\n## Stale golden entries\n\n";
    out += "Committed goldens no experiment regenerated (update "
           "tests/repro/golden_quick.txt):\n\n";
    for (const GoldenEntry& golden : report.stale_goldens) {
      out += "* `" + golden.experiment + " " + golden.artifact + " " +
             hash_hex(golden.hash) + "`\n";
    }
  }
  return out;
}

}  // namespace halotis::repro
