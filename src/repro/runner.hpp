// Executes registered experiments and assembles the reproduction report.
//
// Independent experiments are sharded across the shared WorkerPool (each
// one runs its own single-threaded simulations), outcomes land in
// registry-order slots, and the report/hash listings are assembled after
// the sweep -- so REPORT.md, HASHES.txt and every artifact byte are
// identical for any thread count, any scheduling, and any rerun.  Wall
// times and worker counts are deliberately absent from all outputs; they
// belong to the CLI's stdout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/supervision.hpp"
#include "src/repro/experiment.hpp"

namespace halotis::repro {

struct RunOptions {
  bool quick = false;
  int threads = 0;                ///< WorkerPool width; 0 = hardware threads
  std::vector<std::string> only;  ///< experiment ids; empty = all registered
  /// Contents of a golden-hash file (parse_goldens format).  Empty = no
  /// comparison; the report then shows hashes without verdicts.
  std::string golden_text;
  /// Optional run supervision (must outlive the call).  Checked at the
  /// coarse boundary before each experiment; a deadline expiry or
  /// cancellation aborts the whole run -- no further experiment starts,
  /// and run_experiments() rethrows the original RunError once the running
  /// ones finish.  Any other failure inside an experiment is captured in
  /// its outcome.
  const RunSupervisor* supervisor = nullptr;
};

/// Per-artifact golden verdict.
enum class GoldenStatus {
  kNotChecked,     ///< no golden file supplied
  kMatch,
  kMismatch,
  kMissingGolden,  ///< artifact produced but absent from the golden file
};

struct ArtifactRecord {
  std::string name;
  std::uint64_t hash = 0;
  std::size_t bytes = 0;
  GoldenStatus status = GoldenStatus::kNotChecked;
};

struct ExperimentOutcome {
  std::string id;
  std::string title;
  std::string paper_ref;
  ExperimentResult result;
  std::vector<ArtifactRecord> records;  ///< aligned with result.artifacts
  std::string error;                    ///< non-empty when run() threw

  [[nodiscard]] bool failed() const;  ///< error, mismatch or missing golden
};

struct RunReport {
  bool quick = false;
  std::vector<ExperimentOutcome> outcomes;  ///< registry order
  bool compared_goldens = false;
  std::size_t artifacts_total = 0;
  std::size_t golden_matches = 0;
  std::size_t golden_mismatches = 0;
  std::size_t golden_missing = 0;  ///< artifacts without a golden entry
  /// Golden entries no selected experiment regenerated.  Populated only
  /// when the full registry ran (an --only subset legitimately skips
  /// entries); stale entries fail the run so goldens cannot rot.
  std::vector<GoldenEntry> stale_goldens;

  [[nodiscard]] bool ok() const;
  /// Flat (experiment, artifact, hash) listing in run order -- the
  /// HASHES.txt artifact; byte-for-byte the committed golden format.
  [[nodiscard]] std::vector<GoldenEntry> hashes() const;
};

/// Runs the selected experiments.  Throws ContractViolation when an
/// `only` id is not registered or the golden text is malformed; an
/// exception *inside* an experiment is captured in its outcome instead.
[[nodiscard]] RunReport run_experiments(const ExperimentRegistry& registry,
                                        const RunOptions& options);

/// The generated Markdown report (deterministic; see header comment).
[[nodiscard]] std::string format_report_markdown(const RunReport& report);

}  // namespace halotis::repro
