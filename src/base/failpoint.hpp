// Deterministic fail-point registry (the fault-injection half of the
// supervision layer, see docs/ARCHITECTURE.md "Supervision & failure
// semantics").
//
// A fail point is a named site compiled into ALL builds -- Release
// included -- where a test, the soak harness or an operator can inject a
// failure: an allocation that throws, a file write that goes short, a
// worker task that dies mid-flight, a daemon frame that never arrives.
// Sites are strings ("io.write", "worker.task", ...; the
// full table lives in docs/ARCHITECTURE.md); arming is done through the
// test API (FailPoints::arm) or a spec string from the HALOTIS_FAILPOINTS
// environment variable / --failpoints CLI flag.
//
// Determinism: a site fires on an exact hit ordinal (the Nth time the
// site is reached while armed), so on a serial run the injected failure
// lands at a reproducible point.  Concurrent runs share the global hit
// counter (which worker observes the firing hit depends on scheduling),
// but the supervision contract only requires that a run that *completes*
// is bit-identical to a clean run -- injected failures abort work, they
// never alter surviving results.
//
// Cost when disarmed: one relaxed atomic load per site visit (the common
// case for every site on the simulator's control paths; no site sits in
// the per-event hot loop).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace halotis {

/// What an armed throwing site injects.  Deliberately NOT a RunError:
/// consumers must prove they map arbitrary internal failures to the
/// structured taxonomy, not just pre-structured ones.
class FailPointError : public std::runtime_error {
 public:
  explicit FailPointError(const std::string& what) : std::runtime_error(what) {}
};

/// Process-global registry of armed fail points.  Thread-safe; the
/// disarmed fast path is lock-free.
class FailPoints {
 public:
  static FailPoints& instance();

  /// Arms `site` to fire exactly once, on the `fire_on_hit`-th visit
  /// (1-based) counted from this arm() call.  With `repeat` set it keeps
  /// firing on every visit from that ordinal on (a persistently failing
  /// disk rather than one transient error).  Re-arming an armed site
  /// replaces its trigger and restarts its counter.
  void arm(std::string_view site, std::uint64_t fire_on_hit = 1, bool repeat = false);

  /// Arms from a spec string: `site[@N][*]` entries separated by `;` or
  /// `,`.  `@N` sets the firing hit ordinal (default 1), a trailing `*`
  /// makes it repeat.  Example: "io.write@2;worker.task*".  Throws
  /// ContractViolation on a malformed spec.
  void arm_spec(std::string_view spec);

  /// Disarms every site and forgets all counters (test isolation).
  void disarm_all();

  /// True when at least one site is armed (the inline fast-path gate).
  [[nodiscard]] bool any_armed() const {
    return armed_sites_.load(std::memory_order_relaxed) != 0;
  }

  /// Visits `site`: counts the hit and reports whether the injected
  /// failure fires now.  Only armed sites are counted (a disarmed
  /// registry costs nothing and remembers nothing).
  [[nodiscard]] bool visit(std::string_view site);

  /// Hits recorded for `site` since it was last armed (0 when not armed;
  /// test diagnostics).
  [[nodiscard]] std::uint64_t hits(std::string_view site) const;

 private:
  FailPoints() = default;

  struct Site {
    std::string name;
    std::uint64_t fire_on_hit = 1;
    std::uint64_t hits = 0;
    bool repeat = false;
    bool fired = false;
  };

  mutable std::mutex mutex_;
  std::vector<Site> sites_;
  std::atomic<std::uint32_t> armed_sites_{0};
};

/// The site check: false (one relaxed load) when nothing is armed.  Use
/// for sites whose failure is a control-flow decision (e.g. a short write
/// or a failed rename in write_file_atomic, or the simulator's arena
/// reservation throwing std::bad_alloc).
[[nodiscard]] inline bool failpoint(std::string_view site) {
  FailPoints& registry = FailPoints::instance();
  if (!registry.any_armed()) return false;
  return registry.visit(site);
}

/// Throwing flavour for error-injection sites: throws FailPointError when
/// the site fires.
inline void failpoint_throw(std::string_view site) {
  if (failpoint(site)) {
    throw FailPointError("injected failure at fail point '" + std::string(site) + "'");
  }
}

}  // namespace halotis
