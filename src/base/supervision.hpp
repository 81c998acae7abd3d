// Run supervision: budgets, deadlines and cooperative cancellation for
// every HALOTIS entry point (docs/ARCHITECTURE.md "Supervision & failure
// semantics").
//
// The simulator's only native defense against a runaway workload (a
// near-oscillatory DDM event storm, a feedback loop that never settles)
// used to be SimConfig::max_events.  The supervision layer generalizes
// that into a RunBudget -- event count, arena byte footprint, wall-clock
// deadline -- plus a CancelToken any thread (or a SIGINT handler) can trip,
// and a structured RunError taxonomy that maps onto documented CLI exit
// codes.
//
// Determinism contract: budget checks are pure functions of deterministic
// kernel state (event ordinals, arena sizes), so a budget stop happens at
// the bit-identical point on every rerun.  The wall-clock deadline and
// cancellation are inherently racy in *when* they stop a run, but they
// only ever abort work -- a run that completes is unaffected, so completed
// artifacts remain bit-identical to an unsupervised run.  The expensive
// polls (steady_clock read, atomic load, arena measurement) happen only
// every RunBudget::poll_events events; the per-event cost of an attached
// supervisor is a null check and a countdown decrement (kernels pull the
// countdown in so it expires exactly on the first over-budget event).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

namespace halotis {

/// The structured failure taxonomy every supervised entry point reports
/// through.  Each kind maps to a documented CLI exit code (README.md).
enum class RunErrorKind {
  kBudgetExceeded,     ///< event / memory budget tripped       (exit 3)
  kDeadlineExceeded,   ///< wall-clock deadline passed          (exit 4)
  kCancelled,          ///< CancelToken tripped (e.g. SIGINT)   (exit 5)
  kIoError,            ///< artifact emission failed            (exit 6)
  kContractViolation,  ///< API misuse / malformed input        (exit 1)
};

class RunError : public std::runtime_error {
 public:
  RunError(RunErrorKind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  [[nodiscard]] RunErrorKind kind() const { return kind_; }
  [[nodiscard]] int exit_code() const { return exit_code(kind_); }

  [[nodiscard]] static const char* kind_name(RunErrorKind kind);
  /// The documented CLI exit code for `kind` (README.md exit-code table).
  [[nodiscard]] static int exit_code(RunErrorKind kind);

 private:
  RunErrorKind kind_;
};

/// Shared-handle cooperative cancellation flag.  Copies observe the same
/// flag; cancel() is safe from any thread and from signal handlers built
/// on an external atomic (see install_sigint_cancel).  A thread that sees
/// the token tripped also sees what the cancelling thread did before
/// cancel() (release/acquire).
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() const noexcept { flag_->store(true, std::memory_order_release); }
  [[nodiscard]] bool cancelled() const noexcept {
    return flag_->load(std::memory_order_acquire);
  }

  /// The underlying lock-free flag, for async-signal contexts that may
  /// not touch shared_ptr machinery (install_sigint_cancel keeps a copy
  /// of the token alive, so the pointer stays valid).
  [[nodiscard]] std::atomic<bool>* raw_flag() const noexcept { return flag_.get(); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Resource budget for one supervised run.  0 anywhere = unlimited.
struct RunBudget {
  /// Processed-event budget per kernel run (Simulator lifetime between
  /// reset()s).  Unlike SimConfig::max_events -- which *stops* the run
  /// with StopReason::kEventLimit -- exceeding a budget is an error.
  std::uint64_t max_events = 0;
  /// Transition + event arena bytes this run has written (record counts
  /// and high-water marks, not reserved capacity).
  std::uint64_t max_arena_bytes = 0;
  /// Wall-clock deadline in seconds, measured from RunSupervisor::arm().
  double deadline_s = 0.0;
  /// Events between slow polls (deadline / cancellation / memory); the
  /// event budget trips on the exact over-budget event regardless (the
  /// kernel countdown expires early at the budget boundary).
  std::uint32_t poll_events = 4096;
};

/// The object every supervised entry point polls.  Const-shareable across
/// worker threads: all mutable state (the deadline stamp) is written by
/// arm() before the run, and checks only read.  Each polling kernel keeps
/// its own countdown (see Simulator::supervise), so no contended counter
/// sits on the hot path.
class RunSupervisor {
 public:
  RunSupervisor() = default;
  explicit RunSupervisor(RunBudget budget, CancelToken cancel = CancelToken{})
      : budget_(budget), cancel_(std::move(cancel)) {}

  [[nodiscard]] const RunBudget& budget() const { return budget_; }
  [[nodiscard]] const CancelToken& cancel_token() const { return cancel_; }
  [[nodiscard]] bool cancelled() const { return cancel_.cancelled(); }

  /// Stamps the wall-clock deadline start.  Call once, immediately before
  /// the supervised work begins.
  void arm();

  /// Per-event check (inline, two compares): the event budget.
  void check_events(std::uint64_t events_processed, std::string_view where) const {
    if (budget_.max_events != 0 && events_processed > budget_.max_events) {
      throw_budget(where, "event", events_processed, budget_.max_events);
    }
  }

  /// Slow poll -- deadline, cancellation, arena-byte budget.  Called every
  /// poll_events events by the kernel.
  void check_poll(std::uint64_t arena_bytes, std::string_view where) const;

  /// Deadline + cancellation only (coarse boundaries with no kernel
  /// memory to measure).
  void check_coarse(std::string_view where) const;

 private:
  [[noreturn]] static void throw_budget(std::string_view where, std::string_view what,
                                        std::uint64_t used, std::uint64_t budget);

  RunBudget budget_;
  CancelToken cancel_;
  std::chrono::steady_clock::time_point armed_at_{};
  bool armed_ = false;
};

/// Routes SIGINT (Ctrl-C) to `token`: the first signal trips the token so
/// supervised runs unwind with RunError(kCancelled) and exit 5; a second
/// SIGINT falls back to the default handler (hard kill for a wedged run).
/// Process-global; call at most once per process (the CLI entry point).
void install_sigint_cancel(const CancelToken& token);

/// Routes SIGTERM to `token` the same way: the daemon's graceful-drain
/// signal (systemd stop, CI teardown).  A second SIGTERM falls back to the
/// default handler.  Process-global; call at most once per process
/// (`halotis serve` installs it alongside the SIGINT route).
void install_sigterm_cancel(const CancelToken& token);

}  // namespace halotis
