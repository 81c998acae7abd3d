#include "src/base/supervision.hpp"

#include <csignal>

#include "src/base/check.hpp"

namespace halotis {

const char* RunError::kind_name(RunErrorKind kind) {
  switch (kind) {
    case RunErrorKind::kBudgetExceeded: return "budget exceeded";
    case RunErrorKind::kDeadlineExceeded: return "deadline exceeded";
    case RunErrorKind::kCancelled: return "cancelled";
    case RunErrorKind::kIoError: return "I/O error";
    case RunErrorKind::kContractViolation: return "contract violation";
  }
  return "unknown";  // unreachable; keeps -Wreturn-type quiet.
}

int RunError::exit_code(RunErrorKind kind) {
  switch (kind) {
    case RunErrorKind::kBudgetExceeded: return 3;
    case RunErrorKind::kDeadlineExceeded: return 4;
    case RunErrorKind::kCancelled: return 5;
    case RunErrorKind::kIoError: return 6;
    case RunErrorKind::kContractViolation: return 1;
  }
  return 1;  // unreachable
}

void RunSupervisor::arm() {
  armed_at_ = std::chrono::steady_clock::now();
  armed_ = true;
}

void RunSupervisor::check_poll(std::uint64_t arena_bytes, std::string_view where) const {
  if (budget_.max_arena_bytes != 0 && arena_bytes > budget_.max_arena_bytes) {
    throw_budget(where, "arena-byte", arena_bytes, budget_.max_arena_bytes);
  }
  check_coarse(where);
}

void RunSupervisor::check_coarse(std::string_view where) const {
  if (cancel_.cancelled()) {
    throw RunError(RunErrorKind::kCancelled,
                   std::string(where) + ": run cancelled (cooperative cancellation)");
  }
  if (budget_.deadline_s > 0.0 && armed_) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - armed_at_)
            .count();
    if (elapsed > budget_.deadline_s) {
      throw RunError(RunErrorKind::kDeadlineExceeded,
                     std::string(where) + ": wall-clock deadline of " +
                         std::to_string(budget_.deadline_s) + " s exceeded");
    }
  }
}

void RunSupervisor::throw_budget(std::string_view where, std::string_view what,
                                 std::uint64_t used, std::uint64_t budget) {
  throw RunError(RunErrorKind::kBudgetExceeded,
                 std::string(where) + ": " + std::string(what) + " budget exceeded (" +
                     std::to_string(used) + " > " + std::to_string(budget) + ")");
}

namespace {

// std::signal handlers may only touch lock-free atomics; the CancelToken's
// shared_ptr flag is reached through this process-global pointer, published
// before the handler is installed.
std::atomic<bool>* g_sigint_flag = nullptr;

extern "C" void halotis_sigint_handler(int) {
  if (g_sigint_flag != nullptr) {
    g_sigint_flag->store(true, std::memory_order_relaxed);
  }
  // Second Ctrl-C kills the process the default way: cooperative
  // cancellation is best-effort, the operator keeps the last word.
  std::signal(SIGINT, SIG_DFL);
}

/// Keeps the token (and thus the atomic the handler writes) alive for the
/// process lifetime.
CancelToken& sigint_token_storage() {
  static CancelToken token;
  return token;
}

std::atomic<bool>* g_sigterm_flag = nullptr;

extern "C" void halotis_sigterm_handler(int) {
  if (g_sigterm_flag != nullptr) {
    g_sigterm_flag->store(true, std::memory_order_relaxed);
  }
  // Second SIGTERM kills the process the default way: drain is
  // best-effort, the operator keeps the last word.
  std::signal(SIGTERM, SIG_DFL);
}

CancelToken& sigterm_token_storage() {
  static CancelToken token;
  return token;
}

}  // namespace

void install_sigint_cancel(const CancelToken& token) {
  sigint_token_storage() = token;  // pin the shared state
  g_sigint_flag = sigint_token_storage().raw_flag();
  std::signal(SIGINT, halotis_sigint_handler);
}

void install_sigterm_cancel(const CancelToken& token) {
  sigterm_token_storage() = token;  // pin the shared state
  g_sigterm_flag = sigterm_token_storage().raw_flag();
  std::signal(SIGTERM, halotis_sigterm_handler);
}

}  // namespace halotis
