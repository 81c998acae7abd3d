// Precondition / invariant checking helpers (Core Guidelines I.6 / E.12).
//
// HALOTIS is a simulator, not a long-running service: on contract violation
// the most useful behaviour is to stop immediately with a precise message.
// `require` throws `halotis::ContractViolation` so tests can assert on
// misuse, while release builds keep the checks (they are cheap compared to
// event processing).
//
// A check must cost nothing but its comparison when it passes, so a message
// is either a string that already exists (a literal, a named string) or a
// builder -- a callable returning the text, run only on failure:
//
//   require(id.has_value(), [&] { return "unknown signal '" + name + "'"; });
//
// Building the text eagerly (`"unknown '" + name + "'"`, `std::to_string`,
// `std::string(...)`) would allocate on every passing check, in the parsers
// once or more per parsed line; such a call does not compile.
#pragma once

#include <concepts>
#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace halotis {

/// Thrown when a precondition or invariant documented in a function's
/// contract is violated by the caller.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what) : std::logic_error(what) {}
};

/// A callable producing a diagnostic (anything convertible to a string
/// view: std::string, a literal).
template <class F>
concept MessageBuilder =
    std::invocable<const F&> &&
    std::convertible_to<std::invoke_result_t<const F&>, std::string_view>;

/// The message argument of require/ensure: existing text, or a builder run
/// only when the check fails.  A freshly built std::string is rejected at
/// compile time -- pass a builder instead.
class CheckMessage {
 public:
  CheckMessage(const char* text) : text_(text) {}
  CheckMessage(std::string_view text) : text_(text) {}
  CheckMessage(const std::string& text) : text_(text) {}
  CheckMessage(std::string&& eager) = delete;  // build it lazily instead
  template <MessageBuilder F>
  CheckMessage(const F& build)
      : builder_(&build), render_([](const void* f) {
          return std::string((*static_cast<const F*>(f))());
        }) {}

  /// Throws ContractViolation with the message and the checking call site.
  /// Out of line and cold: a passing check compiles to its comparison.
  [[noreturn, gnu::cold, gnu::noinline]] void raise(const std::source_location& loc) const {
    std::string what = render_ != nullptr ? render_(builder_) : std::string(text_);
    what += " [";
    what += loc.file_name();
    what += ':';
    what += std::to_string(loc.line());
    what += ']';
    throw ContractViolation(what);
  }

 private:
  std::string_view text_;
  const void* builder_ = nullptr;
  std::string (*render_)(const void*) = nullptr;
};

/// Throws ContractViolation when `condition` is false.  `message` should
/// state the violated contract from the caller's point of view.
inline void require(bool condition, CheckMessage message,
                    std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] message.raise(loc);
}

/// Internal-consistency variant of `require`; identical behaviour, the
/// distinct name documents that a failure is a bug in HALOTIS itself rather
/// than in the calling code.
inline void ensure(bool condition, CheckMessage message,
                   std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] message.raise(loc);
}

/// `ensure` for the event kernel's per-event inner loop, where the checks
/// sit between every pair of arena accesses: active in Debug builds (and
/// under the sanitizer CI tiers, which build Debug), compiled out in
/// Release.  Since the PR-5 hot-path rework the kernel processes an event
/// in a few hundred nanoseconds, so these dependent-load comparisons are no
/// longer noise there; every check still runs on the whole test suite in
/// Debug.  Use plain `ensure`/`require` everywhere else -- public API
/// contracts must throw in every build type.
#ifdef NDEBUG
inline void debug_ensure(bool, CheckMessage) {}
#else
inline void debug_ensure(bool condition, CheckMessage message,
                         std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] message.raise(loc);
}
#endif

}  // namespace halotis
