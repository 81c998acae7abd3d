// String utilities shared by the parsers and report writers.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace halotis {

/// Removes leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view text);

/// Splits on `separator`, trimming each piece; empty pieces are kept.
[[nodiscard]] std::vector<std::string> split(std::string_view text, char separator);

/// Splits on any amount of ASCII whitespace; empty pieces are dropped.
[[nodiscard]] std::vector<std::string> split_whitespace(std::string_view text);
/// The same split into views of `text`, reusing `pieces`' storage.
void split_whitespace(std::string_view text, std::vector<std::string_view>& pieces);

/// The line starting at `pos`, without its '\n'; advances `pos` past it.
/// `while (pos < text.size())` over it visits exactly std::getline's lines.
[[nodiscard]] std::string_view next_line(std::string_view text, std::size_t& pos);

/// ASCII lower-casing.
[[nodiscard]] std::string to_lower(std::string_view text);

/// ASCII upper-casing.
[[nodiscard]] std::string to_upper(std::string_view text);

/// True when `text` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix);

/// The one number reader: the whole of `text` as a finite double in
/// std::from_chars' general format.  nullopt for anything else -- trailing
/// characters, a leading '+', hex floats, nan, inf and overflow to infinity.
[[nodiscard]] std::optional<double> parse_finite(std::string_view text);

/// parse_finite over the trimmed text, throwing ContractViolation
/// "failed to parse number '<text>' in <context>" on failure; a positive
/// `line` is appended to the context ("stimulus line" + 7).
[[nodiscard]] double parse_double(std::string_view text, std::string_view context,
                                  int line = 0);

/// Parses a non-negative integer, throwing ContractViolation on failure
/// (same context rule as parse_double).
[[nodiscard]] unsigned long parse_unsigned(std::string_view text, std::string_view context,
                                           int line = 0);

/// printf-style %.*g formatting with a fixed precision, locale-independent.
[[nodiscard]] std::string format_double(double value, int precision = 6);

}  // namespace halotis
