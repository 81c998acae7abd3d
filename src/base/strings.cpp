#include "src/base/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "src/base/check.hpp"

namespace halotis {

namespace {
/// std::isspace in the "C" locale, without the locale lookup per character.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
}  // namespace

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && is_space(text[begin])) ++begin;
  while (end > begin && is_space(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

std::vector<std::string> split(std::string_view text, char separator) {
  std::vector<std::string> pieces;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(separator, start);
    if (pos == std::string_view::npos) {
      pieces.emplace_back(trim(text.substr(start)));
      return pieces;
    }
    pieces.emplace_back(trim(text.substr(start, pos - start)));
    start = pos + 1;
  }
}

std::vector<std::string> split_whitespace(std::string_view text) {
  std::vector<std::string_view> views;
  split_whitespace(text, views);
  return {views.begin(), views.end()};
}

void split_whitespace(std::string_view text, std::vector<std::string_view>& pieces) {
  pieces.clear();
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && is_space(text[i])) ++i;
    const std::size_t begin = i;
    while (i < text.size() && !is_space(text[i])) ++i;
    if (i > begin) pieces.push_back(text.substr(begin, i - begin));
  }
}

std::string_view next_line(std::string_view text, std::size_t& pos) {
  const std::size_t eol = text.find('\n', pos);
  const std::string_view line = text.substr(pos, eol - pos);
  pos = eol == std::string_view::npos ? text.size() : eol + 1;
  return line;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string to_upper(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::optional<double> parse_finite(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value)) return std::nullopt;
  return value;
}

namespace {
/// "<context>" or "<context> <line>".
std::string where(std::string_view context, int line) {
  std::string out{context};
  if (line > 0) out += ' ' + std::to_string(line);
  return out;
}
}  // namespace

double parse_double(std::string_view text, std::string_view context, int line) {
  const std::string_view trimmed = trim(text);
  const std::optional<double> value = parse_finite(trimmed);
  require(value.has_value(), [&] {
    return "failed to parse number '" + std::string(trimmed) + "' in " + where(context, line);
  });
  return *value;
}

unsigned long parse_unsigned(std::string_view text, std::string_view context, int line) {
  const std::string_view trimmed = trim(text);
  unsigned long value = 0;
  const auto* begin = trimmed.data();
  const auto* end = trimmed.data() + trimmed.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  require(ec == std::errc{} && ptr == end, [&] {
    return "failed to parse unsigned '" + std::string(trimmed) + "' in " + where(context, line);
  });
  return value;
}

std::string format_double(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*g", precision, value);
  return buffer;
}

}  // namespace halotis
