#include "src/parsers/stimulus_file.hpp"

#include <limits>
#include <string>
#include <vector>

#include "src/base/check.hpp"
#include "src/base/strings.hpp"

namespace halotis {

namespace {

std::string where(int line) { return "stimulus line " + std::to_string(line); }

std::uint64_t parse_word(std::string_view token, int line) {
  if (starts_with(token, "0x") || starts_with(token, "0X")) {
    require(token.size() > 2, [&] {
      return "empty hex literal '" + std::string(token) + "' in " + where(line);
    });
    std::uint64_t value = 0;
    for (std::size_t i = 2; i < token.size(); ++i) {
      const char c = static_cast<char>(std::tolower(static_cast<unsigned char>(token[i])));
      std::uint64_t digit = 0;
      if (c >= '0' && c <= '9') {
        digit = static_cast<std::uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<std::uint64_t>(c - 'a' + 10);
      } else {
        require(false, [&] { return "bad hex digit in " + where(line); });
      }
      require(value <= (std::numeric_limits<std::uint64_t>::max() - digit) / 16, [&] {
        return "hex literal '" + std::string(token) + "' overflows 64 bits in " + where(line);
      });
      value = value * 16 + digit;
    }
    return value;
  }
  return parse_unsigned(token, "stimulus line", line);
}

SignalId lookup(const Netlist& netlist, std::string_view name, int line) {
  const auto id = netlist.find_signal(name);
  require(id.has_value(),
          [&] { return where(line) + ": unknown signal '" + std::string(name) + "'"; });
  require(netlist.signal(*id).is_primary_input,
          [&] { return where(line) + ": '" + std::string(name) + "' is not a primary input"; });
  return *id;
}

/// A time or slope: finite (parse_double) and not negative.
TimeNs parse_time(std::string_view token, int line, const char* what) {
  const TimeNs value = parse_double(token, "stimulus line", line);
  require(value >= 0.0, [&] { return where(line) + ": " + what + " must be non-negative"; });
  return value;
}

}  // namespace

Stimulus read_stimulus(std::string_view text, const Netlist& netlist) {
  std::vector<std::string_view> tokens;
  const auto tokenize = [&tokens](std::string_view line) {
    split_whitespace(line.substr(0, line.find('#')), tokens);
  };

  // First pass collects the default slew so its position in the file does
  // not matter; the Stimulus object is constructed with it.
  TimeNs slew = 0.4;
  int line_number = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    tokenize(next_line(text, pos));
    ++line_number;
    if (tokens.size() == 2 && tokens[0] == "slew") {
      slew = parse_double(tokens[1], "stimulus line", line_number);
      require(slew > 0.0, [&] { return where(line_number) + ": slew must be positive"; });
    }
  }
  Stimulus stimulus(slew);

  line_number = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    tokenize(next_line(text, pos));
    ++line_number;
    if (tokens.empty()) continue;
    const std::string_view keyword = tokens[0];

    if (keyword == "slew") {
      require(tokens.size() == 2, [&] { return where(line_number) + ": slew takes one value"; });
      continue;  // handled in the first pass
    }
    if (keyword == "init") {
      require(tokens.size() == 3, [&] { return where(line_number) + ": init <signal> <0|1>"; });
      stimulus.set_initial(lookup(netlist, tokens[1], line_number),
                           parse_unsigned(tokens[2], "stimulus line", line_number) != 0);
      continue;
    }
    if (keyword == "edge") {
      require(tokens.size() == 4 || tokens.size() == 5,
              [&] { return where(line_number) + ": edge <signal> <time> <0|1> [tau]"; });
      const TimeNs tau = tokens.size() == 5 ? parse_time(tokens[4], line_number, "tau") : 0.0;
      const SignalId input = lookup(netlist, tokens[1], line_number);
      const TimeNs time = parse_time(tokens[2], line_number, "time");
      stimulus.add_edge(input, time,
                        parse_unsigned(tokens[3], "stimulus line", line_number) != 0, tau);
      continue;
    }
    if (keyword == "seq") {
      // seq s3 s2 s1 s0 start 0 period 5 words 0x0 0x7 ...
      std::vector<SignalId> msb_first;
      std::size_t i = 1;
      while (i < tokens.size() && tokens[i] != "start") {
        msb_first.push_back(lookup(netlist, tokens[i], line_number));
        ++i;
      }
      require(!msb_first.empty(), [&] { return where(line_number) + ": seq needs signals"; });
      require(msb_first.size() <= 64, [&] {
        return where(line_number) + ": seq drives " + std::to_string(msb_first.size()) +
               " signals; a word has 64 bits";
      });
      require(i + 1 < tokens.size() && tokens[i] == "start",
              [&] { return where(line_number) + ": expected 'start'"; });
      const TimeNs start = parse_time(tokens[i + 1], line_number, "start");
      i += 2;
      require(i + 1 < tokens.size() && tokens[i] == "period",
              [&] { return where(line_number) + ": expected 'period'"; });
      const TimeNs period = parse_double(tokens[i + 1], "stimulus line", line_number);
      require(period > 0.0, [&] { return where(line_number) + ": period must be positive"; });
      i += 2;
      require(i < tokens.size() && tokens[i] == "words",
              [&] { return where(line_number) + ": expected 'words'"; });
      ++i;
      std::vector<std::uint64_t> words;
      for (; i < tokens.size(); ++i) words.push_back(parse_word(tokens[i], line_number));
      require(!words.empty(),
              [&] { return where(line_number) + ": seq needs at least one word"; });

      std::vector<SignalId> lsb_first(msb_first.rbegin(), msb_first.rend());
      stimulus.apply_sequence(lsb_first, words, start, period);
      continue;
    }
    require(false, [&] {
      return where(line_number) + ": unknown directive '" + std::string(keyword) + "'";
    });
  }
  return stimulus;
}

}  // namespace halotis
