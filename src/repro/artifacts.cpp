#include "src/repro/artifacts.hpp"

#include "src/base/check.hpp"
#include "src/base/fnv.hpp"
#include "src/base/strings.hpp"

namespace halotis::repro {

std::uint64_t fnv1a64(std::string_view bytes) { return halotis::fnv1a64(bytes); }

std::string hash_hex(std::uint64_t hash) { return fnv_hex(hash); }

CsvBuilder::CsvBuilder(std::vector<std::string> header) : columns_(header.size()) {
  require(!header.empty(), "CsvBuilder: header must have at least one column");
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (i > 0) out_ += ',';
    out_ += header[i];
  }
  out_ += '\n';
}

CsvBuilder& CsvBuilder::cell(std::string_view text) {
  require(text.find(',') == std::string_view::npos &&
              text.find('\n') == std::string_view::npos,
          "CsvBuilder::cell(): cells must not contain commas or newlines");
  require(open_cells_ < columns_, "CsvBuilder::cell(): row already full; call end_row()");
  if (open_cells_ > 0) out_ += ',';
  out_ += text;
  ++open_cells_;
  return *this;
}

CsvBuilder& CsvBuilder::cell(double value) { return cell(format_double(value, 6)); }

CsvBuilder& CsvBuilder::cell(std::uint64_t value) { return cell(std::to_string(value)); }

CsvBuilder& CsvBuilder::cell(int value) { return cell(std::to_string(value)); }

void CsvBuilder::end_row() {
  require(open_cells_ == columns_,
          "CsvBuilder::end_row(): row has fewer cells than the header");
  out_ += '\n';
  open_cells_ = 0;
}

std::string CsvBuilder::str() const {
  require(open_cells_ == 0, "CsvBuilder::str(): last row not finished with end_row()");
  return out_;
}

std::string format_goldens(const std::vector<GoldenEntry>& entries) {
  std::string out;
  for (const GoldenEntry& entry : entries) {
    out += entry.experiment;
    out += ' ';
    out += entry.artifact;
    out += ' ';
    out += hash_hex(entry.hash);
    out += '\n';
  }
  return out;
}

std::vector<GoldenEntry> parse_goldens(std::string_view text) {
  std::vector<GoldenEntry> entries;
  std::size_t line_no = 0;
  for (const std::string& line : split(text, '\n')) {
    ++line_no;
    const std::string_view trimmed = trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    const std::vector<std::string> fields = split_whitespace(trimmed);
    require(fields.size() == 3, [&] {
      return "golden file line " + std::to_string(line_no) +
             ": expected '<experiment> <artifact> <hash>'";
    });
    GoldenEntry entry;
    entry.experiment = fields[0];
    entry.artifact = fields[1];
    require(fields[2].size() == 16, [&] {
      return "golden file line " + std::to_string(line_no) + ": hash must be 16 hex digits";
    });
    std::uint64_t hash = 0;
    for (const char c : fields[2]) {
      const bool digit = c >= '0' && c <= '9';
      const bool lower = c >= 'a' && c <= 'f';
      require(digit || lower, [&] {
        return "golden file line " + std::to_string(line_no) + ": hash must be lower-case hex";
      });
      hash = hash * 16 + static_cast<std::uint64_t>(digit ? c - '0' : c - 'a' + 10);
    }
    entry.hash = hash;
    entries.push_back(std::move(entry));
  }
  return entries;
}

}  // namespace halotis::repro
