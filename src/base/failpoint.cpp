#include "src/base/failpoint.hpp"

#include <algorithm>

#include "src/base/check.hpp"
#include "src/base/strings.hpp"

namespace halotis {

FailPoints& FailPoints::instance() {
  static FailPoints registry;
  return registry;
}

void FailPoints::arm(std::string_view site, std::uint64_t fire_on_hit, bool repeat) {
  require(!site.empty(), "FailPoints::arm(): site name must be non-empty");
  require(fire_on_hit >= 1, "FailPoints::arm(): fire_on_hit is 1-based");
  std::lock_guard<std::mutex> lock(mutex_);
  for (Site& existing : sites_) {
    if (existing.name == site) {
      existing.fire_on_hit = fire_on_hit;
      existing.hits = 0;
      existing.repeat = repeat;
      existing.fired = false;
      return;
    }
  }
  Site entry;
  entry.name = std::string(site);
  entry.fire_on_hit = fire_on_hit;
  entry.repeat = repeat;
  sites_.push_back(std::move(entry));
  armed_sites_.store(static_cast<std::uint32_t>(sites_.size()), std::memory_order_relaxed);
}

void FailPoints::arm_spec(std::string_view spec) {
  for (const std::string& raw : split(std::string(spec), ';')) {
    for (std::string entry : split(raw, ',')) {
      // Trim surrounding whitespace (env vars get quoted and padded).
      while (!entry.empty() && (entry.front() == ' ' || entry.front() == '\t')) {
        entry.erase(entry.begin());
      }
      while (!entry.empty() && (entry.back() == ' ' || entry.back() == '\t')) {
        entry.pop_back();
      }
      if (entry.empty()) continue;
      bool repeat = false;
      if (entry.back() == '*') {
        repeat = true;
        entry.pop_back();
      }
      std::uint64_t fire_on_hit = 1;
      const std::size_t at = entry.find('@');
      if (at != std::string::npos) {
        const std::string ordinal = entry.substr(at + 1);
        require(!ordinal.empty() &&
                    ordinal.find_first_not_of("0123456789") == std::string::npos,
                [&] {
                  return "fail-point spec: '@' must be followed by a decimal hit ordinal in '" +
                         entry + "'";
                });
        fire_on_hit = std::stoull(ordinal);
        require(fire_on_hit >= 1,
                [&] { return "fail-point spec: hit ordinal is 1-based in '" + entry + "'"; });
        entry.resize(at);
      }
      require(!entry.empty(), [&] { return "fail-point spec: empty site name in '" + raw + "'"; });
      arm(entry, fire_on_hit, repeat);
    }
  }
}

void FailPoints::disarm_all() {
  std::lock_guard<std::mutex> lock(mutex_);
  sites_.clear();
  armed_sites_.store(0, std::memory_order_relaxed);
}

bool FailPoints::visit(std::string_view site) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Site& armed : sites_) {
    if (armed.name != site) continue;
    ++armed.hits;
    if (armed.repeat) return armed.hits >= armed.fire_on_hit;
    if (!armed.fired && armed.hits == armed.fire_on_hit) {
      armed.fired = true;
      return true;
    }
    return false;
  }
  return false;
}

std::uint64_t FailPoints::hits(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Site& armed : sites_) {
    if (armed.name == site) return armed.hits;
  }
  return 0;
}

}  // namespace halotis
