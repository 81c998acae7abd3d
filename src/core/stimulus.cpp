#include "src/core/stimulus.hpp"

#include <algorithm>

#include "src/base/check.hpp"

namespace halotis {

void Stimulus::set_initial(SignalId input, bool value) {
  require(edges_.find(input) == edges_.end() || edges_.at(input).empty(),
          "Stimulus::set_initial(): must be called before edges are added");
  initial_[input] = value;
  last_applied_[input] = value;
}

void Stimulus::add_edge(SignalId input, TimeNs time, bool value, TimeNs tau) {
  require(time >= 0.0, "Stimulus::add_edge(): time must be non-negative");
  require(tau >= 0.0, "Stimulus::add_edge(): tau must be non-negative");
  auto& list = edges_[input];
  if (!list.empty()) {
    require(time >= list.back().time,
            "Stimulus::add_edge(): edges must be added in time order");
    if (list.back().value == value) return;  // no change
  } else {
    const auto init = initial_.find(input);
    const bool initial = init != initial_.end() ? init->second : false;
    if (value == initial) return;  // no change from the initial value
  }
  list.push_back(StimulusEdge{time, value, tau});
  last_applied_[input] = value;
}

void Stimulus::apply_word(std::span<const SignalId> inputs, std::uint64_t word, TimeNs time,
                          TimeNs tau) {
  require(inputs.size() <= 64, "Stimulus::apply_word(): at most 64 inputs per word");
  for (std::size_t bit = 0; bit < inputs.size(); ++bit) {
    add_edge(inputs[bit], time, ((word >> bit) & 1u) != 0, tau);
  }
}

void Stimulus::apply_sequence(std::span<const SignalId> inputs,
                              std::span<const std::uint64_t> words, TimeNs start,
                              TimeNs period, TimeNs tau) {
  require(period > 0.0, "Stimulus::apply_sequence(): period must be positive");
  require(inputs.size() <= 64, "Stimulus::apply_sequence(): at most 64 inputs per word");
  if (words.empty()) return;
  for (std::size_t bit = 0; bit < inputs.size(); ++bit) {
    set_initial(inputs[bit], ((words[0] >> bit) & 1u) != 0);
  }
  for (std::size_t w = 1; w < words.size(); ++w) {
    apply_word(inputs, words[w], start + period * static_cast<double>(w - 1), tau);
  }
}

bool Stimulus::initial_value(SignalId input) const {
  const auto it = initial_.find(input);
  return it != initial_.end() && it->second;
}

std::span<const StimulusEdge> Stimulus::edges(SignalId input) const {
  const auto it = edges_.find(input);
  if (it == edges_.end()) return {};
  return it->second;
}

std::vector<TimeNs> Stimulus::edge_times() const {
  std::vector<TimeNs> times;
  for (const auto& [signal, list] : edges_) {
    for (const StimulusEdge& edge : list) times.push_back(edge.time);
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  return times;
}

TimeNs Stimulus::last_edge_time() const {
  TimeNs last = 0.0;
  for (const auto& [signal, list] : edges_) {
    if (!list.empty()) last = std::max(last, list.back().time);
  }
  return last;
}

}  // namespace halotis
