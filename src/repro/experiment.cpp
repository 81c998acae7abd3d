#include "src/repro/experiment.hpp"

#include "src/base/check.hpp"

namespace halotis::repro {

void ExperimentRegistry::add(Experiment experiment) {
  require(!experiment.id.empty(), "ExperimentRegistry::add(): id must not be empty");
  require(static_cast<bool>(experiment.run), [&] {
    return "ExperimentRegistry::add(): experiment '" + experiment.id + "' has no run body";
  });
  require(find(experiment.id) == nullptr, [&] {
    return "ExperimentRegistry::add(): duplicate experiment id '" + experiment.id + "'";
  });
  experiments_.push_back(std::move(experiment));
}

const Experiment* ExperimentRegistry::find(std::string_view id) const {
  for (const Experiment& experiment : experiments_) {
    if (experiment.id == id) return &experiment;
  }
  return nullptr;
}

ExperimentRegistry ExperimentRegistry::builtin() {
  ExperimentRegistry registry;
  register_builtin_experiments(registry);
  return registry;
}

}  // namespace halotis::repro
