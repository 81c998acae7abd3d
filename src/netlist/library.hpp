// Cell library: a named collection of characterized cells plus the
// technology operating point (VDD, logic swing).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/base/ids.hpp"
#include "src/base/name_index.hpp"
#include "src/base/units.hpp"
#include "src/netlist/timing.hpp"

namespace halotis {

class Library {
 public:
  explicit Library(std::string name, Volt vdd = 5.0) : name_(std::move(name)), vdd_(vdd) {}

  /// Registers a cell; the first cell added for a given kind becomes the
  /// kind's default.  Throws if the cell name already exists or the pin
  /// count does not match the kind.
  CellId add(Cell cell);

  [[nodiscard]] const Cell& cell(CellId id) const;
  [[nodiscard]] CellId find(std::string_view cell_name) const;
  [[nodiscard]] std::optional<CellId> try_find(std::string_view cell_name) const;
  /// Default (first-registered) cell of a kind; throws if none exists.
  [[nodiscard]] CellId by_kind(CellKind kind) const;

  [[nodiscard]] std::size_t size() const { return cells_.size(); }
  [[nodiscard]] std::span<const Cell> cells() const { return cells_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Volt vdd() const { return vdd_; }
  void set_vdd(Volt vdd) { vdd_ = vdd; }

  /// Mutable access for the characterization flow, which re-fits timing
  /// parameters in place.
  [[nodiscard]] Cell& mutable_cell(CellId id);

  /// The default 0.6 um-class library used throughout the reproduction:
  /// VDD = 5 V, gate delays of a few hundred picoseconds, and the
  /// dual-threshold inverter variants (INV_LVT / INV_HVT) needed by the
  /// paper's Fig. 1 experiment.
  [[nodiscard]] static Library default_u6();

 private:
  std::string name_;
  Volt vdd_;
  /// The names of the cells_ entries, for by_name_.
  [[nodiscard]] auto cell_names() const {
    return [this](std::uint32_t id) -> std::string_view { return cells_[id].name; };
  }

  std::vector<Cell> cells_;
  NameIndex by_name_;
  std::unordered_map<CellKind, CellId> default_by_kind_;
};

}  // namespace halotis
