// Combinational cell kinds and their boolean semantics.
//
// The library covers the standard-cell set needed by the paper's circuits
// (AND array + full adders of the 4x4 multiplier, the dual-threshold
// inverter chains of Fig. 1) plus the usual small-MSI kinds found in the
// ISCAS-85 benchmarks.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "src/base/check.hpp"

namespace halotis {

enum class CellKind {
  kBuf,
  kInv,
  kAnd2,
  kAnd3,
  kAnd4,
  kNand2,
  kNand3,
  kNand4,
  kOr2,
  kOr3,
  kOr4,
  kNor2,
  kNor3,
  kNor4,
  kXor2,
  kXor3,
  kXnor2,
  kAoi21,  // !(a*b + c)
  kAoi22,  // !(a*b + c*d)
  kOai21,  // !((a+b) * c)
  kOai22,  // !((a+b) * (c+d))
  kMux2,   // s ? b : a   (pins: a, b, s)
  kMaj3,   // majority(a, b, c) -- full-adder carry
};

/// Number of input pins of a cell kind.
[[nodiscard]] constexpr int num_inputs(CellKind kind) {
  switch (kind) {
    case CellKind::kBuf:
    case CellKind::kInv:
      return 1;
    case CellKind::kAnd2:
    case CellKind::kNand2:
    case CellKind::kOr2:
    case CellKind::kNor2:
    case CellKind::kXor2:
    case CellKind::kXnor2:
      return 2;
    case CellKind::kAnd3:
    case CellKind::kNand3:
    case CellKind::kOr3:
    case CellKind::kNor3:
    case CellKind::kXor3:
    case CellKind::kAoi21:
    case CellKind::kOai21:
    case CellKind::kMux2:
    case CellKind::kMaj3:
      return 3;
    case CellKind::kAnd4:
    case CellKind::kNand4:
    case CellKind::kOr4:
    case CellKind::kNor4:
    case CellKind::kAoi22:
    case CellKind::kOai22:
      return 4;
  }
  return 0;  // unreachable; keeps -Wreturn-type quiet.
}

/// True when the cell's single logic stage inverts (output falls on a
/// controlling-input rise).  Non-inverting kinds are physically two stages.
[[nodiscard]] constexpr bool is_inverting(CellKind kind) {
  switch (kind) {
    case CellKind::kInv:
    case CellKind::kNand2:
    case CellKind::kNand3:
    case CellKind::kNand4:
    case CellKind::kNor2:
    case CellKind::kNor3:
    case CellKind::kNor4:
    case CellKind::kXnor2:
    case CellKind::kAoi21:
    case CellKind::kAoi22:
    case CellKind::kOai21:
    case CellKind::kOai22:
      return true;
    default:
      return false;
  }
}

/// Evaluates the boolean function of `kind` on `inputs`.
/// Requires inputs.size() == num_inputs(kind).
[[nodiscard]] bool eval_cell(CellKind kind, std::span<const bool> inputs);

/// The boolean function of `kind` as a truth table: bit w is the output for
/// the packed input word w (bit p = pin p).  Fan-in is at most 4, so 16
/// bits hold every word.
[[nodiscard]] std::uint16_t truth_table(CellKind kind);

/// Canonical upper-case cell-kind mnemonic ("NAND2", "AOI21", ...).
[[nodiscard]] std::string_view cell_kind_name(CellKind kind);

/// Inverse of cell_kind_name(); throws ContractViolation on unknown names.
[[nodiscard]] CellKind cell_kind_from_name(std::string_view name);

}  // namespace halotis
