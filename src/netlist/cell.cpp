#include "src/netlist/cell.hpp"

#include <array>
#include <string>

namespace halotis {

bool eval_cell(CellKind kind, std::span<const bool> in) {
  require(static_cast<int>(in.size()) == num_inputs(kind),
          "eval_cell(): input count does not match cell kind");
  switch (kind) {
    case CellKind::kBuf:
      return in[0];
    case CellKind::kInv:
      return !in[0];
    case CellKind::kAnd2:
      return in[0] && in[1];
    case CellKind::kAnd3:
      return in[0] && in[1] && in[2];
    case CellKind::kAnd4:
      return in[0] && in[1] && in[2] && in[3];
    case CellKind::kNand2:
      return !(in[0] && in[1]);
    case CellKind::kNand3:
      return !(in[0] && in[1] && in[2]);
    case CellKind::kNand4:
      return !(in[0] && in[1] && in[2] && in[3]);
    case CellKind::kOr2:
      return in[0] || in[1];
    case CellKind::kOr3:
      return in[0] || in[1] || in[2];
    case CellKind::kOr4:
      return in[0] || in[1] || in[2] || in[3];
    case CellKind::kNor2:
      return !(in[0] || in[1]);
    case CellKind::kNor3:
      return !(in[0] || in[1] || in[2]);
    case CellKind::kNor4:
      return !(in[0] || in[1] || in[2] || in[3]);
    case CellKind::kXor2:
      return in[0] != in[1];
    case CellKind::kXor3:
      return (in[0] != in[1]) != in[2];
    case CellKind::kXnor2:
      return in[0] == in[1];
    case CellKind::kAoi21:
      return !((in[0] && in[1]) || in[2]);
    case CellKind::kAoi22:
      return !((in[0] && in[1]) || (in[2] && in[3]));
    case CellKind::kOai21:
      return !((in[0] || in[1]) && in[2]);
    case CellKind::kOai22:
      return !((in[0] || in[1]) && (in[2] || in[3]));
    case CellKind::kMux2:
      return in[2] ? in[1] : in[0];
    case CellKind::kMaj3:
      return (in[0] && in[1]) || (in[1] && in[2]) || (in[0] && in[2]);
  }
  ensure(false, "eval_cell(): unhandled cell kind");
  return false;
}

std::uint16_t truth_table(CellKind kind) {
  const int k = num_inputs(kind);
  std::uint16_t truth = 0;
  for (unsigned word = 0; word < (1u << k); ++word) {
    std::array<bool, 4> ins{};
    for (int p = 0; p < k; ++p) ins[static_cast<std::size_t>(p)] = ((word >> p) & 1u) != 0;
    if (eval_cell(kind, {ins.data(), static_cast<std::size_t>(k)})) {
      truth |= static_cast<std::uint16_t>(1u << word);
    }
  }
  return truth;
}

std::string_view cell_kind_name(CellKind kind) {
  switch (kind) {
    case CellKind::kBuf: return "BUF";
    case CellKind::kInv: return "INV";
    case CellKind::kAnd2: return "AND2";
    case CellKind::kAnd3: return "AND3";
    case CellKind::kAnd4: return "AND4";
    case CellKind::kNand2: return "NAND2";
    case CellKind::kNand3: return "NAND3";
    case CellKind::kNand4: return "NAND4";
    case CellKind::kOr2: return "OR2";
    case CellKind::kOr3: return "OR3";
    case CellKind::kOr4: return "OR4";
    case CellKind::kNor2: return "NOR2";
    case CellKind::kNor3: return "NOR3";
    case CellKind::kNor4: return "NOR4";
    case CellKind::kXor2: return "XOR2";
    case CellKind::kXor3: return "XOR3";
    case CellKind::kXnor2: return "XNOR2";
    case CellKind::kAoi21: return "AOI21";
    case CellKind::kAoi22: return "AOI22";
    case CellKind::kOai21: return "OAI21";
    case CellKind::kOai22: return "OAI22";
    case CellKind::kMux2: return "MUX2";
    case CellKind::kMaj3: return "MAJ3";
  }
  return "?";
}

CellKind cell_kind_from_name(std::string_view name) {
  static constexpr CellKind kAll[] = {
      CellKind::kBuf,   CellKind::kInv,   CellKind::kAnd2,  CellKind::kAnd3,
      CellKind::kAnd4,  CellKind::kNand2, CellKind::kNand3, CellKind::kNand4,
      CellKind::kOr2,   CellKind::kOr3,   CellKind::kOr4,   CellKind::kNor2,
      CellKind::kNor3,  CellKind::kNor4,  CellKind::kXor2,  CellKind::kXor3,
      CellKind::kXnor2, CellKind::kAoi21, CellKind::kAoi22, CellKind::kOai21,
      CellKind::kOai22, CellKind::kMux2,  CellKind::kMaj3};
  for (CellKind kind : kAll) {
    if (cell_kind_name(kind) == name) return kind;
  }
  require(false, [&] { return std::string("unknown cell kind '") + std::string(name) + "'"; });
  return CellKind::kBuf;  // unreachable
}

}  // namespace halotis
