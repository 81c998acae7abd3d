#include "src/netlist/library.hpp"

#include <algorithm>
#include <string>

#include "src/base/check.hpp"

namespace halotis {

CellId Library::add(Cell cell) {
  require(static_cast<int>(cell.pins.size()) == num_inputs(cell.kind),
          "Library::add(): pin count does not match cell kind");
  const CellId id{static_cast<CellId::underlying_type>(cells_.size())};
  require(by_name_.insert(cell.name, id.value(), cell_names()) == id.value(), [&] {
    return std::string("Library::add(): duplicate cell name '") + cell.name + "'";
  });
  default_by_kind_.try_emplace(cell.kind, id);
  cells_.push_back(std::move(cell));
  return id;
}

const Cell& Library::cell(CellId id) const {
  require(id.valid() && id.value() < cells_.size(), "Library::cell(): invalid cell id");
  return cells_[id.value()];
}

Cell& Library::mutable_cell(CellId id) {
  require(id.valid() && id.value() < cells_.size(), "Library::mutable_cell(): invalid cell id");
  return cells_[id.value()];
}

CellId Library::find(std::string_view cell_name) const {
  const auto found = try_find(cell_name);
  require(found.has_value(), [&] {
    return std::string("Library::find(): no cell named '") + std::string(cell_name) + "'";
  });
  return *found;
}

std::optional<CellId> Library::try_find(std::string_view cell_name) const {
  const std::uint32_t id = by_name_.find(cell_name, cell_names());
  if (id == NameIndex::kNone) return std::nullopt;
  return CellId{id};
}

CellId Library::by_kind(CellKind kind) const {
  const auto it = default_by_kind_.find(kind);
  require(it != default_by_kind_.end(), [&] {
    return std::string("Library::by_kind(): no cell of kind ") + std::string(cell_kind_name(kind));
  });
  return it->second;
}

namespace {

// ---------------------------------------------------------------------------
// Default "u6" library construction.
//
// The constants below were obtained by running the src/characterize flow
// against the analog reference simulator (the same procedure the paper's
// authors used against HSPICE, refs [15]-[17]):
//   * tp0 macro-models fitted over a load x slew grid (R^2 > 0.98),
//   * degradation (tau, T0) from pulse-collapse sweeps at two loads
//     (eq. 1 linearization, R^2 > 0.93 in the degraded regime),
//   * VT from DC transfer sweeps of each cell.
// Multi-stage cells (BUF/AND/OR/XOR/...) show markedly more negative T0
// than single-stage ones: internal stages re-square a degraded pulse, so
// relative to their larger tp0 they pass narrower pulses.
// tests/test_characterize.cpp re-derives representative numbers and checks
// agreement.
// ---------------------------------------------------------------------------

constexpr Volt kVdd = 5.0;

EdgeTiming make_edge(double p0, double p_load, double p_slew, double deg_a, double deg_b,
                     double deg_c) {
  EdgeTiming e;
  e.p0 = p0;
  e.p_load = p_load;
  e.p_slew = p_slew;
  e.deg_a = deg_a;
  e.deg_b = deg_b;
  e.deg_c = deg_c;
  return e;
}

/// True for kinds whose standard-cell implementation has more than one
/// inverting stage (see src/analog/pull_network.cpp expansion table).
bool is_multi_stage(CellKind kind) {
  switch (kind) {
    case CellKind::kBuf:
    case CellKind::kAnd2: case CellKind::kAnd3: case CellKind::kAnd4:
    case CellKind::kOr2: case CellKind::kOr3: case CellKind::kOr4:
    case CellKind::kXor2: case CellKind::kXor3: case CellKind::kXnor2:
    case CellKind::kMux2: case CellKind::kMaj3:
      return true;
    default:
      return false;
  }
}

/// Input capacitance of `pin`, pF, consistent with the analog expansion
/// (gate cap per um of device width times the devices the pin drives).
Farad analog_consistent_cin(CellKind kind, int pin) {
  switch (kind) {
    case CellKind::kInv:
    case CellKind::kBuf:
      return 0.0126;
    case CellKind::kNand2: case CellKind::kAnd2:
      return 0.0162;
    case CellKind::kNand3: case CellKind::kAnd3:
      return 0.0198;
    case CellKind::kNand4: case CellKind::kAnd4:
      return 0.0234;
    case CellKind::kNor2: case CellKind::kOr2:
      return 0.0216;
    case CellKind::kNor3: case CellKind::kOr3:
      return 0.0306;
    case CellKind::kNor4: case CellKind::kOr4:
      return 0.0396;
    case CellKind::kXor2:
      return 0.0324;  // each input drives two internal NAND2 stages
    case CellKind::kXnor2:
      return 0.0432;  // NOR-based
    case CellKind::kXor3:
      return 0.0324;
    case CellKind::kAoi21: case CellKind::kAoi22:
    case CellKind::kOai21: case CellKind::kOai22:
      return 0.0252;
    case CellKind::kMux2:
      return pin == 2 ? 0.0378 : 0.0252;  // select drives INV + AOI leaf
    case CellKind::kMaj3:
      return pin == 2 ? 0.0252 : 0.0504;  // a, b appear twice in the network
  }
  return 0.0126;
}

/// Output parasitic (drain) capacitance of the final stage, pF.
Farad analog_consistent_cout(CellKind kind) {
  switch (kind) {
    case CellKind::kNand2: case CellKind::kNand3: case CellKind::kNand4:
      return 0.0089;
    case CellKind::kNor2: case CellKind::kNor3: case CellKind::kNor4:
      return 0.0119;
    case CellKind::kXor2:
      return 0.0089;  // final NAND2 stage
    case CellKind::kXor3:
      return 0.0089;
    case CellKind::kXnor2:
      return 0.0119;  // final NOR2 stage
    case CellKind::kAoi21: case CellKind::kAoi22:
    case CellKind::kOai21: case CellKind::kOai22:
      return 0.0139;
    default:
      return 0.0069;  // INV-like final stage
  }
}

/// Characterized slew-sensitivity coefficients (p_slew) per output edge.
/// The asymmetry is family-specific: in AND-family cells the slow first
/// stage sits on the falling-output path, in OR-family cells on the rising
/// one; parity cells are balanced.
struct SlewSensitivity {
  double rise;
  double fall;
};

SlewSensitivity slew_sensitivity(CellKind kind) {
  switch (kind) {
    case CellKind::kAnd2: case CellKind::kAnd3: case CellKind::kAnd4:
      return {0.04, 0.20};
    case CellKind::kOr2: case CellKind::kOr3: case CellKind::kOr4:
      return {0.20, 0.045};
    case CellKind::kXor2: case CellKind::kXor3:
      return {0.08, 0.17};
    case CellKind::kXnor2:
      return {0.13, 0.20};
    case CellKind::kBuf:
      return {0.13, 0.15};
    case CellKind::kMux2: case CellKind::kMaj3:
      return {0.12, 0.14};
    default:  // single inverting stage
      return {0.19, 0.11};
  }
}

/// Builds one pin.  `position_factor` models the pin's place in the stack
/// (pins electrically farther from the output are slightly slower).
///
/// The degradation offset parameter C (eq. 3) couples to the pin's
/// switching threshold VT (characterized: low-VM stages respond earlier in
/// the ramp, tolerating narrower pulses -> larger C, smaller or negative
/// T0) and to the cell's stage count (internal stages re-square pulses:
/// C shifted up by ~2.2 V, T0 strongly negative relative to tp0).
PinTiming make_pin(CellKind kind, int pin_index, Volt vt, double p0, double strength,
                   double position_factor) {
  PinTiming pin;
  pin.vt = vt;
  pin.cin = analog_consistent_cin(kind, pin_index) * strength;
  const bool multi = is_multi_stage(kind);
  double c_base = std::clamp(2.2 - 1.2 * (vt - 2.45) + (multi ? 2.2 : 0.0), 0.3, 4.7);
  const double deg_a = 0.20 * position_factor;
  const double deg_b = 7.5;
  const SlewSensitivity slew = slew_sensitivity(kind);
  // Rising output (input fell).
  pin.rise = make_edge(p0 * 1.05 * position_factor, 2.35 / strength, slew.rise,
                       deg_a, deg_b / strength, std::max(0.3, c_base - 0.15));
  // Falling output (input rose).
  pin.fall = make_edge(p0 * position_factor, 2.25 / strength, slew.fall,
                       deg_a * 0.9, deg_b * 0.9 / strength, c_base);
  return pin;
}

DriveTiming make_drive(double strength) {
  // Calibrated 20-80% slopes scaled to rail-to-rail: ~0.43 ns at 65 fF.
  DriveTiming d;
  d.tau_rise0 = 0.13 / strength;
  d.tau_rise_load = 4.8 / strength;
  d.tau_fall0 = 0.10 / strength;
  d.tau_fall_load = 4.4 / strength;
  return d;
}

Cell make_cell(std::string name, CellKind kind, Volt vt, double p0,
               double strength = 1.0) {
  Cell cell;
  cell.name = std::move(name);
  cell.kind = kind;
  const int n = num_inputs(kind);
  for (int i = 0; i < n; ++i) {
    // Later pins sit marginally lower in the stack; the analog series
    // composition is position-symmetric, so only delays carry the skew.
    const double position_factor = 1.0 + 0.04 * i;
    cell.pins.push_back(make_pin(kind, i, vt, p0, strength, position_factor));
  }
  cell.drive = make_drive(strength);
  cell.cout_self = analog_consistent_cout(kind) * strength;
  cell.sizing.wn_um = 1.8 * strength;
  cell.sizing.wp_um = 4.5 * strength;
  return cell;
}

}  // namespace

Library Library::default_u6() {
  Library lib("u6", kVdd);

  // VT values are the characterized DC switching thresholds.  The series
  // NMOS stacks of NAND cells are width-compensated (wn x stack depth),
  // which over-strengthens the pull-down and *lowers* VM; NOR stacks
  // mirror this upward.
  lib.add(make_cell("INV_X1", CellKind::kInv, 2.45, 0.003));
  lib.add(make_cell("INV_X2", CellKind::kInv, 2.45, 0.003, 2.0));
  lib.add(make_cell("INV_X4", CellKind::kInv, 2.45, 0.003, 4.0));
  lib.add(make_cell("BUF_X1", CellKind::kBuf, 2.45, 0.116));
  lib.add(make_cell("BUF_X2", CellKind::kBuf, 2.45, 0.116, 2.0));

  // Skewed-threshold inverters for the paper's Fig. 1 experiment:
  // deliberately low / high input switching thresholds.  The transistor
  // sizing skews the analog VM to match (weak PMOS lowers VM, strong PMOS
  // raises it), so the electrical reference discriminates the same way.
  // Their asymmetric sizing invalidates the family-generic drive/delay
  // coefficients, so these carry individually characterized numbers.
  {
    Cell lvt = make_cell("INV_LVT", CellKind::kInv, 1.86, 0.003);
    lvt.sizing.wn_um = 1.8;
    lvt.sizing.wp_um = 1.0;
    lvt.cout_self = 0.0031;  // cd * (wn + wp)
    lvt.pins[0].rise.p0 = 0.003;
    lvt.pins[0].rise.p_load = 9.66;  // weak pull-up
    lvt.pins[0].rise.p_slew = 0.25;
    lvt.pins[0].fall.p0 = 0.003;
    lvt.pins[0].fall.p_load = 2.56;
    lvt.pins[0].fall.p_slew = 0.15;
    lvt.drive.tau_rise0 = 0.02;
    lvt.drive.tau_rise_load = 26.3;
    lvt.drive.tau_fall0 = 0.125;
    lvt.drive.tau_fall_load = 4.67;
    lib.add(std::move(lvt));

    Cell hvt = make_cell("INV_HVT", CellKind::kInv, 3.20, 0.003);
    hvt.sizing.wn_um = 1.8;
    hvt.sizing.wp_um = 32.0;
    hvt.cout_self = 0.0372;  // the wide PMOS dominates the drain cap
    hvt.pins[0].rise.p0 = 0.003;
    hvt.pins[0].rise.p_load = 0.78;  // very strong pull-up
    hvt.pins[0].rise.p_slew = 0.02;
    hvt.pins[0].fall.p0 = 0.003;
    hvt.pins[0].fall.p_load = 2.07;
    hvt.pins[0].fall.p_slew = 0.26;
    hvt.drive.tau_rise0 = 0.12;
    hvt.drive.tau_rise_load = 0.76;
    hvt.drive.tau_fall0 = 0.06;
    hvt.drive.tau_fall_load = 5.36;
    lib.add(std::move(hvt));
  }

  lib.add(make_cell("NAND2_X1", CellKind::kNand2, 2.22, 0.005));
  lib.add(make_cell("NAND2_X2", CellKind::kNand2, 2.22, 0.005, 2.0));
  lib.add(make_cell("NAND3_X1", CellKind::kNand3, 2.09, 0.008));
  lib.add(make_cell("NAND4_X1", CellKind::kNand4, 2.00, 0.012));
  lib.add(make_cell("NOR2_X1", CellKind::kNor2, 2.68, 0.012));
  lib.add(make_cell("NOR3_X1", CellKind::kNor3, 2.80, 0.018));
  lib.add(make_cell("NOR4_X1", CellKind::kNor4, 2.89, 0.025));

  lib.add(make_cell("AND2_X1", CellKind::kAnd2, 2.22, 0.117));
  lib.add(make_cell("AND3_X1", CellKind::kAnd3, 2.09, 0.122));
  lib.add(make_cell("AND4_X1", CellKind::kAnd4, 2.00, 0.127));
  lib.add(make_cell("OR2_X1", CellKind::kOr2, 2.68, 0.127));
  lib.add(make_cell("OR3_X1", CellKind::kOr3, 2.80, 0.132));
  lib.add(make_cell("OR4_X1", CellKind::kOr4, 2.89, 0.138));

  lib.add(make_cell("XOR2_X1", CellKind::kXor2, 2.23, 0.125));
  {
    // XOR3 pins 0/1 traverse both internal XOR2s; pin 2 only the second.
    Cell xor3 = make_cell("XOR3_X1", CellKind::kXor3, 2.23, 0.115);
    for (int pin = 0; pin < 2; ++pin) {
      xor3.pins[static_cast<std::size_t>(pin)].rise.p0 *= 2.1;
      xor3.pins[static_cast<std::size_t>(pin)].fall.p0 *= 2.1;
    }
    lib.add(std::move(xor3));
  }
  lib.add(make_cell("XNOR2_X1", CellKind::kXnor2, 2.75, 0.335));

  lib.add(make_cell("AOI21_X1", CellKind::kAoi21, 2.30, 0.010));
  lib.add(make_cell("AOI22_X1", CellKind::kAoi22, 2.25, 0.014));
  lib.add(make_cell("OAI21_X1", CellKind::kOai21, 2.60, 0.010));
  lib.add(make_cell("OAI22_X1", CellKind::kOai22, 2.65, 0.014));
  {
    // The select pin routes through the internal inverter first.
    Cell mux = make_cell("MUX2_X1", CellKind::kMux2, 2.35, 0.135);
    mux.pins[2].rise.p0 = 0.245;
    mux.pins[2].fall.p0 = 0.245;
    lib.add(std::move(mux));
  }
  lib.add(make_cell("MAJ3_X1", CellKind::kMaj3, 2.30, 0.125));

  return lib;
}

}  // namespace halotis
