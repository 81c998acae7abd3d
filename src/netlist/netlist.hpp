// The circuit graph: signals (the paper's "Lines"), gates and gate inputs.
//
// Mirrors the HALOTIS class diagram (paper Fig. 2): a Netlist owns Lines;
// each Line knows its driving gate and the ordered set of GateInputs it
// feeds; Transitions and Events (src/core) reference Lines and GateInputs
// by id.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/check.hpp"
#include "src/base/ids.hpp"
#include "src/base/name_index.hpp"
#include "src/base/units.hpp"
#include "src/netlist/library.hpp"

namespace halotis {

/// A (gate, input-pin) pair: one receiving gate input on a signal line.
struct PinRef {
  GateId gate;
  int pin = 0;

  friend bool operator==(const PinRef&, const PinRef&) = default;
};

/// One gate instance.
struct Gate {
  std::string name;
  CellId cell;
  std::vector<SignalId> inputs;  ///< size == num_inputs(kind)
  SignalId output;
};

/// One signal line (net).  Driven either by a gate output or, for primary
/// inputs, by the testbench stimulus.
struct Signal {
  std::string name;
  GateId driver;                ///< invalid for primary inputs
  std::vector<PinRef> fanout;   ///< receiving gate inputs, in creation order
  bool is_primary_input = false;
  bool is_primary_output = false;
  Farad wire_cap = 0.0;         ///< extra interconnect capacitance, pF
};

class Netlist {
 public:
  /// The netlist keeps a reference to `library`; the library must outlive it.
  explicit Netlist(const Library& library) : library_(&library) {}

  // ---- construction -------------------------------------------------------

  /// Pre-sizes the signal and gate tables (a reader that knows its counts).
  void reserve(std::size_t signals, std::size_t gates);

  /// Creates an undriven signal.  Names must be unique and non-empty.
  SignalId add_signal(std::string name);
  /// Creates a signal driven by the testbench.
  SignalId add_primary_input(std::string name);
  void mark_primary_output(SignalId signal);
  void set_wire_cap(SignalId signal, Farad cap);

  /// Instantiates `cell` driving `output` from `inputs`.  Each signal may
  /// have at most one driver; `output` must not be a primary input.
  GateId add_gate(std::string name, CellId cell, std::span<const SignalId> inputs,
                  SignalId output);
  /// Convenience overload resolving the library's default cell of `kind`.
  GateId add_gate(std::string name, CellKind kind, std::span<const SignalId> inputs,
                  SignalId output);

  // ---- accessors ----------------------------------------------------------

  [[nodiscard]] const Library& library() const { return *library_; }
  [[nodiscard]] std::size_t num_gates() const { return gates_.size(); }
  [[nodiscard]] std::size_t num_signals() const { return signals_.size(); }
  [[nodiscard]] const Gate& gate(GateId id) const;
  [[nodiscard]] const Signal& signal(SignalId id) const;
  [[nodiscard]] const Cell& cell_of(GateId id) const { return library_->cell(gate(id).cell); }
  [[nodiscard]] std::span<const SignalId> primary_inputs() const { return primary_inputs_; }
  [[nodiscard]] std::span<const SignalId> primary_outputs() const { return primary_outputs_; }
  [[nodiscard]] std::optional<SignalId> find_signal(std::string_view name) const;
  [[nodiscard]] std::optional<GateId> find_gate(std::string_view name) const;

  /// Total capacitive load seen by the driver of `signal`: fanout input
  /// capacitances + wire capacitance + the driver's own output parasitic.
  [[nodiscard]] Farad load_of(SignalId signal) const;

  /// Input threshold voltage of one receiving pin.
  [[nodiscard]] Volt input_threshold(const PinRef& pin) const;

  // ---- analysis -----------------------------------------------------------

  /// Everything one Kahn pass over the gate graph yields.
  struct Levelization {
    /// Gates in topological order from primary inputs.  Gates involved in
    /// combinational cycles (e.g. latch loops), and everything downstream
    /// of them, are appended in id order after all acyclic gates.
    std::vector<GateId> order;
    /// Logic depth: the longest path in gates from any primary input, each
    /// gate levelled once, in `order`.
    int depth = 0;
    /// True when the combinational graph contains at least one cycle.
    bool has_cycles = false;
  };
  [[nodiscard]] Levelization levelize() const;

  /// Single-field views of levelize(); callers needing two of them call
  /// levelize() once instead.
  [[nodiscard]] std::vector<GateId> topological_order() const { return levelize().order; }
  [[nodiscard]] bool has_combinational_cycles() const { return levelize().has_cycles; }
  [[nodiscard]] int depth() const { return levelize().depth; }

  /// Steady-state signal values for the given primary-input assignment,
  /// computed by fixpoint iteration (handles feedback loops; signals that
  /// do not settle are reported in `unsettled`, defaulting to 0).
  /// `pi_values` must align with primary_inputs().
  [[nodiscard]] std::vector<bool> steady_state(
      std::span<const bool> pi_values, std::vector<SignalId>* unsettled = nullptr) const;

  /// The fixpoint core shared by steady_state() and the simulator's
  /// reset()/re-arm path (which supplies its cached topological order so a
  /// fault campaign pays no per-fault graph walk): sweeps `order` up to
  /// `max_sweeps` times, evaluating every gate into `value` (pre-seeded
  /// with the primary-input assignment and any pinned constant).  A gate
  /// driving `pinned` is skipped, so that signal holds its seeded value --
  /// stuck-at injection.  Returns false when the last sweep still changed
  /// something (an oscillating feedback loop).
  bool settle(std::span<const GateId> order, int max_sweeps, SignalId pinned,
              std::vector<bool>& value) const;

  /// Structural design-rule check: every non-PI signal driven, pin counts
  /// consistent, fanout links well-formed.  Throws ContractViolation with a
  /// precise message on the first violation.
  void check() const;

 private:
  SignalId add_signal_impl(std::string name, bool primary_input);
  /// Evaluates one gate against the signal assignment in `value`.
  [[nodiscard]] bool eval_gate(const Gate& gate_ref, const std::vector<bool>& value) const;

  /// The names of the signals_ / gates_ entries, for the name indexes.
  [[nodiscard]] auto signal_name() const {
    return [this](std::uint32_t id) -> std::string_view { return signals_[id].name; };
  }
  [[nodiscard]] auto gate_name() const {
    return [this](std::uint32_t id) -> std::string_view { return gates_[id].name; };
  }

  const Library* library_;
  std::vector<Gate> gates_;
  std::vector<Signal> signals_;
  std::vector<SignalId> primary_inputs_;
  std::vector<SignalId> primary_outputs_;
  NameIndex signal_index_;  ///< name -> signals_ index
  NameIndex gate_index_;    ///< name -> gates_ index
};

}  // namespace halotis
