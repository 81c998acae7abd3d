#include "src/netlist/netlist.hpp"

#include <algorithm>
#include <string>

namespace halotis {

void Netlist::reserve(std::size_t signals, std::size_t gates) {
  signals_.reserve(signals);
  signal_index_.reserve(signals);
  gates_.reserve(gates);
  gate_index_.reserve(gates);
}

SignalId Netlist::add_signal(std::string name) {
  return add_signal_impl(std::move(name), /*primary_input=*/false);
}

SignalId Netlist::add_primary_input(std::string name) {
  const SignalId id = add_signal_impl(std::move(name), /*primary_input=*/true);
  primary_inputs_.push_back(id);
  return id;
}

SignalId Netlist::add_signal_impl(std::string name, bool primary_input) {
  require(!name.empty(), "Netlist::add_signal(): signal name must not be empty");
  const SignalId id{static_cast<SignalId::underlying_type>(signals_.size())};
  require(signal_index_.insert(name, id.value(), signal_name()) == id.value(),
          [&] { return "Netlist::add_signal(): duplicate signal name '" + name + "'"; });
  Signal& signal = signals_.emplace_back();
  signal.name = std::move(name);
  signal.is_primary_input = primary_input;
  return id;
}

void Netlist::mark_primary_output(SignalId signal_id) {
  Signal& s = signals_.at(signal_id.value());
  if (!s.is_primary_output) {
    s.is_primary_output = true;
    primary_outputs_.push_back(signal_id);
  }
}

void Netlist::set_wire_cap(SignalId signal_id, Farad cap) {
  require(cap >= 0.0, "Netlist::set_wire_cap(): capacitance must be non-negative");
  signals_.at(signal_id.value()).wire_cap = cap;
}

GateId Netlist::add_gate(std::string name, CellId cell_id,
                         std::span<const SignalId> inputs, SignalId output) {
  const Cell& cell = library_->cell(cell_id);
  require(static_cast<int>(inputs.size()) == num_inputs(cell.kind), [&] {
    return "Netlist::add_gate(): '" + name + "' input count does not match " +
           std::string(cell_kind_name(cell.kind));
  });
  require(!name.empty(), "Netlist::add_gate(): gate name must not be empty");
  const auto duplicate = [&] { return "Netlist::add_gate(): duplicate gate name '" + name + "'"; };
  const bool output_ok = output.valid() && output.value() < signals_.size();
  const bool inputs_ok = std::all_of(inputs.begin(), inputs.end(), [&](SignalId in) {
    return in.valid() && in.value() < signals_.size();
  });
  if (!output_ok || signals_[output.value()].driver.valid() ||
      signals_[output.value()].is_primary_input || !inputs_ok) [[unlikely]] {
    // Diagnosed in contract order, before anything (the name included) is
    // recorded: a rejected gate leaves the netlist as it was.
    require(gate_index_.find(name, gate_name()) == NameIndex::kNone, duplicate);
    require(output_ok, "Netlist::add_gate(): invalid output signal");
    const Signal& out = signals_[output.value()];
    require(!out.driver.valid(),
            [&] { return "Netlist::add_gate(): signal '" + out.name + "' already driven"; });
    require(!out.is_primary_input, [&] {
      return "Netlist::add_gate(): cannot drive primary input '" + out.name + "'";
    });
    require(false, "Netlist::add_gate(): invalid input signal");
  }
  const GateId gate_id{static_cast<GateId::underlying_type>(gates_.size())};
  require(gate_index_.insert(name, gate_id.value(), gate_name()) == gate_id.value(), duplicate);

  signals_[output.value()].driver = gate_id;
  for (int pin = 0; pin < static_cast<int>(inputs.size()); ++pin) {
    signals_[inputs[static_cast<std::size_t>(pin)].value()].fanout.push_back(
        PinRef{gate_id, pin});
  }
  Gate& gate = gates_.emplace_back();
  gate.name = std::move(name);
  gate.cell = cell_id;
  gate.inputs.assign(inputs.begin(), inputs.end());
  gate.output = output;
  return gate_id;
}

GateId Netlist::add_gate(std::string name, CellKind kind,
                         std::span<const SignalId> inputs, SignalId output) {
  return add_gate(std::move(name), library_->by_kind(kind), inputs, output);
}

const Gate& Netlist::gate(GateId id) const {
  require(id.valid() && id.value() < gates_.size(), "Netlist::gate(): invalid gate id");
  return gates_[id.value()];
}

const Signal& Netlist::signal(SignalId id) const {
  require(id.valid() && id.value() < signals_.size(), "Netlist::signal(): invalid signal id");
  return signals_[id.value()];
}

std::optional<SignalId> Netlist::find_signal(std::string_view name) const {
  const std::uint32_t id = signal_index_.find(name, signal_name());
  if (id == NameIndex::kNone) return std::nullopt;
  return SignalId{id};
}

std::optional<GateId> Netlist::find_gate(std::string_view name) const {
  const std::uint32_t id = gate_index_.find(name, gate_name());
  if (id == NameIndex::kNone) return std::nullopt;
  return GateId{id};
}

Farad Netlist::load_of(SignalId signal_id) const {
  const Signal& s = signal(signal_id);
  Farad load = s.wire_cap;
  for (const PinRef& ref : s.fanout) {
    load += cell_of(ref.gate).pin(ref.pin).cin;
  }
  if (s.driver.valid()) load += cell_of(s.driver).cout_self;
  return load;
}

Volt Netlist::input_threshold(const PinRef& pin) const {
  return cell_of(pin.gate).pin(pin.pin).vt;
}

Netlist::Levelization Netlist::levelize() const {
  Levelization lv;
  std::vector<int> pending(gates_.size(), 0);
  for (std::size_t g = 0; g < gates_.size(); ++g) {
    for (SignalId in : gates_[g].inputs) {
      if (signals_[in.value()].driver.valid()) ++pending[g];
    }
  }
  std::vector<int> level(signals_.size(), 0);
  const auto place = [&](GateId g) {
    const Gate& gate_ref = gates_[g.value()];
    int in_level = 0;
    for (SignalId in : gate_ref.inputs) in_level = std::max(in_level, level[in.value()]);
    level[gate_ref.output.value()] = in_level + 1;
    lv.depth = std::max(lv.depth, in_level + 1);
  };
  // Kahn's algorithm with `order` itself as the FIFO of ready gates.
  lv.order.reserve(gates_.size());
  for (std::size_t g = 0; g < gates_.size(); ++g) {
    if (pending[g] == 0) lv.order.push_back(GateId{static_cast<GateId::underlying_type>(g)});
  }
  for (std::size_t head = 0; head < lv.order.size(); ++head) {
    const GateId g = lv.order[head];
    place(g);
    for (const PinRef& ref : signals_[gates_[g.value()].output.value()].fanout) {
      if (--pending[ref.gate.value()] == 0) lv.order.push_back(ref.gate);
    }
  }
  lv.has_cycles = lv.order.size() != gates_.size();
  if (lv.has_cycles) {
    // Cyclic remainder (latch loops and what they feed: the gates still
    // waiting on a fanin), appended in id order so the result is a
    // deterministic total order over all gates.
    for (std::size_t g = 0; g < gates_.size(); ++g) {
      if (pending[g] == 0) continue;
      const GateId gid{static_cast<GateId::underlying_type>(g)};
      lv.order.push_back(gid);
      place(gid);
    }
  }
  return lv;
}

bool Netlist::eval_gate(const Gate& gate_ref, const std::vector<bool>& value) const {
  bool ins[8] = {};
  ensure(gate_ref.inputs.size() <= std::size(ins), "eval_gate(): fan-in too large");
  for (std::size_t i = 0; i < gate_ref.inputs.size(); ++i) {
    ins[i] = value[gate_ref.inputs[i].value()];
  }
  return eval_cell(library_->cell(gate_ref.cell).kind,
                   std::span<const bool>(ins, gate_ref.inputs.size()));
}

bool Netlist::settle(std::span<const GateId> order, int max_sweeps, SignalId pinned,
                     std::vector<bool>& value) const {
  require(value.size() == signals_.size(), "Netlist::settle(): value size mismatch");
  bool changed = true;
  for (int sweep = 0; sweep < max_sweeps && changed; ++sweep) {
    changed = false;
    for (GateId g : order) {
      const Gate& gate_ref = gates_[g.value()];
      if (gate_ref.output == pinned) continue;  // stuck-at injection
      const bool out = eval_gate(gate_ref, value);
      if (out != value[gate_ref.output.value()]) {
        value[gate_ref.output.value()] = out;
        changed = true;
      }
    }
  }
  return !changed;
}

std::vector<bool> Netlist::steady_state(std::span<const bool> pi_values,
                                        std::vector<SignalId>* unsettled) const {
  require(pi_values.size() == primary_inputs_.size(),
          "Netlist::steady_state(): primary-input value count mismatch");
  std::vector<bool> value(signals_.size(), false);
  for (std::size_t i = 0; i < primary_inputs_.size(); ++i) {
    value[primary_inputs_[i].value()] = pi_values[i];
  }
  const Levelization lv = levelize();
  const std::vector<GateId>& order = lv.order;
  // One pass settles acyclic logic; feedback loops need iteration.  The
  // bound of depth+2 extra sweeps settles any non-oscillating loop.
  const int max_sweeps = lv.has_cycles ? lv.depth + static_cast<int>(gates_.size()) + 2 : 1;
  const bool settled = settle(order, max_sweeps, SignalId{}, value);
  if (unsettled != nullptr) {
    unsettled->clear();
    if (!settled) {
      // One more sweep to identify which outputs are still moving.
      for (GateId g : order) {
        const Gate& gate_ref = gates_[g.value()];
        if (eval_gate(gate_ref, value) != value[gate_ref.output.value()]) {
          unsettled->push_back(gate_ref.output);
        }
      }
    }
  }
  return value;
}

void Netlist::check() const {
  for (std::size_t s = 0; s < signals_.size(); ++s) {
    const Signal& sig = signals_[s];
    require(sig.is_primary_input || sig.driver.valid(),
            [&] { return "Netlist::check(): signal '" + sig.name + "' has no driver"; });
    for (const PinRef& ref : sig.fanout) {
      require(ref.gate.valid() && ref.gate.value() < gates_.size(),
              "Netlist::check(): dangling fanout gate reference");
      const Gate& g = gates_[ref.gate.value()];
      require(ref.pin >= 0 && ref.pin < static_cast<int>(g.inputs.size()),
              "Netlist::check(): fanout pin index out of range");
      require(g.inputs[static_cast<std::size_t>(ref.pin)].value() == s,
              "Netlist::check(): fanout back-reference mismatch");
    }
  }
  for (const Gate& g : gates_) {
    require(static_cast<int>(g.inputs.size()) == num_inputs(library_->cell(g.cell).kind),
            [&] { return "Netlist::check(): gate '" + g.name + "' pin count mismatch"; });
    require(g.output.valid(),
            [&] { return "Netlist::check(): gate '" + g.name + "' has no output signal"; });
  }
}

}  // namespace halotis
