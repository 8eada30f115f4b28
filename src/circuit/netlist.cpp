#include "circuit/netlist.hpp"

namespace cnti::circuit {

NodeId Circuit::node(const std::string& name) {
  const auto it = node_ids_.find(name);
  if (it != node_ids_.end()) return it->second;
  const NodeId id = next_id_++;
  node_ids_[name] = id;
  node_names_.push_back(name);
  return id;
}

const std::string& Circuit::node_name(NodeId id) const {
  CNTI_EXPECTS(id >= 0 && id < static_cast<NodeId>(node_names_.size()),
               "node id out of range");
  return node_names_[static_cast<std::size_t>(id)];
}

void Circuit::expect_nodes(const std::string& element,
                           std::initializer_list<NodeId> nodes) const {
  for (const NodeId n : nodes) {
    CNTI_EXPECTS(n >= 0 && n <= node_count(),
                 element + ": node id " + std::to_string(n) +
                     " is outside [0, " + std::to_string(node_count()) + "]");
  }
}

void Circuit::add_resistor(const std::string& name, NodeId a, NodeId b,
                           double ohms) {
  expect_nodes(name, {a, b});
  CNTI_EXPECTS(ohms > 0, "resistance must be positive: " + name);
  resistors_.push_back({name, a, b, ohms});
}

void Circuit::add_capacitor(const std::string& name, NodeId a, NodeId b,
                            double farads) {
  expect_nodes(name, {a, b});
  CNTI_EXPECTS(farads > 0, "capacitance must be positive: " + name);
  capacitors_.push_back({name, a, b, farads});
}

void Circuit::add_inductor(const std::string& name, NodeId a, NodeId b,
                           double henries) {
  expect_nodes(name, {a, b});
  CNTI_EXPECTS(henries > 0, "inductance must be positive: " + name);
  inductors_.push_back({name, a, b, henries});
}

void Circuit::add_vsource(const std::string& name, NodeId plus, NodeId minus,
                          Waveform wave) {
  expect_nodes(name, {plus, minus});
  vsources_.push_back({name, plus, minus, std::move(wave)});
}

void Circuit::set_vsource_wave(std::size_t index, Waveform wave) {
  CNTI_EXPECTS(index < vsources_.size(), "vsource index out of range");
  vsources_[index].wave = std::move(wave);
}

void Circuit::add_isource(const std::string& name, NodeId plus, NodeId minus,
                          Waveform wave) {
  expect_nodes(name, {plus, minus});
  isources_.push_back({name, plus, minus, std::move(wave)});
}

void Circuit::add_mosfet(const std::string& name, NodeId drain, NodeId gate,
                         NodeId source, const MosfetParams& params) {
  expect_nodes(name, {drain, gate, source});
  CNTI_EXPECTS(params.width_m > 0 && params.length_m > 0,
               "MOSFET geometry must be positive: " + name);
  CNTI_EXPECTS(params.kp_a_per_v2 > 0, "kp must be positive: " + name);
  mosfets_.push_back({name, drain, gate, source, params});
  // Gate capacitances participate as ordinary linear capacitors.
  if (params.cgs_f > 0) {
    add_capacitor(name + ".cgs", gate, source, params.cgs_f);
  }
  if (params.cgd_f > 0) {
    add_capacitor(name + ".cgd", gate, drain, params.cgd_f);
  }
}

}  // namespace cnti::circuit
