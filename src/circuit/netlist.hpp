// Circuit netlist container: named nodes, passive elements, sources and
// level-1 MOSFETs. The MNA engine consumes this read-only.
#pragma once

#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "circuit/waveform.hpp"
#include "common/error.hpp"

namespace cnti::circuit {

/// Node index; 0 is ground ("0" / "gnd").
using NodeId = int;

/// Level-1 (square-law) MOSFET parameters, adequate for the paper's 45 nm
/// inverter delay benchmarking (drive calibrated to 45 nm-class currents).
struct MosfetParams {
  bool is_pmos = false;
  double vt_v = 0.3;          ///< Threshold (negative for PMOS).
  double kp_a_per_v2 = 450e-6;  ///< Process transconductance u Cox.
  double width_m = 90e-9;
  double length_m = 45e-9;
  double lambda_per_v = 0.1;  ///< Channel-length modulation.
  double cgs_f = 0.03e-15;
  double cgd_f = 0.02e-15;

  double beta() const { return kp_a_per_v2 * width_m / length_m; }
};

struct Resistor {
  std::string name;
  NodeId a = 0, b = 0;
  double ohms = 0.0;
};

struct Capacitor {
  std::string name;
  NodeId a = 0, b = 0;
  double farads = 0.0;
};

struct Inductor {
  std::string name;
  NodeId a = 0, b = 0;
  double henries = 0.0;
};

struct VoltageSource {
  std::string name;
  NodeId plus = 0, minus = 0;
  Waveform wave;
};

struct CurrentSource {
  std::string name;
  NodeId plus = 0, minus = 0;  ///< Current flows plus -> minus inside.
  Waveform wave;
};

struct Mosfet {
  std::string name;
  NodeId drain = 0, gate = 0, source = 0;
  MosfetParams params;
};

/// Mutable netlist builder with value-semantics storage.
class Circuit {
 public:
  Circuit() { node_ids_["0"] = 0; node_ids_["gnd"] = 0; }

  /// Returns the id for a named node, creating it if unseen.
  NodeId node(const std::string& name);

  /// Number of non-ground nodes.
  int node_count() const { return next_id_ - 1; }

  const std::string& node_name(NodeId id) const;

  void add_resistor(const std::string& name, NodeId a, NodeId b, double ohms);
  void add_capacitor(const std::string& name, NodeId a, NodeId b,
                     double farads);
  void add_inductor(const std::string& name, NodeId a, NodeId b,
                    double henries);
  void add_vsource(const std::string& name, NodeId plus, NodeId minus,
                   Waveform wave);
  void add_isource(const std::string& name, NodeId plus, NodeId minus,
                   Waveform wave);
  void add_mosfet(const std::string& name, NodeId drain, NodeId gate,
                  NodeId source, const MosfetParams& params);

  /// Replaces the waveform of an existing voltage source (DC sweeps,
  /// stimulus re-targeting).
  void set_vsource_wave(std::size_t index, Waveform wave);

  const std::vector<Resistor>& resistors() const { return resistors_; }
  const std::vector<Capacitor>& capacitors() const { return capacitors_; }
  const std::vector<Inductor>& inductors() const { return inductors_; }
  const std::vector<VoltageSource>& vsources() const { return vsources_; }
  const std::vector<CurrentSource>& isources() const { return isources_; }
  const std::vector<Mosfet>& mosfets() const { return mosfets_; }

  std::size_t element_count() const {
    return resistors_.size() + capacitors_.size() + inductors_.size() +
           vsources_.size() + isources_.size() + mosfets_.size();
  }

 private:
  /// Every add_* rejects node ids outside [0, node_count()], naming the
  /// element, so no stamp can land outside the MNA system.
  void expect_nodes(const std::string& element,
                    std::initializer_list<NodeId> nodes) const;

  std::map<std::string, NodeId> node_ids_;
  std::vector<std::string> node_names_ = {"0"};
  NodeId next_id_ = 1;

  std::vector<Resistor> resistors_;
  std::vector<Capacitor> capacitors_;
  std::vector<Inductor> inductors_;
  std::vector<VoltageSource> vsources_;
  std::vector<CurrentSource> isources_;
  std::vector<Mosfet> mosfets_;
};

}  // namespace cnti::circuit
