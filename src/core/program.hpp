#pragma once

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "pulse/schedule.hpp"

namespace hgp::core {

/// One step of an executable program on physical qubits: either a compiled
/// gate (whose pulse realization comes from the backend calibrations) or a
/// raw pulse block (the hybrid model's native-pulse ansatz layers).
struct ExecOp {
  bool is_pulse = false;
  /// Valid when !is_pulse.
  qc::Op gate;
  /// Valid when is_pulse: the physical qubits the block acts on (their order
  /// defines the block's local basis) and its schedule on physical channels.
  std::vector<std::size_t> qubits;
  pulse::Schedule schedule;

  static ExecOp from_gate(qc::Op op) {
    ExecOp e;
    e.gate = std::move(op);
    return e;
  }
  static ExecOp from_pulse(std::vector<std::size_t> qubits, pulse::Schedule schedule) {
    ExecOp e;
    e.is_pulse = true;
    e.qubits = std::move(qubits);
    e.schedule = std::move(schedule);
    return e;
  }
};

/// A fully bound, physical program plus the measurement map: measured bit i
/// of the result corresponds to physical qubit measure_qubits[i].
struct Program {
  std::vector<ExecOp> ops;
  std::vector<std::size_t> measure_qubits;
};

}  // namespace hgp::core
