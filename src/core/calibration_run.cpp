#include "core/calibration_run.hpp"

#include "common/error.hpp"

namespace hgp::core {

std::vector<noise::ReadoutError> calibrate_readout(const Executor& executor,
                                                   const std::vector<std::size_t>& phys_qubits,
                                                   std::size_t shots, Rng& rng) {
  HGP_REQUIRE(!phys_qubits.empty(), "calibrate_readout: no qubits");
  HGP_REQUIRE(shots >= 16, "calibrate_readout: too few shots");

  Program zeros;
  zeros.measure_qubits = phys_qubits;
  // The executor needs at least one op to learn the qubit set; an explicit
  // identity-duration barrier is free.
  zeros.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::Barrier, {}, {}}));

  Program ones;
  ones.measure_qubits = phys_qubits;
  for (std::size_t q : phys_qubits)
    ones.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::X, {q}, {}}));

  const sim::Counts c0 = executor.run(zeros, shots, rng);
  const sim::Counts c1 = executor.run(ones, shots, rng);

  std::vector<noise::ReadoutError> out(phys_qubits.size());
  for (std::size_t i = 0; i < phys_qubits.size(); ++i) {
    double ones_in_c0 = 0.0, zeros_in_c1 = 0.0;
    for (const auto& [bits, n] : c0)
      if ((bits >> i) & 1) ones_in_c0 += static_cast<double>(n);
    for (const auto& [bits, n] : c1)
      if (!((bits >> i) & 1)) zeros_in_c1 += static_cast<double>(n);
    // Clamp away from 0.5 so the M3 assignment matrix stays well-posed even
    // under calibration shot noise.
    out[i].p1_given_0 = std::min(0.49, ones_in_c0 / static_cast<double>(shots));
    out[i].p0_given_1 = std::min(0.49, zeros_in_c1 / static_cast<double>(shots));
  }
  return out;
}

}  // namespace hgp::core
