#pragma once

#include <cstdint>

#include "circuit/circuit.hpp"
#include "graph/graph.hpp"
#include "linalg/pauli.hpp"
#include "sim/state.hpp"

namespace hgp::core {

/// Max-Cut cost Hamiltonian H_P = Σ_(u,v) w/2 (I - Z_u Z_v): its expectation
/// is the expected cut value; its ground-space maximizes the cut.
la::PauliSum maxcut_hamiltonian(const graph::Graph& g);

/// Expected cut value over measured bitstrings.
double cut_expectation(const graph::Graph& g, const sim::Counts& counts);

/// Approximation ratio α = C*/C_max (paper §II).
double approximation_ratio(double cut_value, double max_cut);

/// Gate-level QAOA ansatz (paper Fig. 2e): |+>^n, then p layers of the
/// problem layer Π RZZ(-w γ_l) and the mixer layer Π RX(2 β_l). Parameter
/// vector layout: [γ_1, β_1, γ_2, β_2, ...].
qc::Circuit qaoa_circuit(const graph::Graph& g, int p);

/// Index helpers for the QAOA parameter layout.
inline int gamma_index(int layer) { return 2 * layer; }
inline int beta_index(int layer) { return 2 * layer + 1; }

/// Noiseless QAOA cut expectation at given angles (no shots), on the ideal
/// statevector: used by tests and for locating good initial angles.
double ideal_qaoa_expectation(const graph::Graph& g, int p, const std::vector<double>& theta);

/// Hardware-efficient PQC of Fig. 2b: per-layer U3 rotations plus a CX
/// entanglement layer ("linear", "circular", or "full"). Provided for the
/// general-VQA examples; parameters are θ[3*q + 3*n*layer + component].
qc::Circuit hardware_efficient_pqc(std::size_t num_qubits, int layers,
                                   const std::string& entanglement);

}  // namespace hgp::core
