#pragma once

#include <memory>
#include <string>

#include "circuit/circuit.hpp"
#include "linalg/pauli.hpp"
#include "optimize/batch.hpp"
#include "optimize/optimizer.hpp"

namespace hgp::core {

/// Generic VQE driver over an arbitrary Pauli-sum Hamiltonian and a
/// parameterized circuit — the "other VQAs" the paper's conclusion points
/// the hybrid abstraction at. Runs on the ideal statevector (chemistry-style
/// energy minimization); the QAOA machinery in workflow.hpp is the noisy,
/// machine-in-loop path.
struct VqeConfig {
  int max_evaluations = 300;
  /// One of opt::minimize's names: "cobyla" | "neldermead" | "spsa".
  std::string optimizer = "cobyla";
  /// SPSA's perturbation stream; the other optimizers draw nothing.
  std::uint64_t seed = 5;
  /// Cooperative cancellation, polled by opt::minimize before every
  /// optimizer batch: a fired token makes the run return the record of the
  /// completed batches — the best energy among them — with
  /// optimizer.stopped_early set. Null = never cancelled.
  std::shared_ptr<const CancelToken> cancel;
};

struct VqeResult {
  double energy = 0.0;
  double exact_ground = 0.0;  // from dense diagonalization (small systems)
  /// energy error relative to the spectral width.
  double relative_error = 0.0;
  opt::OptimizeResult optimizer;
};

/// Minimize <ansatz(θ)| H |ansatz(θ)>. The ansatz's symbolic parameters are
/// the optimization variables (initialized at 0.1 each). Energy evaluations
/// are deterministic, so independent optimizer candidates fan out through
/// `dispatcher` (e.g. a serve::EvalService) with results identical to the
/// inline path.
VqeResult run_vqe(const la::PauliSum& hamiltonian, const qc::Circuit& ansatz,
                  const VqeConfig& config = {},
                  opt::BatchDispatcher* dispatcher = nullptr);

/// Transverse-field Ising chain H = -J Σ Z_i Z_{i+1} - h Σ X_i, the standard
/// VQE testbed.
la::PauliSum tfim_hamiltonian(std::size_t n, double j, double h, bool periodic = false);

}  // namespace hgp::core
