#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "linalg/pauli.hpp"

namespace hgp::sim {

/// Measurement counts keyed by the basis-state bitmask (bit q = outcome of
/// qubit q). Ordered map so printouts are deterministic.
using Counts = std::map<std::uint64_t, std::size_t>;

/// Render a bitmask as the conventional big-endian bitstring ("q_{n-1}..q_0").
std::string bits_to_string(std::uint64_t bits, std::size_t num_qubits);

/// Multinomial shot sampling from a (possibly un-normalized) probability
/// vector via inverse-CDF draws located through a guide table — the one
/// sampler every backend and the executor's exact-density engine share.
Counts sample_from_probabilities(const std::vector<double>& p, std::size_t shots, Rng& rng);

/// Available state representations.
enum class StateKind {
  Statevector,  ///< pure state, trajectory noise, up to ~26 qubits
  Density,      ///< exact mixed state with Kraus channels, small registers
};

/// Parse "statevector" | "density" (throws on anything else).
StateKind state_kind_from_name(const std::string& name);
const std::string& state_kind_name(StateKind kind);

/// Polymorphic quantum register: the single surface the executor, drivers,
/// and noise channels program against. Concrete backends are `Statevector`
/// (pure states, trajectory noise) and `DensityMatrix` (exact open-system
/// evolution); both keep their richer concrete APIs for callers that need
/// amplitudes or Kraus maps directly.
class QuantumState {
 public:
  virtual ~QuantumState() = default;

  virtual StateKind kind() const = 0;
  virtual std::size_t num_qubits() const = 0;
  /// Back to |0...0>.
  virtual void reset() = 0;
  virtual std::unique_ptr<QuantumState> clone() const = 0;

  /// Apply a dense k-qubit operator to the listed qubits (first listed qubit
  /// = least significant sub-index bit). The operator need not be unitary:
  /// a statevector maps psi -> A psi, a density matrix rho -> A rho A†, so
  /// un-normalized Kraus branches compose with normalize().
  virtual void apply_matrix(const la::CMat& u,
                            const std::vector<std::size_t>& qubits) = 0;

  /// Apply one circuit op (must be bound; Barrier/I/Delay are no-ops;
  /// Measure is rejected — use sample()).
  void apply_op(const qc::Op& op);
  /// Run a whole bound circuit.
  void run(const qc::Circuit& circuit);

  /// Probability of each basis state (diagonal of rho / |amplitude|²).
  virtual std::vector<double> probabilities() const = 0;
  /// Probability that qubit q reads 1.
  virtual double prob_one(std::size_t q) const = 0;
  /// Expectation of a Pauli-sum observable.
  virtual double expectation(const la::PauliSum& obs) const = 0;

  /// Sample `shots` measurement outcomes of all qubits.
  virtual Counts sample(std::size_t shots, Rng& rng) const;
  /// Sample a single outcome without materializing the CDF (the trajectory
  /// engine's per-shot path).
  virtual std::uint64_t sample_one(Rng& rng) const;

  /// Project qubit q onto `outcome` and renormalize; returns the outcome's
  /// pre-measurement probability.
  virtual double collapse(std::size_t q, bool outcome) = 0;
  /// Rescale to unit norm / unit trace after a non-unitary apply_matrix.
  virtual void normalize() = 0;
  /// Apply one (generally non-unitary) Kraus operator and renormalize —
  /// trajectory-noise branch selection. Backends may fuse the two passes.
  virtual void apply_kraus_branch(const la::CMat& k,
                                  const std::vector<std::size_t>& qubits);
};

/// Factory: construct a fresh |0...0> state of the given representation.
std::unique_ptr<QuantumState> make_state(StateKind kind, std::size_t num_qubits);
std::unique_ptr<QuantumState> make_state(const std::string& kind_name,
                                         std::size_t num_qubits);

}  // namespace hgp::sim
