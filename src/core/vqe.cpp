#include "core/vqe.hpp"

#include "common/error.hpp"
#include "linalg/eig.hpp"
#include "sim/statevector.hpp"

namespace hgp::core {

la::PauliSum tfim_hamiltonian(std::size_t n, double j, double h, bool periodic) {
  HGP_REQUIRE(n >= 2, "tfim_hamiltonian: need at least 2 sites");
  la::PauliSum ham(n);
  const std::size_t bonds = periodic ? n : n - 1;
  for (std::size_t i = 0; i < bonds; ++i) {
    std::vector<la::Pauli> zz(n, la::Pauli::I);
    zz[i] = la::Pauli::Z;
    zz[(i + 1) % n] = la::Pauli::Z;
    ham.add(-j, la::PauliString(zz));
  }
  for (std::size_t i = 0; i < n; ++i)
    ham.add(-h, la::PauliString::single(n, i, la::Pauli::X));
  return ham;
}

VqeResult run_vqe(const la::PauliSum& hamiltonian, const qc::Circuit& ansatz,
                  const VqeConfig& config, opt::BatchDispatcher* dispatcher) {
  HGP_REQUIRE(hamiltonian.num_qubits() == ansatz.num_qubits(),
              "run_vqe: Hamiltonian/ansatz width mismatch");
  const std::size_t nparams = ansatz.num_parameters();
  HGP_REQUIRE(nparams >= 1, "run_vqe: ansatz has no parameters");

  const opt::Objective energy = [&](const std::vector<double>& theta) {
    sim::Statevector sv(ansatz.num_qubits());
    sv.run(ansatz.bound(theta));
    return sv.expectation(hamiltonian);
  };
  // Energy evaluations are deterministic and independent: a batch can fan
  // out across workers with no RNG bookkeeping at all.
  const opt::BatchObjective energy_batch = [&](const std::vector<std::vector<double>>& xs) {
    return opt::parallel_map(dispatcher, xs.size(),
                             [&](std::size_t i) { return energy(xs[i]); });
  };

  opt::OptimizeResult r =
      opt::minimize(config.optimizer, energy_batch, std::vector<double>(nparams, 0.1), {},
                    config.max_evaluations, config.seed, config.cancel.get());

  VqeResult out;
  out.energy = r.value;
  const la::EigResult eg = la::eigh(hamiltonian.matrix());
  out.exact_ground = eg.values.front();
  const double width = eg.values.back() - eg.values.front();
  out.relative_error = width > 0 ? (out.energy - out.exact_ground) / width : 0.0;
  out.optimizer = std::move(r);
  return out;
}

}  // namespace hgp::core
