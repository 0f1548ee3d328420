#include "core/vqe.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "linalg/eig.hpp"
#include "optimize/cobyla.hpp"
#include "optimize/gradient.hpp"
#include "optimize/neldermead.hpp"
#include "optimize/spsa.hpp"
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

  std::vector<double> x0(nparams, 0.1);
  opt::OptimizeResult r;
  if (config.optimizer == "cobyla") {
    opt::Cobyla::Options o;
    o.max_evaluations = config.max_evaluations;
    o.cancel = config.cancel;
    r = opt::Cobyla(o).minimize_batch(energy_batch, x0);
  } else if (config.optimizer == "neldermead") {
    opt::NelderMead::Options o;
    o.max_evaluations = config.max_evaluations;
    o.cancel = config.cancel;
    r = opt::NelderMead(o).minimize_batch(energy_batch, x0);
  } else if (config.optimizer == "spsa") {
    opt::Spsa::Options o;
    o.max_iterations = config.max_evaluations / 2;
    o.seed = config.seed;
    o.cancel = config.cancel;
    r = opt::Spsa(o).minimize_batch(energy_batch, x0);
  } else if (config.optimizer == "adam") {
    opt::Adam::Options o;
    o.max_iterations = std::max(1, config.max_evaluations /
                                       (2 * static_cast<int>(nparams) + 1));
    o.cancel = config.cancel;
    r = opt::Adam(o).minimize_batch(energy_batch, x0);
  } else {
    HGP_REQUIRE(false, "run_vqe: unknown optimizer '" + config.optimizer + "'");
  }

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
