// VQE on the transverse-field Ising chain with the Fig. 2b hardware-
// efficient PQC — the "other VQAs" direction the paper's conclusion points
// the hybrid abstraction layer at.
//
//   build/example_vqe_tfim [n_sites] [layers]
//
// Energies are evaluated on the ideal statevector.
#include <cstdio>
#include <string>

#include "common/table.hpp"
#include "core/qaoa.hpp"
#include "core/vqe.hpp"

int main(int argc, char** argv) {
  using namespace hgp;
  const std::size_t n = argc > 1 ? std::stoul(argv[1]) : 4;
  const int layers = argc > 2 ? std::stoi(argv[2]) : 2;

  const la::PauliSum ham = core::tfim_hamiltonian(n, 1.0, 0.8);
  std::printf("TFIM chain: %zu sites, J = 1.0, h = 0.8, %zu Pauli terms\n\n", n, ham.size());

  Table t({"entanglement", "optimizer", "energy", "exact", "rel. error"});
  for (const char* ent : {"linear", "circular"}) {
    const qc::Circuit ansatz = core::hardware_efficient_pqc(n, layers, ent);
    for (const char* optname : {"cobyla", "neldermead"}) {
      core::VqeConfig cfg;
      cfg.optimizer = optname;
      cfg.max_evaluations = 600;
      const core::VqeResult res = core::run_vqe(ham, ansatz, cfg);
      t.add_row({ent, optname, Table::num(res.energy, 4), Table::num(res.exact_ground, 4),
                 Table::pct(res.relative_error, 2)});
    }
  }
  std::printf("%s\n", t.str().c_str());
  std::printf("(the PQC of paper Fig. 2b: U3 rotation layers + CX entanglement layers)\n");
  return 0;
}
