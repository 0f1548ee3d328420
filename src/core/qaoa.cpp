#include "core/qaoa.hpp"

#include "common/error.hpp"
#include "sim/statevector.hpp"

namespace hgp::core {

la::PauliSum maxcut_hamiltonian(const graph::Graph& g) {
  la::PauliSum h(g.num_vertices());
  for (const graph::Edge& e : g.edges()) {
    h.add(e.weight / 2.0, la::PauliString::identity(g.num_vertices()));
    std::vector<la::Pauli> zz(g.num_vertices(), la::Pauli::I);
    zz[e.u] = la::Pauli::Z;
    zz[e.v] = la::Pauli::Z;
    h.add(-e.weight / 2.0, la::PauliString(zz));
  }
  return h;
}

double cut_expectation(const graph::Graph& g, const sim::Counts& counts) {
  double total = 0.0, shots = 0.0;
  for (const auto& [bits, n] : counts) {
    total += g.cut_value(bits) * static_cast<double>(n);
    shots += static_cast<double>(n);
  }
  HGP_REQUIRE(shots > 0.0, "cut_expectation: empty counts");
  return total / shots;
}

double approximation_ratio(double cut_value, double max_cut) {
  HGP_REQUIRE(max_cut > 0.0, "approximation_ratio: max_cut must be positive");
  return cut_value / max_cut;
}

qc::Circuit qaoa_circuit(const graph::Graph& g, int p) {
  HGP_REQUIRE(p >= 1, "qaoa_circuit: need p >= 1");
  qc::Circuit c(g.num_vertices());
  for (std::size_t q = 0; q < g.num_vertices(); ++q) c.h(q);
  for (int l = 0; l < p; ++l) {
    c.barrier();
    for (const graph::Edge& e : g.edges())
      c.rzz(e.u, e.v, qc::Param::symbol(gamma_index(l), -e.weight));
    c.barrier();
    for (std::size_t q = 0; q < g.num_vertices(); ++q)
      c.rx(q, qc::Param::symbol(beta_index(l), 2.0));
  }
  return c;
}

double ideal_qaoa_expectation(const graph::Graph& g, int p, const std::vector<double>& theta) {
  sim::Statevector sv(g.num_vertices());
  sv.run(qaoa_circuit(g, p).bound(theta));
  return sv.expectation(maxcut_hamiltonian(g));
}

qc::Circuit hardware_efficient_pqc(std::size_t num_qubits, int layers,
                                   const std::string& entanglement) {
  HGP_REQUIRE(layers >= 1, "hardware_efficient_pqc: need layers >= 1");
  qc::Circuit c(num_qubits);
  int param = 0;
  for (int l = 0; l < layers; ++l) {
    for (std::size_t q = 0; q < num_qubits; ++q) {
      c.u3(q, qc::Param::symbol(param), qc::Param::symbol(param + 1),
           qc::Param::symbol(param + 2));
      param += 3;
    }
    if (num_qubits < 2) continue;
    if (entanglement == "linear") {
      for (std::size_t q = 0; q + 1 < num_qubits; ++q) c.cx(q, q + 1);
    } else if (entanglement == "circular") {
      for (std::size_t q = 0; q + 1 < num_qubits; ++q) c.cx(q, q + 1);
      c.cx(num_qubits - 1, 0);
    } else if (entanglement == "full") {
      for (std::size_t a = 0; a < num_qubits; ++a)
        for (std::size_t b = a + 1; b < num_qubits; ++b) c.cx(a, b);
    } else {
      HGP_REQUIRE(false, "hardware_efficient_pqc: unknown entanglement '" + entanglement + "'");
    }
  }
  return c;
}

}  // namespace hgp::core
