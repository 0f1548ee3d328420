#include "sim/state.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "sim/statevector.hpp"

namespace hgp::sim {

std::string bits_to_string(std::uint64_t bits, std::size_t num_qubits) {
  std::string s(num_qubits, '0');
  for (std::size_t q = 0; q < num_qubits; ++q)
    if ((bits >> q) & 1) s[num_qubits - 1 - q] = '1';
  return s;
}

Counts sample_from_probabilities(const std::vector<double>& p, std::size_t shots,
                                 Rng& rng) {
  HGP_REQUIRE(!p.empty(), "sample_from_probabilities: empty distribution");
  if (shots == 0) return {};
  // Each draw x = u * total lands on the first index whose running sum is
  // >= x, and on the last index when rounding leaves it above every sum.
  // The draws are made one per shot in shot order, so the Rng stream is
  // consumed exactly as before.
  const std::size_t n = p.size();
  std::vector<double> cum(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += p[i];
    cum[i] = total;
  }
  auto scan = [&](std::size_t j, double x) {
    while (j + 1 < n && cum[j] < x) ++j;
    return j;
  };
  // Guide table: n equal-width buckets over [0, total). first[k] is the
  // first index whose running sum reaches the bucket's lower bound lo[k];
  // no draw >= lo[k] can land before it, even when tiny negative entries
  // make the running sums non-monotone. A draw steps its bucket down until
  // lo[k] <= x (the computed bucket can be one too high after rounding),
  // then scans forward from first[k]. lo[0] is -inf, so the step stops
  // there. When total is not positive and finite (all zeros, cancelling
  // entries) no bucket index exists: one bucket, scanned from the start.
  const double scale = static_cast<double>(n) / total;
  const bool guided = total > 0.0 && std::isfinite(total) && std::isfinite(scale);
  const std::size_t buckets = guided ? n : 1;
  std::vector<double> lo(buckets);
  std::vector<std::size_t> first(buckets);
  for (std::size_t k = 0, j = 0; k < buckets; ++k) {
    lo[k] = k == 0 ? -HUGE_VAL : static_cast<double>(k) * (total / static_cast<double>(n));
    first[k] = j = scan(j, lo[k]);
  }
  std::vector<std::size_t> hist(n, 0);
  for (std::size_t s = 0; s < shots; ++s) {
    const double x = rng.uniform() * total;
    std::size_t k = guided ? std::min(n - 1, static_cast<std::size_t>(x * scale)) : 0;
    while (lo[k] > x) --k;
    ++hist[scan(first[k], x)];
  }
  Counts counts;
  for (std::size_t i = 0; i < n; ++i)
    if (hist[i] != 0) counts.emplace_hint(counts.end(), i, hist[i]);
  return counts;
}

template <typename State>
void CircuitState<State>::apply_op(const qc::Op& op) {
  if (op.kind == qc::GateKind::Barrier || op.kind == qc::GateKind::I ||
      op.kind == qc::GateKind::Delay)
    return;
  HGP_REQUIRE(op.kind != qc::GateKind::Measure, "apply_op: use sample() for measurement");
  static_cast<State&>(*this).apply_matrix(qc::gate_matrix(op.kind, op.constant_params()),
                                          op.qubits);
}

template <typename State>
void CircuitState<State>::run(const qc::Circuit& circuit) {
  HGP_REQUIRE(circuit.num_qubits() == static_cast<const State&>(*this).num_qubits(),
              "run: width mismatch");
  for (const qc::Op& op : circuit.ops()) apply_op(op);
}

template <typename State>
Counts CircuitState<State>::sample(std::size_t shots, Rng& rng) const {
  return sample_from_probabilities(static_cast<const State&>(*this).probabilities(), shots, rng);
}

template class CircuitState<Statevector>;

}  // namespace hgp::sim
