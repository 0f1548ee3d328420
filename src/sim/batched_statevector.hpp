#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/types.hpp"

namespace hgp::sim {

/// B statevector trajectories evolved in lockstep: a structure-of-lanes
/// layout with separate real/imaginary planes, `re_[i * lanes + l]` holding
/// the real part of basis index i in lane l. Gates run through two kernel
/// bodies:
///  - the lane-vectorized body (diagonal, anti-diagonal, permutation, dense
///    1q/2q/3q, generic k) loops over the contiguous lane dimension, so a
///    single core auto-vectorizes the inner loop instead of re-dispatching
///    per shot. Its matrix entries come from one of two sources: a scalar
///    broadcast to every lane (apply_matrix) or one value per lane
///    (apply_matrix_per_lane);
///  - the scalar body (sim/kernel_structure.hpp, shared with `Statevector`)
///    runs on a single strided lane (apply_matrix_one_lane).
///
/// Determinism contract: the lane-vectorized body spells out the scalar
/// body's complex arithmetic expression-for-expression (same products, same
/// association, same structure dispatch) and the build disables FP
/// contraction, so a lane's amplitudes stay bit-identical (up to the sign of
/// zeros) to the scalar body evolving one register through the same
/// operations — which is what keeps the executor's counts bit-identical for
/// every lane count, one lane included.
class BatchedStatevector {
 public:
  BatchedStatevector(std::size_t num_qubits, std::size_t lanes);

  std::size_t num_qubits() const { return num_qubits_; }
  /// Basis dimension 2^n.
  std::size_t dim() const { return dim_; }
  std::size_t lanes() const { return lanes_; }

  /// Every lane back to |0...0>.
  void reset();

  la::cxd amplitude(std::uint64_t i, std::size_t lane) const;
  void set_amplitude(std::uint64_t i, std::size_t lane, la::cxd a);
  /// The planes themselves (row i of lane l at [i * lanes() + l]), for the
  /// density-matrix sweeps that pair a basis bit with a lane bit.
  double* re_plane() { return re_.data(); }
  double* im_plane() { return im_.data(); }

  // ---- broadcast operations (same operator, every lane) ----

  /// Apply a dense k-qubit operator to every lane (first listed qubit =
  /// least significant sub-index bit, as in Statevector::apply_matrix).
  void apply_matrix(const la::CMat& u, const std::vector<std::size_t>& qubits);

  /// Multiply the |1>-subspace of qubit q by `ratio` in every lane — the
  /// half-pass virtual-Z / frame-drift kernel (diag(1, ratio) up to global
  /// phase). No-op when ratio == 1.
  void apply_phase_ratio(std::size_t q, la::cxd ratio);

  // ---- per-lane plumbing for the trajectory noise kernels ----

  /// m1[l] = unnormalized |1>-mass of qubit q in lane l (accumulated in
  /// ascending basis-index order, like the scalar kernel).
  void masses_one(std::size_t q, double* m1) const;

  /// Fused mass measurement + per-lane damping of qubit q's |1> amplitudes:
  /// m1[l] accumulates each lane's pre-damp |1> mass while the amplitudes
  /// are scaled by scale1[l] — the no-jump fast path of thermal relaxation
  /// (scale1 folds the dephasing sign flip when it fired).
  void fused_mass_damp(std::size_t q, const double* scale1, double* m1);

  /// Per-lane amplitude-damping branch on qubit q: lanes with take[l] == 1.0
  /// jump (|1> amplitudes move to |0>, |1> zeroed — scale1[l] must be 0),
  /// lanes with take[l] == 0.0 keep |0> and scale |1> by scale1[l].
  void damp_or_jump(std::size_t q, const double* take, const double* scale1);

  /// Grouped Pauli pass of the depolarizing channel: codes[l] in {0=I, 1=X,
  /// 2=Y, 3=Z} selects the Pauli applied to lane l on qubit q (code 0 leaves
  /// the lane untouched). One pair-base sweep replaces up to lanes() strided
  /// apply_matrix_one_lane calls when several lanes drew a charge at once;
  /// the per-lane arithmetic is the literal complex product with the 0 / ±1
  /// Pauli entries, so each lane is bitwise what apply_matrix_one_lane with
  /// the same Pauli would produce.
  void apply_pauli_lanes(std::size_t q, const std::uint8_t* codes);

  // ---- per-lane operators (candidate-lane batching) ----

  /// Apply a *different* operator per lane in one pass — the parameterized
  /// blocks of a candidate-lane batch, where every lane shares the circuit
  /// structure but carries its own rotation angle. *us[l] acts on lane l
  /// (us.size() == lanes()). When every lane is diagonal, every lane
  /// anti-diagonal, or every lane dense (1-3 qubits), the lane-vectorized
  /// body runs with per-lane coefficient rows; permutations, wider operators
  /// and mixed classes fall back to apply_matrix_one_lane per lane. Either
  /// way lane l ends up bitwise identical (up to zero signs) to a scalar
  /// Statevector::apply_matrix(*us[l], qubits).
  void apply_matrix_per_lane(const std::vector<const la::CMat*>& us,
                             const std::vector<std::size_t>& qubits);

  /// Apply a k-qubit operator to one lane only (strided) through the scalar
  /// body `Statevector::apply_matrix` runs — the mixed-structure fallback of
  /// apply_matrix_per_lane and the lone-lane Pauli jump of the trajectory
  /// engine.
  void apply_matrix_one_lane(const la::CMat& u, const std::vector<std::size_t>& qubits,
                             std::size_t lane);

  // ---- lane-native objective reductions (no terminal sampling) ----

  /// One lane-major sweep over the [basis][lane] planes: num[l] +=
  /// values[i] * p and den[l] += p in ascending basis order, with p = re^2 +
  /// im^2 — the sampling-free expectation pass (values indexed by the local
  /// basis index). States may be unnormalized (trajectory lanes carry their
  /// squared norm); num[l] / den[l] is lane l's normalized expectation.
  void weighted_masses(const double* values, double* num, double* den) const;

  /// Mapped probability accumulation for the CVaR tail pass: for every basis
  /// index i (ascending), out[map[i] * lanes + l] += p. The caller zeroes
  /// `out` (num_mapped x lanes entries) and owns any normalization.
  void accumulate_mapped(const std::uint32_t* map, double* out) const;

  // ---- terminal sampling ----

  /// One probability pass for all lanes: out[l] = first basis index i with
  /// x[l] < sum_{j<=i} |amp_j(l)|^2 (fall-through to dim()-1), one
  /// accumulate-and-compare scan per lane. Lanes with active[l] == 0 are skipped
  /// (their out entry is left untouched); pass active == nullptr for all.
  void sample_lanes(const double* x, const std::uint8_t* active,
                    std::uint64_t* out) const;

  /// Shared-state sampling for lanes that took no stochastic branch (their
  /// amplitudes are bitwise identical): `draws` is (x, lane) sorted
  /// ascending by x; one accumulate pass over ref_lane emits every outcome.
  void sample_sorted(std::size_t ref_lane,
                     const std::pair<double, std::size_t>* draws, std::size_t count,
                     std::uint64_t* out) const;

 private:
  std::size_t num_qubits_ = 0;
  std::size_t dim_ = 0;
  std::size_t lanes_ = 0;
  std::vector<double> re_, im_;
  // Gather scratch of the 2q/3q kernels (8 rows x lanes) and sampling scratch,
  // allocated once so the hot loop never touches the allocator. Instances
  // are used from one thread at a time (the engine keeps one per worker), so
  // mutable scratch in const sampling methods is safe.
  std::vector<double> scratch_re_, scratch_im_;
  mutable std::vector<double> acc_;
  mutable std::vector<std::uint8_t> done_;
};

}  // namespace hgp::sim
