#pragma once

#include "linalg/matrix.hpp"
#include "linalg/types.hpp"
#include "pulse/schedule.hpp"
#include "pulsesim/system.hpp"

namespace hgp::psim {

/// Integration scheme. `Exact` treats the Hamiltonian as piecewise constant
/// over each dt sample (exactly how the AWG emits the envelope) and applies
/// the exact matrix exponential per sample; `Rk4` is a classic fixed-step
/// integrator used to cross-validate the propagator in tests.
enum class Integrator { Exact, Rk4 };

/// Time-dependent Schrödinger solver for pulse schedules:
///     dψ/dt = -i 2π H(t) ψ,   H in GHz, t in ns.
///
/// Every entry point is one streaming walk over the schedule on fixed-size
/// storage — 2×2 for a 1-qubit system, 4×4 for a 2-qubit one. The walk
/// indexes the schedule once, builds each step's sampled Hamiltonian in
/// place and folds the step straight into what the caller accumulates: the
/// running product for propagator(), the state for evolve(), every basis
/// column for the RK4 unitary(). No step is stored, and no step allocates
/// (the 4×4 exponential's eigensolver aside). Channels the system does not
/// wire (measure/acquire) are ignored.
class PulseSimulator {
 public:
  /// `sample_stride` > 1 holds the Hamiltonian constant over that many dt
  /// samples per propagator step — a fast path for slowly varying envelopes
  /// (flat-top CR pulses). Left/right staircase errors cancel on symmetric
  /// rise/fall; keep stride = 1 for schedules with frequency ramps.
  explicit PulseSimulator(PulseSystem system, Integrator integrator = Integrator::Exact,
                          int substeps = 1, int sample_stride = 1);

  const PulseSystem& system() const { return system_; }

  /// Evolve ψ0 through a schedule under the configured integrator; returns
  /// the final state.
  la::CVec evolve(const pulse::Schedule& sched, la::CVec psi) const;

  /// Full unitary: the ordered product of the exact step propagators, all
  /// basis columns advanced at once. Requires the Exact integrator (the
  /// executor's block-compilation path).
  la::CMat propagator(const pulse::Schedule& sched) const;
  /// Full unitary under the configured integrator: Exact = propagator();
  /// Rk4 = every basis column integrated through one walk (cross-validation).
  la::CMat unitary(const pulse::Schedule& sched) const;

 private:
  // The walk's two accumulators at fixed width N = dim(): the running
  // product of exact step propagators, and state columns advanced step by
  // step under the configured integrator.
  template <std::size_t N>
  la::CMat product(const pulse::Schedule& sched) const;
  template <std::size_t N>
  la::CMat advance(const pulse::Schedule& sched, la::CMat cols) const;

  PulseSystem system_;
  Integrator integrator_;
  int substeps_;
  int sample_stride_;
};

}  // namespace hgp::psim
