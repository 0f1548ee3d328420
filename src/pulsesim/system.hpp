#pragma once

#include <vector>

#include "linalg/matrix.hpp"
#include "pulse/channels.hpp"

namespace hgp::psim {

/// Drivable channel: contributes 2π·[Re(s̃(t))·x_quad + Im(s̃(t))·y_quad] to
/// the Hamiltonian, where s̃ is the played envelope adjusted by the channel's
/// frame phase/frequency. Coefficients are in GHz; time is in ns.
struct ChannelOperator {
  pulse::Channel channel;
  la::CMat x_quad;
  la::CMat y_quad;
  /// Quadratic (AC-Stark) term, driven by |s̃(t)|²: phase-independent by
  /// construction, which is what makes virtual-Z frame changes exact. Empty
  /// when the channel has no quadratic response.
  la::CMat sq_quad;
  /// Multiplicative output error of the channel electronics: the hardware
  /// emits gain * requested envelope. 1.0 when perfectly calibrated; the
  /// noise model perturbs it (coherent amplitude miscalibration).
  double gain = 1.0;
};

/// The time-dependent system a pulse schedule drives:
///
///   H(t)/2π = H0 + Σ_c [Re(s̃_c(t)) X_c + Im(s̃_c(t)) Y_c]      (GHz)
///
/// H0 carries qubit detunings (rotating frame of each qubit's calibrated
/// drive frequency), static ZZ crosstalk, and optional exchange coupling.
/// Control channels use the standard effective cross-resonance operators
/// (ZX / IX / ZI terms), the textbook model for echoed-CR gates on IBM
/// hardware.
class PulseSystem {
 public:
  /// One or two qubits — the widths the simulator's fixed-size walk covers
  /// and every gate or pulse block spans; wider systems throw hgp::Error.
  explicit PulseSystem(std::size_t num_qubits);

  std::size_t num_qubits() const { return num_qubits_; }
  std::size_t dim() const { return std::size_t{1} << num_qubits_; }
  const la::CMat& static_hamiltonian() const { return h0_; }
  const std::vector<ChannelOperator>& channels() const { return channels_; }

  /// Find the operator for a channel; nullptr when the channel is not wired
  /// (e.g. measure channels, which the unitary solver ignores).
  const ChannelOperator* find_channel(const pulse::Channel& c) const;

  /// Detuning δ_q (GHz): adds δ/2 · Z_q to H0. Nonzero when the hardware's
  /// true qubit frequency drifted from the calibrated frame.
  void set_detuning(std::size_t q, double delta_ghz);
  /// Static ZZ crosstalk ζ (GHz): adds ζ/4 · Z_a Z_b.
  void add_zz_crosstalk(std::size_t a, std::size_t b, double zeta_ghz);
  /// Exchange coupling J (GHz): adds J/2 (X_a X_b + Y_a Y_b). Used by the
  /// physics tests; backends express two-qubit drive via CR channels instead.
  void add_exchange(std::size_t a, std::size_t b, double j_ghz);

  /// Wire DriveChannel(q) with rate r (GHz): X_quad = r/2 X_q.
  void add_drive(std::size_t q, double rate_ghz);
  /// Wire ControlChannel(u) for directed pair (control, target) with
  /// effective CR coefficients (GHz). ZX and IX respond linearly to the
  /// drive; ZI is the control's AC-Stark shift, quadratic in |drive| (and
  /// hence immune to the echo's sign flip — corrected by virtual RZ, as on
  /// hardware).
  void add_cr(std::size_t u, std::size_t control, std::size_t target, double mu_zx_ghz,
              double mu_ix_ghz, double mu_zi_ghz);

  /// Set the output gain of an already-wired channel.
  void set_gain(const pulse::Channel& c, double gain);

 private:
  std::size_t num_qubits_;
  la::CMat h0_;
  std::vector<ChannelOperator> channels_;
};

}  // namespace hgp::psim
