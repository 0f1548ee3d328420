#pragma once

#include <string>
#include <vector>

#include "linalg/types.hpp"

namespace hgp::pulse {

/// Hardware timing: IBM backends sample output channels every dt = 2/9 ns.
inline constexpr double kDtNs = 2.0 / 9.0;
/// qiskit-pulse restriction: Gaussian waveform durations are multiples of 32.
inline constexpr int kDurationGranularity = 32;

enum class ShapeKind { Gaussian, GaussianSquare, Drag, Constant };

/// A parametric pulse envelope, sampled at dt resolution. Amplitudes follow
/// the hardware convention |amp| <= 1 (fraction of max channel output);
/// `angle` rotates the envelope in the IQ plane. Gaussian-family envelopes
/// are "lifted" (zero at the sample just outside the pulse) like qiskit's.
class PulseShape {
 public:
  static PulseShape gaussian(int duration, double amp, double sigma, double angle = 0.0);
  static PulseShape gaussian_square(int duration, double amp, double sigma, double width,
                                    double angle = 0.0);
  static PulseShape drag(int duration, double amp, double sigma, double beta,
                         double angle = 0.0);
  static PulseShape constant(int duration, double amp, double angle = 0.0);

  ShapeKind kind() const { return kind_; }
  /// Length in dt samples.
  int duration() const { return duration_; }
  double amp() const { return amp_; }
  double sigma() const { return sigma_; }
  double width() const { return width_; }
  double beta() const { return beta_; }
  double angle() const { return angle_; }

  /// Complex envelope value at sample t in [0, duration).
  la::cxd sample(int t) const;
  std::vector<la::cxd> samples() const;
  /// Integral of the unit-angle envelope in ns: |Σ_t sample(t)| * dt. The
  /// analytic gate calibrations use area ∝ rotation angle.
  double area_ns() const;

  /// Same shape with a different amplitude/angle (used by parametric pulse
  /// binding and by the echo's sign flip).
  PulseShape with_amp(double amp) const;
  PulseShape with_angle(double angle) const;
  /// Same shape family rescaled to a new duration (sigma/width scaled
  /// proportionally) — the knob turned by the Step-I duration search.
  PulseShape with_duration(int duration) const;

  std::string str() const;
  /// Exact key rendering for cache fingerprints: unlike str(), which uses
  /// the default 6-significant-digit ostream formatting for display, every
  /// parameter is hexfloat-formatted (lossless), so nearby amplitudes or
  /// angles can never collide on one cache slot.
  std::string key_str() const;

 private:
  ShapeKind kind_ = ShapeKind::Constant;
  int duration_ = 0;
  double amp_ = 0.0;
  double sigma_ = 1.0;
  double width_ = 0.0;  // flat-top width for GaussianSquare
  double beta_ = 0.0;   // DRAG coefficient
  double angle_ = 0.0;
};

}  // namespace hgp::pulse
