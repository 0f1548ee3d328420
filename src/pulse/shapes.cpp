#include "pulse/shapes.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"

namespace hgp::pulse {

using la::cxd;

namespace {
void check_common(int duration, double amp, double sigma) {
  HGP_REQUIRE(duration > 0, "PulseShape: non-positive duration");
  HGP_REQUIRE(std::abs(amp) <= 1.0 + 1e-9, "PulseShape: |amp| must be <= 1");
  HGP_REQUIRE(sigma > 0.0, "PulseShape: sigma must be positive");
}

/// Lifted Gaussian g(t) with center c and width s: rescaled so that
/// g(-1) = g(duration) = 0 and the peak stays at 1.
double lifted_gaussian(double t, double c, double s, double edge) {
  const double g = std::exp(-0.5 * (t - c) * (t - c) / (s * s));
  const double g0 = std::exp(-0.5 * (edge - c) * (edge - c) / (s * s));
  return (g - g0) / (1.0 - g0);
}
}  // namespace

PulseShape PulseShape::gaussian(int duration, double amp, double sigma, double angle) {
  check_common(duration, amp, sigma);
  PulseShape p;
  p.kind_ = ShapeKind::Gaussian;
  p.duration_ = duration;
  p.amp_ = amp;
  p.sigma_ = sigma;
  p.angle_ = angle;
  return p;
}

PulseShape PulseShape::gaussian_square(int duration, double amp, double sigma, double width,
                                       double angle) {
  check_common(duration, amp, sigma);
  HGP_REQUIRE(width >= 0.0 && width <= duration, "PulseShape: bad flat-top width");
  PulseShape p;
  p.kind_ = ShapeKind::GaussianSquare;
  p.duration_ = duration;
  p.amp_ = amp;
  p.sigma_ = sigma;
  p.width_ = width;
  p.angle_ = angle;
  return p;
}

PulseShape PulseShape::drag(int duration, double amp, double sigma, double beta, double angle) {
  check_common(duration, amp, sigma);
  PulseShape p;
  p.kind_ = ShapeKind::Drag;
  p.duration_ = duration;
  p.amp_ = amp;
  p.sigma_ = sigma;
  p.beta_ = beta;
  p.angle_ = angle;
  return p;
}

PulseShape PulseShape::constant(int duration, double amp, double angle) {
  HGP_REQUIRE(duration > 0, "PulseShape: non-positive duration");
  HGP_REQUIRE(std::abs(amp) <= 1.0 + 1e-9, "PulseShape: |amp| must be <= 1");
  PulseShape p;
  p.kind_ = ShapeKind::Constant;
  p.duration_ = duration;
  p.amp_ = amp;
  p.angle_ = angle;
  return p;
}

cxd PulseShape::sample(int t) const {
  if (t < 0 || t >= duration_) return cxd{0.0, 0.0};
  const cxd rot = std::polar(1.0, angle_);
  switch (kind_) {
    case ShapeKind::Constant:
      return amp_ * rot;
    case ShapeKind::Gaussian: {
      const double c = 0.5 * (duration_ - 1);
      return amp_ * lifted_gaussian(t, c, sigma_, -1.0) * rot;
    }
    case ShapeKind::Drag: {
      const double c = 0.5 * (duration_ - 1);
      const double g = lifted_gaussian(t, c, sigma_, -1.0);
      // DRAG quadrature: beta * dg/dt (derivative of the unlifted Gaussian).
      const double dg = -(t - c) / (sigma_ * sigma_) *
                        std::exp(-0.5 * (t - c) * (t - c) / (sigma_ * sigma_));
      return amp_ * (g + cxd{0.0, 1.0} * beta_ * dg) * rot;
    }
    case ShapeKind::GaussianSquare: {
      const double rise = 0.5 * (duration_ - width_);
      double v = 0.0;
      if (t < rise) {
        v = lifted_gaussian(t, rise, sigma_, -1.0);
      } else if (t < rise + width_) {
        v = 1.0;
      } else {
        v = lifted_gaussian(t, rise + width_, sigma_, static_cast<double>(duration_));
      }
      return amp_ * v * rot;
    }
  }
  return cxd{0.0, 0.0};
}

std::vector<cxd> PulseShape::samples() const {
  std::vector<cxd> out(static_cast<std::size_t>(duration_));
  for (int t = 0; t < duration_; ++t) out[static_cast<std::size_t>(t)] = sample(t);
  return out;
}

double PulseShape::area_ns() const {
  cxd s{0.0, 0.0};
  for (int t = 0; t < duration_; ++t) s += sample(t);
  return std::abs(s) * kDtNs;
}

PulseShape PulseShape::with_amp(double amp) const {
  PulseShape p = *this;
  HGP_REQUIRE(std::abs(amp) <= 1.0 + 1e-9, "with_amp: |amp| must be <= 1");
  p.amp_ = amp;
  return p;
}

PulseShape PulseShape::with_angle(double angle) const {
  PulseShape p = *this;
  p.angle_ = angle;
  return p;
}

PulseShape PulseShape::with_duration(int duration) const {
  HGP_REQUIRE(duration > 0, "with_duration: non-positive duration");
  PulseShape p = *this;
  const double ratio = static_cast<double>(duration) / duration_;
  p.duration_ = duration;
  p.sigma_ = sigma_ * ratio;
  p.width_ = width_ * ratio;
  return p;
}

std::string PulseShape::key_str() const {
  // One hexfloat ("%a") field per parameter: bitwise-exact round trip, so a
  // fingerprint built from this never merges distinct envelopes.
  char buf[160];
  std::snprintf(buf, sizeof(buf), "k%d,d%d,%a,%a,%a,%a,%a", static_cast<int>(kind_),
                duration_, amp_, sigma_, width_, beta_, angle_);
  return buf;
}

std::string PulseShape::str() const {
  static const char* names[] = {"Gaussian", "GaussianSquare", "Drag", "Constant"};
  std::ostringstream os;
  os << names[static_cast<int>(kind_)] << "(dur=" << duration_ << "dt, amp=" << amp_;
  if (kind_ != ShapeKind::Constant) os << ", sigma=" << sigma_;
  if (kind_ == ShapeKind::GaussianSquare) os << ", width=" << width_;
  if (kind_ == ShapeKind::Drag) os << ", beta=" << beta_;
  if (angle_ != 0.0) os << ", angle=" << angle_;
  os << ")";
  return os.str();
}

}  // namespace hgp::pulse
