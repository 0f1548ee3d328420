#include "pulsesim/simulator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "linalg/expm.hpp"

namespace hgp::psim {

using la::cxd;
using la::CMat;
using la::CVec;

namespace {

/// The walk's fixed-size storage: an N×N row-major operator and an
/// N-amplitude column, N = 2 (one qubit) or 4 (two qubits).
template <std::size_t N>
using Mat = std::array<cxd, N * N>;
template <std::size_t N>
using Vec = std::array<cxd, N>;

/// a·b through la::Cx: std::complex's product for finite operands, without
/// its __muldc3 call site. Products with a real scalar stay std::complex's
/// elementwise ones.
cxd mul(cxd a, cxd b) {
  const la::Cx p = la::to_cx(a) * la::to_cx(b);
  return {p.r, p.i};
}

/// Integration span of `samples` dt samples: 2π · dt · samples.
double span_tau(int samples) { return 2.0 * la::kPi * pulse::kDtNs * samples; }

/// Per-channel frame: total phase at time t_ns is
/// phase + 2π·freq·(t_ns - ref_time_ns).
struct Frame {
  double phase = 0.0;
  double freq_ghz = 0.0;
  double ref_time_ns = 0.0;

  double phase_at(double t_ns) const {
    return phase + 2.0 * la::kPi * freq_ghz * (t_ns - ref_time_ns);
  }
  void rebase(double t_ns) {
    phase = phase_at(t_ns);
    ref_time_ns = t_ns;
  }
};

struct ActivePlay {
  int t0 = 0;
  const pulse::PulseShape* shape = nullptr;
};

/// One wired channel that plays in the schedule: its operators, its plays
/// in time order, and its frame.
struct Lane {
  const ChannelOperator* op = nullptr;
  std::vector<ActivePlay> plays;
  std::size_t cursor = 0;
  Frame frame;
  bool framed = false;  // a frame instruction has reached the channel

  /// The play covering sample t (samples only move forward), or nullptr.
  const ActivePlay* active(int t) {
    while (cursor < plays.size() && plays[cursor].t0 + plays[cursor].shape->duration() <= t)
      ++cursor;
    if (cursor >= plays.size() || plays[cursor].t0 > t) return nullptr;
    return &plays[cursor];
  }
};

struct FrameEvent {
  int t0 = 0;
  Lane* lane = nullptr;
  const pulse::Instruction* inst = nullptr;

  void apply() const {
    Frame& f = lane->frame;
    lane->framed = true;
    const double t_ns = t0 * pulse::kDtNs;
    if (const auto* sp = std::get_if<pulse::ShiftPhase>(inst)) {
      f.phase += sp->phase;
    } else if (const auto* stp = std::get_if<pulse::SetPhase>(inst)) {
      f.rebase(t_ns);
      f.phase = stp->phase;
    } else if (const auto* sf = std::get_if<pulse::ShiftFrequency>(inst)) {
      f.rebase(t_ns);
      f.freq_ghz += sf->freq_ghz;
    } else if (const auto* stf = std::get_if<pulse::SetFrequency>(inst)) {
      f.rebase(t_ns);
      f.freq_ghz = stf->freq_ghz;
    }
  }
};

bool is_frame_instruction(const pulse::Instruction& inst) {
  return std::holds_alternative<pulse::ShiftPhase>(inst) ||
         std::holds_alternative<pulse::SetPhase>(inst) ||
         std::holds_alternative<pulse::ShiftFrequency>(inst) ||
         std::holds_alternative<pulse::SetFrequency>(inst);
}

/// h += x·Re(s) + y·Im(s), then h += sq·|s|² — each coefficient is the
/// complex (c, 0), multiplied in full as the CMat scaling it replaces did.
template <std::size_t N>
void add_drive(Mat<N>& h, const ChannelOperator& op, cxd s) {
  const cxd re{s.real(), 0.0};
  const cxd im{s.imag(), 0.0};
  const cxd* x = op.x_quad.data().data();
  const cxd* y = op.y_quad.data().data();
  for (std::size_t k = 0; k < N * N; ++k) h[k] += mul(x[k], re) + mul(y[k], im);
  if (op.sq_quad.empty()) return;
  const cxd n{std::norm(s), 0.0};
  const cxd* sq = op.sq_quad.data().data();
  for (std::size_t k = 0; k < N * N; ++k) h[k] += mul(sq[k], n);
}

/// The one schedule walk. Calls step(h, tau, has_drive) once per
/// integration step of `stride` samples (the last one may be shorter) with
/// the Hamiltonian sampled at the step's first sample, built in place.
template <std::size_t N, typename Step>
void walk(const PulseSystem& system, const pulse::Schedule& sched, int stride, Step&& step) {
  // Index the schedule once: one lane per wired channel that plays, in
  // channel order (the order drive terms are summed into H), and the frame
  // events that reach those lanes, in time order.
  std::vector<Lane> lanes;
  for (const pulse::TimedInstruction& ti : sched.instructions()) {
    const auto* play = std::get_if<pulse::Play>(&ti.inst);
    const ChannelOperator* op = play ? system.find_channel(play->channel) : nullptr;
    if (op == nullptr) continue;
    auto lane =
        std::find_if(lanes.begin(), lanes.end(), [&](const Lane& l) { return l.op == op; });
    if (lane == lanes.end()) {
      lane = lanes.emplace(lanes.end());
      lane->op = op;
    }
    lane->plays.push_back(ActivePlay{ti.t0, &play->shape});
  }
  std::sort(lanes.begin(), lanes.end(),
            [](const Lane& a, const Lane& b) { return a.op->channel < b.op->channel; });
  for (Lane& lane : lanes)
    std::stable_sort(lane.plays.begin(), lane.plays.end(),
                     [](const ActivePlay& a, const ActivePlay& b) { return a.t0 < b.t0; });
  std::vector<FrameEvent> events;
  for (const pulse::TimedInstruction& ti : sched.instructions()) {
    if (!is_frame_instruction(ti.inst)) continue;
    const pulse::Channel c = pulse::instruction_channel(ti.inst);
    for (Lane& lane : lanes)
      if (lane.op->channel == c) events.push_back(FrameEvent{ti.t0, &lane, &ti.inst});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const FrameEvent& a, const FrameEvent& b) { return a.t0 < b.t0; });

  const cxd* h0 = system.static_hamiltonian().data().data();
  const int duration = sched.duration();
  std::size_t next_event = 0;
  Mat<N> h;
  for (int t = 0; t < duration; t += stride) {
    const double t_ns = t * pulse::kDtNs;
    // Frame events scheduled at or before this sample boundary.
    for (; next_event < events.size() && events[next_event].t0 <= t; ++next_event)
      events[next_event].apply();
    std::copy_n(h0, N * N, h.begin());
    bool has_drive = false;
    for (Lane& lane : lanes) {
      const ActivePlay* ap = lane.active(t);
      if (ap == nullptr) continue;
      cxd s = ap->shape->sample(t - ap->t0);
      if (s == cxd{0.0, 0.0}) continue;
      if (lane.framed) s = mul(s, std::polar(1.0, lane.frame.phase_at(t_ns)));
      s *= lane.op->gain;
      add_drive<N>(h, *lane.op, s);
      has_drive = true;
    }
    step(h, span_tau(std::min(stride, duration - t)), has_drive);
  }
}

/// exp(-i tau H) of a 2×2 Hermitian step, analytically.
Mat<2> step_propagator(const Mat<2>& h, double tau) {
  const double a = h[0].real();
  const double d = h[3].real();
  const cxd b = h[1];
  const double c0 = 0.5 * (a + d);
  const double nz = 0.5 * (a - d);
  const double nx = b.real();
  const double ny = -b.imag();
  const double nn = std::sqrt(nx * nx + ny * ny + nz * nz);
  const cxd gphase = std::polar(1.0, -tau * c0);
  if (nn < 1e-15) return {gphase, 0.0, 0.0, gphase};
  const double ct = std::cos(tau * nn);
  const double st = std::sin(tau * nn);
  const cxd mi{0.0, -1.0};
  const cxd off = mul(gphase, mi) * st;
  return {mul(gphase, ct + mi * st * (nz / nn)), mul(off, cxd{nx / nn, -ny / nn}),
          mul(off, cxd{nx / nn, ny / nn}), mul(gphase, ct - mi * st * (nz / nn))};
}

/// exp(-i tau H) of a 4×4 Hermitian step, from its eigendecomposition.
Mat<4> step_propagator(const Mat<4>& h, double tau) {
  CMat hm(4, 4);
  std::copy(h.begin(), h.end(), hm.data().begin());
  const CMat u = la::expm_ih(hm, tau);
  Mat<4> out;
  std::copy(u.data().begin(), u.data().end(), out.begin());
  return out;
}

/// Exact step propagators along one walk. Idle steps evolve under the
/// static Hamiltonian alone, so they share one exponential per span length:
/// the full stride, and the shorter tail.
template <std::size_t N>
class ExactSteps {
 public:
  explicit ExactSteps(int stride) : tau_full_(span_tau(stride)) {}

  const Mat<N>& operator()(const Mat<N>& h, double tau, bool has_drive) {
    if (has_drive) return drive_ = step_propagator(h, tau);
    const std::size_t slot = tau == tau_full_ ? 0 : 1;
    if (!cached_[slot]) {
      idle_[slot] = step_propagator(h, tau);
      cached_[slot] = true;
    }
    return idle_[slot];
  }

 private:
  double tau_full_;
  Mat<N> drive_;
  Mat<N> idle_[2];
  bool cached_[2] = {false, false};
};

/// p·ψ as CMat's matrix-vector product: every term, each row summed from
/// zero.
template <std::size_t N>
Vec<N> apply(const Mat<N>& p, const Vec<N>& v) {
  Vec<N> out;
  for (std::size_t i = 0; i < N; ++i) {
    cxd s{0.0, 0.0};
    for (std::size_t j = 0; j < N; ++j) s += mul(p[i * N + j], v[j]);
    out[i] = s;
  }
  return out;
}

/// One RK4 pass over a constant Hamiltonian span (`substeps` steps), in the
/// CVec helpers' arithmetic: k = (H·ψ)·(-i), y += α·x.
template <std::size_t N>
void rk4_apply(const Mat<N>& h, double tau, int substeps, Vec<N>& psi) {
  const double hstep = tau / substeps;
  const cxd mi{0.0, -1.0};
  const auto deriv = [&](const Vec<N>& v) {
    Vec<N> k = apply<N>(h, v);
    for (cxd& x : k) x = mul(x, mi);
    return k;
  };
  const auto axpy = [](cxd alpha, const Vec<N>& x, Vec<N>& y) {
    for (std::size_t i = 0; i < N; ++i) y[i] += mul(alpha, x[i]);
  };
  for (int s = 0; s < substeps; ++s) {
    const Vec<N> k1 = deriv(psi);
    Vec<N> tmp = psi;
    axpy(cxd{hstep / 2.0, 0.0}, k1, tmp);
    const Vec<N> k2 = deriv(tmp);
    tmp = psi;
    axpy(cxd{hstep / 2.0, 0.0}, k2, tmp);
    const Vec<N> k3 = deriv(tmp);
    tmp = psi;
    axpy(cxd{hstep, 0.0}, k3, tmp);
    const Vec<N> k4 = deriv(tmp);
    axpy(cxd{hstep / 6.0, 0.0}, k1, psi);
    axpy(cxd{hstep / 3.0, 0.0}, k2, psi);
    axpy(cxd{hstep / 3.0, 0.0}, k3, psi);
    axpy(cxd{hstep / 6.0, 0.0}, k4, psi);
  }
}

}  // namespace

PulseSimulator::PulseSimulator(PulseSystem system, Integrator integrator, int substeps,
                               int sample_stride)
    : system_(std::move(system)),
      integrator_(integrator),
      substeps_(substeps),
      sample_stride_(sample_stride) {
  HGP_REQUIRE(substeps >= 1, "PulseSimulator: substeps must be >= 1");
  HGP_REQUIRE(sample_stride >= 1, "PulseSimulator: sample_stride must be >= 1");
}

template <std::size_t N>
CMat PulseSimulator::product(const pulse::Schedule& sched) const {
  // u ← p·u per step in CMat::operator*'s order: i-k-j, zero entries of p
  // skipped, every entry summed from zero.
  Mat<N> u{};
  for (std::size_t i = 0; i < N; ++i) u[i * N + i] = 1.0;
  ExactSteps<N> props(sample_stride_);
  walk<N>(system_, sched, sample_stride_, [&](const Mat<N>& h, double tau, bool has_drive) {
    const Mat<N>& p = props(h, tau, has_drive);
    Mat<N> out{};
    for (std::size_t i = 0; i < N; ++i)
      for (std::size_t k = 0; k < N; ++k) {
        const cxd a = p[i * N + k];
        if (a == cxd{0.0, 0.0}) continue;
        for (std::size_t j = 0; j < N; ++j) out[i * N + j] += mul(a, u[k * N + j]);
      }
    u = out;
  });
  CMat m(N, N);
  std::copy(u.begin(), u.end(), m.data().begin());
  return m;
}

template <std::size_t N>
CMat PulseSimulator::advance(const pulse::Schedule& sched, CMat cols) const {
  // Under RK4 drive steps integrate from the sampled Hamiltonian; idle steps
  // stay exact (the static Hamiltonian is constant anyway).
  std::vector<Vec<N>> psi(cols.cols());
  for (std::size_t k = 0; k < psi.size(); ++k)
    for (std::size_t r = 0; r < N; ++r) psi[k][r] = cols(r, k);
  ExactSteps<N> props(sample_stride_);
  walk<N>(system_, sched, sample_stride_, [&](const Mat<N>& h, double tau, bool has_drive) {
    if (has_drive && integrator_ == Integrator::Rk4) {
      for (Vec<N>& v : psi) rk4_apply<N>(h, tau, substeps_, v);
      return;
    }
    const Mat<N>& p = props(h, tau, has_drive);
    for (Vec<N>& v : psi) v = apply<N>(p, v);
  });
  for (std::size_t k = 0; k < psi.size(); ++k)
    for (std::size_t r = 0; r < N; ++r) cols(r, k) = psi[k][r];
  return cols;
}

CVec PulseSimulator::evolve(const pulse::Schedule& sched, CVec psi) const {
  HGP_REQUIRE(psi.size() == system_.dim(), "evolve: state dimension mismatch");
  CMat col(psi.size(), 1);
  col.data() = std::move(psi);
  CMat out = system_.num_qubits() == 1 ? advance<2>(sched, std::move(col))
                                       : advance<4>(sched, std::move(col));
  return std::move(out.data());
}

CMat PulseSimulator::propagator(const pulse::Schedule& sched) const {
  HGP_REQUIRE(integrator_ == Integrator::Exact,
              "propagator: requires the Exact integrator (use unitary for RK4)");
  return system_.num_qubits() == 1 ? product<2>(sched) : product<4>(sched);
}

CMat PulseSimulator::unitary(const pulse::Schedule& sched) const {
  if (integrator_ == Integrator::Exact) return propagator(sched);
  const CMat id = CMat::identity(system_.dim());
  return system_.num_qubits() == 1 ? advance<2>(sched, id) : advance<4>(sched, id);
}

}  // namespace hgp::psim
