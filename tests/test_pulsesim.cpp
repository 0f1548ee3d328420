#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "backend/presets.hpp"
#include "circuit/gates.hpp"
#include "common/error.hpp"
#include "linalg/expm.hpp"
#include "linalg/pauli.hpp"
#include "linalg/vec.hpp"
#include "pulse/calibration.hpp"
#include "pulsesim/simulator.hpp"
#include "pulsesim/system.hpp"

using namespace hgp;
using la::cxd;
using la::CMat;
using la::CVec;
using pulse::Channel;
using pulse::PulseShape;
using pulse::Schedule;
using psim::Integrator;
using psim::PulseSimulator;
using psim::PulseSystem;

namespace {

constexpr double kRate = 0.11;  // GHz

pulse::CalibrationSet make_cal(int nq) {
  pulse::CalibrationSet cal;
  pulse::QubitCalibration q;
  q.drive_rate_ghz = kRate;
  for (int i = 0; i < nq; ++i) cal.set_qubit(static_cast<std::size_t>(i), q);
  if (nq >= 2) {
    pulse::CrCalibration cr;
    cal.set_cr(0, 1, 0, cr);
    cal.set_cr(1, 0, 1, cr);
  }
  return cal;
}

PulseSystem make_system(int nq, const pulse::CalibrationSet& cal) {
  PulseSystem sys(static_cast<std::size_t>(nq));
  for (int q = 0; q < nq; ++q) sys.add_drive(static_cast<std::size_t>(q), kRate);
  if (nq >= 2) {
    const auto& cr = cal.cr(0, 1);
    sys.add_cr(0, 0, 1, cr.mu_zx_ghz, cr.mu_ix_ghz, cr.mu_zi_ghz);
    const auto& cr2 = cal.cr(1, 0);
    sys.add_cr(1, 1, 0, cr2.mu_zx_ghz, cr2.mu_ix_ghz, cr2.mu_zi_ghz);
  }
  return sys;
}

/// Distance between two unitaries ignoring global phase.
double unitary_distance(const CMat& a, const CMat& b) {
  // Align phases on the largest element of a.
  std::size_t bi = 0, bj = 0;
  double best = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      if (std::abs(a(i, j)) > best) {
        best = std::abs(a(i, j));
        bi = i;
        bj = j;
      }
  const cxd phase = (b(bi, bj) / std::abs(b(bi, bj))) / (a(bi, bj) / std::abs(a(bi, bj)));
  return (a * phase).max_abs_diff(b);
}

/// Exact unitary of a lowered schedule: undo the deferred virtual-Z frames,
/// U_exact = ⊗_q RZ(-shift_q) · U_schedule.
CMat frame_corrected_unitary(const PulseSimulator& sim, const Schedule& sched, int nq) {
  CMat u = sim.unitary(sched);
  for (int q = 0; q < nq; ++q) {
    const double shift =
        pulse::CalibrationSet::drive_phase_shift(sched, static_cast<std::size_t>(q));
    if (shift == 0.0) continue;
    CMat rz = qc::gate_matrix(qc::GateKind::RZ, {-shift});
    CMat full = CMat::identity(1);
    for (int k = nq - 1; k >= 0; --k)
      full = la::kron(full, k == q ? rz : CMat::identity(2));
    u = full * u;
  }
  return u;
}

}  // namespace

TEST(PulseSim, CalibratedSxMatchesGate) {
  const auto cal = make_cal(1);
  const PulseSimulator sim(make_system(1, cal));
  const CMat u = sim.unitary(cal.sx(0));
  // SX = e^{i pi/4} RX(pi/2); compare up to global phase.
  EXPECT_LT(unitary_distance(u, qc::gate_matrix(qc::GateKind::SX)), 2e-4);
}

TEST(PulseSim, CalibratedXMatchesGate) {
  const auto cal = make_cal(1);
  const PulseSimulator sim(make_system(1, cal));
  const CMat u = sim.unitary(cal.x(0));
  EXPECT_LT(unitary_distance(u, qc::gate_matrix(qc::GateKind::X)), 2e-4);
}

class DirectRxSweep : public ::testing::TestWithParam<double> {};

TEST_P(DirectRxSweep, MatchesRxGate) {
  const double theta = GetParam();
  const auto cal = make_cal(1);
  const PulseSimulator sim(make_system(1, cal));
  const CMat u = sim.unitary(cal.rx_direct(0, theta));
  EXPECT_LT(unitary_distance(u, qc::gate_matrix(qc::GateKind::RX, {theta})), 3e-4) << theta;
}

INSTANTIATE_TEST_SUITE_P(Angles, DirectRxSweep,
                         ::testing::Values(-3.1, -1.5708, -0.5, 0.25, 0.7854, 1.5708, 2.5, 3.1));

TEST(PulseSim, VirtualZChangesRotationAxis) {
  // RZ(pi/2) then SX should equal SX about the Y axis (up to frames):
  // verify via the frame-corrected unitary against RY(pi/2)-like matrix.
  const auto cal = make_cal(1);
  const PulseSimulator sim(make_system(1, cal));
  Schedule s;
  s.append_sequential(cal.rz(0, la::kPi / 2));
  s.append_sequential(cal.sx(0));
  const CMat u = frame_corrected_unitary(sim, s, 1);
  // Expected: SX · RZ(pi/2) as matrices.
  const CMat expected =
      qc::gate_matrix(qc::GateKind::SX) * qc::gate_matrix(qc::GateKind::RZ, {la::kPi / 2});
  EXPECT_LT(unitary_distance(u, expected), 3e-4);
}

TEST(PulseSim, EchoedCrMatchesZxRotation) {
  const auto cal = make_cal(2);
  const PulseSimulator sim(make_system(2, cal));
  const double theta = la::kPi / 2;
  const CMat u = frame_corrected_unitary(sim, cal.ecr(0, 1, theta), 2);
  // exp(-i theta/2 Z⊗X) = cos(theta/2) I - i sin(theta/2) Z⊗X, with control =
  // qubit 0 (sub-index bit 0).
  // In little-endian (first qubit = bit 0): operator = X_{q1} ⊗ Z_{q0}.
  const CMat zx = la::kron(la::pauli_matrix(la::Pauli::X), la::pauli_matrix(la::Pauli::Z));
  const CMat expected = CMat::identity(4) * cxd{std::cos(theta / 2.0), 0.0} +
                        zx * cxd{0.0, -std::sin(theta / 2.0)};
  EXPECT_LT(unitary_distance(u, expected), 2e-3);
}

TEST(PulseSim, CxFromEcrMatchesGate) {
  const auto cal = make_cal(2);
  const PulseSimulator sim(make_system(2, cal));
  const CMat u = frame_corrected_unitary(sim, cal.cx(0, 1), 2);
  EXPECT_LT(unitary_distance(u, qc::gate_matrix(qc::GateKind::CX)), 3e-3);
}

class DirectRzzSweep : public ::testing::TestWithParam<double> {};

TEST_P(DirectRzzSweep, MatchesRzzGate) {
  const double theta = GetParam();
  const auto cal = make_cal(2);
  const PulseSimulator sim(make_system(2, cal));
  const CMat u = frame_corrected_unitary(sim, cal.rzz_direct(0, 1, theta), 2);
  EXPECT_LT(unitary_distance(u, qc::gate_matrix(qc::GateKind::RZZ, {theta})), 3e-3) << theta;
}

INSTANTIATE_TEST_SUITE_P(Angles, DirectRzzSweep,
                         ::testing::Values(-2.0, -1.0, -0.3, 0.4, 0.7854, 1.5708, 2.4));

TEST(PulseSim, Rk4AgreesWithExactPropagator) {
  const auto cal = make_cal(2);
  const PulseSimulator exact(make_system(2, cal), Integrator::Exact);
  const PulseSimulator rk4(make_system(2, cal), Integrator::Rk4, 4);
  const Schedule s = cal.cx(0, 1);
  const CMat ue = exact.unitary(s);
  const CMat ur = rk4.unitary(s);
  EXPECT_LT(ue.max_abs_diff(ur), 1e-4);
}

TEST(PulseSim, DetuningDegradesFixedCalibration) {
  const auto cal = make_cal(1);
  PulseSystem sys = make_system(1, cal);
  sys.set_detuning(0, 0.002);  // 2 MHz drift
  const PulseSimulator sim(std::move(sys));
  const CMat u = sim.unitary(cal.x(0));
  const double err = unitary_distance(u, qc::gate_matrix(qc::GateKind::X));
  EXPECT_GT(err, 1e-3);  // the fixed calibration is now wrong
}

TEST(PulseSim, FrequencyShiftCanTrackDetuning) {
  // With drift δ, shifting the drive frequency onto the true qubit frequency
  // restores full population transfer of the fixed π pulse (the resulting
  // unitary differs from X only by a Z-frame rotation, which is invisible to
  // Z-basis sampling). This is exactly the knob the hybrid ansatz trains.
  const auto cal = make_cal(1);
  const double delta = 0.004;  // 4 MHz drift

  auto transfer_with_shift = [&](double shift) {
    PulseSystem sys = make_system(1, cal);
    sys.set_detuning(0, delta);
    const PulseSimulator sim(std::move(sys));
    Schedule s;
    s.append(pulse::ShiftFrequency{shift, Channel::drive(0)});
    s.insert(0, cal.x(0));
    CVec psi(2, cxd{0, 0});
    psi[0] = 1.0;
    const CVec out = sim.evolve(s, std::move(psi));
    return std::norm(out[1]);  // P(|1>) — should be 1 for a clean X
  };

  const double none = transfer_with_shift(0.0);
  const double plus = transfer_with_shift(delta);
  const double minus = transfer_with_shift(-delta);
  const double best = std::max(plus, minus);
  EXPECT_LT(none, 0.999);   // fixed calibration degraded by the drift
  EXPECT_GT(best, 0.9995);  // the trainable shift recovers the rotation
  EXPECT_GT(best, none);
}

TEST(PulseSim, GainMiscalibrationOverrotates) {
  const auto cal = make_cal(1);
  PulseSystem sys = make_system(1, cal);
  sys.set_gain(Channel::drive(0), 1.02);
  const PulseSimulator sim(std::move(sys));
  const CMat u = sim.unitary(cal.x(0));
  // 2% amplitude error on a π rotation: distance ~ sin(0.01π) scale.
  const double err = unitary_distance(u, qc::gate_matrix(qc::GateKind::X));
  EXPECT_GT(err, 5e-3);
  EXPECT_LT(err, 8e-2);
}

TEST(PulseSim, ExchangeCouplingSwapsExcitation) {
  // Pure J-coupling for time t: |01> <-> |10> Rabi with period 1/(2J).
  PulseSystem sys(2);
  const double j = 0.002;
  sys.add_exchange(0, 1, j);
  const PulseSimulator sim(std::move(sys));
  // Evolve for a quarter period via a schedule of pure delay.
  const double t_swap_ns = 1.0 / (4.0 * j);  // half excitation transfer...
  const int samples = static_cast<int>(t_swap_ns / pulse::kDtNs);
  Schedule s;
  s.append(pulse::Delay{samples, Channel::drive(0)});
  CVec psi(4, cxd{0, 0});
  psi[0b01] = 1.0;  // qubit 0 excited
  const CVec out = sim.evolve(s, psi);
  // At t = 1/(4J), the excitation has fully transferred (XX+YY model:
  // transfer amplitude sin(2π J t) = sin(π/2) = 1).
  EXPECT_NEAR(std::norm(out[0b10]), 1.0, 0.02);
}

TEST(PulseSim, ZzCrosstalkAccumulatesConditionalPhase) {
  PulseSystem sys(2);
  sys.add_zz_crosstalk(0, 1, 0.0005);
  const PulseSimulator sim(std::move(sys));
  Schedule s;
  s.append(pulse::Delay{900, Channel::drive(0)});  // 200 ns
  const CMat u = sim.unitary(s);
  // exp(-i 2π ζ/4 t ZZ): diagonal with conditional phase.
  const double phi = 2.0 * la::kPi * 0.0005 / 4.0 * 900 * pulse::kDtNs;
  EXPECT_NEAR(std::arg(u(0, 0)), -phi, 1e-6);
  EXPECT_NEAR(std::arg(u(3, 3)), -phi, 1e-6);
  EXPECT_NEAR(std::arg(u(1, 1)), phi, 1e-6);
}

TEST(PulseSim, UnitaryIsUnitary) {
  const auto cal = make_cal(2);
  const PulseSimulator sim(make_system(2, cal));
  EXPECT_TRUE(sim.unitary(cal.cx(0, 1)).is_unitary(1e-6));
}


// ---- PulseWalk — the fixed-size walk pinned to the CMat arithmetic --------

namespace {

/// The simulator's per-sample CMat walk from before the fixed-size rewrite,
/// kept as the bit-level reference: a heap Hamiltonian and drive terms per
/// sample, std::map indexing, and the list of Exact step propagators
/// materialized before any product is taken.
namespace reference {

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
  const PulseShape* shape = nullptr;
};

CMat step_propagator(const CMat& h, double tau) {
  if (h.rows() == 2) {
    const double a = h(0, 0).real();
    const double d = h(1, 1).real();
    const cxd b = h(0, 1);
    const double c0 = 0.5 * (a + d);
    const double nz = 0.5 * (a - d);
    const double nx = b.real();
    const double ny = -b.imag();
    const double nn = std::sqrt(nx * nx + ny * ny + nz * nz);
    const cxd gphase = std::polar(1.0, -tau * c0);
    if (nn < 1e-15) return CMat{{gphase, 0}, {0, gphase}};
    const double ct = std::cos(tau * nn);
    const double st = std::sin(tau * nn);
    const cxd mi{0.0, -1.0};
    CMat u(2, 2);
    u(0, 0) = gphase * (ct + mi * st * (nz / nn));
    u(0, 1) = gphase * mi * st * cxd{nx / nn, -ny / nn};
    u(1, 0) = gphase * mi * st * cxd{nx / nn, ny / nn};
    u(1, 1) = gphase * (ct - mi * st * (nz / nn));
    return u;
  }
  return la::expm_ih(h, tau);
}

std::vector<CMat> step_propagators(const PulseSystem& system, const Schedule& sched,
                                   int stride) {
  const int duration = sched.duration();
  const double dt = pulse::kDtNs;
  std::map<Channel, Frame> frames;
  struct Event {
    int t0;
    const pulse::Instruction* inst;
  };
  std::vector<Event> frame_events;
  std::map<Channel, std::vector<ActivePlay>> plays;
  for (const pulse::TimedInstruction& ti : sched.instructions()) {
    if (const auto* play = std::get_if<pulse::Play>(&ti.inst)) {
      if (system.find_channel(play->channel) != nullptr)
        plays[play->channel].push_back(ActivePlay{ti.t0, &play->shape});
      continue;
    }
    if (std::holds_alternative<pulse::ShiftPhase>(ti.inst) ||
        std::holds_alternative<pulse::SetPhase>(ti.inst) ||
        std::holds_alternative<pulse::ShiftFrequency>(ti.inst) ||
        std::holds_alternative<pulse::SetFrequency>(ti.inst))
      frame_events.push_back(Event{ti.t0, &ti.inst});
  }
  std::stable_sort(frame_events.begin(), frame_events.end(),
                   [](const Event& a, const Event& b) { return a.t0 < b.t0; });
  for (auto& [c, v] : plays)
    std::stable_sort(v.begin(), v.end(),
                     [](const ActivePlay& a, const ActivePlay& b) { return a.t0 < b.t0; });

  const double tau_sample = 2.0 * la::kPi * dt;
  std::size_t next_event = 0;
  std::map<Channel, std::size_t> play_cursor;
  std::vector<CMat> hs;
  std::vector<double> taus;
  std::vector<bool> drives;
  for (int t = 0; t < duration; t += stride) {
    const int step = std::min(stride, duration - t);
    const double t_ns = t * dt;
    while (next_event < frame_events.size() && frame_events[next_event].t0 <= t) {
      const pulse::Instruction& inst = *frame_events[next_event].inst;
      Frame& f = frames[pulse::instruction_channel(inst)];
      const double event_t_ns = frame_events[next_event].t0 * dt;
      if (const auto* sp = std::get_if<pulse::ShiftPhase>(&inst)) {
        f.phase += sp->phase;
      } else if (const auto* stp = std::get_if<pulse::SetPhase>(&inst)) {
        f.rebase(event_t_ns);
        f.phase = stp->phase;
      } else if (const auto* sf = std::get_if<pulse::ShiftFrequency>(&inst)) {
        f.rebase(event_t_ns);
        f.freq_ghz += sf->freq_ghz;
      } else if (const auto* stf = std::get_if<pulse::SetFrequency>(&inst)) {
        f.rebase(event_t_ns);
        f.freq_ghz = stf->freq_ghz;
      }
      ++next_event;
    }
    CMat h = system.static_hamiltonian();
    bool has_drive = false;
    for (auto& [channel, channel_plays] : plays) {
      std::size_t& cur = play_cursor[channel];
      while (cur < channel_plays.size() &&
             channel_plays[cur].t0 + channel_plays[cur].shape->duration() <= t)
        ++cur;
      if (cur >= channel_plays.size() || channel_plays[cur].t0 > t) continue;
      const ActivePlay& ap = channel_plays[cur];
      cxd s = ap.shape->sample(t - ap.t0);
      if (s == cxd{0.0, 0.0}) continue;
      const auto it = frames.find(channel);
      if (it != frames.end()) s *= std::polar(1.0, it->second.phase_at(t_ns));
      const psim::ChannelOperator* op = system.find_channel(channel);
      s *= op->gain;
      h += op->x_quad * cxd{s.real(), 0.0} + op->y_quad * cxd{s.imag(), 0.0};
      if (!op->sq_quad.empty()) h += op->sq_quad * cxd{std::norm(s), 0.0};
      has_drive = true;
    }
    hs.push_back(std::move(h));
    taus.push_back(tau_sample * step);
    drives.push_back(has_drive);
  }

  const double tau_full = tau_sample * stride;
  CMat idle_full, idle_tail;
  std::vector<CMat> props;
  for (std::size_t i = 0; i < hs.size(); ++i) {
    if (drives[i]) {
      props.push_back(step_propagator(hs[i], taus[i]));
      continue;
    }
    CMat& idle = taus[i] == tau_full ? idle_full : idle_tail;
    if (idle.empty()) idle = step_propagator(hs[i], taus[i]);
    props.push_back(idle);
  }
  return props;
}

CMat propagator(const PulseSystem& system, const Schedule& sched, int stride) {
  CMat u = CMat::identity(system.dim());
  for (const CMat& p : step_propagators(system, sched, stride)) u = p * u;
  return u;
}

CVec evolve(const PulseSystem& system, const Schedule& sched, int stride, CVec psi) {
  for (const CMat& p : step_propagators(system, sched, stride)) psi = p * psi;
  return psi;
}

}  // namespace reference

const backend::FakeBackend& toronto() {
  static const backend::FakeBackend dev = backend::make_toronto();
  return dev;
}

/// The hybrid model's mixer block: one 320-dt Gaussian (sigma = dur/4),
/// with the phase and frequency knobs applied and reverted around it when
/// nonzero, as QaoaModel emits it.
Schedule hybrid_mixer(std::size_t q, double amp, double phase, double freq_ghz) {
  const Channel d = Channel::drive(q);
  Schedule s("mixer");
  if (phase != 0.0) s.append(pulse::ShiftPhase{phase, d});
  if (freq_ghz != 0.0) s.append(pulse::ShiftFrequency{freq_ghz, d});
  s.append(pulse::Play{PulseShape::gaussian(320, std::abs(amp), 80.0, amp < 0 ? la::kPi : 0.0),
                       d});
  if (freq_ghz != 0.0) s.append(pulse::ShiftFrequency{-freq_ghz, d});
  if (phase != 0.0) s.append(pulse::ShiftPhase{-phase, d});
  return s;
}

struct WalkCase {
  std::string name;
  std::vector<std::size_t> qubits;
  Schedule sched;  // on physical channels
  int stride = 1;
};

/// Every schedule family the executor lowers, on toronto qubits 0 (1q) and
/// 0-1 (2q), plus frame events, idle spans and zero samples the families do
/// not reach on their own.
std::vector<WalkCase> walk_cases() {
  const pulse::CalibrationSet& cal = toronto().calibrations();
  const Channel d0 = Channel::drive(0);
  std::vector<WalkCase> cases;
  const auto add = [&](std::string name, std::vector<std::size_t> qubits, Schedule s,
                       std::vector<int> strides) {
    for (int stride : strides)
      cases.push_back({name + "/stride" + std::to_string(stride), qubits, s, stride});
  };
  add("mixer", {0}, hybrid_mixer(0, 0.31, 0.0, 0.0), {1});
  add("mixer_phase_freq", {0}, hybrid_mixer(0, 0.31, 0.42, 0.037), {1, 4});
  add("mixer_negative_amp", {0}, hybrid_mixer(0, -0.23, -0.9, -0.061), {1});
  add("mixer_zero_amp", {0}, hybrid_mixer(0, 0.0, 0.42, 0.037), {1});
  add("sx", {0}, cal.sx(0), {1});
  add("x", {0}, cal.x(0), {1});
  add("rx_direct", {0}, cal.rx_direct(0, -1.3), {1});

  // SetPhase/SetFrequency mid-play, an idle prefix, and a gap of zero
  // samples between plays.
  Schedule frames("frames");
  frames.append(pulse::Delay{37, d0});
  frames.append(pulse::SetFrequency{0.013, d0});
  frames.append(pulse::Play{PulseShape::gaussian(96, 0.4, 24.0), d0});
  frames.insert(60, pulse::SetPhase{0.7, d0});
  frames.insert(80, pulse::SetFrequency{-0.02, d0});
  frames.append(pulse::Play{PulseShape::constant(16, 0.0), d0});
  frames.append(pulse::Play{PulseShape::drag(64, 0.2, 16.0, 0.5, 0.3), d0});
  add("frames_idle_zero", {0}, frames, {1, 3});

  // 2q CR blocks at the executor's strides. cx's duration is a multiple of
  // 4, so each tail case appends 3 samples: idle (a delay) or driven.
  add("cx", {0, 1}, cal.cx(0, 1), {2, 4});
  add("ecr", {0, 1}, cal.ecr(0, 1, la::kPi / 2), {2, 4});
  add("rzz_direct", {0, 1}, cal.rzz_direct(0, 1, 0.7), {2, 4});
  Schedule idle_tail = cal.cx(0, 1);
  idle_tail.append_sequential(Schedule("t").append(pulse::Delay{3, d0}));
  add("cx_idle_tail", {0, 1}, idle_tail, {2, 4});
  Schedule drive_tail = cal.cx(0, 1);
  drive_tail.append_sequential(
      Schedule("t").append(pulse::Play{PulseShape::constant(3, 0.05), Channel::drive(1)}));
  add("cx_drive_tail", {0, 1}, drive_tail, {2, 4});
  // Both drives under the CR tone at once: dense 4×4 steps, so every entry
  // of the running product sums four nonzero terms.
  Schedule dense = cal.ecr(0, 1, 0.9);
  dense.insert(0, pulse::Play{PulseShape::gaussian(dense.duration(), 0.1, 100.0), d0});
  dense.insert(0, pulse::Play{PulseShape::drag(dense.duration(), 0.07, 90.0, 0.4, 0.5),
                              Channel::drive(1)});
  add("ecr_dense", {0, 1}, dense, {2, 4});
  // The pulse-level model's trainable CX: frame knobs on the CR channel.
  const Channel u = Channel::control(cal.control_channel(0, 1));
  Schedule free_cx("free-cx");
  free_cx.append(pulse::ShiftPhase{0.3, u});
  free_cx.append(pulse::ShiftFrequency{0.02, u});
  free_cx.append_sequential(cal.ecr(0, 1, 1.2));
  free_cx.append(pulse::ShiftFrequency{-0.02, u});
  free_cx.append(pulse::ShiftPhase{-0.3, u});
  free_cx.append_sequential(cal.rx_direct(1, -la::kPi / 2.0));
  free_cx.append_sequential(cal.rz(0, -la::kPi / 2.0));
  add("free_cx", {0, 1}, free_cx, {2});
  return cases;
}

bool same_bits(const CVec& a, const CVec& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(cxd)) == 0;
}

/// A fixed state with every amplitude nonzero and distinct.
CVec probe_state(std::size_t dim) {
  CVec psi(dim);
  for (std::size_t i = 0; i < dim; ++i) psi[i] = cxd{0.3 + 0.1 * i, -0.2 + 0.05 * i};
  return psi;
}

}  // namespace

TEST(PulseWalk, PropagatorBitIdenticalToCMatReference) {
  for (const bool coherent : {false, true}) {
    for (const WalkCase& c : walk_cases()) {
      SCOPED_TRACE(c.name + (coherent ? " coherent" : " ideal"));
      const backend::FakeBackend::Subsystem sub = toronto().subsystem(c.qubits, coherent);
      const Schedule local = backend::FakeBackend::remap_schedule(c.sched, sub.remap);
      const PulseSimulator sim(sub.system, Integrator::Exact, 1, c.stride);
      const CMat walked = sim.propagator(local);
      const CMat expected = reference::propagator(sub.system, local, c.stride);
      EXPECT_TRUE(same_bits(walked.data(), expected.data()))
          << "max |diff| " << walked.max_abs_diff(expected);
    }
  }
}

TEST(PulseWalk, ExactEvolveBitIdenticalToCMatReference) {
  for (const bool coherent : {false, true}) {
    for (const WalkCase& c : walk_cases()) {
      SCOPED_TRACE(c.name + (coherent ? " coherent" : " ideal"));
      const backend::FakeBackend::Subsystem sub = toronto().subsystem(c.qubits, coherent);
      const Schedule local = backend::FakeBackend::remap_schedule(c.sched, sub.remap);
      const PulseSimulator sim(sub.system, Integrator::Exact, 1, c.stride);
      const CVec psi = probe_state(sub.system.dim());
      const CVec walked = sim.evolve(local, psi);
      const CVec expected = reference::evolve(sub.system, local, c.stride, psi);
      EXPECT_TRUE(same_bits(walked, expected)) << "max |diff| " << la::max_abs_diff(walked, expected);
    }
  }
}

TEST(PulseWalk, IgnoresChannelsTheSystemDoesNotWire) {
  const auto cal = make_cal(1);
  const PulseSystem sys = make_system(1, cal);
  const PulseSimulator sim(sys);
  const Schedule mixer = hybrid_mixer(0, 0.31, 0.42, 0.037);
  Schedule noisy = mixer;
  noisy.insert(10, pulse::ShiftPhase{0.5, Channel::measure(0)});
  noisy.insert(20, pulse::Play{PulseShape::constant(64, 0.3), Channel::measure(0)});
  noisy.insert(30, pulse::ShiftFrequency{0.05, Channel::control(0)});
  noisy.insert(40, pulse::Play{PulseShape::constant(64, 0.3), Channel::control(0)});
  EXPECT_TRUE(same_bits(sim.propagator(noisy).data(), sim.propagator(mixer).data()));
  EXPECT_TRUE(same_bits(sim.propagator(noisy).data(),
                        reference::propagator(sys, noisy, 1).data()));
}

TEST(PulseWalk, PropagatorMatchesColumnAtATimeEvolve) {
  // The running product over all columns must agree with advancing each
  // basis column on its own (up to matrix-product rounding).
  const auto cal = make_cal(2);
  const PulseSimulator sim(make_system(2, cal));
  const Schedule ecr = cal.ecr(0, 1, la::kPi / 2);
  const CMat u = sim.propagator(ecr);
  EXPECT_TRUE(u.is_unitary(1e-9));
  for (std::size_t col = 0; col < 4; ++col) {
    CVec e(4, cxd{0.0, 0.0});
    e[col] = 1.0;
    const CVec out = sim.evolve(ecr, std::move(e));
    for (std::size_t row = 0; row < 4; ++row)
      EXPECT_LT(std::abs(u(row, col) - out[row]), 1e-10);
  }
}

TEST(PulseWalk, Rk4KeepsIdleStepsExact) {
  const auto cal = make_cal(1);
  // Idle spans take the exact propagator under either integrator.
  PulseSystem detuned = make_system(1, cal);
  detuned.set_detuning(0, 0.003);
  Schedule idle;
  idle.append(pulse::Delay{45, Channel::drive(0)});
  const CVec psi = probe_state(2);
  EXPECT_TRUE(same_bits(PulseSimulator(detuned, Integrator::Rk4, 4).evolve(idle, psi),
                        PulseSimulator(detuned, Integrator::Exact).evolve(idle, psi)));
  // An idle prefix, then a π pulse that RK4 integrates.
  const PulseSimulator exact(make_system(1, cal), Integrator::Exact);
  const PulseSimulator rk4(make_system(1, cal), Integrator::Rk4, 4);
  Schedule s;
  s.append(pulse::Delay{32, Channel::drive(0)});
  s.append_sequential(cal.x(0));
  CVec ground(2, cxd{0.0, 0.0});
  ground[0] = 1.0;
  EXPECT_NEAR(std::norm(rk4.evolve(s, ground)[1]), 1.0, 1e-3);
  EXPECT_LT(rk4.unitary(s).max_abs_diff(exact.unitary(s)), 1e-4);
}

TEST(PulseWalk, RejectsWhatTheWalkDoesNotCover) {
  EXPECT_THROW(PulseSystem(0), hgp::Error);
  EXPECT_THROW(PulseSystem(3), hgp::Error);
  EXPECT_THROW(toronto().subsystem({0, 1, 2}, false), hgp::Error);
  const auto cal = make_cal(1);
  const PulseSimulator rk4(make_system(1, cal), Integrator::Rk4, 4);
  EXPECT_THROW(rk4.propagator(cal.x(0)), hgp::Error);
  const PulseSimulator exact(make_system(1, cal));
  EXPECT_THROW(exact.evolve(cal.x(0), CVec(4, cxd{0.0, 0.0})), hgp::Error);
}
