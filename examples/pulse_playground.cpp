// Pulse-level tour: build schedules, inspect the calibrated gate pulses of a
// fake backend (including the paper's Fig. 2f RZZ realization), and verify
// the cross-resonance physics with the pulse simulator.
//
//   build/examples/example_pulse_playground
#include <cstdio>

#include "backend/presets.hpp"
#include "circuit/gates.hpp"
#include "pulse/calibration.hpp"
#include "pulsesim/simulator.hpp"
#include "transpile/lowering.hpp"

int main() {
  using namespace hgp;
  const backend::FakeBackend dev = backend::make_toronto();
  const pulse::CalibrationSet& cal = dev.calibrations();

  std::printf("== calibrated single-qubit pulses (qubit 0) ==\n");
  std::printf("SX amplitude: %.4f (analytic, drive rate %.4f GHz)\n", cal.sx_amp(0),
              cal.qubit(0).drive_rate_ghz);
  std::printf("%s\n", cal.sx(0).draw().c_str());

  std::printf("== CX(1 -> 4): echoed cross-resonance ==\n");
  const pulse::Schedule cx = cal.cx(1, 4);
  std::printf("%s", cx.draw().c_str());
  std::printf("duration %d dt = %.1f ns, %zu pulses\n\n", cx.duration(),
              cx.duration() * pulse::kDtNs, cx.play_count());

  std::printf("== Fig. 2f: RZZ(0.8) compiled to pulses ==\n");
  qc::Circuit rzz(27);
  rzz.rzz(1, 4, 0.8);
  transpile::LoweringOptions standard;
  standard.include_measure = false;
  transpile::LoweringOptions efficient = standard;
  efficient.pulse_efficient_rzz = true;
  const auto std_sched = transpile::lower_to_pulses(rzz, dev, standard);
  const auto pe_sched = transpile::lower_to_pulses(rzz, dev, efficient);
  std::printf("standard (CX·RZ·CX):  %5d dt, %zu pulses\n", std_sched.schedule.duration(),
              std_sched.schedule.play_count());
  std::printf("pulse-efficient (CR): %5d dt, %zu pulses\n%s\n",
              pe_sched.schedule.duration(), pe_sched.schedule.play_count(),
              pe_sched.schedule.draw().c_str());

  std::printf("== physics check: simulate the calibrated CX ==\n");
  auto sub = dev.subsystem({1, 4}, /*with_coherent_noise=*/false);
  const psim::PulseSimulator sim(std::move(sub.system));
  la::CMat u = sim.unitary(backend::FakeBackend::remap_schedule(cx, sub.remap));
  const double shift = pulse::CalibrationSet::drive_phase_shift(cx, 1);
  u = la::kron(la::CMat::identity(2), qc::gate_matrix(qc::GateKind::RZ, {-shift})) * u;
  const auto tr = (qc::gate_matrix(qc::GateKind::CX).dagger() * u).trace();
  std::printf("gate fidelity |tr(CX† U)|/4 = %.6f\n", std::abs(tr) / 4.0);

  std::printf("\n== and with the device's coherent miscalibration ==\n");
  auto noisy_sub = dev.subsystem({1, 4}, /*with_coherent_noise=*/true);
  const psim::PulseSimulator noisy_sim(std::move(noisy_sub.system));
  la::CMat un = noisy_sim.unitary(backend::FakeBackend::remap_schedule(cx, noisy_sub.remap));
  un = la::kron(la::CMat::identity(2), qc::gate_matrix(qc::GateKind::RZ, {-shift})) * un;
  const auto trn = (qc::gate_matrix(qc::GateKind::CX).dagger() * un).trace();
  std::printf("gate fidelity |tr(CX† U)|/4 = %.6f  <- what the hybrid model trains around\n",
              std::abs(trn) / 4.0);
  return 0;
}
