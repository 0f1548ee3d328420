#include "core/models.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "core/qaoa.hpp"
#include "linalg/types.hpp"
#include "transpile/scheduling.hpp"
#include "transpile/transpiler.hpp"

namespace hgp::core {

using qc::GateKind;
using qc::Param;

std::string model_name(ModelKind kind) {
  switch (kind) {
    case ModelKind::GateLevel: return "gate-level";
    case ModelKind::Hybrid: return "hybrid gate-pulse";
    case ModelKind::PulseLevel: return "pulse-level";
  }
  return "?";
}

namespace {

/// Default fixed placement: a connected line on the Falcon heavy-hex (valid
/// on both the 27- and 16-qubit devices), mirroring the paper's fixed
/// logical-to-physical mapping.
std::vector<std::size_t> default_line_layout(std::size_t n) {
  static const std::vector<std::size_t> line = {0, 1, 4, 7, 10, 12, 13, 14};
  HGP_REQUIRE(n <= line.size(), "default layout supports up to 8 qubits");
  return {line.begin(), line.begin() + static_cast<long>(n)};
}

}  // namespace

void check_initial_layout(const std::vector<std::size_t>& layout, std::size_t n,
                          const backend::FakeBackend& dev) {
  if (layout.empty()) return;
  if (layout.size() < n)
    throw Error("initial layout places " + std::to_string(layout.size()) + " of " +
                std::to_string(n) + " virtual qubits");
  std::vector<bool> used(dev.num_qubits(), false);
  for (const std::size_t q : layout) {
    if (q >= used.size())
      throw Error("initial layout names physical qubit " + std::to_string(q) + " but '" +
                  dev.name() + "' has " + std::to_string(used.size()));
    if (used[q])
      throw Error("initial layout places two virtual qubits on physical qubit " +
                  std::to_string(q));
    used[q] = true;
  }
}

pulse::Schedule QaoaModel::mixer_pulse(std::size_t phys_q, double angle, double phase,
                                       double freq_ghz) const {
  const pulse::QubitCalibration& qcal = dev_->calibrations().qubit(phys_q);
  const int dur = config_.mixer_duration_dt;
  const double sigma = dur / 4.0;
  const pulse::PulseShape unit = pulse::PulseShape::gaussian(dur, 1.0, sigma);
  // rotation angle = 2π · rate · amp · area; saturate at full output (this
  // is the physical floor the Step-I duration search runs into).
  double amp = std::abs(angle) / (2.0 * la::kPi * qcal.drive_rate_ghz * unit.area_ns());
  amp = std::min(amp, 1.0);
  const double envelope_angle = angle >= 0.0 ? 0.0 : la::kPi;

  const pulse::Channel d = pulse::Channel::drive(phys_q);
  pulse::Schedule s("mixer");
  // Ansatz frame knobs are applied and reverted inside the block, so they
  // are physical rotation-axis/frequency choices, not deferred virtual-Z.
  if (phase != 0.0) s.append(pulse::ShiftPhase{phase, d});
  if (freq_ghz != 0.0) s.append(pulse::ShiftFrequency{freq_ghz, d});
  s.append(pulse::Play{pulse::PulseShape::gaussian(dur, amp, sigma, envelope_angle), d});
  if (freq_ghz != 0.0) s.append(pulse::ShiftFrequency{-freq_ghz, d});
  if (phase != 0.0) s.append(pulse::ShiftPhase{-phase, d});
  return s;
}

QaoaModel QaoaModel::build(const graph::Graph& graph, const backend::FakeBackend& dev,
                           ModelKind kind, const ModelConfig& config) {
  QaoaModel m;
  m.dev_ = &dev;
  m.kind_ = kind;
  m.config_ = config;

  const std::size_t n = graph.num_vertices();
  check_initial_layout(config.initial_layout, n, dev);
  std::vector<std::size_t> layout =
      config.initial_layout.empty() ? default_line_layout(n) : config.initial_layout;

  // All trainable parameters are normalized to [-1, 1]: angle-like knobs
  // are ×π, frequency shifts ×0.1 GHz. A single COBYLA trust radius then
  // explores every dimension at a comparable rate.
  const double pi = la::kPi;
  auto add_param = [&](const std::string& name, double init) {
    m.params_.push_back(ParamSpec{name, init, -1.0, 1.0});
    return static_cast<int>(m.params_.size()) - 1;
  };
  auto add_op = [&](OpSource::Kind k, qc::Op op, std::array<int, 3> knobs) {
    m.ops_.push_back(OpSource{k, std::move(op), knobs});
  };

  // One transpiled problem segment per QAOA layer, threading the layout,
  // then its parameters and ops in program order.
  for (int l = 0; l < config.p; ++l) {
    qc::Circuit c(n);
    if (l == 0)
      for (std::size_t q = 0; q < n; ++q) c.h(q);
    c.barrier();
    for (const graph::Edge& e : graph.edges())
      c.rzz(e.u, e.v, Param::symbol(gamma_index(l), -e.weight));
    c.barrier();
    if (kind == ModelKind::GateLevel)
      for (std::size_t q = 0; q < n; ++q) c.rx(q, Param::symbol(beta_index(l), 2.0));

    transpile::TranspileOptions topt;
    topt.initial_layout = layout;
    topt.cancellation = config.gate_optimization;
    topt.sabre_routing = config.gate_optimization;
    topt.seed = config.seed + static_cast<std::uint64_t>(l);

    transpile::TranspileResult best = transpile::transpile(c, dev, topt);
    if (config.gate_optimization) {
      // Step II also buys better routing: best of a few SABRE seeds.
      for (int trial = 1; trial < 4; ++trial) {
        topt.seed = config.seed + static_cast<std::uint64_t>(l) + 1000u * trial;
        transpile::TranspileResult alt = transpile::transpile(c, dev, topt);
        if (alt.swap_count < best.swap_count) best = std::move(alt);
      }
    }
    m.swap_count_ += best.swap_count;
    const qc::Circuit seg = config.dynamical_decoupling ? transpile::insert_dd(best.circuit, dev)
                                                        : std::move(best.circuit);
    layout.assign(best.final_layout.begin(), best.final_layout.begin() + n);

    const std::string ls = std::to_string(l);
    int gamma = -1, beta = -1;
    if (kind != ModelKind::PulseLevel) gamma = add_param("gamma_" + ls, config.init_gamma / pi);
    if (kind == ModelKind::GateLevel) beta = add_param("beta_" + ls, config.init_beta / pi);
    for (std::size_t i = 0; i < seg.ops().size(); ++i) {
      qc::Op op = seg.ops()[i];
      const bool pulse_op = op.kind == GateKind::CX || op.kind == GateKind::SX ||
                            op.kind == GateKind::X;
      if (kind == ModelKind::PulseLevel && pulse_op) {
        // Every physical pulse of the routed circuit is free.
        const std::string tag = "_s" + ls + "_op" + std::to_string(i);
        const std::string pre = op.kind == GateKind::CX ? "cr_" : "d_";
        const int angle = add_param(pre + "theta" + tag, op.kind == GateKind::X ? 1.0 : 0.5);
        add_op(OpSource::Kind::FreePulse, std::move(op),
               {angle, add_param(pre + "phase" + tag, 0.0), add_param(pre + "freq" + tag, 0.0)});
        continue;
      }
      // γ_l and β_l read their θ entries; the pulse-level problem layer
      // keeps γ at init_gamma.
      for (Param& prm : op.params) {
        if (prm.is_constant()) continue;
        prm = kind == ModelKind::PulseLevel
                  ? Param::constant(prm.offset() + prm.scale() * config.init_gamma)
                  : Param::symbol(prm.index() == gamma_index(l) ? gamma : beta, prm.scale(),
                                  prm.offset());
      }
      add_op(OpSource::Kind::Gate, std::move(op), {-1, -1, -1});
    }
    if (kind == ModelKind::GateLevel) continue;

    // The mixer layer after each problem segment: one pulse per qubit.
    add_op(OpSource::Kind::Gate, qc::Op{GateKind::Barrier, {}, {}}, {-1, -1, -1});
    const bool hybrid = kind == ModelKind::Hybrid;
    for (std::size_t q = 0; q < n; ++q) {
      const std::string qs = std::to_string(q);
      const std::string tag = hybrid ? "_" + ls + "_q" + qs : "_s" + ls + "_mix" + qs;
      std::array<int, 3> knobs = {-1, -1, -1};
      if (!hybrid || config.train_amp)
        knobs[0] = add_param("theta" + tag, 2.0 * config.init_beta / pi);
      if (!hybrid || config.train_phase) knobs[1] = add_param("phase" + tag, 0.0);
      if (!hybrid || config.train_freq) knobs[2] = add_param("freq" + tag, 0.0);  // ×0.1 GHz
      add_op(OpSource::Kind::Mixer, qc::Op{GateKind::I, {layout[q]}, {}}, knobs);
    }
  }
  m.measure_qubits_ = layout;
  return m;
}

std::vector<double> QaoaModel::initial_parameters() const {
  std::vector<double> x;
  x.reserve(params_.size());
  for (const ParamSpec& p : params_) x.push_back(p.init);
  return x;
}

opt::Bounds QaoaModel::bounds() const {
  opt::Bounds b;
  for (const ParamSpec& p : params_) {
    b.lo.push_back(p.lo);
    b.hi.push_back(p.hi);
  }
  return b;
}

int QaoaModel::mixer_layer_duration_dt() const {
  if (kind_ == ModelKind::GateLevel) {
    // RX compiles to two SX pulses.
    return 2 * dev_->calibrations().qubit(0).sx_duration;
  }
  return config_.mixer_duration_dt;
}

Program QaoaModel::instantiate(const std::vector<double>& theta) const {
  HGP_REQUIRE(theta.size() == params_.size(), "instantiate: wrong parameter count");
  // Angle-like entries are ×π, frequency shifts ×0.1 GHz (see build()).
  std::vector<double> angles(theta.size());
  for (std::size_t j = 0; j < theta.size(); ++j) angles[j] = la::kPi * theta[j];
  const pulse::CalibrationSet& cal = dev_->calibrations();

  Program prog;
  prog.ops.reserve(ops_.size());
  for (const OpSource& src : ops_) {
    if (src.kind == OpSource::Kind::Gate) {
      qc::Op op = src.gate;
      for (Param& p : op.params) p = Param::constant(p.eval(angles));
      prog.ops.push_back(ExecOp::from_gate(std::move(op)));
      continue;
    }
    const auto [a, ph, f] = src.knobs;
    const double angle = a >= 0 ? angles[a] : 2.0 * config_.init_beta;
    const double phase = ph >= 0 ? angles[ph] : 0.0;
    const double freq = f >= 0 ? 0.1 * theta[f] : 0.0;
    const std::vector<std::size_t>& qubits = src.gate.qubits;
    if (src.kind == OpSource::Kind::Mixer) {
      prog.ops.push_back(
          ExecOp::from_pulse(qubits, mixer_pulse(qubits[0], angle, phase, freq)));
    } else if (src.gate.kind == GateKind::CX) {
      const std::size_t c = qubits[0], t = qubits[1];
      const pulse::Channel u = pulse::Channel::control(cal.control_channel(c, t));
      pulse::Schedule sched("free-cx");
      if (phase != 0.0) sched.append(pulse::ShiftPhase{phase, u});
      if (freq != 0.0) sched.append(pulse::ShiftFrequency{freq, u});
      sched.append_sequential(cal.ecr(c, t, angle));
      if (freq != 0.0) sched.append(pulse::ShiftFrequency{-freq, u});
      if (phase != 0.0) sched.append(pulse::ShiftPhase{-phase, u});
      sched.append_sequential(cal.rx_direct(t, -la::kPi / 2.0));
      sched.append_sequential(cal.rz(c, -la::kPi / 2.0));
      prog.ops.push_back(ExecOp::from_pulse(qubits, std::move(sched)));
    } else {  // SX or X
      const std::size_t q = qubits[0];
      const pulse::Channel d = pulse::Channel::drive(q);
      pulse::Schedule sched("free-1q");
      if (phase != 0.0) sched.append(pulse::ShiftPhase{phase, d});
      if (freq != 0.0) sched.append(pulse::ShiftFrequency{freq, d});
      sched.append_sequential(cal.rx_direct(q, std::clamp(angle, -la::kPi, la::kPi)));
      if (freq != 0.0) sched.append(pulse::ShiftFrequency{-freq, d});
      if (phase != 0.0) sched.append(pulse::ShiftPhase{-phase, d});
      prog.ops.push_back(ExecOp::from_pulse(qubits, std::move(sched)));
    }
  }
  prog.measure_qubits = measure_qubits_;
  return prog;
}

std::vector<std::vector<std::size_t>> QaoaModel::parameter_ops() const {
  std::vector<std::vector<std::size_t>> ops_of(params_.size());
  auto reads = [&](int j, std::size_t k) {
    if (j >= 0 && (ops_of[j].empty() || ops_of[j].back() != k)) ops_of[j].push_back(k);
  };
  for (std::size_t k = 0; k < ops_.size(); ++k) {
    for (const Param& p : ops_[k].gate.params) reads(p.index(), k);
    for (const int j : ops_[k].knobs) reads(j, k);
  }
  return ops_of;
}

}  // namespace hgp::core
