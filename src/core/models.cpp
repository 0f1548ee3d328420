#include "core/models.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
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

int gamma_slot(int layer) { return 2 * layer; }
int beta_slot(int layer) { return 2 * layer + 1; }

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
  m.graph_ = &graph;
  m.kind_ = kind;
  m.config_ = config;

  const std::size_t n = graph.num_vertices();
  check_initial_layout(config.initial_layout, n, dev);
  std::vector<std::size_t> layout =
      config.initial_layout.empty() ? default_line_layout(n) : config.initial_layout;

  // Transpile one problem segment per QAOA layer, threading the layout.
  for (int l = 0; l < config.p; ++l) {
    qc::Circuit c(n);
    if (l == 0)
      for (std::size_t q = 0; q < n; ++q) c.h(q);
    c.barrier();
    for (const graph::Edge& e : graph.edges())
      c.rzz(e.u, e.v, Param::symbol(gamma_slot(l), -e.weight));
    c.barrier();
    if (kind == ModelKind::GateLevel)
      for (std::size_t q = 0; q < n; ++q) c.rx(q, Param::symbol(beta_slot(l), 2.0));

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

    GateSegment seg;
    seg.circuit = config.dynamical_decoupling ? transpile::insert_dd(best.circuit, dev)
                                              : std::move(best.circuit);
    seg.layout_after.assign(best.final_layout.begin(), best.final_layout.begin() + n);
    layout = seg.layout_after;
    m.segments_.push_back(std::move(seg));
  }

  // ----- parameter space -----
  auto add_param = [&](const std::string& name, double init, double lo, double hi) {
    m.params_.push_back(ParamSpec{name, init, lo, hi});
    return static_cast<int>(m.params_.size()) - 1;
  };

  // All trainable parameters are normalized to [-1, 1]: angle-like knobs
  // are ×π, frequency shifts ×0.1 GHz. A single COBYLA trust radius then
  // explores every dimension at a comparable rate.
  const double pi = la::kPi;
  if (kind == ModelKind::GateLevel) {
    for (int l = 0; l < config.p; ++l) {
      add_param("gamma_" + std::to_string(l), config.init_gamma / pi, -1.0, 1.0);
      add_param("beta_" + std::to_string(l), config.init_beta / pi, -1.0, 1.0);
    }
  } else if (kind == ModelKind::Hybrid) {
    for (int l = 0; l < config.p; ++l) {
      add_param("gamma_" + std::to_string(l), config.init_gamma / pi, -1.0, 1.0);
      for (std::size_t q = 0; q < n; ++q) {
        const std::string tag = "_" + std::to_string(l) + "_q" + std::to_string(q);
        if (config.train_amp)
          add_param("theta" + tag, 2.0 * config.init_beta / pi, -1.0, 1.0);
        if (config.train_phase) add_param("phase" + tag, 0.0, -1.0, 1.0);
        if (config.train_freq) add_param("freq" + tag, 0.0, -1.0, 1.0);  // ×0.1 GHz
      }
    }
  } else {  // PulseLevel: every physical pulse of the routed circuit is free
    m.freeop_param_base_.resize(m.segments_.size());
    for (std::size_t s = 0; s < m.segments_.size(); ++s) {
      const auto& ops = m.segments_[s].circuit.ops();
      m.freeop_param_base_[s].assign(ops.size(), -1);
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const qc::Op& op = ops[i];
        std::ostringstream tag;
        tag << "_s" << s << "_op" << i;
        if (op.kind == GateKind::CX) {
          m.freeop_param_base_[s][i] =
              add_param("cr_theta" + tag.str(), 0.5, -1.0, 1.0);
          add_param("cr_phase" + tag.str(), 0.0, -1.0, 1.0);
          add_param("cr_freq" + tag.str(), 0.0, -1.0, 1.0);
        } else if (op.kind == GateKind::SX || op.kind == GateKind::X) {
          const double init = op.kind == GateKind::SX ? 0.5 : 1.0;
          m.freeop_param_base_[s][i] = add_param("d_theta" + tag.str(), init, -1.0, 1.0);
          add_param("d_phase" + tag.str(), 0.0, -1.0, 1.0);
          add_param("d_freq" + tag.str(), 0.0, -1.0, 1.0);
        }
      }
      // The mixer pulses of the pulse-level model are free as well.
      m.pulse_mixer_base_.push_back(m.params_.size());
      for (std::size_t q = 0; q < n; ++q) {
        const std::string tag = "_s" + std::to_string(s) + "_mix" + std::to_string(q);
        add_param("theta" + tag, 2.0 * config.init_beta / pi, -1.0, 1.0);
        add_param("phase" + tag, 0.0, -1.0, 1.0);
        add_param("freq" + tag, 0.0, -1.0, 1.0);
      }
    }
  }
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

void QaoaModel::set_mixer_duration(int duration_dt) {
  HGP_REQUIRE(duration_dt >= 32 && duration_dt % 32 == 0,
              "set_mixer_duration: duration must be a positive multiple of 32 dt");
  config_.mixer_duration_dt = duration_dt;
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
  const std::size_t n = graph_->num_vertices();

  // Fill the slot vector the transpiled segments were built against.
  std::vector<double> slots(2 * static_cast<std::size_t>(config_.p), 0.0);
  std::size_t cursor = 0;  // walks params_ in the order build() created them
  const std::size_t mixer_params_per_qubit =
      static_cast<std::size_t>(config_.train_amp) + config_.train_phase + config_.train_freq;

  if (kind_ == ModelKind::GateLevel) {
    for (int l = 0; l < config_.p; ++l) {
      slots[gamma_slot(l)] = la::kPi * theta[2 * l];
      slots[beta_slot(l)] = la::kPi * theta[2 * l + 1];
    }
  } else if (kind_ == ModelKind::Hybrid) {
    for (int l = 0; l < config_.p; ++l) {
      slots[gamma_slot(l)] = la::kPi * theta[cursor];
      cursor += 1 + n * mixer_params_per_qubit;
    }
  } else {
    for (int l = 0; l < config_.p; ++l) slots[gamma_slot(l)] = config_.init_gamma;
  }

  Program prog;
  cursor = 0;
  const pulse::CalibrationSet& cal = dev_->calibrations();

  for (std::size_t s = 0; s < segments_.size(); ++s) {
    const qc::Circuit bound = segments_[s].circuit.bound(slots);
    for (std::size_t i = 0; i < bound.ops().size(); ++i) {
      const qc::Op& op = bound.ops()[i];
      const int base =
          kind_ == ModelKind::PulseLevel ? freeop_param_base_[s][i] : -1;
      if (base < 0) {
        prog.ops.push_back(ExecOp::from_gate(op));
        continue;
      }
      // Pulse-level model: this op's pulses are trainable (scaled units).
      const double angle = la::kPi * theta[static_cast<std::size_t>(base)];
      const double phase = la::kPi * theta[static_cast<std::size_t>(base) + 1];
      const double freq = 0.1 * theta[static_cast<std::size_t>(base) + 2];
      if (op.kind == GateKind::CX) {
        const std::size_t c = op.qubits[0], t = op.qubits[1];
        const pulse::Channel u =
            pulse::Channel::control(cal.control_channel(c, t));
        pulse::Schedule sched("free-cx");
        if (phase != 0.0) sched.append(pulse::ShiftPhase{phase, u});
        if (freq != 0.0) sched.append(pulse::ShiftFrequency{freq, u});
        sched.append_sequential(cal.ecr(c, t, angle));
        if (freq != 0.0) sched.append(pulse::ShiftFrequency{-freq, u});
        if (phase != 0.0) sched.append(pulse::ShiftPhase{-phase, u});
        sched.append_sequential(cal.rx_direct(t, -la::kPi / 2.0));
        sched.append_sequential(cal.rz(c, -la::kPi / 2.0));
        prog.ops.push_back(ExecOp::from_pulse({c, t}, std::move(sched)));
      } else {  // SX or X
        const std::size_t q = op.qubits[0];
        const pulse::Channel d = pulse::Channel::drive(q);
        pulse::Schedule sched("free-1q");
        if (phase != 0.0) sched.append(pulse::ShiftPhase{phase, d});
        if (freq != 0.0) sched.append(pulse::ShiftFrequency{freq, d});
        sched.append_sequential(cal.rx_direct(q, std::clamp(angle, -la::kPi, la::kPi)));
        if (freq != 0.0) sched.append(pulse::ShiftFrequency{-freq, d});
        if (phase != 0.0) sched.append(pulse::ShiftPhase{-phase, d});
        prog.ops.push_back(ExecOp::from_pulse({q}, std::move(sched)));
      }
    }

    // Mixer layer after each problem segment.
    if (kind_ == ModelKind::Hybrid) {
      ++cursor;  // past gamma_l
      prog.ops.push_back(ExecOp::from_gate(qc::Op{GateKind::Barrier, {}, {}}));
      for (std::size_t q = 0; q < n; ++q) {
        double angle = 2.0 * config_.init_beta, phase = 0.0, freq = 0.0;
        if (config_.train_amp) angle = la::kPi * theta[cursor++];
        if (config_.train_phase) phase = la::kPi * theta[cursor++];
        if (config_.train_freq) freq = 0.1 * theta[cursor++];
        prog.ops.push_back(ExecOp::from_pulse(
            {segments_[s].layout_after[q]},
            mixer_pulse(segments_[s].layout_after[q], angle, phase, freq)));
      }
    } else if (kind_ == ModelKind::PulseLevel) {
      const std::size_t mix_base = pulse_mixer_base_[s];
      prog.ops.push_back(ExecOp::from_gate(qc::Op{GateKind::Barrier, {}, {}}));
      for (std::size_t q = 0; q < n; ++q) {
        const double angle = la::kPi * theta[mix_base + 3 * q];
        const double phase = la::kPi * theta[mix_base + 3 * q + 1];
        const double freq = 0.1 * theta[mix_base + 3 * q + 2];
        prog.ops.push_back(ExecOp::from_pulse(
            {segments_[s].layout_after[q]},
            mixer_pulse(segments_[s].layout_after[q], angle, phase, freq)));
      }
    }
  }

  prog.measure_qubits.resize(n);
  for (std::size_t q = 0; q < n; ++q)
    prog.measure_qubits[q] = segments_.back().layout_after[q];
  return prog;
}

}  // namespace hgp::core
