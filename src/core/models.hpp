#pragma once

#include <array>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "core/program.hpp"
#include "graph/graph.hpp"
#include "optimize/optimizer.hpp"

namespace hgp::core {

/// The three abstraction layers compared in the paper.
enum class ModelKind {
  GateLevel,   // standard QAOA, everything compiled through fixed gates
  Hybrid,      // gate-level problem layer + native-pulse mixer (the paper's
               // contribution)
  PulseLevel,  // VQP-style: the problem layer's pulses are free too
};

std::string model_name(ModelKind kind);

/// Model construction options.
struct ModelConfig {
  int p = 1;
  /// Mixer pulse length (dt); Step I's binary search shrinks this.
  int mixer_duration_dt = 320;
  /// Initial angles (shared across models for fairness).
  double init_gamma = 0.65;
  double init_beta = 0.40;
  /// Step II: SABRE routing restarts + commutative cancellation.
  bool gate_optimization = false;
  /// Fixed virtual→physical placement; empty = default device line.
  std::vector<std::size_t> initial_layout;
  /// Step III menu: insert X–X dynamical-decoupling echoes into idle
  /// windows of the compiled problem segments.
  bool dynamical_decoupling = false;
  /// Which of the mixer pulse's knobs are trainable (ablation A4).
  bool train_amp = true;
  bool train_phase = true;
  bool train_freq = true;
  std::uint64_t seed = 7;
};

/// Throws hgp::Error unless `layout` is a usable fixed placement of an
/// n-vertex problem on `dev`: empty (the default device line), or at least n
/// entries, each a physical qubit of `dev`, none repeated. QaoaModel::build
/// and serve::validate_job both call it, so a malformed layout from a wire
/// client is rejected at submit instead of indexing past the router's
/// tables.
void check_initial_layout(const std::vector<std::size_t>& layout, std::size_t n,
                          const backend::FakeBackend& dev);

/// One named, bounded parameter of a model.
struct ParamSpec {
  std::string name;
  double init = 0.0;
  double lo = 0.0;
  double hi = 0.0;
};

/// A QAOA model bound to one backend: owns the transpiled problem segments,
/// op by op, and knows how to turn a parameter vector θ into an executable
/// Program. It is
/// immutable once built; an executor template compiled from it keeps a
/// pointer to it (Executor::compile), so it must outlive that template.
class QaoaModel {
 public:
  static QaoaModel build(const graph::Graph& graph, const backend::FakeBackend& dev,
                         ModelKind kind, const ModelConfig& config);

  ModelKind kind() const { return kind_; }
  const std::vector<ParamSpec>& parameters() const { return params_; }
  std::size_t num_parameters() const { return params_.size(); }
  std::vector<double> initial_parameters() const;
  opt::Bounds bounds() const;

  /// Instantiate the executable program at a parameter vector. Every θ gives
  /// the same ops, in the same order, with the same kinds, qubits and
  /// durations, and the same measure map; only parameter values and pulse
  /// schedule contents move.
  Program instantiate(const std::vector<double>& theta) const;
  /// For each entry j of θ, the ops of instantiate(θ) that read it, by
  /// position in Program::ops, ascending. It is read from the same per-op
  /// table instantiate reads θ through, so moving θ[j] alone can change only
  /// these ops.
  std::vector<std::vector<std::size_t>> parameter_ops() const;

  /// Duration of one mixer layer in dt: 2 SX pulses for the gate model, one
  /// parametric pulse for the others — the paper's 320dt vs 128dt metric.
  int mixer_layer_duration_dt() const;

  std::size_t swap_count() const { return swap_count_; }

 private:
  /// One op of instantiate(θ), in program order: the table instantiate reads
  /// θ through and parameter_ops() reports.
  struct OpSource {
    enum class Kind {
      Gate,       // a transpiled problem-segment op
      FreePulse,  // pulse-level: a CX, SX or X of the problem layer as a free pulse
      Mixer,      // a mixer pulse on gate.qubits[0]
    };
    Kind kind = Kind::Gate;
    /// Gate: the op, whose symbolic parameters index θ directly (value =
    /// offset + scale · π θ[j]). Pulses: the gate kind and physical qubits.
    qc::Op gate;
    /// Pulses: the θ entries of the angle, phase and frequency knobs; -1 =
    /// an untrained knob at its default.
    std::array<int, 3> knobs = {-1, -1, -1};
  };

  const backend::FakeBackend* dev_ = nullptr;
  ModelKind kind_ = ModelKind::GateLevel;
  ModelConfig config_;
  std::vector<ParamSpec> params_;
  std::vector<OpSource> ops_;
  std::vector<std::size_t> measure_qubits_;
  std::size_t swap_count_ = 0;

  pulse::Schedule mixer_pulse(std::size_t phys_q, double angle, double phase,
                              double freq_ghz) const;
};

}  // namespace hgp::core
