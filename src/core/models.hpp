#pragma once

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

/// A QAOA model bound to one backend: owns the transpiled gate segments and
/// knows how to turn a parameter vector into an executable Program.
class QaoaModel {
 public:
  static QaoaModel build(const graph::Graph& graph, const backend::FakeBackend& dev,
                         ModelKind kind, const ModelConfig& config);

  ModelKind kind() const { return kind_; }
  const std::vector<ParamSpec>& parameters() const { return params_; }
  std::size_t num_parameters() const { return params_.size(); }
  std::vector<double> initial_parameters() const;
  opt::Bounds bounds() const;

  /// Instantiate the executable program at a parameter vector.
  Program instantiate(const std::vector<double>& theta) const;

  /// Rescale the mixer pulse layer (Step I knob). No-op for GateLevel.
  void set_mixer_duration(int duration_dt);
  int mixer_duration_dt() const { return config_.mixer_duration_dt; }
  /// Duration of one mixer layer in dt: 2 SX pulses for the gate model, one
  /// parametric pulse for the others — the paper's 320dt vs 128dt metric.
  int mixer_layer_duration_dt() const;

  std::size_t swap_count() const { return swap_count_; }

 private:
  /// One transpiled problem segment (prep + Hamiltonian layer of layer l)
  /// with its final layout.
  struct GateSegment {
    qc::Circuit circuit;  // physical, native basis, symbolic parameters
    std::vector<std::size_t> layout_after;  // virtual -> physical
  };

  const backend::FakeBackend* dev_ = nullptr;
  const graph::Graph* graph_ = nullptr;
  ModelKind kind_ = ModelKind::GateLevel;
  ModelConfig config_;
  std::vector<ParamSpec> params_;
  std::vector<GateSegment> segments_;  // one per QAOA layer
  std::size_t swap_count_ = 0;
  /// PulseLevel: indices into params_ for each free pulse op, keyed by the
  /// op's position (segment, op index); -1 entries for fixed ops.
  std::vector<std::vector<int>> freeop_param_base_;
  /// PulseLevel: params_ index of each segment's first mixer parameter.
  std::vector<std::size_t> pulse_mixer_base_;

  pulse::Schedule mixer_pulse(std::size_t phys_q, double angle, double phase,
                              double freq_ghz) const;
};

}  // namespace hgp::core
