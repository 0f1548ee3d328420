#pragma once

// Shared helpers for the experiment harnesses (bench_*). Each binary
// regenerates one table or figure of the paper; environment variables allow
// scaling the budget down for quick smoke runs:
//   HGP_SHOTS  - shots per cost evaluation (default 1024, as in the paper)
//   HGP_EVALS  - COBYLA evaluation budget (default 50; pulse-level uses 4x)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/workflow.hpp"

namespace hgp::benchutil {

/// A 15-vertex simple path through ibmq_toronto's heavy-hex 27 coupling
/// map: consecutive entries are coupled, so a line of up to 15 qubits placed
/// along it routes without SWAPs.
inline const std::vector<std::size_t> kTorontoChain = {6,  7,  4,  1,  2,  3,  5, 8,
                                                       11, 14, 13, 12, 15, 18, 17};

/// A representative machine-in-loop program for executor timing: an n-qubit
/// GHZ-style ladder along kTorontoChain, in the native basis plus an RZ
/// frame per qubit (exercises the virtual-RZ folding and the pulse-compiled
/// SX/CX blocks). n <= 15.
inline core::Program toronto_ladder_program(std::size_t n) {
  core::Program prog;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t q = kTorontoChain[i];
    prog.ops.push_back(core::ExecOp::from_gate(
        qc::Op{qc::GateKind::RZ, {q}, {qc::Param::constant(0.3 + 0.01 * i)}}));
    prog.ops.push_back(core::ExecOp::from_gate(qc::Op{qc::GateKind::SX, {q}, {}}));
    prog.ops.push_back(core::ExecOp::from_gate(
        qc::Op{qc::GateKind::RZ, {q}, {qc::Param::constant(-0.2)}}));
  }
  for (std::size_t i = 0; i + 1 < n; ++i)
    prog.ops.push_back(core::ExecOp::from_gate(
        qc::Op{qc::GateKind::CX, {kTorontoChain[i], kTorontoChain[i + 1]}, {}}));
  for (std::size_t i = 0; i < n; ++i) prog.measure_qubits.push_back(kTorontoChain[i]);
  return prog;
}

inline std::size_t env_or(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? static_cast<std::size_t>(std::stoul(v)) : fallback;
}

inline core::RunConfig base_config() {
  core::RunConfig cfg;
  cfg.shots = env_or("HGP_SHOTS", 1024);
  cfg.max_evaluations = static_cast<int>(env_or("HGP_EVALS", 50));
  return cfg;
}

/// Mean AR over HGP_SEEDS (default 2) independent training repetitions —
/// smooths single-run scatter while keeping the paper's protocol per run.
inline double mean_ar(const graph::Instance& inst, const backend::FakeBackend& dev,
                      core::ModelKind kind, core::RunConfig cfg) {
  const std::size_t seeds = env_or("HGP_SEEDS", 2);
  double sum = 0.0;
  for (std::size_t s = 0; s < seeds; ++s) {
    cfg.seed = 2023 + 101 * s;
    cfg.model.seed = 7 + 13 * s;
    sum += core::run_qaoa(inst, dev, kind, cfg).ar;
  }
  return sum / static_cast<double>(seeds);
}

inline void header(const char* title) {
  std::printf("==================================================================\n");
  std::printf("%s\n", title);
  std::printf("==================================================================\n");
}

}  // namespace hgp::benchutil
