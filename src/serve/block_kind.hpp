#pragma once

namespace hgp::serve {

/// What kind of program step a cached block was compiled from. Gate blocks
/// key on (gate name, physical qubits, exact parameters); pulse blocks key
/// on the physical qubits plus the schedule's content fingerprint and
/// duration. The cache treats both kinds uniformly — the kind only routes
/// the per-kind hit/miss accounting, so a sweep's stats show whether the
/// expensive pulse-ODE compilations (the hybrid model's trainable mixer
/// layers) are actually being shared.
enum class BlockKind { Gate, Pulse };

}  // namespace hgp::serve
