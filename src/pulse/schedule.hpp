#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "pulse/channels.hpp"
#include "pulse/shapes.hpp"

namespace hgp::pulse {

// ----- instruction set -----

/// Emit a pulse envelope on a channel.
struct Play {
  PulseShape shape;
  Channel channel;
};
/// Idle a channel for `duration` samples.
struct Delay {
  int duration = 0;
  Channel channel;
};
/// Add to the channel's frame phase (virtual-Z is a ShiftPhase on the drive
/// channel; zero duration).
struct ShiftPhase {
  double phase = 0.0;
  Channel channel;
};
struct SetPhase {
  double phase = 0.0;
  Channel channel;
};
/// Add to the channel's frequency offset (GHz, relative to the calibrated
/// channel frequency). The paper's mixer ansatz trains this within ±0.1 GHz.
struct ShiftFrequency {
  double freq_ghz = 0.0;
  Channel channel;
};
struct SetFrequency {
  double freq_ghz = 0.0;
  Channel channel;
};
/// Readout acquisition window on qubit `qubit`.
struct Acquire {
  int duration = 0;
  std::size_t qubit = 0;
};

using Instruction =
    std::variant<Play, Delay, ShiftPhase, SetPhase, ShiftFrequency, SetFrequency, Acquire>;

/// Channel an instruction addresses (Acquire reports its qubit's acquire
/// channel) and its duration in samples (0 for frame instructions).
Channel instruction_channel(const Instruction& inst);
int instruction_duration(const Instruction& inst);

struct TimedInstruction {
  int t0 = 0;
  Instruction inst;
};

/// A pulse program: instructions with explicit start times, one timeline per
/// channel. append() places an instruction at the current end of its channel;
/// merge/compose align whole schedules.
class Schedule {
 public:
  Schedule() = default;
  explicit Schedule(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  bool empty() const { return instructions_.empty(); }
  std::size_t size() const { return instructions_.size(); }
  const std::vector<TimedInstruction>& instructions() const { return instructions_; }

  /// Total duration (max channel end time), in dt samples.
  int duration() const;
  /// End time of one channel.
  int channel_duration(const Channel& c) const;
  /// All channels referenced.
  std::vector<Channel> channels() const;

  /// Schedule `inst` at the end of its channel's timeline.
  Schedule& append(Instruction inst);
  /// Schedule `inst` at an explicit time.
  Schedule& insert(int t0, Instruction inst);
  /// Insert all of `other` shifted by t0.
  Schedule& insert(int t0, const Schedule& other);
  /// Append `other` after this schedule's full duration (barrier-like
  /// alignment across all channels).
  Schedule& append_sequential(const Schedule& other);
  /// Append `other` as early as possible: each of other's channels starts at
  /// the max end-time of the channels other uses (per-channel alignment).
  Schedule& append_aligned(const Schedule& other);

  /// Number of Play instructions (a proxy for "pulse count" error costing).
  std::size_t play_count() const;

  /// Canonical content fingerprint of the pulse program: a 64-bit FNV-1a
  /// hash over start times, channels, instruction kinds, durations, and
  /// exact (hexfloat) shape/frame parameters — the same collision
  /// discipline as the executor's hexfloat gate-theta keys, so a parametric
  /// schedule rebound at a nearby amplitude never reuses another angle's
  /// slot. Order-stable: instructions are canonically ordered by
  /// (t0, channel) while preserving same-channel program order (the only
  /// order with physical meaning), so schedules assembled by different
  /// append sequences fingerprint identically iff they realize the same
  /// program. The name is cosmetic and excluded.
  std::uint64_t fingerprint() const;

  /// Multi-line ASCII rendering: one row per channel with pulse boxes.
  std::string draw() const;

 private:
  void keep_sorted();

  std::string name_;
  std::vector<TimedInstruction> instructions_;
  std::map<Channel, int> channel_end_;
};

}  // namespace hgp::pulse
