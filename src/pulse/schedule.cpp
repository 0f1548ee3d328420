#include "pulse/schedule.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <tuple>

#include "common/error.hpp"

namespace hgp::pulse {

namespace {

void append_hex(std::string& out, const char* tag, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s%a", tag, v);
  out += buf;
}

}  // namespace

Channel instruction_channel(const Instruction& inst) {
  return std::visit(
      [](const auto& i) -> Channel {
        using T = std::decay_t<decltype(i)>;
        if constexpr (std::is_same_v<T, Acquire>)
          return Channel::acquire(i.qubit);
        else
          return i.channel;
      },
      inst);
}

int instruction_duration(const Instruction& inst) {
  return std::visit(
      [](const auto& i) -> int {
        using T = std::decay_t<decltype(i)>;
        if constexpr (std::is_same_v<T, Play>)
          return i.shape.duration();
        else if constexpr (std::is_same_v<T, Delay>)
          return i.duration;
        else if constexpr (std::is_same_v<T, Acquire>)
          return i.duration;
        else
          return 0;
      },
      inst);
}

int Schedule::duration() const {
  int d = 0;
  for (const auto& [c, end] : channel_end_) d = std::max(d, end);
  return d;
}

int Schedule::channel_duration(const Channel& c) const {
  const auto it = channel_end_.find(c);
  return it == channel_end_.end() ? 0 : it->second;
}

std::vector<Channel> Schedule::channels() const {
  std::vector<Channel> out;
  out.reserve(channel_end_.size());
  for (const auto& [c, end] : channel_end_) out.push_back(c);
  return out;
}

Schedule& Schedule::append(Instruction inst) {
  const Channel c = instruction_channel(inst);
  return insert(channel_duration(c), std::move(inst));
}

Schedule& Schedule::insert(int t0, Instruction inst) {
  HGP_REQUIRE(t0 >= 0, "Schedule::insert: negative start time");
  const Channel c = instruction_channel(inst);
  const int end = t0 + instruction_duration(inst);
  auto& channel_end = channel_end_[c];
  channel_end = std::max(channel_end, end);
  instructions_.push_back(TimedInstruction{t0, std::move(inst)});
  keep_sorted();
  return *this;
}

Schedule& Schedule::insert(int t0, const Schedule& other) {
  for (const TimedInstruction& ti : other.instructions_) insert(t0 + ti.t0, ti.inst);
  return *this;
}

Schedule& Schedule::append_sequential(const Schedule& other) {
  return insert(duration(), other);
}

Schedule& Schedule::append_aligned(const Schedule& other) {
  int t0 = 0;
  for (const Channel& c : other.channels()) t0 = std::max(t0, channel_duration(c));
  return insert(t0, other);
}

std::size_t Schedule::play_count() const {
  return static_cast<std::size_t>(
      std::count_if(instructions_.begin(), instructions_.end(), [](const TimedInstruction& ti) {
        return std::holds_alternative<Play>(ti.inst);
      }));
}

std::uint64_t Schedule::fingerprint() const {
  struct Record {
    int t0;
    Channel channel;
    std::string text;
  };
  std::vector<Record> records;
  records.reserve(instructions_.size());
  for (const TimedInstruction& ti : instructions_) {
    Record r;
    r.t0 = ti.t0;
    r.channel = instruction_channel(ti.inst);
    std::visit(
        [&r](const auto& i) {
          using T = std::decay_t<decltype(i)>;
          if constexpr (std::is_same_v<T, Play>)
            r.text = "P" + i.shape.key_str();
          else if constexpr (std::is_same_v<T, Delay>)
            r.text = "D" + std::to_string(i.duration);
          else if constexpr (std::is_same_v<T, ShiftPhase>)
            append_hex(r.text, "p+", i.phase);
          else if constexpr (std::is_same_v<T, SetPhase>)
            append_hex(r.text, "p=", i.phase);
          else if constexpr (std::is_same_v<T, ShiftFrequency>)
            append_hex(r.text, "f+", i.freq_ghz);
          else if constexpr (std::is_same_v<T, SetFrequency>)
            append_hex(r.text, "f=", i.freq_ghz);
          else  // Acquire
            r.text = "A" + std::to_string(i.duration);
        },
        ti.inst);
    records.push_back(std::move(r));
  }
  // Canonical order: (t0, channel), stable within a channel. Instructions on
  // distinct channels at one t0 commute (independent frames, additive drive
  // terms), so interleaving differences across channels must not change the
  // key; same-channel order is semantics (SetPhase then ShiftPhase != the
  // reverse) and is preserved.
  std::stable_sort(records.begin(), records.end(), [](const Record& a, const Record& b) {
    return std::tie(a.t0, a.channel) < std::tie(b.t0, b.channel);
  });

  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;  // FNV prime
    }
  };
  for (const Record& r : records) {
    mix(std::to_string(r.t0));
    mix(r.channel.str());
    mix(r.text);
    mix(";");
  }
  return h;
}

void Schedule::keep_sorted() {
  std::stable_sort(instructions_.begin(), instructions_.end(),
                   [](const TimedInstruction& a, const TimedInstruction& b) { return a.t0 < b.t0; });
}

std::string Schedule::draw() const {
  std::ostringstream os;
  os << "Schedule";
  if (!name_.empty()) os << " '" << name_ << "'";
  os << " (duration " << duration() << "dt)\n";
  const double scale = duration() > 96 ? 96.0 / duration() : 1.0;
  for (const Channel& c : channels()) {
    os << "  " << c.str() << ": ";
    std::string row(static_cast<std::size_t>(duration() * scale) + 1, '.');
    for (const TimedInstruction& ti : instructions_) {
      if (!(instruction_channel(ti.inst) == c)) continue;
      const int t0 = static_cast<int>(ti.t0 * scale);
      const int d = instruction_duration(ti.inst);
      if (d == 0) {
        char mark = '|';
        if (std::holds_alternative<ShiftPhase>(ti.inst) ||
            std::holds_alternative<SetPhase>(ti.inst))
          mark = 'z';
        if (std::holds_alternative<ShiftFrequency>(ti.inst) ||
            std::holds_alternative<SetFrequency>(ti.inst))
          mark = 'f';
        if (static_cast<std::size_t>(t0) < row.size()) row[static_cast<std::size_t>(t0)] = mark;
        continue;
      }
      const int span = std::max(1, static_cast<int>(d * scale));
      const char fill = std::holds_alternative<Play>(ti.inst) ? '#' : '_';
      for (int t = t0; t < t0 + span && static_cast<std::size_t>(t) < row.size(); ++t)
        row[static_cast<std::size_t>(t)] = fill;
    }
    os << row << "\n";
  }
  return os.str();
}

}  // namespace hgp::pulse
