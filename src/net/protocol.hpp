#pragma once

#include <cstdint>
#include <string>

#include "common/binio.hpp"
#include "net/socket.hpp"

namespace hgp::net {

/// Length-prefixed binary framing over TCP, built on common/binio.hpp — the
/// same encoding discipline as the job codec, pointed at a socket.
///
/// Every frame is
///
///   u32  magic     "HGPN"
///   u32  version   kProtocolVersion (negotiation: a mismatched peer gets a
///                  BadVersion error frame naming the server's version and
///                  the connection closes — it never misparses)
///   u8   type      FrameType
///   u32  length    payload bytes that follow (bounded by max_frame_bytes)
///   u64  checksum  io::fnv1a over the payload
///   ...  payload   type-specific binio fields (see net::Server/Client)
///
/// Reader trust model is io::Reader's: every field is bounds-checked,
/// corruption degrades to a structured status, and the payload of a frame
/// whose checksum fails is never parsed. A checksum/payload failure is
/// *recoverable* — the length prefix was honored, so the stream is still
/// frame-aligned and the session survives. A bad magic/version/oversized
/// length means frame alignment itself is lost; the only safe move is to
/// report and close.

inline constexpr std::uint32_t kMagic = 0x4E504748u;  // "HGPN" little-endian
inline constexpr std::uint32_t kProtocolVersion = 1;
/// Header bytes ahead of the payload: magic + version + type + length + checksum.
inline constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 1 + 4 + 8;
/// Default payload bound. A JobRequest is a few KiB; an outcome with a long
/// optimizer history a few tens of KiB — 16 MiB is generous headroom, and
/// anything above it is a corrupt or hostile length prefix.
inline constexpr std::size_t kDefaultMaxFrameBytes = 16u << 20;

enum class FrameType : std::uint8_t {
  // client -> server
  Hello = 1,    ///< str token — must be the session's first frame
  Submit = 2,   ///< JobRequest::serialize payload
  Poll = 3,     ///< u64 job id
  Cancel = 4,   ///< u64 job id
  Await = 5,    ///< u64 job id — server replies Outcome when terminal
  Watch = 6,    ///< u64 job id — StateEvent per transition, then Outcome
  Scrape = 7,   ///< empty — Prometheus exposition (HTTP GET works too)
  // server -> client
  HelloOk = 64,     ///< u32 schema version, str resolved tenant
  SubmitReply = 65, ///< u64 id, u8 submit JobState, i32 JobErrorCode, str message
  PollReply = 66,   ///< u8 known, u8 JobState
  CancelReply = 67, ///< u8 accepted
  StateEvent = 68,  ///< u64 id, u8 JobState
  Outcome = 69,     ///< u64 id, u8 known, JobOutcome::serialize payload
  ScrapeReply = 70, ///< str exposition text
  Error = 71,       ///< i32 WireStatus, str message
};

/// Protocol-level statuses (Error frames and read_frame verdicts). Distinct
/// from serve::JobErrorCode: these are about the *conversation*, not a job.
enum class WireStatus : std::int32_t {
  Ok = 0,
  Eof,              ///< peer closed cleanly between frames
  BadMagic,         ///< not a protocol frame — alignment lost, close
  BadVersion,       ///< peer speaks a different protocol version — close
  FrameTooLarge,    ///< length prefix exceeds the bound — close
  BadChecksum,      ///< payload corrupt in flight — frame dropped, session lives
  BadPayload,       ///< well-framed but undecodable payload — session lives
  HelloRequired,    ///< request before (successful) Hello
  Unauthenticated,  ///< unknown tenant token
  UnknownType,      ///< unrecognized frame type — session lives
};

const std::string& wire_status_name(WireStatus status);
/// True when the session can continue after reporting this status.
bool wire_status_recoverable(WireStatus status);

struct Frame {
  FrameType type = FrameType::Error;
  std::string payload;
};

/// Encode one frame (header + checksummed payload) ready to write.
std::string encode_frame(FrameType type, const std::string& payload);

/// Read one frame off the socket. Returns Ok with the frame, Eof on a clean
/// close, or the failure status (frame.payload empty). Throws NetError only
/// for transport failures (reset, mid-frame EOF).
struct ReadResult {
  WireStatus status = WireStatus::Ok;
  Frame frame;
};
ReadResult read_frame(Socket& sock, std::size_t max_frame_bytes = kDefaultMaxFrameBytes);

/// Write one frame.
void write_frame(Socket& sock, FrameType type, const std::string& payload);

}  // namespace hgp::net
