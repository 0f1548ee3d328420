#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <optional>
#include <string>

#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "serve/job.hpp"

namespace hgp::net {

/// Client side of the HGPN wire protocol: one TCP connection, one session.
/// Construction connects and performs the Hello handshake (token → tenant);
/// every method is then a blocking request/response exchange on that
/// connection. A Client is not thread-safe — it is one ordered conversation.
/// For concurrent or future-returning use, open more clients (run_async
/// below opens its own connection per job, the wire analogue of
/// JobHandle::outcome).
///
/// Submission takes the same serve::JobRequest that JobService::submit takes
/// in process — the request is serialized with its schema version, validated
/// on the server by the same validate_job, and trains bit-identically.
/// SweepJob::dev cannot cross the socket: set JobRequest::backend to a
/// preset name (or leave run.dev set locally — its name() is sent).
///
/// Protocol-level rejections the session survives (bad payload, unknown
/// token) surface as NetError exceptions carrying the server's status name;
/// job-level rejections are ordinary Submitted/JobOutcome values.
class Client {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /// Authn-lite token (see Server::Options::tokens). Ignored by an open
    /// server.
    std::string token;
    std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  };

  explicit Client(Options options);
  Client(const std::string& host, std::uint16_t port, const std::string& token = "")
      : Client(Options{host, port, token, kDefaultMaxFrameBytes}) {}

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  /// Tenant the server resolved this session's token to (empty on an open
  /// server: submitted jobs keep their own tenant field).
  const std::string& tenant() const { return tenant_; }

  /// Submit-time verdict, mirroring serve::JobHandle minus the future (the
  /// outcome lives server-side; fetch it with await/watch/poll).
  struct Submitted {
    serve::JobId id = 0;
    serve::JobState state = serve::JobState::Rejected;
    serve::JobError error;

    bool accepted() const { return state == serve::JobState::Queued; }
  };

  /// Validate-and-queue one job on the server. Rejections (validation,
  /// admission, unknown backend name) come back as Submitted with a terminal
  /// state and structured error — never an exception.
  Submitted submit(const serve::JobRequest& request);

  /// Current lifecycle state (nullopt once the server pruned the job or the
  /// id was never known).
  std::optional<serve::JobState> poll(serve::JobId id);

  /// Request cooperative cancellation; false when the job is unknown or
  /// already terminal.
  bool cancel(serve::JobId id);

  /// Block until the job is terminal and return its outcome (nullopt for an
  /// unknown id). The result doubles are bit-identical to the in-process
  /// outcome.
  std::optional<serve::JobOutcome> await(serve::JobId id);

  /// Stream state transitions (on_state fires per transition, starting with
  /// the current state) until terminal, then return the outcome.
  std::optional<serve::JobOutcome> watch(serve::JobId id,
                                         const std::function<void(serve::JobState)>& on_state);

  /// Prometheus exposition text over the binary protocol (same text the
  /// HTTP GET endpoint serves).
  std::string scrape();

  /// Submit on a dedicated connection and resolve the future with the
  /// terminal outcome — the future-returning submission API. A rejected
  /// submit resolves immediately with the rejection outcome.
  static std::future<serve::JobOutcome> run_async(Options options,
                                                  serve::JobRequest request);

  void close() { sock_.close(); }

 private:
  /// One request/response exchange. Retries past Error frames only when the
  /// status is a recoverable complaint about *this* request — which is a
  /// protocol bug worth throwing on anyway — so in practice: write, read,
  /// throw on Error, return the expected frame.
  Frame rpc(FrameType type, const std::string& payload, FrameType expect);

  Options options_;
  Socket sock_;
  std::string tenant_;
};

}  // namespace hgp::net
