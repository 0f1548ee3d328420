#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "backend/presets.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "serve/job_service.hpp"

namespace hgp::net {

/// Wire front end of the serve subsystem: one acceptor thread, one session
/// thread per connection, all multiplexing onto a single shared JobService
/// (one worker pool, one compiled-block cache, one fair queue — exactly what
/// an in-process caller gets). A session speaks the HGPN framing of
/// net/protocol.hpp; the payloads are the *same* versioned
/// serve::JobRequest/JobOutcome schema JobService::submit consumes in
/// process, and validate_job runs on the server against the deserialized
/// request just as it would have run in the submitting process — so a job
/// submitted over the socket is validated, scheduled, and trained
/// bit-identically to the same job submitted in process.
///
/// The acceptor also answers plain HTTP GET on the same port (discriminated
/// by peeking the first bytes) with the process-wide Prometheus exposition,
/// so `curl http://host:port/metrics` works against a running server with no
/// second listener.
///
/// Authn-lite: Options::tokens maps opaque client tokens to tenant names.
/// When the map is non-empty a session must open with a Hello frame carrying
/// a known token, and every job it submits is stamped with the mapped tenant
/// — the FairJobQueue tenant, so wire clients get deficit-round-robin fair
/// shares per token, not per whatever tenant string they chose to send.
/// With an empty map the server is open: Hello with any token resolves to
/// the empty tenant and submitted jobs keep their own tenant field.
class Server {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    /// 0 = ephemeral; the bound port is reported by port().
    std::uint16_t port = 0;
    /// token -> tenant (see class comment). Empty = open server.
    std::map<std::string, std::string> tokens;
    /// Options of the owned JobService (worker pool, admission control).
    serve::JobService::Options service;
    /// Refuse frames with a larger payload (corrupt or hostile length).
    std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  };

  explicit Server(Options options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::uint16_t port() const { return listener_.port(); }
  serve::JobService& service() { return service_; }

  /// Stop accepting, wake every session, join all threads. Jobs already
  /// queued or running are owned by the JobService and keep running; their
  /// outcomes stay pollable in process. Idempotent.
  void stop();

 private:
  struct Session {
    Socket sock;
    std::thread thread;
    std::atomic<bool> done{false};
    bool authenticated = false;
    std::string tenant;
  };

  void accept_loop();
  void run_session(Session* session);
  /// Dispatch one authenticated frame; false = close the session.
  bool handle_frame(Session& session, const Frame& frame);
  void handle_submit(Session& session, const Frame& frame);
  void handle_await(Session& session, const Frame& frame);
  void handle_watch(Session& session, const Frame& frame);
  /// Answer one plain-HTTP connection (Prometheus scrape) and close it.
  void serve_http(Socket& sock);
  void send_error(Session& session, WireStatus status, const std::string& message);
  /// Resolve a preset name against the owned backend cache (one instance per
  /// name for the server's lifetime — SweepJob::dev stays valid as long as
  /// any job might run). Null when the name is unknown.
  const backend::FakeBackend* resolve_backend(const std::string& name);
  /// Join and drop sessions whose threads have exited.
  void reap_sessions();

  Options options_;

  /// "net.*" series.
  struct Metrics {
    obs::Counter* connections;
    obs::Counter* frames_rx;
    obs::Counter* frames_tx;
    obs::Counter* bad_frames;
    obs::Counter* submits;
    obs::Counter* scrapes;
    obs::Counter* auth_failures;
    obs::Gauge* sessions_active;
    obs::Histogram* frame_ns;
  };
  Metrics metrics_;

  /// Owned backends resolved by name for wire submissions. Declared before
  /// service_ so teardown destroys the JobService (draining every run that
  /// may hold a dev pointer) first.
  std::mutex backends_mutex_;
  std::map<std::string, std::unique_ptr<backend::FakeBackend>> backends_;

  serve::JobService service_;

  ListenSocket listener_;
  std::atomic<bool> stop_{false};
  std::mutex sessions_mutex_;
  std::list<Session> sessions_;
  std::thread acceptor_;
};

}  // namespace hgp::net
