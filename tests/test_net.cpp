// Loopback coverage of the hgp::net wire front end: the HGPN framing, the
// Hello/token handshake, submit/poll/cancel/await/watch over TCP, the
// bit-identical contract against in-process JobService::submit, session
// survival under malformed frames and dead peers, and the Prometheus
// endpoints. Every suite here is named Net* so the sanitizer matrix can point
// TSan at the acceptor/session paths directly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "backend/presets.hpp"
#include "graph/instances.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/obs.hpp"
#include "serve/job_service.hpp"

using namespace hgp;

namespace {

const backend::FakeBackend& toronto() {
  static const backend::FakeBackend dev = backend::make_toronto();
  return dev;
}

core::RunConfig tiny_config(const std::string& optimizer = "cobyla") {
  core::RunConfig cfg;
  cfg.shots = 64;
  cfg.max_evaluations = 5;
  cfg.optimizer = optimizer;
  cfg.executor_threads = 1;
  return cfg;
}

/// A small wire-ready request: backend by *name* (no local dev pointer), the
/// way a remote client that never constructed a FakeBackend submits.
serve::JobRequest wire_request(const std::string& label,
                               const std::string& optimizer = "cobyla") {
  serve::JobRequest request;
  request.run.label = label;
  request.run.instance = graph::paper_task1();
  request.run.kind = core::ModelKind::GateLevel;
  request.run.config = tiny_config(optimizer);
  request.backend = "ibmq_toronto";
  return request;
}

/// The 12 physical qubits of toronto's heavy-hex lattice that form a line.
const std::vector<std::size_t> kLine12 = {0, 1, 4, 7, 10, 12, 13, 14, 16, 19, 22, 25};

graph::Instance line12() {
  graph::Graph g(12);
  for (std::size_t i = 0; i + 1 < 12; ++i) g.add_edge(i, i + 1);
  return graph::Instance{"line12", g, 11.0};
}

/// A 12-qubit request (the acceptance-size workload) — small budgets keep it
/// test-fast, the register is the paper's.
serve::JobRequest request12q(const std::string& label) {
  serve::JobRequest request = wire_request(label);
  request.run.instance = line12();
  request.run.config.shots = 128;
  request.run.config.max_evaluations = 4;
  request.run.config.model.initial_layout = kLine12;
  return request;
}

/// A deliberately slow request: enough shots that cancellation lands mid-run.
serve::JobRequest slow_request(const std::string& label) {
  serve::JobRequest request = request12q(label);
  request.run.config.shots = std::size_t{1} << 16;
  request.run.config.max_evaluations = 8;
  return request;
}

net::Server::Options loopback_options(std::size_t workers = 2) {
  net::Server::Options options;
  options.service.num_workers = workers;
  options.service.cache_capacity = 1024;
  return options;
}

void expect_same_result(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.optimizer.x, b.optimizer.x);
  EXPECT_EQ(a.optimizer.value, b.optimizer.value);
  EXPECT_EQ(a.optimizer.history, b.optimizer.history);
  EXPECT_EQ(a.optimizer.evaluations, b.optimizer.evaluations);
  EXPECT_EQ(a.ar, b.ar);
  EXPECT_EQ(a.final_cost, b.final_cost);
  // Bit-exactness, not just value equality: compare the raw representations
  // of the headline doubles too.
  EXPECT_EQ(std::memcmp(&a.ar, &b.ar, sizeof a.ar), 0);
  EXPECT_EQ(std::memcmp(&a.final_cost, &b.final_cost, sizeof a.final_cost), 0);
}

bool wire_wait_for_state(net::Client& client, serve::JobId id, serve::JobState want,
                         std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (client.poll(id) == want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Round trips

TEST(NetLoopback, SubmitAwaitMatchesInProcessBitExactly) {
  // The same JobRequest runs once over TCP (backend by name) and once in
  // process (dev pointer, separate service) — outcomes must agree to the bit.
  serve::JobRequest in_process = wire_request("net/bitexact", "spsa");
  in_process.run.dev = &toronto();
  serve::JobService local(serve::JobService::Options{1, 1024});
  const serve::JobOutcome local_outcome = local.submit(in_process).outcome.get();
  ASSERT_EQ(local_outcome.state, serve::JobState::Completed);

  net::Server server(loopback_options());
  net::Client client("127.0.0.1", server.port());
  const net::Client::Submitted submitted = client.submit(wire_request("net/bitexact", "spsa"));
  ASSERT_TRUE(submitted.accepted()) << submitted.error.message;
  const auto outcome = client.await(submitted.id);
  ASSERT_TRUE(outcome.has_value());
  ASSERT_EQ(outcome->state, serve::JobState::Completed);
  ASSERT_TRUE(outcome->has_result);
  expect_same_result(outcome->result, local_outcome.result);
}

TEST(NetLoopback, TwelveQubitJobOverTcpMatchesInProcess) {
  serve::JobRequest in_process = request12q("net/12q");
  in_process.run.dev = &toronto();
  serve::JobService local(serve::JobService::Options{1, 1024});
  const serve::JobOutcome local_outcome = local.submit(in_process).outcome.get();
  ASSERT_EQ(local_outcome.state, serve::JobState::Completed);

  net::Server server(loopback_options());
  net::Client client("127.0.0.1", server.port());
  const auto submitted = client.submit(request12q("net/12q"));
  ASSERT_TRUE(submitted.accepted());
  const auto outcome = client.await(submitted.id);
  ASSERT_TRUE(outcome && outcome->state == serve::JobState::Completed);
  expect_same_result(outcome->result, local_outcome.result);
}

TEST(NetLoopback, PollTracksLifecycleAndWatchStreamsIt) {
  net::Server server(loopback_options(1));
  net::Client client("127.0.0.1", server.port());
  const auto submitted = client.submit(wire_request("net/watch"));
  ASSERT_TRUE(submitted.accepted());
  EXPECT_TRUE(submitted.state == serve::JobState::Queued);

  std::vector<serve::JobState> seen;
  net::Client watcher("127.0.0.1", server.port());
  const auto outcome =
      watcher.watch(submitted.id, [&](serve::JobState s) { seen.push_back(s); });
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->state, serve::JobState::Completed);
  ASSERT_FALSE(seen.empty());
  EXPECT_TRUE(serve::job_state_terminal(seen.back()));
  EXPECT_EQ(seen.back(), serve::JobState::Completed);
  // After the watch the job is terminal for polls too.
  EXPECT_EQ(client.poll(submitted.id), serve::JobState::Completed);
}

TEST(NetLoopback, ValidationRejectionTravelsAsStructuredError) {
  net::Server server(loopback_options());
  net::Client client("127.0.0.1", server.port());
  serve::JobRequest bad = wire_request("net/bad-optimizer");
  bad.run.config.optimizer = "gradient-descent-to-nowhere";
  const auto submitted = client.submit(bad);
  EXPECT_FALSE(submitted.accepted());
  EXPECT_EQ(submitted.state, serve::JobState::Rejected);
  EXPECT_EQ(submitted.error.code, serve::JobErrorCode::BadOptimizer);
  EXPECT_FALSE(submitted.error.message.empty());
}

TEST(NetLoopback, UnknownBackendNameIsRejectedNotCrashed) {
  net::Server server(loopback_options());
  net::Client client("127.0.0.1", server.port());
  serve::JobRequest bad = wire_request("net/unknown-backend");
  bad.backend = "ibmq_atlantis";
  const auto submitted = client.submit(bad);
  EXPECT_FALSE(submitted.accepted());
  EXPECT_EQ(submitted.state, serve::JobState::Rejected);
  EXPECT_EQ(submitted.error.code, serve::JobErrorCode::NullBackend);
  EXPECT_NE(submitted.error.message.find("ibmq_atlantis"), std::string::npos);
}

TEST(NetLoopback, MalformedLayoutIsRejectedNotCrashed) {
  // The layout travels as raw u32s: the server must reject an entry off the
  // device, a repeated entry and a short layout at submit, before any model
  // is built on them.
  net::Server server(loopback_options());
  net::Client client("127.0.0.1", server.port());
  for (const std::vector<std::size_t>& layout :
       {std::vector<std::size_t>{0, 1, 4, 7, 10, 4000},
        std::vector<std::size_t>{0, 0, 4, 7, 10, 12}, std::vector<std::size_t>{0, 1}}) {
    serve::JobRequest bad = wire_request("net/bad-layout");
    bad.run.config.model.initial_layout = layout;
    const auto submitted = client.submit(bad);
    EXPECT_FALSE(submitted.accepted());
    EXPECT_EQ(submitted.state, serve::JobState::Rejected);
    EXPECT_EQ(submitted.error.code, serve::JobErrorCode::BadModel);
    EXPECT_NE(submitted.error.message.find("initial layout"), std::string::npos);
  }
}

TEST(NetLoopback, UnboundedModelSizeIsRejectedAtSubmit) {
  // p and the mixer duration travel as raw i32s: INT_MAX of either must be
  // rejected at submit, before a worker transpiles ~2^31 layers or walks a
  // ~2^31-sample mixer through the pulse ODE.
  net::Server server(loopback_options());
  net::Client client("127.0.0.1", server.port());
  serve::JobRequest deep = wire_request("net/deep");
  deep.run.config.model.p = std::numeric_limits<int>::max();
  serve::JobRequest long_mixer = wire_request("net/long-mixer");
  long_mixer.run.kind = core::ModelKind::Hybrid;
  long_mixer.run.config.model.mixer_duration_dt = std::numeric_limits<int>::max();
  for (const serve::JobRequest& bad : {deep, long_mixer}) {
    const auto submitted = client.submit(bad);
    EXPECT_FALSE(submitted.accepted()) << bad.run.label;
    EXPECT_EQ(submitted.state, serve::JobState::Rejected) << bad.run.label;
    EXPECT_EQ(submitted.error.code, serve::JobErrorCode::BadModel) << bad.run.label;
  }
}

TEST(NetLoopback, RunAsyncResolvesWithOutcome) {
  net::Server server(loopback_options());
  net::Client::Options options;
  options.host = "127.0.0.1";
  options.port = server.port();
  std::future<serve::JobOutcome> f =
      net::Client::run_async(options, wire_request("net/async"));
  const serve::JobOutcome outcome = f.get();
  EXPECT_EQ(outcome.state, serve::JobState::Completed);
  EXPECT_TRUE(outcome.has_result);
}

// ---------------------------------------------------------------------------
// Cancellation and deadlines over the wire

TEST(NetCancel, CancelOverWireStopsARunningJobQuickly) {
  net::Server server(loopback_options(1));
  net::Client client("127.0.0.1", server.port());
  const auto submitted = client.submit(slow_request("net/cancel-me"));
  ASSERT_TRUE(submitted.accepted());
  ASSERT_TRUE(wire_wait_for_state(client, submitted.id, serve::JobState::Running,
                                  std::chrono::seconds(10)));

  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(client.cancel(submitted.id));
  const auto outcome = client.await(submitted.id);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->state, serve::JobState::Cancelled);
  EXPECT_EQ(outcome->error.code, serve::JobErrorCode::CancelRequested);
  // The worker observed the token at a shot-batch checkpoint, not at the end
  // of the full budget: 8 evaluations x 65536 noisy shots would take far
  // longer than this bound.
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  // Cancelling a terminal job is a no-op.
  EXPECT_FALSE(client.cancel(submitted.id));
}

TEST(NetCancel, QueuedJobPastDeadlineExpiresAtDequeue) {
  // One worker, pinned by a slow job; the deadline of the queued job passes
  // while it waits. When the worker finally frees, the dequeue-time deadline
  // check must expire the job without constructing an executor.
  net::Server server(loopback_options(1));
  net::Client client("127.0.0.1", server.port());
  const auto blocker = client.submit(slow_request("net/blocker"));
  ASSERT_TRUE(blocker.accepted());
  ASSERT_TRUE(wire_wait_for_state(client, blocker.id, serve::JobState::Running,
                                  std::chrono::seconds(10)));

  serve::JobRequest doomed = wire_request("net/doomed");
  doomed.deadline = std::chrono::milliseconds(30);
  const auto submitted = client.submit(doomed);
  ASSERT_TRUE(submitted.accepted());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));  // deadline passes queued
  EXPECT_TRUE(client.cancel(blocker.id));

  const auto outcome = client.await(submitted.id);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->state, serve::JobState::Expired);
  EXPECT_EQ(outcome->error.code, serve::JobErrorCode::DeadlineExpired);
  EXPECT_FALSE(outcome->has_result);
}

// ---------------------------------------------------------------------------
// Session resilience

TEST(NetSession, KilledConnectionMidJobStillCompletesAndRetainsOutcome) {
  net::Server server(loopback_options(1));
  serve::JobId id = 0;
  {
    net::Client doomed_session("127.0.0.1", server.port());
    const auto submitted = doomed_session.submit(request12q("net/orphan"));
    ASSERT_TRUE(submitted.accepted());
    id = submitted.id;
    // Connection dies here — mid-queue or mid-run, the job must not care.
  }
  net::Client later("127.0.0.1", server.port());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::optional<serve::JobState> state;
  while (std::chrono::steady_clock::now() < deadline) {
    state = later.poll(id);
    if (state && serve::job_state_terminal(*state)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(*state, serve::JobState::Completed);
  // The outcome was retained for the reconnecting client.
  const auto outcome = later.await(id);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->has_result);
}

TEST(NetSession, MalformedFrameIsDroppedAndSessionSurvives) {
  net::Server server(loopback_options());
  net::Socket sock = net::Socket::connect("127.0.0.1", server.port());

  // Handshake by hand.
  std::string hello;
  io::Writer hw(hello);
  hw.str("");
  net::write_frame(sock, net::FrameType::Hello, hello);
  net::ReadResult reply = net::read_frame(sock);
  ASSERT_EQ(reply.status, net::WireStatus::Ok);
  ASSERT_EQ(reply.frame.type, net::FrameType::HelloOk);

  // A frame whose payload is corrupted in flight: flip one payload byte
  // after encoding, so the checksum no longer matches.
  std::string poll_payload;
  io::Writer pw(poll_payload);
  pw.u64(1);
  std::string corrupt = net::encode_frame(net::FrameType::Poll, poll_payload);
  corrupt[net::kFrameHeaderBytes] = char(corrupt[net::kFrameHeaderBytes] ^ 0xFF);
  sock.write_all(corrupt);
  reply = net::read_frame(sock);
  ASSERT_EQ(reply.status, net::WireStatus::Ok);
  ASSERT_EQ(reply.frame.type, net::FrameType::Error);
  {
    io::Reader r(reply.frame.payload);
    std::int32_t status = 0;
    ASSERT_TRUE(r.i32(status));
    EXPECT_EQ(static_cast<net::WireStatus>(status), net::WireStatus::BadChecksum);
  }

  // A well-framed but undecodable submit: also reported, also survivable.
  net::write_frame(sock, net::FrameType::Submit, "not a job request");
  reply = net::read_frame(sock);
  ASSERT_EQ(reply.frame.type, net::FrameType::Error);

  // An unknown frame type: reported, survivable.
  net::write_frame(sock, static_cast<net::FrameType>(42), "");
  reply = net::read_frame(sock);
  ASSERT_EQ(reply.frame.type, net::FrameType::Error);

  // The session is still healthy: a valid poll gets a real reply.
  net::write_frame(sock, net::FrameType::Poll, poll_payload);
  reply = net::read_frame(sock);
  ASSERT_EQ(reply.status, net::WireStatus::Ok);
  EXPECT_EQ(reply.frame.type, net::FrameType::PollReply);
}

TEST(NetSession, BadMagicGetsErrorThenClose) {
  net::Server server(loopback_options());
  net::Socket sock = net::Socket::connect("127.0.0.1", server.port());
  // Not HTTP (no "GET" prefix), not HGPN: frame alignment is unknowable, so
  // the server reports BadMagic and hangs up.
  sock.write_all(std::string("XYZ garbage that is long enough to cover a header"));
  net::ReadResult reply = net::read_frame(sock);
  ASSERT_EQ(reply.status, net::WireStatus::Ok);
  ASSERT_EQ(reply.frame.type, net::FrameType::Error);
  io::Reader r(reply.frame.payload);
  std::int32_t status = 0;
  ASSERT_TRUE(r.i32(status));
  EXPECT_EQ(static_cast<net::WireStatus>(status), net::WireStatus::BadMagic);
  EXPECT_EQ(net::read_frame(sock).status, net::WireStatus::Eof);
}

TEST(NetSession, OversizedLengthPrefixGetsErrorThenClose) {
  net::Server::Options options = loopback_options();
  options.max_frame_bytes = 1024;
  net::Server server(options);
  net::Socket sock = net::Socket::connect("127.0.0.1", server.port());

  std::string header;
  io::Writer w(header);
  w.u32(net::kMagic);
  w.u32(net::kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(net::FrameType::Hello));
  w.u32(1u << 30);  // a 1 GiB lie
  w.u64(0);
  sock.write_all(header);
  net::ReadResult reply = net::read_frame(sock);
  ASSERT_EQ(reply.status, net::WireStatus::Ok);
  ASSERT_EQ(reply.frame.type, net::FrameType::Error);
  io::Reader r(reply.frame.payload);
  std::int32_t status = 0;
  ASSERT_TRUE(r.i32(status));
  EXPECT_EQ(static_cast<net::WireStatus>(status), net::WireStatus::FrameTooLarge);
  EXPECT_EQ(net::read_frame(sock).status, net::WireStatus::Eof);
}

// ---------------------------------------------------------------------------
// Authn-lite tenants

TEST(NetAuth, TokenResolvesTenantAndOverridesSelfDeclaredOne) {
  net::Server::Options options = loopback_options();
  options.tokens = {{"tok-alice", "alice"}, {"tok-bob", "bob"}};
  net::Server server(options);

  net::Client alice("127.0.0.1", server.port(), "tok-alice");
  EXPECT_EQ(alice.tenant(), "alice");

  obs::set_enabled(true);
  obs::Counter& completed = obs::Registry::global().counter("service.tenant.alice.completed");
  const std::uint64_t before = completed.value();
  serve::JobRequest request = wire_request("net/authd");
  request.run.tenant = "mallory";  // the token's tenant must win
  const auto submitted = alice.submit(request);
  ASSERT_TRUE(submitted.accepted());
  const auto outcome = alice.await(submitted.id);
  ASSERT_TRUE(outcome && outcome->state == serve::JobState::Completed);
  EXPECT_EQ(completed.value(), before + 1);
}

TEST(NetAuth, UnknownTokenIsRefused) {
  net::Server::Options options = loopback_options();
  options.tokens = {{"tok-alice", "alice"}};
  net::Server server(options);
  EXPECT_THROW(net::Client("127.0.0.1", server.port(), "tok-eve"), net::NetError);
}

TEST(NetAuth, RequestsBeforeHelloAreRefused) {
  net::Server server(loopback_options());
  net::Socket sock = net::Socket::connect("127.0.0.1", server.port());
  std::string payload;
  io::Writer w(payload);
  w.u64(1);
  net::write_frame(sock, net::FrameType::Poll, payload);
  net::ReadResult reply = net::read_frame(sock);
  ASSERT_EQ(reply.status, net::WireStatus::Ok);
  ASSERT_EQ(reply.frame.type, net::FrameType::Error);
  io::Reader r(reply.frame.payload);
  std::int32_t status = 0;
  ASSERT_TRUE(r.i32(status));
  EXPECT_EQ(static_cast<net::WireStatus>(status), net::WireStatus::HelloRequired);
}

TEST(NetAuth, ConcurrentTenantsShareOneServiceAndAllComplete) {
  net::Server::Options options = loopback_options(2);
  options.tokens = {{"tok-alice", "alice"}, {"tok-bob", "bob"}};
  net::Server server(options);

  constexpr int kJobsPerTenant = 3;
  std::atomic<int> completed{0};
  std::vector<core::RunResult> results[2];
  std::thread tenants[2];
  const char* tokens[2] = {"tok-alice", "tok-bob"};
  for (int t = 0; t < 2; ++t) {
    tenants[t] = std::thread([&, t] {
      net::Client client("127.0.0.1", server.port(), tokens[t]);
      std::vector<serve::JobId> ids;
      for (int j = 0; j < kJobsPerTenant; ++j) {
        const auto submitted = client.submit(wire_request("net/mt"));
        ASSERT_TRUE(submitted.accepted());
        ids.push_back(submitted.id);
      }
      for (const serve::JobId id : ids) {
        const auto outcome = client.await(id);
        ASSERT_TRUE(outcome.has_value());
        ASSERT_EQ(outcome->state, serve::JobState::Completed);
        results[t].push_back(outcome->result);
        completed.fetch_add(1);
      }
    });
  }
  for (std::thread& t : tenants) t.join();
  EXPECT_EQ(completed.load(), 2 * kJobsPerTenant);
  // Identical requests are bit-identical regardless of tenant, session, or
  // scheduling interleaving.
  for (int t = 0; t < 2; ++t)
    for (const core::RunResult& r : results[t]) expect_same_result(r, results[0][0]);
}

// ---------------------------------------------------------------------------
// Observability endpoints

TEST(NetScrape, HttpGetOnTheAcceptorPortReturnsPrometheus) {
  net::Server server(loopback_options());
  net::Socket sock = net::Socket::connect("127.0.0.1", server.port());
  sock.write_all(std::string("GET /metrics HTTP/1.1\r\nHost: loopback\r\n\r\n"));
  std::string response;
  char buf[4096];
  for (;;) {
    const std::size_t n = sock.read_some(buf, sizeof buf);
    if (n == 0) break;
    response.append(buf, n);
  }
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("hgp_"), std::string::npos);
  EXPECT_NE(response.find("# TYPE"), std::string::npos);
}

TEST(NetScrape, BinaryScrapeCarriesNetSeries) {
  net::Server server(loopback_options());
  net::Client client("127.0.0.1", server.port());
  const std::string text = client.scrape();
  EXPECT_NE(text.find("hgp_net_connections"), std::string::npos);
  EXPECT_NE(text.find("hgp_net_frames_rx"), std::string::npos);
  EXPECT_NE(text.find("hgp_service_jobs_queued"), std::string::npos);
}
