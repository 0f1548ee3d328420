// common/binio.hpp against hostile input, and the JobRequest/JobOutcome wire
// codec built on it. The reader's contract is degrade-never-throw: every
// bounds check must fail latched rather than allocate, read out of range, or
// raise — these are the bytes a net::Server session feeds straight off a
// socket, so "malformed" includes every truncation and every flipped byte.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "backend/presets.hpp"
#include "common/binio.hpp"
#include "graph/instances.hpp"
#include "serve/job.hpp"

using namespace hgp;

namespace {

const backend::FakeBackend& toronto() {
  static const backend::FakeBackend dev = backend::make_toronto();
  return dev;
}

serve::JobRequest sample_request() {
  serve::JobRequest request;
  request.run.label = "codec/sample";
  request.run.instance = graph::paper_task1();
  request.run.dev = &toronto();
  request.run.kind = core::ModelKind::Hybrid;
  request.run.config.shots = 96;
  request.run.config.max_evaluations = 7;
  request.run.config.optimizer = "spsa";
  request.run.config.cvar_alpha = 0.37;
  request.run.config.model.init_gamma = 0.123456789;
  request.run.config.model.initial_layout = {6, 7, 4, 1};
  request.run.config.seed = 99;
  request.run.tenant = "tenant-a";
  request.run.priority = 3;
  request.run.weight = 2.5;
  request.deadline = std::chrono::milliseconds(1500);
  return request;
}

serve::JobOutcome sample_outcome() {
  serve::JobOutcome outcome;
  outcome.state = serve::JobState::Completed;
  outcome.wait_ns = 1111;
  outcome.run_ns = 2222;
  outcome.has_result = true;
  outcome.result.model = "hybrid";
  outcome.result.ar = 0.912345678901234;
  outcome.result.final_cost = -7.25;
  outcome.result.optimizer.x = {0.1, -0.2, 0.3, 0.4};
  outcome.result.optimizer.value = -7.25;
  outcome.result.optimizer.evaluations = 42;
  outcome.result.optimizer.iterations = 21;
  outcome.result.optimizer.converged = true;
  outcome.result.optimizer.history = {-1.0, -3.5, -7.25};
  outcome.result.iterations_to_converge = 19;
  outcome.result.makespan_dt = 1234;
  outcome.result.swap_count = 2;
  outcome.result.num_parameters = 8;
  return outcome;
}

/// Writes the leading JobRequest fields up to (not including) the graph, so
/// graph-level attacks can be crafted without replicating the whole codec.
void write_request_prefix(io::Writer& w) {
  w.u32(serve::JobRequest::kSchemaVersion);
  w.str("label");
  w.str("ibmq_toronto");
  w.str("instance");
}

bool parse_request(const std::string& bytes) {
  io::Reader r(bytes);
  serve::JobRequest out;
  return serve::JobRequest::deserialize(r, out);
}

}  // namespace

// ---------------------------------------------------------------------------
// Reader bounds and failure latching

TEST(BinIO, ReadPastEndFailsAndLatches) {
  std::string bytes;
  io::Writer w(bytes);
  w.u32(7);
  io::Reader r(bytes);
  std::uint32_t a = 0;
  EXPECT_TRUE(r.u32(a));
  EXPECT_EQ(a, 7u);
  std::uint64_t b = 99;
  EXPECT_FALSE(r.u64(b));
  EXPECT_EQ(b, 99u);  // failed read leaves the output untouched
  EXPECT_FALSE(r.ok());
  // Latched: even a read the remaining bytes could satisfy now fails.
  std::uint8_t c = 0;
  EXPECT_FALSE(r.u8(c));
}

TEST(BinIO, StringLengthBeyondPayloadFails) {
  std::string bytes;
  io::Writer w(bytes);
  w.u32(1000);  // declared length
  bytes += "short";
  io::Reader r(bytes);
  std::string s = "untouched";
  EXPECT_FALSE(r.str(s));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(s, "untouched");
}

TEST(BinIO, Fnv1aIsStableAndBitSensitive) {
  const std::string payload = "HGPN payload bytes";
  EXPECT_EQ(io::fnv1a(payload), io::fnv1a(payload));
  std::string flipped = payload;
  flipped[3] ^= 0x01;
  EXPECT_NE(io::fnv1a(payload), io::fnv1a(flipped));
  EXPECT_NE(io::fnv1a(""), io::fnv1a(std::string(1, '\0')));
}

// ---------------------------------------------------------------------------
// JobRequest codec

TEST(JobCodec, RequestRoundTripIsBitExact) {
  const serve::JobRequest original = sample_request();
  const std::string bytes = original.serialize();

  io::Reader r(bytes);
  serve::JobRequest decoded;
  ASSERT_TRUE(serve::JobRequest::deserialize(r, decoded));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);

  EXPECT_EQ(decoded.run.label, original.run.label);
  // The dev pointer cannot cross the wire: its *name* does, and the pointer
  // comes back null for the receiving side to resolve.
  EXPECT_EQ(decoded.backend, toronto().name());
  EXPECT_EQ(decoded.run.dev, nullptr);
  EXPECT_EQ(decoded.run.instance.name, original.run.instance.name);
  EXPECT_EQ(decoded.run.instance.graph.num_vertices(),
            original.run.instance.graph.num_vertices());
  EXPECT_EQ(decoded.run.instance.graph.num_edges(),
            original.run.instance.graph.num_edges());
  EXPECT_EQ(decoded.run.instance.max_cut, original.run.instance.max_cut);
  EXPECT_EQ(decoded.run.kind, original.run.kind);
  EXPECT_EQ(decoded.run.tenant, original.run.tenant);
  EXPECT_EQ(decoded.run.priority, original.run.priority);
  EXPECT_EQ(decoded.run.weight, original.run.weight);
  EXPECT_EQ(decoded.deadline, original.deadline);
  EXPECT_EQ(decoded.run.config.shots, original.run.config.shots);
  EXPECT_EQ(decoded.run.config.optimizer, original.run.config.optimizer);
  EXPECT_EQ(decoded.run.config.model.initial_layout,
            original.run.config.model.initial_layout);
  EXPECT_EQ(decoded.run.config.seed, original.run.config.seed);
  // Doubles travel as raw bit patterns — compare representations, not values.
  double a = decoded.run.config.cvar_alpha, b = original.run.config.cvar_alpha;
  EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0);
  a = decoded.run.config.model.init_gamma, b = original.run.config.model.init_gamma;
  EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0);
}

TEST(JobCodec, RequestSerializationIsDeterministic) {
  EXPECT_EQ(sample_request().serialize(), sample_request().serialize());
}

TEST(JobCodec, UnknownSchemaVersionIsRejected) {
  std::string bytes = sample_request().serialize();
  bytes[0] = char(serve::JobRequest::kSchemaVersion + 1);  // version is the leading u32
  EXPECT_FALSE(parse_request(bytes));
  // Version 3 carried RunConfig::candidate_lanes and RunConfig::telemetry.
  bytes[0] = char(3);
  EXPECT_FALSE(parse_request(bytes));
  // Version 2 carried ModelConfig::pulse_efficient_rzz.
  bytes[0] = char(2);
  EXPECT_FALSE(parse_request(bytes));
  // Version 1 numbered its error codes differently.
  bytes[0] = char(1);
  EXPECT_FALSE(parse_request(bytes));
}

TEST(JobCodec, EveryTruncationFailsCleanly) {
  const std::string bytes = sample_request().serialize();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    SCOPED_TRACE(len);
    EXPECT_FALSE(parse_request(bytes.substr(0, len)));
  }
  EXPECT_TRUE(parse_request(bytes));
}

TEST(JobCodec, EveryByteFlipParsesOrFailsButNeverThrows) {
  const std::string bytes = sample_request().serialize();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = char(corrupt[i] ^ 0xFF);
    // A flipped byte may still parse (a label character, a double's
    // mantissa) — the contract is only that it never throws or crashes.
    EXPECT_NO_THROW({ (void)parse_request(corrupt); }) << "byte " << i;
  }
}

TEST(JobCodec, GraphWithOutOfRangeEndpointIsRejected) {
  std::string bytes;
  io::Writer w(bytes);
  write_request_prefix(w);
  w.u64(4);  // vertices
  w.u32(1);  // edges
  w.u32(1);
  w.u32(9);  // v >= n: Graph::add_edge would throw — codec must reject first
  w.f64(1.0);
  EXPECT_FALSE(parse_request(bytes));
}

TEST(JobCodec, GraphSelfLoopIsRejected) {
  std::string bytes;
  io::Writer w(bytes);
  write_request_prefix(w);
  w.u64(4);
  w.u32(1);
  w.u32(2);
  w.u32(2);  // u == v
  w.f64(1.0);
  EXPECT_FALSE(parse_request(bytes));
}

TEST(JobCodec, GraphDuplicateEdgeIsRejected) {
  std::string bytes;
  io::Writer w(bytes);
  write_request_prefix(w);
  w.u64(4);
  w.u32(2);
  w.u32(0);
  w.u32(1);
  w.f64(1.0);
  w.u32(1);
  w.u32(0);  // same edge, reversed
  w.f64(2.0);
  EXPECT_FALSE(parse_request(bytes));
}

TEST(JobCodec, GraphWithAbsurdVertexCountIsRejected) {
  std::string bytes;
  io::Writer w(bytes);
  write_request_prefix(w);
  w.u64(std::uint64_t{1} << 40);  // would allocate adjacency for 2^40 vertices
  w.u32(0);
  EXPECT_FALSE(parse_request(bytes));
}

TEST(JobCodec, GraphEdgeCountBeyondPayloadIsRejected) {
  std::string bytes;
  io::Writer w(bytes);
  write_request_prefix(w);
  w.u64(4);
  w.u32(0xFFFFFFFu);  // claims ~256M edges; payload holds none
  EXPECT_FALSE(parse_request(bytes));
}

// ---------------------------------------------------------------------------
// JobOutcome codec

TEST(JobCodec, OutcomeRoundTripIsBitExact) {
  const serve::JobOutcome original = sample_outcome();
  const std::string bytes = original.serialize();

  io::Reader r(bytes);
  serve::JobOutcome decoded;
  ASSERT_TRUE(serve::JobOutcome::deserialize(r, decoded));
  EXPECT_EQ(r.remaining(), 0u);

  EXPECT_EQ(decoded.state, original.state);
  EXPECT_EQ(decoded.error.code, original.error.code);
  EXPECT_EQ(decoded.wait_ns, original.wait_ns);
  EXPECT_EQ(decoded.run_ns, original.run_ns);
  ASSERT_TRUE(decoded.has_result);
  EXPECT_EQ(decoded.result.model, original.result.model);
  EXPECT_EQ(decoded.result.optimizer.x, original.result.optimizer.x);
  EXPECT_EQ(decoded.result.optimizer.history, original.result.optimizer.history);
  EXPECT_EQ(decoded.result.optimizer.evaluations, original.result.optimizer.evaluations);
  EXPECT_EQ(decoded.result.swap_count, original.result.swap_count);
  double a = decoded.result.ar, b = original.result.ar;
  EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0);
}

TEST(JobCodec, OutcomeWithoutResultOmitsIt) {
  serve::JobOutcome original;
  original.state = serve::JobState::Rejected;
  original.error.code = serve::JobErrorCode::QueueFull;
  original.error.message = "queue full";
  const std::string bytes = original.serialize();

  io::Reader r(bytes);
  serve::JobOutcome decoded;
  ASSERT_TRUE(serve::JobOutcome::deserialize(r, decoded));
  EXPECT_EQ(decoded.state, serve::JobState::Rejected);
  EXPECT_EQ(decoded.error.code, serve::JobErrorCode::QueueFull);
  EXPECT_EQ(decoded.error.message, "queue full");
  EXPECT_FALSE(decoded.has_result);
}

TEST(JobCodec, OutcomeWithInvalidStateOrCodeIsRejected) {
  serve::JobOutcome original = sample_outcome();
  std::string bytes = original.serialize();
  // Byte 4 is the JobState (right after the version u32).
  bytes[4] = 100;
  io::Reader r1(bytes);
  serve::JobOutcome decoded;
  EXPECT_FALSE(serve::JobOutcome::deserialize(r1, decoded));

  bytes = original.serialize();
  bytes[5] = char(200);  // error code low byte -> out of enum range
  io::Reader r2(bytes);
  EXPECT_FALSE(serve::JobOutcome::deserialize(r2, decoded));
}

TEST(JobCodec, OutcomeTruncationSweepFailsCleanly) {
  const std::string bytes = sample_outcome().serialize();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    SCOPED_TRACE(len);
    io::Reader r(bytes.data(), len);
    serve::JobOutcome decoded;
    EXPECT_FALSE(serve::JobOutcome::deserialize(r, decoded));
  }
}

TEST(JobCodec, OversizedHistoryCountIsRejected) {
  // An outcome whose history length field lies: count > remaining/8 must be
  // rejected before any allocation proportional to the claim.
  serve::JobOutcome original = sample_outcome();
  std::string bytes = original.serialize();
  // Find the history count: it follows x (4 doubles), value, evaluations,
  // iterations, converged, stopped_early. Rather than chase offsets, append
  // a fresh payload truncated right before history and hand-write a lying
  // count — deserialize must reject it.
  const std::size_t history_bytes = 4 + original.result.optimizer.history.size() * 8;
  const std::size_t keep = bytes.size() - history_bytes -
                           (4 + 4 + 4 + 8 + 8 + 1 +
                            4 + original.result.cancel_reason.size());
  std::string lying = bytes.substr(0, keep);
  io::Writer w(lying);
  w.u32(0x7FFFFFFFu);  // ~2G doubles
  io::Reader r(lying);
  serve::JobOutcome decoded;
  EXPECT_FALSE(serve::JobOutcome::deserialize(r, decoded));
}
