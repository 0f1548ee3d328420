#include "net/client.hpp"

#include <thread>
#include <utility>

namespace hgp::net {

namespace {

std::string put_u64(std::uint64_t v) {
  std::string out;
  io::Writer w(out);
  w.u64(v);
  return out;
}

[[noreturn]] void throw_error_frame(const Frame& frame) {
  io::Reader r(frame.payload);
  std::int32_t status = 0;
  std::string message;
  r.i32(status);
  r.str(message);
  throw NetError("server error [" +
                 wire_status_name(static_cast<WireStatus>(status)) + "]: " + message);
}

}  // namespace

Client::Client(Options options) : options_(std::move(options)) {
  sock_ = Socket::connect(options_.host, options_.port);
  std::string payload;
  io::Writer w(payload);
  w.str(options_.token);
  const Frame reply = rpc(FrameType::Hello, payload, FrameType::HelloOk);
  io::Reader r(reply.payload);
  std::uint32_t schema = 0;
  if (!r.u32(schema) || !r.str(tenant_) || !r.ok())
    throw NetError("malformed hello reply");
  if (schema != serve::JobRequest::kSchemaVersion)
    throw NetError("server speaks job schema v" + std::to_string(schema) +
                   ", this client speaks v" +
                   std::to_string(serve::JobRequest::kSchemaVersion));
}

Frame Client::rpc(FrameType type, const std::string& payload, FrameType expect) {
  write_frame(sock_, type, payload);
  for (;;) {
    ReadResult in = read_frame(sock_, options_.max_frame_bytes);
    if (in.status == WireStatus::Eof) throw NetError("server closed the connection");
    if (in.status != WireStatus::Ok)
      throw NetError("bad frame from server: " + wire_status_name(in.status));
    if (in.frame.type == FrameType::Error) throw_error_frame(in.frame);
    if (in.frame.type == expect) return std::move(in.frame);
    throw NetError("unexpected reply frame type " +
                   std::to_string(static_cast<int>(in.frame.type)));
  }
}

Client::Submitted Client::submit(const serve::JobRequest& request) {
  const Frame reply = rpc(FrameType::Submit, request.serialize(), FrameType::SubmitReply);
  io::Reader r(reply.payload);
  std::uint64_t id = 0;
  std::uint8_t state = 0;
  std::int32_t code = 0;
  std::string message;
  if (!r.u64(id) || !r.u8(state) || !r.i32(code) || !r.str(message) || !r.ok())
    throw NetError("malformed submit reply");
  Submitted out;
  out.id = id;
  if (!serve::job_state_from_wire(state, out.state) ||
      !serve::job_error_code_from_wire(code, out.error.code))
    throw NetError("submit reply names no job state or error code");
  out.error.message = std::move(message);
  return out;
}

std::optional<serve::JobState> Client::poll(serve::JobId id) {
  const Frame reply = rpc(FrameType::Poll, put_u64(id), FrameType::PollReply);
  io::Reader r(reply.payload);
  std::uint8_t known = 0, state = 0;
  if (!r.u8(known) || !r.u8(state) || !r.ok()) throw NetError("malformed poll reply");
  if (!known) return std::nullopt;
  serve::JobState out = serve::JobState::Queued;
  if (!serve::job_state_from_wire(state, out)) throw NetError("poll reply names no job state");
  return out;
}

bool Client::cancel(serve::JobId id) {
  const Frame reply = rpc(FrameType::Cancel, put_u64(id), FrameType::CancelReply);
  io::Reader r(reply.payload);
  std::uint8_t accepted = 0;
  if (!r.u8(accepted) || !r.ok()) throw NetError("malformed cancel reply");
  return accepted != 0;
}

namespace {

std::optional<serve::JobOutcome> parse_outcome(const Frame& frame) {
  io::Reader r(frame.payload);
  std::uint64_t id = 0;
  std::uint8_t known = 0;
  if (!r.u64(id) || !r.u8(known)) throw NetError("malformed outcome frame");
  if (!known) return std::nullopt;
  serve::JobOutcome outcome;
  if (!serve::JobOutcome::deserialize(r, outcome))
    throw NetError("malformed outcome payload");
  return outcome;
}

}  // namespace

std::optional<serve::JobOutcome> Client::await(serve::JobId id) {
  return parse_outcome(rpc(FrameType::Await, put_u64(id), FrameType::Outcome));
}

std::optional<serve::JobOutcome> Client::watch(
    serve::JobId id, const std::function<void(serve::JobState)>& on_state) {
  write_frame(sock_, FrameType::Watch, put_u64(id));
  for (;;) {
    ReadResult in = read_frame(sock_, options_.max_frame_bytes);
    if (in.status == WireStatus::Eof) throw NetError("server closed the connection");
    if (in.status != WireStatus::Ok)
      throw NetError("bad frame from server: " + wire_status_name(in.status));
    if (in.frame.type == FrameType::Error) throw_error_frame(in.frame);
    if (in.frame.type == FrameType::StateEvent) {
      io::Reader r(in.frame.payload);
      std::uint64_t event_id = 0;
      std::uint8_t state = 0;
      serve::JobState decoded = serve::JobState::Queued;
      if (!r.u64(event_id) || !r.u8(state) || !r.ok() ||
          !serve::job_state_from_wire(state, decoded))
        throw NetError("malformed state event");
      if (on_state) on_state(decoded);
      continue;
    }
    if (in.frame.type == FrameType::Outcome) return parse_outcome(in.frame);
    throw NetError("unexpected frame type " +
                   std::to_string(static_cast<int>(in.frame.type)) + " during watch");
  }
}

std::string Client::scrape() {
  const Frame reply = rpc(FrameType::Scrape, std::string(), FrameType::ScrapeReply);
  io::Reader r(reply.payload);
  std::string text;
  if (!r.str(text) || !r.ok()) throw NetError("malformed scrape reply");
  return text;
}

std::future<serve::JobOutcome> Client::run_async(Options options,
                                                 serve::JobRequest request) {
  return std::async(std::launch::async, [options = std::move(options),
                                         request = std::move(request)]() {
    Client client(options);
    const Submitted submitted = client.submit(request);
    if (!submitted.accepted()) {
      serve::JobOutcome outcome;
      outcome.state = submitted.state;
      outcome.error = submitted.error;
      return outcome;
    }
    auto outcome = client.await(submitted.id);
    if (!outcome) throw NetError("job " + std::to_string(submitted.id) +
                                 " vanished before its outcome arrived");
    return *outcome;
  });
}

}  // namespace hgp::net
