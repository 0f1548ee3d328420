// Wire codec of the unified submission schema: JobRequest and JobOutcome
// serialize through common/binio.hpp under a leading JobRequest::kSchemaVersion
// stamp. The format is append-only within a version — any layout change bumps
// the version, and deserialize() rejects what it does not speak — and every
// double travels as its IEEE-754 bit pattern, so a request or outcome that
// crosses a socket is bit-identical to one that never left the process.
//
// Deliberately not serialized:
//   - SweepJob::dev: a non-owning pointer. The writer records the backend
//     *name* (dev->name(), or JobRequest::backend when dev is null); the
//     reader leaves dev null and the receiving side resolves the name
//     against its own preset registry.
//   - RunConfig::cancel: cancellation is a live channel (a wire Cancel
//     frame, an in-process token), not request state.
#include "serve/job.hpp"

namespace hgp::serve {

namespace {

void put_bool(io::Writer& w, bool v) { w.u8(v ? 1 : 0); }

bool get_bool(io::Reader& r, bool& v) {
  std::uint8_t byte = 0;
  if (!r.u8(byte)) return false;
  v = byte != 0;
  return true;
}

void put_f64s(io::Writer& w, const std::vector<double>& xs) {
  w.u32(static_cast<std::uint32_t>(xs.size()));
  for (const double x : xs) w.f64(x);
}

bool get_f64s(io::Reader& r, std::vector<double>& xs) {
  std::uint32_t n = 0;
  if (!r.u32(n)) return false;
  // Bound by what the payload can actually hold — an oversized count from a
  // crafted frame must fail the read, not drive a huge allocation.
  if (n > r.remaining() / sizeof(double)) return false;
  xs.assign(n, 0.0);
  for (double& x : xs)
    if (!r.f64(x)) return false;
  return true;
}

void put_graph(io::Writer& w, const graph::Graph& g) {
  w.u64(g.num_vertices());
  w.u32(static_cast<std::uint32_t>(g.num_edges()));
  for (const graph::Edge& e : g.edges()) {
    w.u32(static_cast<std::uint32_t>(e.u));
    w.u32(static_cast<std::uint32_t>(e.v));
    w.f64(e.weight);
  }
}

bool get_graph(io::Reader& r, graph::Graph& g) {
  std::uint64_t n = 0;
  std::uint32_t edges = 0;
  if (!r.u64(n) || !r.u32(edges)) return false;
  // Each edge costs 2*u32 + f64 = 16 bytes; an edge count the payload
  // cannot hold is a lie. The vertex count is bounded by the validator's
  // register caps downstream, but cap it here too so a crafted request
  // cannot make Graph bookkeeping allocate absurdly.
  if (edges > r.remaining() / 16 || n > (std::uint64_t{1} << 20)) return false;
  g = graph::Graph(static_cast<std::size_t>(n));
  for (std::uint32_t i = 0; i < edges; ++i) {
    std::uint32_t u = 0, v = 0;
    double weight = 1.0;
    if (!r.u32(u) || !r.u32(v) || !r.f64(weight)) return false;
    if (u >= n || v >= n || u == v) return false;  // add_edge would throw
    if (g.has_edge(u, v)) return false;
    g.add_edge(u, v, weight);
  }
  return true;
}

void put_model(io::Writer& w, const core::ModelConfig& m) {
  w.i32(m.p);
  w.i32(m.mixer_duration_dt);
  w.f64(m.init_gamma);
  w.f64(m.init_beta);
  put_bool(w, m.gate_optimization);
  w.u32(static_cast<std::uint32_t>(m.initial_layout.size()));
  for (const std::size_t q : m.initial_layout) w.u32(static_cast<std::uint32_t>(q));
  put_bool(w, m.dynamical_decoupling);
  put_bool(w, m.train_amp);
  put_bool(w, m.train_phase);
  put_bool(w, m.train_freq);
  w.u64(m.seed);
}

bool get_model(io::Reader& r, core::ModelConfig& m) {
  std::uint32_t layout = 0;
  if (!r.i32(m.p) || !r.i32(m.mixer_duration_dt) || !r.f64(m.init_gamma) ||
      !r.f64(m.init_beta) || !get_bool(r, m.gate_optimization) || !r.u32(layout))
    return false;
  if (layout > r.remaining() / sizeof(std::uint32_t)) return false;
  m.initial_layout.assign(layout, 0);
  for (std::size_t& q : m.initial_layout) {
    std::uint32_t v = 0;
    if (!r.u32(v)) return false;
    q = v;
  }
  return get_bool(r, m.dynamical_decoupling) && get_bool(r, m.train_amp) &&
         get_bool(r, m.train_phase) && get_bool(r, m.train_freq) && r.u64(m.seed);
}

void put_config(io::Writer& w, const core::RunConfig& c) {
  w.u64(c.shots);
  w.i32(c.max_evaluations);
  put_bool(w, c.gate_optimization);
  put_bool(w, c.m3);
  put_bool(w, c.cvar);
  w.f64(c.cvar_alpha);
  w.str(c.optimizer);
  put_bool(w, c.noise);
  w.str(c.objective);
  w.str(c.engine);
  w.u64(c.executor_threads);
  w.u64(c.shot_batch_lanes);
  w.u64(c.fusion);
  w.u64(c.calibration_shots);
  put_model(w, c.model);
  w.u64(c.seed);
}

bool get_config(io::Reader& r, core::RunConfig& c) {
  std::uint64_t shots = 0, threads = 0, shot_lanes = 0, fusion = 0, cal_shots = 0;
  if (!r.u64(shots) || !r.i32(c.max_evaluations) || !get_bool(r, c.gate_optimization) ||
      !get_bool(r, c.m3) || !get_bool(r, c.cvar) || !r.f64(c.cvar_alpha) ||
      !r.str(c.optimizer) || !get_bool(r, c.noise) || !r.str(c.objective) ||
      !r.str(c.engine) || !r.u64(threads) || !r.u64(shot_lanes) || !r.u64(fusion) ||
      !r.u64(cal_shots) || !get_model(r, c.model) || !r.u64(c.seed))
    return false;
  c.shots = static_cast<std::size_t>(shots);
  c.executor_threads = static_cast<std::size_t>(threads);
  c.shot_batch_lanes = static_cast<std::size_t>(shot_lanes);
  c.fusion = static_cast<std::size_t>(fusion);
  c.calibration_shots = static_cast<std::size_t>(cal_shots);
  return true;
}

}  // namespace

void JobRequest::serialize(io::Writer& w) const {
  w.u32(kSchemaVersion);
  w.str(run.label);
  w.str(run.dev != nullptr ? run.dev->name() : backend);
  w.str(run.instance.name);
  put_graph(w, run.instance.graph);
  w.f64(run.instance.max_cut);
  w.u8(static_cast<std::uint8_t>(run.kind));
  w.str(run.tenant);
  w.i32(run.priority);
  w.f64(run.weight);
  w.u64(static_cast<std::uint64_t>(deadline.count() < 0 ? 0 : deadline.count()));
  put_config(w, run.config);
}

std::string JobRequest::serialize() const {
  std::string bytes;
  io::Writer w(bytes);
  serialize(w);
  return bytes;
}

bool JobRequest::deserialize(io::Reader& r, JobRequest& out) {
  std::uint32_t version = 0;
  if (!r.u32(version) || version != kSchemaVersion) return false;
  std::uint8_t kind = 0;
  std::uint64_t deadline_ms = 0;
  if (!r.str(out.run.label) || !r.str(out.backend) || !r.str(out.run.instance.name) ||
      !get_graph(r, out.run.instance.graph) || !r.f64(out.run.instance.max_cut) ||
      !r.u8(kind) || !r.str(out.run.tenant) || !r.i32(out.run.priority) ||
      !r.f64(out.run.weight) || !r.u64(deadline_ms) || !get_config(r, out.run.config))
    return false;
  if (kind > static_cast<std::uint8_t>(core::ModelKind::PulseLevel)) return false;
  out.run.kind = static_cast<core::ModelKind>(kind);
  out.run.dev = nullptr;  // resolved by name on the receiving side
  out.deadline = std::chrono::milliseconds(static_cast<std::int64_t>(deadline_ms));
  return true;
}

void JobOutcome::serialize(io::Writer& w) const {
  w.u32(JobRequest::kSchemaVersion);
  w.u8(static_cast<std::uint8_t>(state));
  w.i32(static_cast<std::int32_t>(error.code));
  w.str(error.message);
  w.u64(wait_ns);
  w.u64(run_ns);
  put_bool(w, has_result);
  if (!has_result) return;
  w.str(result.model);
  w.f64(result.ar);
  w.f64(result.final_cost);
  put_f64s(w, result.optimizer.x);
  w.f64(result.optimizer.value);
  w.i32(result.optimizer.evaluations);
  w.i32(result.optimizer.iterations);
  put_bool(w, result.optimizer.converged);
  put_bool(w, result.optimizer.stopped_early);
  put_f64s(w, result.optimizer.history);
  w.i32(result.iterations_to_converge);
  w.i32(result.mixer_layer_duration_dt);
  w.i32(result.makespan_dt);
  w.u64(result.swap_count);
  w.u64(result.num_parameters);
  put_bool(w, result.cancelled);
  w.str(result.cancel_reason);
}

std::string JobOutcome::serialize() const {
  std::string bytes;
  io::Writer w(bytes);
  serialize(w);
  return bytes;
}

bool JobOutcome::deserialize(io::Reader& r, JobOutcome& out) {
  std::uint32_t version = 0;
  if (!r.u32(version) || version != JobRequest::kSchemaVersion) return false;
  std::uint8_t state = 0;
  std::int32_t code = 0;
  if (!r.u8(state) || !r.i32(code) || !r.str(out.error.message) || !r.u64(out.wait_ns) ||
      !r.u64(out.run_ns) || !get_bool(r, out.has_result))
    return false;
  if (!job_state_from_wire(state, out.state) || !job_error_code_from_wire(code, out.error.code))
    return false;
  if (!out.has_result) return true;
  core::RunResult& res = out.result;
  std::uint64_t swaps = 0, params = 0;
  if (!r.str(res.model) || !r.f64(res.ar) || !r.f64(res.final_cost) ||
      !get_f64s(r, res.optimizer.x) || !r.f64(res.optimizer.value) ||
      !r.i32(res.optimizer.evaluations) || !r.i32(res.optimizer.iterations) ||
      !get_bool(r, res.optimizer.converged) || !get_bool(r, res.optimizer.stopped_early) ||
      !get_f64s(r, res.optimizer.history) || !r.i32(res.iterations_to_converge) ||
      !r.i32(res.mixer_layer_duration_dt) || !r.i32(res.makespan_dt) || !r.u64(swaps) ||
      !r.u64(params) || !get_bool(r, res.cancelled) || !r.str(res.cancel_reason))
    return false;
  res.swap_count = static_cast<std::size_t>(swaps);
  res.num_parameters = static_cast<std::size_t>(params);
  return true;
}

}  // namespace hgp::serve
