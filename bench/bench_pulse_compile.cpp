// Compile-path cost of the hybrid model's block pipeline: the same hybrid
// QAOA layer (problem segment + trainable pulse mixers) is compiled cold
// (empty cache — every gate and pulse block runs the pulse-ODE simulator)
// and warm (every block served from the shared serve::BlockCache). Verifies
// counts are bit-identical cache-on vs. cache-off and emits
// BENCH_pulse.json.
//
//   bench_pulse_compile [warm_iters]   (default 5)
//   HGP_SHOTS                          shots for the bit-identical check
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "backend/presets.hpp"
#include "bench_util.hpp"
#include "core/models.hpp"
#include "graph/instances.hpp"
#include "serve/block_cache.hpp"

using namespace hgp;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t warm_iters = argc > 1 ? std::stoul(argv[1]) : 5;
  const std::size_t shots = benchutil::env_or("HGP_SHOTS", 256);

  const backend::FakeBackend dev = backend::make_toronto();
  const graph::Instance inst = graph::paper_task1();
  core::ModelConfig mcfg;
  const core::QaoaModel model =
      core::QaoaModel::build(inst.graph, dev, core::ModelKind::Hybrid, mcfg);
  const core::Program prog = model.instantiate(model.initial_parameters());

  benchutil::header("block-compilation pipeline — hybrid layer, cold vs. warm cache");
  std::printf("%zu ops (%zu pulse-block plays), %zu warm iterations\n\n", prog.ops.size(),
              prog.pulse_block_play_count(), warm_iters);

  auto cache = std::make_shared<serve::BlockCache>(4096);
  core::ExecutorOptions opts;
  opts.block_cache = cache;
  opts.num_threads = 1;
  core::Executor ex(dev, opts);

  // Cold: every block compiles through the pulse simulator. One shot keeps
  // the measurement compile-dominated.
  Rng rng(1);
  const auto t_cold = std::chrono::steady_clock::now();
  ex.run(prog, 1, rng);
  const double cold_s = seconds_since(t_cold);

  // Warm: the identical program (a repeated candidate angle) — every gate
  // and pulse block is served from the cache.
  const auto t_warm = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < warm_iters; ++i) ex.run(prog, 1, rng);
  const double warm_s = seconds_since(t_warm) / static_cast<double>(warm_iters);
  const double speedup = warm_s > 0.0 ? cold_s / warm_s : 0.0;
  const serve::BlockCache::Stats cache_stats = ex.cache_stats();

  // Bit-identical check: warm shared cache vs. fresh private caches.
  Rng warm_rng(42), cold_rng(42);
  const sim::Counts warm_counts = ex.run(prog, shots, warm_rng);
  core::ExecutorOptions fresh_opts;
  fresh_opts.num_threads = 1;
  core::Executor fresh(dev, fresh_opts);
  const sim::Counts cold_counts = fresh.run(prog, shots, cold_rng);
  const bool identical = warm_counts == cold_counts;

  std::printf("cold compile  %.4f s\nwarm compile  %.4f s  (%.1fx)\n", cold_s, warm_s,
              speedup);
  std::printf("pulse blocks: %llu hits / %llu misses (hit rate %.1f%%); gate blocks: "
              "%llu hits / %llu misses\n",
              static_cast<unsigned long long>(cache_stats.pulse_hits),
              static_cast<unsigned long long>(cache_stats.pulse_misses),
              100.0 * cache_stats.pulse_hit_rate(),
              static_cast<unsigned long long>(cache_stats.gate_hits),
              static_cast<unsigned long long>(cache_stats.gate_misses));
  std::printf("counts bit-identical cache-on vs cache-off: %s\n", identical ? "yes" : "NO");

  std::ofstream json("BENCH_pulse.json");
  json << "{\n"
       << "  \"bench\": \"pulse_compile\",\n"
       << "  \"ops\": " << prog.ops.size() << ",\n"
       << "  \"warm_iters\": " << warm_iters << ",\n"
       << "  \"cold_s\": " << cold_s << ",\n"
       << "  \"warm_s\": " << warm_s << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"bit_identical\": " << (identical ? "true" : "false") << ",\n"
       << "  \"cache\": {\"pulse_hits\": " << cache_stats.pulse_hits
       << ", \"pulse_misses\": " << cache_stats.pulse_misses
       << ", \"gate_hits\": " << cache_stats.gate_hits
       << ", \"gate_misses\": " << cache_stats.gate_misses
       << ", \"pulse_hit_rate\": " << cache_stats.pulse_hit_rate() << "}\n"
       << "}\n";
  std::printf("wrote BENCH_pulse.json\n");
  return identical ? 0 : 1;
}
