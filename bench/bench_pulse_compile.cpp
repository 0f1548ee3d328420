// Compile-path cost of the hybrid model's block pipeline: the same hybrid
// QAOA layer (problem segment + trainable pulse mixers) is compiled cold
// (empty cache — every gate and pulse block runs the pulse-ODE simulator)
// and warm (every block served from the shared serve::BlockCache). Verifies
// counts are bit-identical cache-on vs. cache-off and emits
// BENCH_pulse.json.
//
// When HGP_BLOCK_STORE names a file, it also measures the cross-process
// persistent-store path: a fresh cache warm-starts from the store another
// invocation wrote (zero pulse-ODE compilations for the same calibration)
// and writes through for the next one — run the binary twice with the same
// store to get a disk-warmed second run.
//
//   bench_pulse_compile [warm_iters]   (default 5)
//   HGP_SHOTS                          shots for the bit-identical check
//   HGP_BLOCK_STORE                    persistent store path ("" = off)
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
  bool identical = warm_counts == cold_counts;

  // Cross-process persistence: a fresh cache attached to HGP_BLOCK_STORE.
  // First invocation compiles cold and writes the store; a second invocation
  // (fresh process) loads it and must compile zero pulse blocks.
  const std::string store_path = benchutil::env_or_str("HGP_BLOCK_STORE", "");
  const bool store_enabled = !store_path.empty();
  double store_s = 0.0;
  bool store_warm = false, store_identical = true;
  serve::BlockCache::Stats store_stats;
  if (store_enabled) {
    core::ExecutorOptions sopts;
    sopts.num_threads = 1;
    sopts.block_store_path = store_path;
    Rng srng(1);
    // The timer covers executor construction too: attaching the store —
    // parsing and deserializing every record — is the cost the warm path
    // pays instead of compiling, so it belongs inside the measurement.
    const auto t_store = std::chrono::steady_clock::now();
    core::Executor store_ex(dev, sopts);
    store_ex.run(prog, 1, srng);
    store_s = seconds_since(t_store);
    store_warm = store_ex.cache_stats().store_loaded > 0;
    Rng check_rng(42);
    store_identical = store_ex.run(prog, shots, check_rng) == cold_counts;
    identical = identical && store_identical;
    store_stats = store_ex.cache_stats();
  }

  std::printf("cold compile  %.4f s\nwarm compile  %.4f s  (%.1fx)\n", cold_s, warm_s,
              speedup);
  std::printf("pulse blocks: %llu hits / %llu misses (hit rate %.1f%%); gate blocks: "
              "%llu hits / %llu misses\n",
              static_cast<unsigned long long>(cache_stats.pulse_hits),
              static_cast<unsigned long long>(cache_stats.pulse_misses),
              100.0 * cache_stats.pulse_hit_rate(),
              static_cast<unsigned long long>(cache_stats.gate_hits),
              static_cast<unsigned long long>(cache_stats.gate_misses));
  if (store_enabled) {
    std::printf("persistent store (%s): %s start, %.4f s (%.1fx vs cold), "
                "%llu loaded, store hits %llu / misses %llu (rate %.1f%%), "
                "pulse compiles %llu\n",
                store_path.c_str(), store_warm ? "WARM" : "cold", store_s,
                store_s > 0.0 ? cold_s / store_s : 0.0,
                static_cast<unsigned long long>(store_stats.store_loaded),
                static_cast<unsigned long long>(store_stats.store_hits),
                static_cast<unsigned long long>(store_stats.store_misses),
                100.0 * store_stats.store_hit_rate(),
                static_cast<unsigned long long>(store_stats.pulse_misses));
  }
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
       << ", \"pulse_hit_rate\": " << cache_stats.pulse_hit_rate() << "},\n"
       << "  \"store\": {\"enabled\": " << (store_enabled ? "true" : "false")
       << ", \"warm_start\": " << (store_warm ? "true" : "false")
       << ", \"loaded\": " << store_stats.store_loaded
       << ", \"store_hits\": " << store_stats.store_hits
       << ", \"store_misses\": " << store_stats.store_misses
       << ", \"store_hit_rate\": " << store_stats.store_hit_rate()
       << ", \"pulse_misses\": " << store_stats.pulse_misses
       << ", \"store_s\": " << store_s
       << ", \"store_speedup\": " << (store_s > 0.0 ? cold_s / store_s : 0.0)
       << ", \"bit_identical\": " << (store_identical ? "true" : "false") << "}\n"
       << "}\n";
  std::printf("wrote BENCH_pulse.json\n");
  return identical ? 0 : 1;
}
