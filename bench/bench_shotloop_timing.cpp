// Wall-clock timing of the executor's noisy shot loop on the shared
// heavy-hex ladder program — the per-evaluation hot path of the
// machine-in-loop workflow. Times the trajectory engine at one lane per
// group (shot_batch_lanes = 1) against the same engine at `lanes` lanes,
// verifies their counts are bit-identical at equal seeds, and emits
// BENCH_shotloop.json (best-of-reps, speedup, bit-identical flag).
//
//   bench_shotloop_timing [num_qubits] [shots] [reps] [threads] [lanes]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "backend/presets.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/executor.hpp"

using namespace hgp;

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::stoul(argv[1]) : 12;
  const std::size_t shots = argc > 2 ? std::stoul(argv[2]) : 256;
  const int reps = argc > 3 ? std::stoi(argv[3]) : 5;
  const std::size_t threads = argc > 4 ? std::stoul(argv[4]) : 1;
  const std::size_t lanes = argc > 5 ? std::stoul(argv[5]) : core::ExecutorOptions{}.shot_batch_lanes;

  const core::Program prog = benchutil::toronto_ladder_program(n);
  const backend::FakeBackend dev = backend::make_toronto();

  // Best-of-reps with a fresh seed-17 Rng per rep, so every rep (and both
  // widths) executes the identical shot grid and the counts comparison is
  // exact rather than statistical.
  auto time_width = [&](std::size_t width, sim::Counts* counts_out) {
    core::ExecutorOptions opts;
    opts.num_threads = threads;
    opts.shot_batch_lanes = width;
    core::Executor ex(dev, opts);
    Rng warm(1);
    ex.run(prog, 1, warm);  // warm the compiled-block cache
    double best_s = 1e300;
    for (int r = 0; r < reps; ++r) {
      Rng rng(17);
      const auto t0 = std::chrono::steady_clock::now();
      *counts_out = ex.run(prog, shots, rng);
      const auto t1 = std::chrono::steady_clock::now();
      best_s = std::min(best_s, std::chrono::duration<double>(t1 - t0).count());
    }
    return best_s;
  };

  sim::Counts one_lane_counts, batched_counts;
  const double one_lane_s = time_width(1, &one_lane_counts);
  const double batched_s = time_width(lanes, &batched_counts);
  const double speedup = batched_s > 0.0 ? one_lane_s / batched_s : 0.0;
  const bool identical = one_lane_counts == batched_counts;

  std::printf("%zu qubits, %zu shots, %zu threads\n", n, shots, threads);
  std::printf(" 1 lane : best %.3f s (%.1f shots/s)\n", one_lane_s, shots / one_lane_s);
  std::printf("%2zu lanes: best %.3f s (%.1f shots/s)  ->  %.2fx\n", lanes, batched_s,
              shots / batched_s, speedup);
  std::printf("counts bit-identical 1 lane vs %zu lanes: %s\n", lanes, identical ? "yes" : "NO");

  std::ofstream json("BENCH_shotloop.json");
  json << "{\n"
       << "  \"bench\": \"shotloop\",\n"
       << "  \"qubits\": " << n << ",\n"
       << "  \"shots\": " << shots << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"lanes\": " << lanes << ",\n"
       << "  \"one_lane_s\": " << one_lane_s << ",\n"
       << "  \"batched_s\": " << batched_s << ",\n"
       << "  \"one_lane_shots_per_s\": " << shots / one_lane_s << ",\n"
       << "  \"batched_shots_per_s\": " << shots / batched_s << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"bit_identical\": " << (identical ? "true" : "false") << "\n"
       << "}\n";
  std::printf("wrote BENCH_shotloop.json\n");
  return identical ? 0 : 1;
}
