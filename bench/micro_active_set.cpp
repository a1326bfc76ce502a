// Micro-benchmark: rounds/sec of the active-set round scheduler
// (core/system.hpp's RoundScheduler) against the exhaustive reference, on
// two workload shapes:
//
//   sparse  one rate-limited source in a corner, target in the opposite
//           corner — after routing stabilizes almost every cell is
//           provably quiescent, the regime the scheduler exists for
//   dense   every cell seeded with one entity, no sources, one
//           consuming target — the zero-regression check: with every
//           neighborhood occupied the scheduler may skip nothing, and
//           its bookkeeping must cost (almost) nothing
//
// A fourth column runs the same workloads on chunk::ChunkedSystem
// (serial, active-set): the per-cell cost of the sparse engine against
// the dense one, which decides whether the two stores can merge
// (ROADMAP item 2). At side 20 the chunked grid is a single 32×32 tile,
// so chunk-major traversal cannot explain a gap there.
//
// Every engine runs the identical workload from the identical initial
// state; a digest of the full protocol state after the timed window is
// compared across exhaustive-serial / active-serial / active-parallel /
// chunked, so this bench doubles as an end-to-end equivalence check — any
// digest mismatch aborts nonzero. scripts/plot_figures.py consumes the
// CSV.
//
// Each workload runs kReps repetitions of every engine. The engines are
// interleaved inside each rep, starting one engine later each rep, so
// host drift lands on every engine alike; each r/s column is the median
// over the reps, and chunked/active is the median of the per-rep ratios
// (each ratio pairs two runs taken back to back). The timed window stays
// short (400 rounds by default) because the dense grid is closed and its
// target drains it: at 4000 rounds dense-20 ends empty and dense-50 with
// 56% of its entities, a different regime from the saturated one the
// dense rows exist for. Stability comes from the reps instead, and the
// entities left at the end of each dense window are printed below the
// table so the regime can be read off every run.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "chunk/chunked_system.hpp"
#include "core/source.hpp"
#include "core/system.hpp"
#include "snapshot/snapshot.hpp"
#include "util/cli.hpp"

namespace {

using namespace cellflow;

constexpr double kSparseRate = 0.05;
constexpr std::uint64_t kSparseSeed = 17;
/// Repetitions of every engine per workload; each column is their median.
/// Fifteen short reps held every chunked/active within ±0.08 over five
/// runs on a 4-vCPU guest, where five reps moved dense-20's by ±0.25.
constexpr std::size_t kReps = 15;

/// Sparse corner-to-corner trickle: one source, Bernoulli(kSparseRate)
/// injection, so the population is O(1) while the grid is O(side²).
SystemConfig sparse_config(int side) {
  SystemConfig cfg;
  cfg.side = side;
  cfg.params = Params(0.2, 0.05, 0.2);
  cfg.target = CellId{side - 1, side - 1};
  cfg.sources = {CellId{0, 0}};
  return cfg;
}

/// Saturated closed system: every cell (bar the consuming target) is
/// seeded with one centered entity, no sources — every neighborhood is
/// occupied, so the occupancy gate can skip nothing and only the
/// post-stabilization Route skip remains. This is the scheduler's
/// worst-case bookkeeping-overhead shape.
SystemConfig dense_config(int side) {
  SystemConfig cfg;
  cfg.side = side;
  cfg.params = Params(0.2, 0.05, 0.2);
  cfg.target = CellId{side - 1, side / 2};
  cfg.sources = {};
  return cfg;
}

template <typename Sys>
void seed_everywhere(Sys& sys) {
  for (const CellId id : sys.grid().all_cells()) {
    if (id == sys.target()) continue;
    sys.seed_entity(id, Vec2{static_cast<double>(id.i) + 0.5,
                             static_cast<double>(id.j) + 0.5});
  }
}

struct Engine {
  const char* label;
  RoundScheduler scheduler;
  ParallelPolicy policy;
  bool chunked = false;  ///< chunk::ChunkedSystem instead of System
};

struct Measurement {
  double rounds_per_sec = 0.0;
  std::uint64_t state_digest = 0;
  double visited_frac = 0.0;  ///< mean fraction of cells Route visited
  std::size_t population = 0;  ///< entities in the grid when the window ends
};

template <typename Sys>
Measurement time_rounds(Sys& sys, bool sparse, const Engine& eng,
                        std::uint64_t warmup, std::uint64_t rounds) {
  if (!sparse) seed_everywhere(sys);
  sys.set_round_scheduler(eng.scheduler);
  sys.set_parallel_policy(eng.policy);
  for (std::uint64_t k = 0; k < warmup; ++k) sys.update();
  std::uint64_t visited = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t k = 0; k < rounds; ++k) {
    sys.update();
    visited += sys.last_scheduler_stats().route_cells;
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  Measurement m;
  m.rounds_per_sec = secs > 0.0 ? static_cast<double>(rounds) / secs : 0.0;
  m.state_digest = snapshot::state_digest(sys);
  m.population = sys.entity_count();
  m.visited_frac = static_cast<double>(visited) /
                   (static_cast<double>(rounds) *
                    static_cast<double>(sys.grid().cell_count()));
  return m;
}

Measurement measure(const SystemConfig& cfg, bool sparse, const Engine& eng,
                    std::uint64_t warmup, std::uint64_t rounds) {
  // The stateful rate-limited source must draw the identical stream in
  // every engine: same seed, and the scheduler never skips source cells'
  // Inject step (Inject is not phase-gated).
  auto source = sparse ? std::unique_ptr<SourcePolicy>(
                             std::make_unique<RateLimitedSource>(kSparseRate,
                                                                 kSparseSeed))
                       : std::unique_ptr<SourcePolicy>(
                             std::make_unique<NullSource>());
  if (eng.chunked) {
    chunk::ChunkedSystem sys(cfg, nullptr, std::move(source));
    return time_rounds(sys, sparse, eng, warmup, rounds);
  }
  System sys(cfg, nullptr, std::move(source));
  return time_rounds(sys, sparse, eng, warmup, rounds);
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs cli(argc, argv);
  const auto rounds = cli.get_uint("rounds", 400, "timed rounds per engine");
  const auto warmup =
      cli.get_uint("warmup", 80, "untimed rounds to reach steady state");
  const auto max_side = static_cast<int>(
      cli.get_uint("max-side", 100, "largest grid side to measure"));
  if (cli.help_requested()) {
    std::cout << cli.help_text();
    return 0;
  }
  cli.finish();
  cellflow::bench::BenchRecorder recorder("micro_active_set");
  recorder.set_repetitions(static_cast<int>(kReps));

  bench::banner(
      "Micro: active-set round scheduler",
      "RoundScheduler::kActiveSet vs kExhaustive; sparse and dense loads");
  std::cout << "visited = mean fraction of cells the Route phase ran\n"
               "(digests must match across all engines on any machine —\n"
               " that is the equivalence check)\n\n";

  const std::vector<Engine> engines = {
      {"exhaustive", RoundScheduler::kExhaustive, ParallelPolicy::serial()},
      {"active", RoundScheduler::kActiveSet, ParallelPolicy::serial()},
      {"active-4t", RoundScheduler::kActiveSet, ParallelPolicy::parallel(4)},
      {"chunked", RoundScheduler::kActiveSet, ParallelPolicy::serial(), true},
  };

  TextTable table;
  table.set_header({"workload", "exhaustive r/s", "active r/s", "active-4t r/s",
                    "chunked r/s", "speedup", "chunked/active", "visited"});

  struct Row {
    std::string workload;
    int side;
    std::vector<double> rps;  // engines order, median over reps
    double chunked_over_active;  // median of the per-rep ratios
    double visited_frac;
    std::size_t population;  // entities left at the window's end
  };
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  };
  std::vector<Row> results;
  bool digests_agree = true;

  for (const bool sparse : {true, false}) {
    for (const int side : {20, 50, 100}) {
      if (side > max_side) continue;
      // A dense 100×100 run is the scaling bench's job; here 50 suffices
      // for the zero-regression check.
      if (!sparse && side > 50) continue;
      const SystemConfig cfg = sparse ? sparse_config(side) : dense_config(side);
      Row row{(sparse ? "sparse-" : "dense-") + std::to_string(side), side, {},
              0.0, 0.0, 0};
      std::vector<std::vector<double>> samples(engines.size());
      std::vector<double> ratios;
      // Rep 0 runs exhaustive serial first: its digest is the reference.
      std::uint64_t ref_digest = 0;
      bool have_ref = false;
      for (std::size_t r = 0; r < kReps; ++r) {
        std::vector<double> rep_rps(engines.size(), 0.0);
        for (std::size_t k = 0; k < engines.size(); ++k) {
          const std::size_t e = (r + k) % engines.size();
          const Engine& eng = engines[e];
          const Measurement m = measure(cfg, sparse, eng, warmup, rounds);
          recorder.note_rounds(warmup + rounds);
          rep_rps[e] = m.rounds_per_sec;
          samples[e].push_back(m.rounds_per_sec);
          // The visit fraction reported is the dense active engine's; the
          // population is every engine's, since their digests agree.
          if (e == 1) row.visited_frac = m.visited_frac;
          row.population = m.population;
          if (!have_ref) {
            ref_digest = m.state_digest;
            have_ref = true;
          } else if (m.state_digest != ref_digest) {
            digests_agree = false;
            std::cerr << "DIGEST MISMATCH: " << row.workload << " engine="
                      << eng.label << " rep " << r
                      << " diverged from exhaustive serial\n";
          }
        }
        if (rep_rps[1] > 0.0) ratios.push_back(rep_rps[3] / rep_rps[1]);
      }
      for (std::size_t e = 0; e < engines.size(); ++e) {
        row.rps.push_back(median(samples[e]));
        recorder.note_samples(row.workload + "/" + engines[e].label,
                              samples[e]);
      }
      row.chunked_over_active = median(ratios);
      recorder.note_samples(row.workload + "/chunked_over_active", ratios);
      std::vector<double> cells = row.rps;
      cells.push_back(row.rps[1] / row.rps[0]);  // active-serial speedup
      cells.push_back(row.chunked_over_active);  // chunked ÷ active
      cells.push_back(row.visited_frac);
      table.add_numeric_row(row.workload, cells);
      results.push_back(std::move(row));
    }
  }
  std::cout << table.to_string() << '\n';
  for (const Row& r : results) {
    if (r.workload.rfind("dense-", 0) != 0) continue;
    std::cout << r.workload << ": " << r.population << " of "
              << r.side * r.side - 1
              << " seeded entities left at the window's end\n";
  }
  std::cout << '\n';

  std::cout << "CSV:\n";
  CsvWriter csv(std::cout);
  csv.header({"workload", "side", "engine", "rounds_per_sec", "speedup",
              "visited_frac"});
  for (const Row& r : results) {
    for (std::size_t e = 0; e < engines.size(); ++e) {
      csv.field(r.workload)
          .field(static_cast<std::uint64_t>(r.side))
          .field(engines[e].label)
          .field(r.rps[e])
          .field(r.rps[e] / r.rps[0])
          .field(r.visited_frac);
      csv.end_row();
    }
  }

  std::cout << (digests_agree
                    ? "\nequivalence: all engine digests agree\n"
                    : "\nequivalence: DIGEST MISMATCH (bug)\n");
  return digests_agree ? 0 : 1;
}
