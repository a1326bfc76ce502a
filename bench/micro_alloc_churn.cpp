// Micro-benchmark E17: allocation churn and throughput of the round hot
// path (DESIGN.md §10). Links the operator-new interposer
// (src/obs/alloc_interposer.cpp), so every heap allocation in the
// process is counted; the per-engine measurement window then reports
// rounds/sec, allocations/round, and bytes/round on the saturated dense
// workload — the shape where the pre-§10 engine allocated the most
// (every cell computes NEPrev, every strip is contested, entities cross
// every round).
//
// Expected steady state: 0 allocs/round on every engine — the scratch
// arenas, inline NeighborSets, and in-place Move leave nothing for the
// allocator to do once the warm-up has grown every buffer to its
// high-water mark. The digest check doubles as an end-to-end
// equivalence pin across serial / parallel / active-set, mirroring
// micro_active_set.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/source.hpp"
#include "core/system.hpp"
#include "obs/alloc_stats.hpp"
#include "snapshot/snapshot.hpp"
#include "util/cli.hpp"

namespace {

using namespace cellflow;

/// Saturated closed system (micro_active_set's dense shape): every cell
/// bar the consuming target holds one centered entity, no sources.
SystemConfig dense_config(int side) {
  SystemConfig cfg;
  cfg.side = side;
  cfg.params = Params(0.2, 0.05, 0.2);
  cfg.target = CellId{side - 1, side / 2};
  cfg.sources = {};
  return cfg;
}

void seed_everywhere(System& sys) {
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
};

struct Measurement {
  double rounds_per_sec = 0.0;
  double allocs_per_round = 0.0;
  double bytes_per_round = 0.0;
  std::uint64_t state_digest = 0;
};

Measurement measure(const SystemConfig& cfg, const Engine& eng,
                    std::uint64_t warmup, std::uint64_t rounds) {
  System sys(cfg, nullptr, std::make_unique<NullSource>());
  seed_everywhere(sys);
  sys.set_round_scheduler(eng.scheduler);
  sys.set_parallel_policy(eng.policy);
  // Warm-up grows every scratch buffer to its high-water mark; only the
  // window after it is charged to the engine.
  for (std::uint64_t k = 0; k < warmup; ++k) sys.update();
  const obs::AllocWindow window;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t k = 0; k < rounds; ++k) sys.update();
  const auto t1 = std::chrono::steady_clock::now();
  const obs::AllocTotals churn = window.delta();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  Measurement m;
  m.rounds_per_sec = secs > 0.0 ? static_cast<double>(rounds) / secs : 0.0;
  m.allocs_per_round =
      static_cast<double>(churn.allocs) / static_cast<double>(rounds);
  m.bytes_per_round =
      static_cast<double>(churn.bytes) / static_cast<double>(rounds);
  m.state_digest = snapshot::state_digest(sys);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs cli(argc, argv);
  const auto rounds = cli.get_uint("rounds", 300, "timed rounds per engine");
  const auto warmup =
      cli.get_uint("warmup", 60, "untimed rounds to warm the scratch arenas");
  const auto max_side = static_cast<int>(
      cli.get_uint("max-side", 100, "largest grid side to measure"));
  if (cli.help_requested()) {
    std::cout << cli.help_text();
    return 0;
  }
  cli.finish();
  cellflow::bench::BenchRecorder recorder("micro_alloc_churn");

  bench::banner("Micro: round hot-path allocation churn",
                "DESIGN.md §10 zero-allocation steady state; dense load");
  if (!obs::alloc_interposer_linked()) {
    std::cerr << "alloc interposer NOT linked — counts would read 0 "
                 "vacuously (build system bug)\n";
    return 1;
  }
  std::cout << "allocs/round and bytes/round are process-global deltas over\n"
               "the timed window (steady state target: 0 on every engine)\n\n";

  const std::vector<Engine> engines = {
      {"serial", RoundScheduler::kExhaustive, ParallelPolicy::serial()},
      {"parallel-4", RoundScheduler::kExhaustive, ParallelPolicy::parallel(4)},
      {"active-set", RoundScheduler::kActiveSet, ParallelPolicy::serial()},
  };

  TextTable table;
  table.set_header(
      {"workload / engine", "rounds/s", "allocs/round", "bytes/round"});

  struct Row {
    std::string workload;
    int side;
    const char* engine;
    Measurement m;
  };
  std::vector<Row> results;
  bool digests_agree = true;
  bool alloc_free = true;

  for (const int side : {20, 50, 100}) {
    if (side > max_side) continue;
    const SystemConfig cfg = dense_config(side);
    const std::string workload = "dense-" + std::to_string(side);
    std::uint64_t ref_digest = 0;
    for (const Engine& eng : engines) {
      const Measurement m = measure(cfg, eng, warmup, rounds);
      recorder.note_rounds(warmup + rounds);
      if (&eng == &engines.front()) {
        ref_digest = m.state_digest;
      } else if (m.state_digest != ref_digest) {
        digests_agree = false;
        std::cerr << "DIGEST MISMATCH: " << workload << " engine="
                  << eng.label << " diverged from serial\n";
      }
      if (m.allocs_per_round > 0.0) alloc_free = false;
      table.add_numeric_row(workload + "  " + eng.label,
                            {m.rounds_per_sec, m.allocs_per_round,
                             m.bytes_per_round});
      results.push_back(Row{workload, side, eng.label, m});
    }
  }
  std::cout << table.to_string() << '\n';

  std::cout << "CSV:\n";
  CsvWriter csv(std::cout);
  csv.header({"workload", "side", "engine", "rounds_per_sec", "allocs_per_round",
              "bytes_per_round"});
  for (const Row& r : results) {
    csv.field(r.workload)
        .field(static_cast<std::uint64_t>(r.side))
        .field(r.engine)
        .field(r.m.rounds_per_sec)
        .field(r.m.allocs_per_round)
        .field(r.m.bytes_per_round);
    csv.end_row();
  }

  std::cout << (alloc_free ? "\nsteady state: allocation-free on every engine\n"
                           : "\nsteady state: ALLOCATING (regression — see "
                             "tests/test_alloc_churn.cpp)\n");
  std::cout << (digests_agree ? "equivalence: all engine digests agree\n"
                              : "equivalence: DIGEST MISMATCH (bug)\n");
  return digests_agree ? 0 : 1;
}
