// Micro-benchmark: rounds/sec of the round engine with the observability
// layer detached vs attached — MetricsRegistry only, then registry +
// PhaseProfiler, then the full stack with EngineTelemetry on top. The
// acceptance bar is that a detached run costs nothing (the
// instrumentation is behind a null check), an attached run stays cheap —
// counters are tallied per shard in plain structs and flushed once per
// round — and the telemetry layer's *marginal* cost over metrics+prof
// stays in the noise (a handful of steady-clock reads and histogram
// observations per round). --max-telemetry-overhead-pct turns that last
// bar into a hard exit-nonzero pin for manual runs with large --rounds;
// it defaults to off because micro-timings at ctest horizons are too
// noisy to gate (the bench_diff lane gates the recorded sidecars
// instead).
//
// Instrumentation must be observation-only: a digest of the full protocol
// state after the timed window is compared across modes, so this bench
// doubles as a no-perturbation check — any digest mismatch aborts
// nonzero. scripts/plot_figures.py consumes the CSV block.
#include <algorithm>
#include <chrono>
#include <functional>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/system.hpp"
#include "obs/engine_telemetry.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "snapshot/snapshot.hpp"
#include "util/cli.hpp"

namespace {

using namespace cellflow;

/// Same saturated workload as micro_parallel_scaling: sources along the
/// west edge, target mid-east, population proportional to the side.
SystemConfig overhead_config(int side) {
  SystemConfig cfg;
  cfg.side = side;
  cfg.params = Params(0.2, 0.05, 0.2);
  cfg.target = CellId{side - 1, side / 2};
  cfg.sources.clear();
  for (int j = 0; j < side; ++j) cfg.sources.push_back(CellId{0, j});
  return cfg;
}

enum class Mode { kDetached, kMetrics, kMetricsAndProfiler, kFull };
constexpr int kModes = 4;

struct Measurement {
  double rounds_per_sec = 0.0;
  std::uint64_t state_digest = 0;
};

Measurement measure(int side, const ParallelPolicy& policy, Mode mode,
                    std::uint64_t warmup, std::uint64_t rounds) {
  System sys(overhead_config(side));
  sys.set_parallel_policy(policy);
  obs::MetricsRegistry reg;
  obs::PhaseProfiler prof;
  obs::EngineTelemetry telemetry(reg);
  if (mode != Mode::kDetached) sys.set_metrics(&reg);
  if (mode == Mode::kMetricsAndProfiler || mode == Mode::kFull)
    sys.set_profiler(&prof);
  if (mode == Mode::kFull) sys.set_telemetry(&telemetry);
  for (std::uint64_t k = 0; k < warmup; ++k) sys.update();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t k = 0; k < rounds; ++k) sys.update();
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  Measurement m;
  m.rounds_per_sec = secs > 0.0 ? static_cast<double>(rounds) / secs : 0.0;
  m.state_digest = snapshot::state_digest(sys);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs cli(argc, argv);
  const auto rounds = cli.get_uint("rounds", 300, "timed rounds per mode");
  const auto warmup =
      cli.get_uint("warmup", 60, "untimed rounds to reach steady state");
  const auto max_side = static_cast<int>(
      cli.get_uint("max-side", 50, "largest grid side to measure"));
  const auto reps = static_cast<std::size_t>(cli.get_uint(
      "reps", 3, "repetitions per mode (best-of is reported)"));
  const double max_telemetry_ovh = cli.get_double(
      "max-telemetry-overhead-pct", 0.0,
      "exit nonzero if telemetry's marginal overhead exceeds this "
      "(0: report only; use with large --rounds)");
  const ParallelPolicy policy = cellflow::bench::parallel_from_cli(cli);
  if (cli.help_requested()) {
    std::cout << cli.help_text();
    return 0;
  }
  cli.finish();
  cellflow::bench::BenchRecorder recorder("micro_metrics_overhead");
  recorder.set_repetitions(static_cast<int>(reps));

  cellflow::bench::banner(
      "Micro: observability overhead",
      "MetricsRegistry + PhaseProfiler attach cost (DESIGN.md §7)");

  const std::vector<int> all_sides = {20, 50};
  const char* mode_names[] = {"detached", "metrics", "metrics+prof",
                              "full"};

  TextTable table;
  table.set_header({"side", "detached r/s", "metrics r/s", "metrics+prof r/s",
                    "full r/s", "metrics ovh%", "prof ovh%", "telem ovh%"});

  struct Row {
    int side;
    double rps[kModes];     // best-of-reps rounds/sec
    double rps_rd[kModes];  // (max-min)/mean across reps
  };
  std::vector<Row> results;
  bool digests_agree = true;
  double worst_telemetry_ovh = 0.0;

  for (const int side : all_sides) {
    if (side > max_side) continue;
    Row row{side, {}, {}};
    std::uint64_t baseline_digest = 0;
    // The modes are interleaved inside each rep, starting one mode later
    // each rep, so host drift over the run lands on every mode alike
    // instead of reading as one mode's overhead.
    std::vector<double> samples[kModes];
    for (std::size_t r = 0; r < reps; ++r) {
      for (int k = 0; k < kModes; ++k) {
        const int m = static_cast<int>((r + static_cast<std::size_t>(k)) %
                                       kModes);
        const Measurement meas =
            measure(side, policy, static_cast<Mode>(m), warmup, rounds);
        recorder.note_rounds(warmup + rounds);
        samples[m].push_back(meas.rounds_per_sec);
        if (r == 0 && k == 0) {
          baseline_digest = meas.state_digest;
        } else if (meas.state_digest != baseline_digest) {
          digests_agree = false;
          std::cerr << "DIGEST MISMATCH: side=" << side << " mode="
                    << mode_names[m]
                    << " — instrumentation perturbed protocol state\n";
        }
      }
    }
    for (int m = 0; m < kModes; ++m) {
      // Best-of-reps is the reported statistic (on a contended machine
      // noise is one-sided slowdown, so the max is the clean speed); the
      // _rd column is the best-to-second-best gap — the reproducibility
      // of that statistic, not the raw scatter.
      std::sort(samples[m].begin(), samples[m].end(), std::greater<>());
      row.rps[m] = samples[m][0];
      row.rps_rd[m] = samples[m].size() > 1 && samples[m][0] > 0.0
                          ? (samples[m][0] - samples[m][1]) / samples[m][0]
                          : 0.0;
      recorder.note_samples("rounds_per_sec[" + std::to_string(side) + "/" +
                                mode_names[m] + "]",
                            samples[m]);
    }
    const auto overhead = [&](int m) {
      return row.rps[m] > 0.0
                 ? 100.0 * (row.rps[0] / row.rps[m] - 1.0)
                 : 0.0;
    };
    // Telemetry's marginal cost is measured against the metrics+prof
    // mode (the profiler already pays the per-shard clock reads).
    const double telem_ovh =
        row.rps[3] > 0.0 ? 100.0 * (row.rps[2] / row.rps[3] - 1.0) : 0.0;
    worst_telemetry_ovh = std::max(worst_telemetry_ovh, telem_ovh);
    table.add_numeric_row(std::to_string(side),
                          {row.rps[0], row.rps[1], row.rps[2], row.rps[3],
                           overhead(1), overhead(2), telem_ovh});
    results.push_back(row);
  }
  std::cout << table.to_string() << '\n';

  std::cout << "CSV:\n";
  CsvWriter csv(std::cout);
  csv.header(
      {"side", "mode", "rounds_per_sec", "rounds_per_sec_rd", "overhead_pct"});
  for (const Row& r : results) {
    for (int m = 0; m < kModes; ++m) {
      const double ovh =
          r.rps[m] > 0.0 ? 100.0 * (r.rps[0] / r.rps[m] - 1.0) : 0.0;
      csv.field(static_cast<std::int64_t>(r.side))
          .field(mode_names[m])
          .field(r.rps[m])
          .field(r.rps_rd[m])
          .field(m == 0 ? 0.0 : ovh);
      csv.end_row();
    }
  }

  std::cout << (digests_agree
                    ? "\nno-perturbation: digests identical across modes\n"
                    : "\nno-perturbation: DIGEST MISMATCH (bug)\n");
  if (!digests_agree) return 1;
  if (max_telemetry_ovh > 0.0 && worst_telemetry_ovh > max_telemetry_ovh) {
    std::cerr << "telemetry overhead " << worst_telemetry_ovh
              << "% exceeds --max-telemetry-overhead-pct="
              << max_telemetry_ovh << '\n';
    return 1;
  }
  return 0;
}
