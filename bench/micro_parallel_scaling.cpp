// Micro-benchmark: rounds/sec of the serial vs parallel round engine
// (core/system.hpp's ParallelPolicy) on saturated grids from 20×20 to
// 100×100, with the engine-telemetry decomposition of each configuration
// (obs/engine_telemetry.hpp): wall-equivalent work / barrier-wait /
// dispatch / merge nanoseconds per round, phase imbalance, and the
// fraction of round time the components explain (coverage). This is the
// measuring instrument for the "parallel engine loses to serial"
// roadmap item — the sidecar shows *where* the non-work time goes.
//
// Every engine runs the identical workload from the identical initial
// state; a digest of the full protocol state after the timed window is
// compared across engines, so this bench doubles as an end-to-end
// determinism check — any digest mismatch aborts nonzero (telemetry is
// attached in every mode, so it also proves observation-only; each
// parallel configuration also runs a twin with a no-op phase hook and
// no telemetry — the shape Simulator drives — checked the same way).
//
// Each configuration is measured --reps times; the CSV reports the mean
// plus a <metric>_rd relative-dispersion column ((max-min)/mean) per
// timed metric, which tools/cellflow_bench_diff folds into its
// regression thresholds.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/system.hpp"
#include "obs/engine_telemetry.hpp"
#include "obs/metrics.hpp"
#include "snapshot/snapshot.hpp"
#include "util/cli.hpp"

namespace {

using namespace cellflow;

/// Saturated many-stream workload: sources along the whole west edge,
/// target at the middle of the east edge. Keeps the population (and the
/// per-round Signal/Move work) proportional to the grid side.
SystemConfig scaling_config(int side) {
  SystemConfig cfg;
  cfg.side = side;
  cfg.params = Params(0.2, 0.05, 0.2);
  cfg.target = CellId{side - 1, side / 2};
  cfg.sources.clear();
  for (int j = 0; j < side; ++j) cfg.sources.push_back(CellId{0, j});
  return cfg;
}

struct Measurement {
  double rounds_per_sec = 0.0;
  std::uint64_t state_digest = 0;
  // Per-round telemetry means over the timed window (nanoseconds).
  double work_ns = 0.0;
  double barrier_ns = 0.0;
  double dispatch_ns = 0.0;
  double merge_ns = 0.0;
  double round_ns = 0.0;
  double imbalance = 1.0;  ///< mean over phases and rounds
  double coverage = 0.0;   ///< accounted / round wall time
};

/// The default run attaches telemetry (the breakdown columns).
/// `hooked_twin` instead installs a no-op phase hook with telemetry
/// detached — how Simulator drives every cellflow_sim / Experiment run —
/// so the digest check also covers the hooked, unmeasured engine.
Measurement measure(int side, const ParallelPolicy& policy,
                    std::uint64_t warmup, std::uint64_t rounds,
                    bool hooked_twin = false) {
  System sys(scaling_config(side));
  sys.set_parallel_policy(policy);
  obs::MetricsRegistry reg;
  obs::EngineTelemetry telemetry(reg);
  if (hooked_twin)
    sys.set_phase_hook([](const System&, UpdatePhase) {});
  else
    sys.set_telemetry(&telemetry);
  for (std::uint64_t k = 0; k < warmup; ++k) sys.update();
  telemetry.reset_totals();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t k = 0; k < rounds; ++k) sys.update();
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  Measurement m;
  m.rounds_per_sec = secs > 0.0 ? static_cast<double>(rounds) / secs : 0.0;
  m.state_digest = snapshot::state_digest(sys);
  const obs::EngineTelemetry::Totals& t = telemetry.totals();
  if (t.rounds > 0) {
    const double n = static_cast<double>(t.rounds);
    m.work_ns = static_cast<double>(t.work_ns) / n;
    m.barrier_ns = static_cast<double>(t.barrier_wait_ns) / n;
    m.dispatch_ns = static_cast<double>(t.dispatch_ns) / n;
    m.merge_ns = static_cast<double>(t.merge_ns) / n;
    m.round_ns = static_cast<double>(t.round_ns) / n;
    m.imbalance = (t.imbalance_route_sum + t.imbalance_signal_sum +
                   t.imbalance_move_sum) /
                  (3.0 * n);
    m.coverage = t.coverage();
  }
  return m;
}

/// Best-of-reps statistic plus its reproducibility. On a contended
/// machine timing noise is one-sided slowdown, so "best" (max for
/// throughput, min for durations) is the clean value; rel is the
/// relative gap between best and second-best — how repeatable the
/// reported number is, which is what the regression gate needs (the raw
/// scatter would overstate the noise of a best-of statistic).
struct Spread {
  double best = 0.0;
  double rel = 0.0;
};

Spread spread(std::vector<double> samples, bool higher_better) {
  Spread s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  if (higher_better) std::reverse(samples.begin(), samples.end());
  s.best = samples[0];
  if (samples.size() > 1 && s.best != 0.0)
    s.rel = std::abs(samples[1] - s.best) / std::abs(s.best);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs cli(argc, argv);
  const auto rounds = cli.get_uint("rounds", 300, "timed rounds per engine");
  const auto warmup =
      cli.get_uint("warmup", 60, "untimed rounds to reach steady state");
  const auto max_side = static_cast<int>(
      cli.get_uint("max-side", 100, "largest grid side to measure"));
  const auto reps = static_cast<std::size_t>(
      cli.get_uint("reps", 3, "measurement repetitions per configuration"));
  if (cli.help_requested()) {
    std::cout << cli.help_text();
    return 0;
  }
  cli.finish();
  cellflow::bench::BenchRecorder recorder("micro_parallel_scaling");
  recorder.set_repetitions(static_cast<int>(reps));

  bench::banner(
      "Micro: parallel round-engine scaling",
      "ParallelPolicy engine; serial vs 2/4/8 worker threads, with the\n"
      "engine-telemetry breakdown of where each round's time goes");
  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "hardware threads: " << hw
            << "  (speedup is bounded by physical cores; digests must\n"
               "   match on any machine — that is the determinism check)\n\n";

  const std::vector<int> all_sides = {20, 50, 100};
  const std::vector<int> thread_counts = {0, 2, 4, 8};  // 0 = serial

  const int max_requested =
      *std::max_element(thread_counts.begin(), thread_counts.end());
  if (hw != 0 && hw < static_cast<unsigned>(max_requested)) {
    std::cout << "WARNING: only " << hw << " hardware thread"
              << (hw == 1 ? "" : "s") << " for up to " << max_requested
              << " requested workers — the oversubscribed widths time-slice\n"
                 "         one core, so speedup_vs_serial is informational "
                 "only on this\n"
                 "         machine (the digest checks remain exact).\n\n";
  }

  struct Row {
    int side = 0;
    int threads = 0;
    Spread rps, work, barrier, dispatch, merge, round;
    double speedup = 1.0;
    double coverage_pct = 0.0;
    double imbalance = 1.0;
  };
  std::vector<Row> rows;
  bool digests_agree = true;

  for (const int side : all_sides) {
    if (side > max_side) continue;
    std::uint64_t serial_digest = 0;
    double serial_rps = 0.0;
    for (const int t : thread_counts) {
      const ParallelPolicy policy =
          t == 0 ? ParallelPolicy::serial() : ParallelPolicy::parallel(t);
      Row row;
      row.side = side;
      row.threads = t;
      std::vector<double> s_rps, s_work, s_barrier, s_dispatch, s_merge,
          s_round;
      double cov_sum = 0.0;
      double imb_sum = 0.0;
      std::uint64_t dig = 0;
      for (std::size_t r = 0; r < reps; ++r) {
        const Measurement m = measure(side, policy, warmup, rounds);
        recorder.note_rounds(warmup + rounds);
        s_rps.push_back(m.rounds_per_sec);
        s_work.push_back(m.work_ns);
        s_barrier.push_back(m.barrier_ns);
        s_dispatch.push_back(m.dispatch_ns);
        s_merge.push_back(m.merge_ns);
        s_round.push_back(m.round_ns);
        cov_sum += m.coverage;
        imb_sum += m.imbalance;
        if (r == 0) {
          dig = m.state_digest;
        } else if (m.state_digest != dig) {
          digests_agree = false;
          std::cerr << "DIGEST MISMATCH: side=" << side << " threads=" << t
                    << " across repetitions (nondeterministic engine)\n";
        }
      }
      row.rps = spread(s_rps, true);
      row.work = spread(s_work, false);
      row.barrier = spread(s_barrier, false);
      row.dispatch = spread(s_dispatch, false);
      row.merge = spread(s_merge, false);
      row.round = spread(s_round, false);
      row.coverage_pct = 100.0 * cov_sum / static_cast<double>(reps);
      row.imbalance = imb_sum / static_cast<double>(reps);
      if (t == 0) {
        serial_digest = dig;
        serial_rps = row.rps.best;
        row.speedup = 1.0;
      } else {
        row.speedup = serial_rps > 0.0 ? row.rps.best / serial_rps : 0.0;
        if (dig != serial_digest) {
          digests_agree = false;
          std::cerr << "DIGEST MISMATCH: side=" << side << " threads=" << t
                    << " parallel state diverged from serial\n";
        }
        // Hooked twin: one run per parallel configuration with a no-op
        // phase hook and no telemetry (see measure()), whose digest must
        // match serial.
        const Measurement hooked =
            measure(side, policy, warmup, rounds, /*hooked_twin=*/true);
        recorder.note_rounds(warmup + rounds);
        if (hooked.state_digest != serial_digest) {
          digests_agree = false;
          std::cerr << "DIGEST MISMATCH: side=" << side << " threads=" << t
                    << " hooked twin diverged from serial\n";
        }
      }
      rows.push_back(row);
    }
  }

  TextTable table;
  table.set_header({"side", "threads", "r/s", "speedup", "work%", "barrier%",
                    "dispatch%", "merge%", "cover%", "imbal"});
  for (const Row& r : rows) {
    const auto pct_of_round = [&](const Spread& s) {
      return r.round.best > 0.0 ? 100.0 * s.best / r.round.best : 0.0;
    };
    table.add_numeric_row(
        std::to_string(r.side),
        {static_cast<double>(r.threads), r.rps.best, r.speedup,
         pct_of_round(r.work), pct_of_round(r.barrier),
         pct_of_round(r.dispatch), pct_of_round(r.merge), r.coverage_pct,
         r.imbalance});
  }
  std::cout << table.to_string() << '\n';

  std::cout << "CSV:\n";
  CsvWriter csv(std::cout);
  csv.header({"side", "threads", "rounds_per_sec", "rounds_per_sec_rd",
              "speedup_vs_serial", "work_ns", "work_ns_rd", "barrier_ns",
              "barrier_ns_rd", "dispatch_ns", "dispatch_ns_rd", "merge_ns",
              "merge_ns_rd", "round_ns", "round_ns_rd", "coverage_pct",
              "imbalance"});
  for (const Row& r : rows) {
    csv.row({static_cast<double>(r.side), static_cast<double>(r.threads),
             r.rps.best, r.rps.rel, r.speedup, r.work.best, r.work.rel,
             r.barrier.best, r.barrier.rel, r.dispatch.best, r.dispatch.rel,
             r.merge.best, r.merge.rel, r.round.best, r.round.rel,
             r.coverage_pct, r.imbalance});
  }

  std::cout << (digests_agree
                    ? "\ndeterminism: serial and parallel digests agree\n"
                    : "\ndeterminism: DIGEST MISMATCH (bug)\n");
  return digests_agree ? 0 : 1;
}
