// Micro-benchmark: rounds/sec of the serial vs parallel round engine
// (core/system.hpp's ParallelPolicy) on saturated grids from 20×20 to
// 100×100 (--max-side=400 adds 200×200 and 400×400), each width both
// pooled every round (parallel(t)) and under the kAuto cutover
// (parallel_auto(t), the `auto` column), with the engine-telemetry
// decomposition of each configuration
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
// Each configuration is measured --reps times, the reps of one side
// interleaved across its configurations (in a rotating order) so host
// drift hits them alike;
// the CSV reports the median plus a <metric>_rd relative-dispersion
// column per timed metric (half the gap between the reps either side of
// the median, over the median), which tools/cellflow_bench_diff folds
// into its regression thresholds.
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
/// per-round Signal/Move work) proportional to the grid side once the
/// routing wave has reached the sources (measure() waits for it).
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
  // The routing wave from the target advances one hop a round, up to
  // 1.5 × side rounds to the far sources; until it arrives their
  // entities cannot move, so Signal and Move would have no work.
  const auto routed = [&] {
    return std::all_of(
        sys.config().sources.begin(), sys.config().sources.end(),
        [&](CellId s) { return sys.cell(s).next.has_value(); });
  };
  while (!routed()) sys.update();
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

/// Median of the reps plus its reproducibility. The host is shared, so
/// single reps swing; the median is what the kAuto bar (ROADMAP item 2)
/// reads. rel is half the gap between the reps either side of the
/// median, relative to the median: how far the reported number moves
/// when one rep does, which is what the regression gate needs. The raw
/// scatter (quartiles, max - min) would overstate the noise of a median
/// and lift the gate's threshold, max(0.35, 4 x rel), past 100% on the
/// single-threaded rows, where no throughput drop could reach it.
struct Spread {
  double median = 0.0;
  double rel = 0.0;
};

/// The q-quantile of sorted `v`, interpolating between order statistics.
double quantile(const std::vector<double>& v, double q) {
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

Spread spread(std::vector<double> samples) {
  Spread s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.median = quantile(samples, 0.5);
  if (samples.size() < 2 || s.median == 0.0) return s;
  // One order statistic below and above the median.
  const double step = 1.0 / static_cast<double>(samples.size() - 1);
  const double below = quantile(samples, std::max(0.0, 0.5 - step));
  const double above = quantile(samples, std::min(1.0, 0.5 + step));
  s.rel = (above - below) / (2.0 * std::abs(s.median));
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs cli(argc, argv);
  // A side-20 round takes about 7 µs: 2 000 rounds keep a rep's window
  // well above the host's scheduling hiccups.
  const auto rounds = cli.get_uint("rounds", 2000, "timed rounds per engine");
  const auto warmup =
      cli.get_uint("warmup", 60,
                   "untimed rounds once every source is routed");
  const auto max_side = static_cast<int>(cli.get_uint(
      "max-side", 100, "largest grid side to measure (up to 400)"));
  const auto reps = static_cast<std::size_t>(
      cli.get_uint("reps", 9, "measurement repetitions per configuration"));
  if (cli.help_requested()) {
    std::cout << cli.help_text();
    return 0;
  }
  cli.finish();
  cellflow::bench::BenchRecorder recorder("micro_parallel_scaling");
  recorder.set_repetitions(static_cast<int>(reps));

  bench::banner(
      "Micro: parallel round-engine scaling",
      "ParallelPolicy engine; serial vs 2/4/8 worker threads, pooled every\n"
      "round and under the kAuto cutover, with the engine-telemetry\n"
      "breakdown of where each round's time goes");
  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "hardware threads: " << hw
            << "  (speedup is bounded by physical cores; digests must\n"
               "   match on any machine — that is the determinism check)\n\n";

  const std::vector<int> all_sides = {20, 50, 100, 200, 400};
  // Serial, then each width pooled every round and under kAuto.
  std::vector<ParallelPolicy> policies = {ParallelPolicy::serial()};
  for (const int t : {2, 4, 8}) {
    policies.push_back(ParallelPolicy::parallel(t));
    policies.push_back(ParallelPolicy::parallel_auto(t));
  }

  const int max_requested = 8;
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
    bool automatic = false;
    Spread rps, work, barrier, dispatch, merge, round;
    double speedup = 1.0;
    double coverage_pct = 0.0;
    double imbalance = 1.0;
  };
  std::vector<Row> rows;
  bool digests_agree = true;

  for (const int side : all_sides) {
    if (side > max_side) continue;
    struct Samples {
      std::vector<double> rps, work, barrier, dispatch, merge, round;
      double cov_sum = 0.0;
      double imb_sum = 0.0;
      std::uint64_t digest = 0;
    };
    std::vector<Samples> samples(policies.size());
    for (std::size_t r = 0; r < reps; ++r) {
      for (std::size_t k = 0; k < policies.size(); ++k) {
        // Each rep starts one configuration later, so none always runs
        // right after the same neighbour.
        const std::size_t p = (r + k) % policies.size();
        const Measurement m = measure(side, policies[p], warmup, rounds);
        recorder.note_rounds(warmup + rounds);
        Samples& sm = samples[p];
        sm.rps.push_back(m.rounds_per_sec);
        sm.work.push_back(m.work_ns);
        sm.barrier.push_back(m.barrier_ns);
        sm.dispatch.push_back(m.dispatch_ns);
        sm.merge.push_back(m.merge_ns);
        sm.round.push_back(m.round_ns);
        sm.cov_sum += m.coverage;
        sm.imb_sum += m.imbalance;
        if (r == 0) {
          sm.digest = m.state_digest;
        } else if (m.state_digest != sm.digest) {
          digests_agree = false;
          std::cerr << "DIGEST MISMATCH: side=" << side
                    << " threads=" << policies[p].num_threads
                    << " across repetitions (nondeterministic engine)\n";
        }
      }
    }
    const std::uint64_t serial_digest = samples[0].digest;
    double serial_rps = 0.0;
    for (std::size_t p = 0; p < policies.size(); ++p) {
      const ParallelPolicy& policy = policies[p];
      const Samples& sm = samples[p];
      Row row;
      row.side = side;
      row.threads = p == 0 ? 0 : policy.num_threads;
      row.automatic = policy.cutover == ParallelPolicy::Cutover::kAuto;
      row.rps = spread(sm.rps);
      row.work = spread(sm.work);
      row.barrier = spread(sm.barrier);
      row.dispatch = spread(sm.dispatch);
      row.merge = spread(sm.merge);
      row.round = spread(sm.round);
      row.coverage_pct = 100.0 * sm.cov_sum / static_cast<double>(reps);
      row.imbalance = sm.imb_sum / static_cast<double>(reps);
      if (p == 0) {
        serial_rps = row.rps.median;
      } else {
        row.speedup = serial_rps > 0.0 ? row.rps.median / serial_rps : 0.0;
        if (sm.digest != serial_digest) {
          digests_agree = false;
          std::cerr << "DIGEST MISMATCH: side=" << side
                    << " threads=" << policy.num_threads
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
          std::cerr << "DIGEST MISMATCH: side=" << side
                    << " threads=" << policy.num_threads
                    << " hooked twin diverged from serial\n";
        }
      }
      rows.push_back(row);
    }
  }

  TextTable table;
  table.set_header({"side", "threads", "auto", "r/s", "speedup", "work%",
                    "barrier%", "dispatch%", "merge%", "cover%", "imbal"});
  for (const Row& r : rows) {
    const auto pct_of_round = [&](const Spread& s) {
      return r.round.median > 0.0 ? 100.0 * s.median / r.round.median : 0.0;
    };
    table.add_numeric_row(
        std::to_string(r.side),
        {static_cast<double>(r.threads), r.automatic ? 1.0 : 0.0,
         r.rps.median, r.speedup, pct_of_round(r.work),
         pct_of_round(r.barrier), pct_of_round(r.dispatch),
         pct_of_round(r.merge), r.coverage_pct, r.imbalance});
  }
  std::cout << table.to_string() << '\n';

  std::cout << "CSV:\n";
  CsvWriter csv(std::cout);
  csv.header({"side", "threads", "auto", "rounds_per_sec",
              "rounds_per_sec_rd", "speedup_vs_serial", "work_ns",
              "work_ns_rd", "barrier_ns", "barrier_ns_rd", "dispatch_ns",
              "dispatch_ns_rd", "merge_ns", "merge_ns_rd", "round_ns",
              "round_ns_rd", "coverage_pct", "imbalance"});
  for (const Row& r : rows) {
    csv.row({static_cast<double>(r.side), static_cast<double>(r.threads),
             r.automatic ? 1.0 : 0.0, r.rps.median, r.rps.rel, r.speedup,
             r.work.median, r.work.rel, r.barrier.median, r.barrier.rel,
             r.dispatch.median, r.dispatch.rel, r.merge.median,
             r.merge.rel, r.round.median, r.round.rel, r.coverage_pct,
             r.imbalance});
  }

  std::cout << (digests_agree
                    ? "\ndeterminism: serial and parallel digests agree\n"
                    : "\ndeterminism: DIGEST MISMATCH (bug)\n");
  return digests_agree ? 0 : 1;
}
