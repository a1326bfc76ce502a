// cellflow_sim — the general-purpose simulation driver: run any
// configuration of the protocol from the command line, with all the
// instrumentation the library offers, without writing C++.
//
//   cellflow_sim --side=8 --l=0.25 --rs=0.05 --v=0.1
//                --source=1,0 --target=1,7 --rounds=2500
//                [--pf=0.02 --pr=0.1] [--policy=round-robin]
//                [--movement=coupled|compacting] [--carve-turns=N]
//                [--render-every=0] [--trace=false] [--csv=false]
//                [--seed=1] [--threads=0]
//                [--scheduler=active|exhaustive]  (exhaustive: dense only)
//                [--metrics-out=FILE] [--metrics-every=0]
//                [--profile-out=FILE] [--telemetry=false]
//                [--realization=shared|message]
//                [--store=dense|chunked]
//                [--net-loss=P --net-dup=P --net-delay=P
//                 --net-delay-max=R --net-seed=S --net-until=R
//                 --partition=START:END:COL]
//                [--snapshot-out=FILE] [--snapshot-every=N]
//                [--restore=FILE]
//
// Every engine runs through one loop — one Simulator, one fail/recover
// stream (--pf/--pr), the same summary observers — and prints an engine
// line, the shared `throughput: … mean latency: … mean population: …
// blocked/round: …` line, any engine lines, and a `safety:` line. The
// §III-A oracles run every round and predicate H at every post-Signal
// point; the exit code is nonzero if any fires, so the tool doubles as a
// conformance checker for modified protocol variants. --metrics-out
// writes a Prometheus text snapshot (plus a JSONL stream next to it,
// stamped with the engine round, when --metrics-every > 0).
//
// The engines, and the flags each accepts (others exit 2 with a typed
// error):
//
//   * the dense shared-variable System (default): all but --net-* and
//     --partition. --render-every, --trace and --csv print ASCII renders,
//     the event trace and a CSV record; --profile-out writes a Chrome
//     trace_event JSON for Perfetto (a worker track per pool thread when
//     --threads > 1); --telemetry adds the engine-telemetry families
//     (DESIGN.md §7) to the metrics registry — opt-in because they carry
//     timings, which byte-diff consumers of --metrics-out must exclude.
//   * --store=chunked, the sparse-world ChunkedSystem (DESIGN.md §12):
//     the core flags (side/l/rs/v/source/target/rounds/pf/pr/seed),
//     --policy, --movement, --threads, --scheduler=active, --metrics-*,
//     --profile-out, --telemetry and the snapshot flags. It runs only the
//     active-set scheduler; its exhaustive reference is the dense store
//     under --scheduler=exhaustive. Its oracles and observers walk only
//     the live chunks, and its profile's shard tracks are live-chunk
//     slices; it also prints the chunk lifecycle.
//   * --realization=message, the §II-B message-passing realization: the
//     core flags, --metrics-*, --telemetry, the snapshot flags and the
//     network flags, which run it over a FaultyNetwork (DESIGN.md §8):
//     --net-loss/--net-dup/--net-delay are i.i.d. per-message
//     probabilities, --net-delay-max the delay bound in rounds,
//     --net-until the last faulty round (0: faults never cease), and
//     --partition cuts columns j < COL from j >= COL for rounds
//     [START, END). Its audit adds the in-flight batches and entity
//     conservation (msg_audit); it also prints message and fault counts.
//
// Snapshots (src/snapshot): --snapshot-out writes the final engine state
// to FILE; with --snapshot-every=N the file is also rewritten every N
// rounds (crash-resumable runs). --restore=FILE warm starts from a
// snapshot taken under the SAME flags — the run then executes --rounds
// additional rounds, bit-identically to the uninterrupted run, and the
// summary covers those rounds. A corrupt or mismatched snapshot exits 2
// with a typed error on stderr.
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>

#include "chunk/chunked_system.hpp"
#include "core/choose.hpp"
#include "failure/failure_model.hpp"
#include "grid/path.hpp"
#include "msg/msg_system.hpp"
#include "net/faulty_network.hpp"
#include "obs/engine_telemetry.hpp"
#include "obs/export.hpp"
#include "sim/observers.hpp"
#include "sim/render.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "snapshot/snapshot.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"

namespace {

using namespace cellflow;

/// Parses "i,j" into a CellId.
CellId parse_cell(const std::string& s) {
  const auto comma = s.find(',');
  if (comma == std::string::npos)
    throw std::runtime_error("expected i,j — got '" + s + "'");
  return CellId{std::stoi(s.substr(0, comma)), std::stoi(s.substr(comma + 1))};
}

/// Parses "START:END:COL" into a column partition: columns j < COL are
/// cut from columns j >= COL for rounds [START, END).
NetPartition parse_partition(const std::string& s, const Grid& grid) {
  const auto c1 = s.find(':');
  const auto c2 = s.find(':', c1 == std::string::npos ? s.size() : c1 + 1);
  if (c1 == std::string::npos || c2 == std::string::npos)
    throw std::runtime_error("expected START:END:COL — got '" + s + "'");
  NetPartition part{std::stoull(s.substr(0, c1)),
                    std::stoull(s.substr(c1 + 1, c2 - c1 - 1)),
                    CellMask(grid)};
  const int col = std::stoi(s.substr(c2 + 1));
  for (const CellId id : grid.all_cells())
    if (id.j < col) part.side.set(id);
  return part;
}

struct SnapshotOptions {
  std::string out;       // --snapshot-out: final (and periodic) state file
  std::uint64_t every = 0;  // --snapshot-every: rewrite cadence (0: end only)
  std::string restore;   // --restore: warm-start file
};

struct NetOptions {
  double loss = 0.0;
  double dup = 0.0;
  double delay = 0.0;
  std::uint64_t delay_max = 1;
  std::uint64_t until = 0;  // 0: faults never cease
  std::uint64_t seed = 1;
  std::string partition;  // START:END:COL, empty: none

  [[nodiscard]] bool any() const {
    return loss > 0.0 || dup > 0.0 || delay > 0.0 || !partition.empty();
  }
};

/// The fail/recover environment, one stream for every engine: §IV's
/// RandomFailRecover seeded seed ^ 0x51D, applied when --pf > 0 — so all
/// three engines see the same schedule for the same flags. Snapshots
/// carry it: the failure model's section on the shared-variable engines,
/// the stream's generator (the env-rng section) on the message one.
template <class Engine>
class Environment {
 public:
  Environment(double pf, double pr, std::uint64_t seed)
      : on_(pf > 0.0), random_(on_ ? pf : 0.0, on_ ? pr : 0.0, seed ^ 0x51D) {}

  BasicFailureModel<Engine>& model() {
    if (on_) return random_;
    return none_;
  }

  std::vector<std::uint8_t> save(const Engine& sys) {
    if constexpr (std::is_same_v<Engine, MessageSystem>)
      return snapshot::save(sys, &random_.generator());
    else
      return snapshot::save(sys, &model());
  }
  void restore(Engine& sys, std::span<const std::uint8_t> bytes) {
    if constexpr (std::is_same_v<Engine, MessageSystem>)
      snapshot::restore(sys, bytes, &random_.generator());
    else
      snapshot::restore(sys, bytes, &model());
  }

 private:
  bool on_;
  BasicRandomFailRecover<Engine> random_;
  BasicNoFailures<Engine> none_;
};

// The run summary: an engine line, the observers' shared line, then any
// engine-specific lines.
void print_summary(const System& sys, const std::string& shared) {
  std::cout << render_summary(sys) << '\n' << shared;
}
void print_summary(const chunk::ChunkedSystem& sys, const std::string& shared) {
  const chunk::ChunkedCellStore& store = sys.store();
  std::cout << "store=chunked round=" << sys.round()
            << " arrivals=" << sys.total_arrivals()
            << " injected=" << sys.total_injected() << '\n'
            << shared << "entities in system: " << sys.entity_count() << '\n'
            << "chunks: live=" << store.live_count()
            << " parked=" << store.parked_count() << " virgin="
            << (store.chunk_count() - store.live_count() -
                store.parked_count())
            << "  resident bytes: " << store.resident_bytes()
            << "  materialized total: " << store.stats().materialized_total
            << '\n';
}
void print_summary(const MessageSystem& msg, const std::string& shared) {
  const NetworkModel& n = msg.network();
  std::cout << "realization=message round=" << msg.round()
            << " arrivals=" << msg.total_arrivals()
            << " injected=" << msg.total_injected() << '\n'
            << shared << "messages: " << n.total_messages()
            << "  in-flight entities: " << msg.in_flight_entities().size()
            << '\n'
            << "net faults: dropped=" << n.fault_count(NetFault::kDropped)
            << " delayed=" << n.fault_count(NetFault::kDelayed)
            << " duplicated=" << n.fault_count(NetFault::kDuplicated)
            << " partitioned=" << n.fault_count(NetFault::kPartitioned)
            << "  expired grants: " << msg.expired_grants()
            << "  deferred accepts: " << msg.deferred_acceptances() << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs cli(argc, argv);
  const auto side = static_cast<int>(cli.get_uint("side", 8, "grid side N"));
  const double l = cli.get_double("l", 0.25, "entity side length");
  const double rs = cli.get_double("rs", 0.05, "safety gap");
  const double v = cli.get_double("v", 0.1, "cell velocity");
  const std::string source_s =
      cli.get_string("source", "1,0", "source cell i,j");
  const std::string target_s =
      cli.get_string("target", "", "target cell i,j (default: top of source column)");
  const auto rounds = cli.get_uint("rounds", 2500, "rounds to simulate");
  const double pf = cli.get_double("pf", 0.0, "per-round failure probability");
  const double pr = cli.get_double("pr", 0.1, "per-round recovery probability");
  const std::string policy =
      cli.get_string("policy", "round-robin", "token policy: round-robin|random|lowest-id");
  const std::string movement =
      cli.get_string("movement", "coupled", "movement rule: coupled|compacting");
  const auto carve_turns = cli.get_int("carve-turns", -1,
                                       "carve a length-8 path with N turns (-1: off)");
  const auto render_every =
      cli.get_uint("render-every", 0, "ASCII render every N rounds (0: off)");
  const bool dump_trace = cli.get_bool("trace", false, "print the event trace");
  const bool emit_csv = cli.get_bool("csv", false, "print a CSV summary record");
  const auto seed = cli.get_uint("seed", 1, "rng seed");
  const auto threads = cli.get_uint(
      "threads", 0,
      "round-engine worker threads (0: $CELLFLOW_THREADS or serial)");
  const std::string scheduler_s = cli.get_string(
      "scheduler", "active",
      "round scheduler: active (skip quiescent cells) | exhaustive "
      "(dense store only)");
  const std::string metrics_out = cli.get_string(
      "metrics-out", "", "write a Prometheus text snapshot here");
  const auto metrics_every = cli.get_uint(
      "metrics-every", 0,
      "also stream a JSONL metrics line every N rounds to "
      "<metrics-out>.jsonl (0: off)");
  const std::string profile_out = cli.get_string(
      "profile-out", "", "write a Chrome trace_event JSON profile here");
  const bool telemetry = cli.get_bool(
      "telemetry", false,
      "add engine telemetry (round decomposition, imbalance, serial "
      "fraction) to the --metrics-out registry");
  const std::string realization = cli.get_string(
      "realization", "shared",
      "protocol realization: shared (variable) | message (passing)");
  const std::string store_s = cli.get_string(
      "store", "dense",
      "cell store: dense (N^2 vector) | chunked (sparse 32x32 tiles)");
  NetOptions net;
  net.loss =
      cli.get_double("net-loss", 0.0, "message drop probability (message)");
  net.dup = cli.get_double("net-dup", 0.0,
                           "message duplication probability (message)");
  net.delay =
      cli.get_double("net-delay", 0.0, "message delay probability (message)");
  net.delay_max = cli.get_uint("net-delay-max", 1,
                               "max delay in rounds (message)");
  net.until = cli.get_uint(
      "net-until", 0, "last faulty round (0: faults never cease) (message)");
  net.seed = cli.get_uint("net-seed", 1, "fault-schedule rng seed (message)");
  net.partition = cli.get_string(
      "partition", "",
      "cut columns j<COL for rounds [START,END): START:END:COL (message)");
  SnapshotOptions snap;
  snap.out = cli.get_string("snapshot-out", "",
                            "write the final engine state snapshot here");
  snap.every = cli.get_uint(
      "snapshot-every", 0,
      "also rewrite --snapshot-out every N rounds (0: end of run only)");
  snap.restore = cli.get_string(
      "restore", "", "warm-start from a snapshot taken under the same flags");
  if (cli.help_requested()) {
    std::cout << cli.help_text();
    return 0;
  }
  cli.finish();

  if (realization != "shared" && realization != "message") {
    std::cerr << "unknown realization: " << realization << '\n';
    return 2;
  }
  if (store_s != "dense" && store_s != "chunked") {
    std::cerr << "unknown store: " << store_s << '\n';
    return 2;
  }
  if (store_s == "chunked" && realization == "message") {
    std::cerr << "--store=chunked requires --realization=shared\n";
    return 2;
  }
  if (snap.every > 0 && snap.out.empty()) {
    std::cerr << "--snapshot-every requires --snapshot-out\n";
    return 2;
  }
  if (realization == "shared" && (net.any() || net.until > 0)) {
    std::cerr << "--net-*/--partition require --realization=message\n";
    return 2;
  }

  // The run every engine goes through: restore, a Simulator with the
  // summary observers, the rounds with their render and snapshot
  // cadences, finish, the final snapshot, the metrics and profile files,
  // and the summary. Returns the exit code.
  const auto run = [&]<class Engine>(Engine& sys) -> int {
    constexpr bool kDense = std::is_same_v<Engine, System>;
    Environment<Engine> env(pf, pr, seed);
    const auto write_snapshot = [&] {
      try {
        snapshot::write_file(snap.out, env.save(sys));
      } catch (const std::exception& e) {
        std::cerr << e.what() << '\n';
        return false;
      }
      return true;
    };
    if (!snap.restore.empty()) {
      try {
        env.restore(sys, snapshot::read_file(snap.restore));
      } catch (const std::exception& e) {
        std::cerr << e.what() << '\n';
        return 2;
      }
    }

    BasicSimulator<Engine> sim(sys, env.model());
    BasicThroughputMeter<Engine> meter;
    BasicSafetyMonitor<Engine> safety;
    BasicBlockingStats<Engine> blocking;
    BasicOccupancyTracker<Engine> occupancy;
    BasicProgressTracker<Engine> progress;
    TraceRecorder trace;
    sim.add_observer(meter);
    sim.add_observer(safety);
    sim.add_observer(blocking);
    sim.add_observer(occupancy);
    sim.add_observer(progress);
    if constexpr (kDense) {
      if (dump_trace) sim.add_observer(trace);
    }

    obs::MetricsRegistry registry;
    std::optional<BasicMetricsObserver<Engine>> metrics_obs;
    std::ofstream jsonl_file;
    if (!metrics_out.empty()) {
      sim.set_metrics(&registry);
      metrics_obs.emplace(registry);
      if (metrics_every > 0) {
        jsonl_file.open(metrics_out + ".jsonl");
        if (!jsonl_file) {
          std::cerr << "cannot open " << metrics_out << ".jsonl\n";
          return 2;
        }
        metrics_obs->stream_jsonl(&jsonl_file, metrics_every);
      }
      sim.add_observer(*metrics_obs);
    }
    std::optional<obs::EngineTelemetry> engine_telemetry;
    obs::PhaseProfiler profiler;
    if (telemetry) {
      engine_telemetry.emplace(
          registry, std::is_same_v<Engine, MessageSystem> ? "message"
                                                          : "shared");
      sim.set_telemetry(&*engine_telemetry);
    }
    if (!profile_out.empty()) sim.set_profiler(&profiler);

    for (std::uint64_t k = 0; k < rounds; ++k) {
      sim.step();
      if constexpr (kDense) {
        if (render_every > 0 && (k + 1) % render_every == 0) {
          std::cout << "-- " << render_summary(sys) << " --\n"
                    << render_ascii(sys) << '\n';
        }
      }
      if (!snap.out.empty() && snap.every > 0 && (k + 1) % snap.every == 0 &&
          !write_snapshot())
        return 2;
    }
    sim.finish();

    if (!snap.out.empty() && !write_snapshot()) return 2;
    if (!metrics_out.empty()) {
      std::ofstream out(metrics_out);
      if (!out) {
        std::cerr << "cannot open " << metrics_out << '\n';
        return 2;
      }
      out << obs::to_prometheus(registry);
    }
    if (!profile_out.empty()) {
      std::ofstream out(profile_out);
      if (!out) {
        std::cerr << "cannot open " << profile_out << '\n';
        return 2;
      }
      out << obs::to_chrome_trace(profiler);
    }

    if (dump_trace) std::cout << trace.serialize();
    std::ostringstream shared;
    shared << "throughput: " << meter.throughput()
           << "  mean latency: " << progress.latency().mean()
           << "  mean population: " << occupancy.population().mean()
           << "  blocked/round: " << blocking.mean_blocked_per_round()
           << '\n';
    print_summary(sys, shared.str());
    std::cout << "safety: " << (safety.clean() ? "CLEAN" : safety.report())
              << '\n';

    if (emit_csv) {
      CsvWriter csv(std::cout);
      csv.header({"side", "l", "rs", "v", "pf", "pr", "policy", "movement",
                  "rounds", "throughput", "mean_latency", "safety_clean"});
      csv.field(std::uint64_t{static_cast<std::uint64_t>(side)})
          .field(l)
          .field(rs)
          .field(v)
          .field(pf)
          .field(pr)
          .field(policy)
          .field(movement)
          .field(rounds)
          .field(meter.throughput())
          .field(progress.latency().mean())
          .field(std::uint64_t{safety.clean() ? 1u : 0u});
      csv.end_row();
    }
    return safety.clean() ? 0 : 1;
  };

  if (realization == "message") {
    if (movement != "coupled" || carve_turns >= 0 || threads > 0 ||
        policy != "round-robin" || dump_trace || !profile_out.empty() ||
        render_every > 0 || emit_csv || scheduler_s != "active") {
      std::cerr << "--realization=message supports only the core flags "
                   "(side/l/rs/v/source/target/rounds/pf/pr/seed, --net-*, "
                   "--partition, --metrics-*)\n";
      return 2;
    }
    MsgSystemConfig mcfg;
    mcfg.side = side;
    mcfg.params = Params(l, rs, v);
    const CellId msource = parse_cell(source_s);
    mcfg.sources = {msource};
    mcfg.target = target_s.empty() ? CellId{msource.i, side - 1}
                                   : parse_cell(target_s);
    std::unique_ptr<NetworkModel> network;
    if (net.any()) {
      NetFaultSpec spec;
      spec.drop_prob = net.loss;
      spec.dup_prob = net.dup;
      spec.delay_prob = net.delay;
      spec.max_delay_rounds = net.delay_max;
      if (net.until > 0) spec.last_fault_round = net.until;
      if (!net.partition.empty())
        spec.partitions = {parse_partition(net.partition, Grid(side))};
      network = std::make_unique<FaultyNetwork>(spec, net.seed);
    }
    MessageSystem msg(mcfg, std::move(network));
    return run(msg);
  }

  SystemConfig cfg;
  cfg.side = side;
  cfg.params = Params(l, rs, v);
  if (movement == "coupled") {
    cfg.movement_rule = MovementRule::kCoupled;
  } else if (movement == "compacting") {
    cfg.movement_rule = MovementRule::kCompacting;
  } else {
    std::cerr << "unknown movement rule: " << movement << '\n';
    return 2;
  }
  const auto set_threads = [&](auto& sys) {
    if (threads > 0)
      sys.set_parallel_policy(
          ParallelPolicy::parallel(static_cast<int>(threads)));
  };

  if (store_s == "chunked") {
    // Carving would fail (hence materialize) every off-path chunk —
    // defeating the sparse store — the render, trace and CSV are the
    // dense engine's, and the store runs only the active-set scheduler.
    // Typed rejection, same taxonomy as the message-mode check.
    if (carve_turns >= 0 || dump_trace || emit_csv || render_every > 0 ||
        scheduler_s != "active") {
      std::cerr << "--store=chunked supports only the core flags "
                   "(side/l/rs/v/source/target/rounds/pf/pr/seed), "
                   "--policy, --movement, --threads, --scheduler=active, "
                   "--metrics-*, --profile-out, --telemetry, and "
                   "--snapshot-*/--restore\n";
      return 2;
    }
    const CellId source = parse_cell(source_s);
    cfg.sources = {source};
    cfg.target = target_s.empty() ? CellId{source.i, side - 1}
                                  : parse_cell(target_s);
    chunk::ChunkedSystem sys(cfg, make_choose_policy(policy, seed));
    set_threads(sys);
    return run(sys);
  }

  std::optional<Path> carved;
  if (carve_turns >= 0) {
    const Grid grid(side);
    carved = make_turning_path(grid, CellId{0, 0}, Direction::kNorth,
                               Direction::kEast, 8,
                               static_cast<std::size_t>(carve_turns));
    cfg.sources = {carved->source()};
    cfg.target = carved->target();
  } else {
    const CellId source = parse_cell(source_s);
    cfg.sources = {source};
    cfg.target = target_s.empty() ? CellId{source.i, side - 1}
                                  : parse_cell(target_s);
  }

  System sys(cfg, make_choose_policy(policy, seed));
  if (scheduler_s == "exhaustive") {
    sys.set_round_scheduler(RoundScheduler::kExhaustive);
  } else if (scheduler_s != "active") {
    std::cerr << "unknown scheduler: " << scheduler_s << '\n';
    return 2;
  }
  set_threads(sys);
  if (carved.has_value()) carve_path(sys, *carved);
  return run(sys);
}
