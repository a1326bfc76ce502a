// Micro-benchmark E22: the message plane (ROADMAP item 4, DESIGN.md §8).
// Runs MessageSystem — the paper's "actual message-passing
// implementation" (§II-B) — on a west-to-east flow at sides 32, 64 and
// 128, once over the reliable SyncNetwork and once over cfbench
// message_net's lossy FaultyNetwork (drop 0.05, delay 0.01 for 1–3
// rounds, never ceasing). Per row, over the timed window, each timed
// column the median of five fresh runs:
//
//   us/round        wall time of one MessageSystem::update
//   exchange us     the PhaseProfiler's per-exchange spans (dist, intent,
//                   grant, transfer, ack, inject) per round
//   msgs/round      messages sent, by payload type, and the computed wire
//                   volume, messages × sizeof(Message) (the form a late
//                   copy takes; a fresh slot is smaller)
//   System          the shared-variable engine's us/round on the same
//                   configuration (median of five fresh runs), and the
//                   message plane's multiple of it
//
// Exits nonzero if the SyncNetwork run and a zero-fault FaultyNetwork run
// of the same configuration end in different states
// (snapshot::execution_digest — state_digest minus the fault schedule's
// private rng and delay queue, which a SyncNetwork does not have). The
// allocation side of the plane is pinned by tests/test_alloc_churn.cpp,
// so this bench does not link the allocation interposer.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/system.hpp"
#include "msg/msg_system.hpp"
#include "net/faulty_network.hpp"
#include "obs/alloc_stats.hpp"
#include "obs/profiler.hpp"
#include "snapshot/snapshot.hpp"
#include "util/cli.hpp"

namespace {

using namespace cellflow;

constexpr std::array<const char*, 6> kExchanges = {
    "dist", "intent", "grant", "transfer", "ack", "inject"};

/// cfbench message_net's shape at any side: one source mid-west, the
/// target mid-east.
MsgSystemConfig plane_config(int side) {
  MsgSystemConfig cfg;
  cfg.side = side;
  cfg.params = Params(0.25, 0.05, 0.2);
  cfg.sources = {CellId{0, side / 2}};
  cfg.target = CellId{side - 1, side / 2};
  return cfg;
}

/// message_net's fault mix, without its halfway heal.
NetFaultSpec lossy_spec() {
  NetFaultSpec spec;
  spec.drop_prob = 0.05;
  spec.delay_prob = 0.01;
  spec.max_delay_rounds = 3;
  return spec;
}

constexpr auto kMessageBytes = static_cast<double>(sizeof(Message));

struct Measurement {
  double us_per_round = 0.0;
  std::array<double, kExchanges.size()> exchange_us{};
  std::array<double, kPayloadTypeCount> msgs_per_round{};
  double total_msgs_per_round = 0.0;
  std::uint64_t execution_digest = 0;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

Measurement measure(int side, std::unique_ptr<NetworkModel> network,
                    std::uint64_t warmup, std::uint64_t rounds) {
  MessageSystem msg(plane_config(side), std::move(network));
  for (std::uint64_t k = 0; k < warmup; ++k) msg.update();
  std::array<std::uint64_t, kPayloadTypeCount> sent0{};
  for (std::size_t t = 0; t < kPayloadTypeCount; ++t)
    sent0[t] = msg.network().sent_count(static_cast<PayloadType>(t));
  obs::PhaseProfiler prof;
  msg.set_profiler(&prof);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t k = 0; k < rounds; ++k) msg.update();
  const double secs = seconds_since(t0);
  msg.set_profiler(nullptr);

  const auto n = static_cast<double>(rounds);
  Measurement m;
  m.us_per_round = secs * 1e6 / n;
  for (std::size_t x = 0; x < kExchanges.size(); ++x)
    m.exchange_us[x] =
        static_cast<double>(prof.total_ns(kExchanges[x])) * 1e-3 / n;
  for (std::size_t t = 0; t < kPayloadTypeCount; ++t) {
    const std::uint64_t sent =
        msg.network().sent_count(static_cast<PayloadType>(t)) - sent0[t];
    m.msgs_per_round[t] = static_cast<double>(sent) / n;
    m.total_msgs_per_round += m.msgs_per_round[t];
  }
  m.execution_digest = snapshot::execution_digest(msg);
  return m;
}

/// Fresh runs timed per configuration; every timed column is their
/// median. One window of a few milliseconds swung 40-75 us/round (System,
/// side 128), 93-111 (sync plane, side 32) and 191-292 (lossy plane, side
/// 32) between runs.
constexpr std::size_t kRuns = 5;

double median_of(std::array<double, kRuns> v) {
  std::nth_element(v.begin(), v.begin() + kRuns / 2, v.end());
  return v[kRuns / 2];
}

/// measure() over kRuns fresh planes, `network()` making each one's
/// network: every timed column is the median of the runs; the counts and
/// the digest are the runs' own, which must agree.
template <class MakeNetwork>
Measurement measure_median(int side, MakeNetwork&& network,
                           std::uint64_t warmup, std::uint64_t rounds,
                           bool& digests_agree) {
  std::array<Measurement, kRuns> runs;
  for (Measurement& m : runs) m = measure(side, network(), warmup, rounds);
  Measurement out = runs[0];
  std::array<double, kRuns> v{};
  for (std::size_t k = 0; k < kRuns; ++k) v[k] = runs[k].us_per_round;
  out.us_per_round = median_of(v);
  for (std::size_t x = 0; x < kExchanges.size(); ++x) {
    for (std::size_t k = 0; k < kRuns; ++k) v[k] = runs[k].exchange_us[x];
    out.exchange_us[x] = median_of(v);
  }
  for (const Measurement& m : runs) {
    if (m.execution_digest == out.execution_digest) continue;
    digests_agree = false;
    std::cerr << "DIGEST MISMATCH: side " << side
              << " runs of one configuration diverged\n";
  }
  return out;
}

/// The shared-variable engine's us/round on the same configuration: the
/// median over kRuns fresh runs of the same window.
double system_us_per_round(int side, std::uint64_t warmup,
                           std::uint64_t rounds) {
  const MsgSystemConfig mc = plane_config(side);
  SystemConfig cfg;
  cfg.side = mc.side;
  cfg.params = mc.params;
  cfg.sources = mc.sources;
  cfg.target = mc.target;
  std::array<double, kRuns> us{};
  for (double& u : us) {
    System sys(cfg);
    for (std::uint64_t k = 0; k < warmup; ++k) sys.update();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t k = 0; k < rounds; ++k) sys.update();
    u = seconds_since(t0) * 1e6 / static_cast<double>(rounds);
  }
  return median_of(us);
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs cli(argc, argv);
  const auto rounds = cli.get_uint("rounds", 100, "timed rounds per run");
  const auto warmup =
      cli.get_uint("warmup", 20, "untimed rounds before each timed window");
  const auto max_side = static_cast<int>(
      cli.get_uint("max-side", 128, "largest grid side to measure"));
  const auto seed = cli.get_uint("seed", 1, "fault-schedule seed");
  if (cli.help_requested()) {
    std::cout << cli.help_text();
    return 0;
  }
  cli.finish();
  cellflow::bench::BenchRecorder recorder("micro_msg_plane");

  bench::banner("Micro: message-plane cost per exchange",
                "ROADMAP item 4; MessageSystem vs shared-variable System");
  std::cout << "west-to-east flow; lossy = drop 0.05, delay 0.01 (1-3 "
               "rounds); exchange columns are us/round\n\n";

  TextTable timing;
  timing.set_header({"side / network", "us/round", "dist", "intent", "grant",
                     "transfer", "ack", "inject", "System us", "x System"});
  TextTable traffic;
  traffic.set_header({"side / network", "msgs/round", "dist", "intent",
                      "grant", "transfer", "ack", "bytes/round"});

  struct Row {
    int side;
    const char* network;
    Measurement m;
    double system_us;
  };
  std::vector<Row> results;
  bool digests_agree = true;

  for (const int side : {32, 64, 128}) {
    if (side > max_side) continue;
    const double sys_us = system_us_per_round(side, warmup, rounds);
    const Measurement sync = measure_median(
        side, [] { return std::make_unique<SyncNetwork>(); }, warmup, rounds,
        digests_agree);
    const Measurement idle = measure(
        side, std::make_unique<FaultyNetwork>(NetFaultSpec{}, seed), warmup,
        rounds);
    const Measurement lossy = measure_median(
        side,
        [seed] { return std::make_unique<FaultyNetwork>(lossy_spec(), seed); },
        warmup, rounds, digests_agree);
    recorder.note_rounds((3 * kRuns + 1) * (warmup + rounds));
    if (idle.execution_digest != sync.execution_digest) {
      digests_agree = false;
      std::cerr << "DIGEST MISMATCH: side " << side
                << " zero-fault FaultyNetwork diverged from SyncNetwork\n";
    }
    results.push_back(Row{side, "sync", sync, sys_us});
    results.push_back(Row{side, "lossy", lossy, sys_us});
  }

  for (const Row& r : results) {
    const std::string label =
        std::to_string(r.side) + "  " + std::string(r.network);
    std::vector<double> t = {r.m.us_per_round};
    t.insert(t.end(), r.m.exchange_us.begin(), r.m.exchange_us.end());
    t.push_back(r.system_us);
    t.push_back(r.m.us_per_round / r.system_us);
    timing.add_numeric_row(label, t);
    std::vector<double> v = {r.m.total_msgs_per_round};
    v.insert(v.end(), r.m.msgs_per_round.begin(), r.m.msgs_per_round.end());
    v.push_back(r.m.total_msgs_per_round * kMessageBytes);
    traffic.add_numeric_row(label, v);
  }
  std::cout << timing.to_string() << '\n' << traffic.to_string() << '\n';

  std::cout << "CSV:\n";
  CsvWriter csv(std::cout);
  csv.header({"side", "network", "us_per_round", "dist_us", "intent_us",
              "grant_us", "transfer_us", "ack_us", "inject_us", "msgs_dist",
              "msgs_intent", "msgs_grant", "msgs_transfer", "msgs_ack",
              "msgs_per_round", "bytes_per_round", "system_us_per_round",
              "ratio_vs_system"});
  for (const Row& r : results) {
    csv.field(static_cast<std::uint64_t>(r.side))
        .field(r.network)
        .field(r.m.us_per_round);
    for (const double us : r.m.exchange_us) csv.field(us);
    for (const double n : r.m.msgs_per_round) csv.field(n);
    csv.field(r.m.total_msgs_per_round)
        .field(r.m.total_msgs_per_round * kMessageBytes)
        .field(r.system_us)
        .field(r.m.us_per_round / r.system_us);
    csv.end_row();
  }
  recorder.note_memory("vm_hwm_bytes", obs::process_memory().vm_hwm_bytes);

  std::cout << (digests_agree
                    ? "\nequivalence: SyncNetwork and zero-fault "
                      "FaultyNetwork digests agree\n"
                    : "\nequivalence: DIGEST MISMATCH (bug)\n");
  return digests_agree ? 0 : 1;
}
