// Shared scaffolding for the figure-reproduction benches: consistent
// banner, seed handling, table+CSV emission, and the machine-readable
// BENCH_<name>.json sidecar every bench writes for cross-PR tracking.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <span>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "sim/experiment.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace cellflow::bench {

/// Declared at the top of a bench's main(), after CLI parsing:
///
///   bench::BenchRecorder rec("fig9_throughput_vs_failures");
///   rec.note_rounds(total_protocol_rounds);  // optional, enables rounds/sec
///
/// The recorder tees std::cout (the console output is unchanged), times
/// the run on the steady clock, and on destruction writes
/// BENCH_<name>.json: wall time, rounds/sec when note_rounds() was
/// called, and the bench's `CSV:` block re-parsed into a {header, rows}
/// series (scripts and CI diff the JSON; humans keep reading the table).
///
/// Sidecar placement: the constructor's `out_dir` argument wins; when
/// empty, $CELLFLOW_BENCH_DIR; when that is unset too, the working
/// directory (the historical behavior). scripts/run_bench.sh points the
/// whole suite at results/ this way. The directory must already exist —
/// emission is best-effort, and a bench never fails because the sidecar
/// could not be written.
///
/// Sidecars are schema v2 (obs/sidecar.hpp): alongside the v1 fields
/// they stamp "sidecar_version":2, a "provenance" object (git SHA from
/// $CELLFLOW_GIT_SHA — run_bench.sh exports it — build type + compiler
/// baked in at compile time, $CELLFLOW_THREADS, hardware threads,
/// repetitions), and a "dispersion" map filled by note_samples() so the
/// regression gate (tools/cellflow_bench_diff) can widen its thresholds
/// on metrics this machine measures noisily.
class BenchRecorder {
 public:
  explicit BenchRecorder(std::string name, std::string out_dir = {})
      : name_(std::move(name)),
        out_dir_(std::move(out_dir)),
        tee_(std::cout.rdbuf()),
        start_(std::chrono::steady_clock::now()) {
    if (out_dir_.empty()) {
      if (const char* env = std::getenv("CELLFLOW_BENCH_DIR"))
        out_dir_ = env;
    }
    std::cout.rdbuf(&tee_);
  }
  BenchRecorder(const BenchRecorder&) = delete;
  BenchRecorder& operator=(const BenchRecorder&) = delete;

  /// Accumulates protocol rounds executed (across seeds/configurations)
  /// so the sidecar can report an aggregate rounds/sec figure.
  void note_rounds(std::uint64_t rounds) noexcept { rounds_ += rounds; }

  /// Number of measurement repetitions behind each reported value
  /// (provenance only; dispersion carries the actual spread).
  void set_repetitions(int reps) noexcept {
    if (reps >= 1) repetitions_ = reps;
  }

  /// Records the per-repetition samples behind one reported metric; the
  /// sidecar's "dispersion" map gets {n, mean, rel = (max-min)/mean} so
  /// bench_diff can scale its regression threshold to observed noise.
  /// Call once per metric with all samples (later calls overwrite).
  void note_samples(std::string_view metric, std::span<const double> values) {
    if (values.empty()) return;
    double sum = 0.0;
    double lo = values[0];
    double hi = values[0];
    for (const double v : values) {
      sum += v;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    const double mean = sum / static_cast<double>(values.size());
    Samples s;
    s.n = values.size();
    s.mean = mean;
    s.rel = mean != 0.0 ? (hi - lo) / std::abs(mean) : 0.0;
    dispersion_[std::string(metric)] = s;
  }

  /// Records one memory figure (bytes) for the sidecar's "memory" map —
  /// e.g. note_memory("vm_hwm_bytes", obs::process_memory().vm_hwm_bytes)
  /// or the store's peak resident bytes. *_bytes metrics gate
  /// lower-better in cellflow_bench_diff. Zero values are skipped ("not
  /// measured" — a 0 baseline would turn any later real figure into a
  /// vacuous pass and mask the platform gap).
  void note_memory(std::string_view metric, std::uint64_t bytes) {
    if (bytes > 0) memory_[std::string(metric)] = bytes;
  }

  ~BenchRecorder() {
    std::cout.flush();
    std::cout.rdbuf(tee_.inner());
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    const std::string prefix =
        out_dir_.empty() ? std::string{} : out_dir_ + "/";
    std::ofstream out(prefix + "BENCH_" + name_ + ".json");
    if (!out) return;
    out << "{\"bench\":\"" << obs::json_escape(name_)
        << "\",\"elapsed_seconds\":" << obs::format_double(elapsed);
    if (rounds_ > 0) {
      out << ",\"rounds\":" << rounds_ << ",\"rounds_per_sec\":"
          << obs::format_double(elapsed > 0.0
                                    ? static_cast<double>(rounds_) / elapsed
                                    : 0.0);
    }
    out << ",\"sidecar_version\":2,\"provenance\":{\"git_sha\":\""
        << obs::json_escape(env_or("CELLFLOW_GIT_SHA", "unknown"))
        << "\",\"build_type\":\"" << obs::json_escape(build_type())
        << "\",\"compiler\":\"" << obs::json_escape(compiler())
        << "\",\"threads\":" << env_int("CELLFLOW_THREADS")
        << ",\"hardware_threads\":"
        << std::max(1u, std::thread::hardware_concurrency())
        << ",\"repetitions\":" << repetitions_ << "}";
    // obs::csv_block_as_json emits numeric fields as bare JSON numbers
    // under the strict RFC-8259 grammar (locale-independent; the old
    // strtod full-match quoted every fractional field under a
    // comma-decimal locale, leaving the sidecars with no numeric
    // series). Pinned by tests/test_export.cpp's golden sidecar test.
    out << ",\"series\":" << obs::csv_block_as_json(tee_.text());
    if (!dispersion_.empty()) {
      out << ",\"dispersion\":{";
      bool first = true;
      for (const auto& [metric, s] : dispersion_) {
        if (!first) out << ',';
        first = false;
        out << '"' << obs::json_escape(metric) << "\":{\"n\":" << s.n
            << ",\"mean\":" << obs::format_double(s.mean)
            << ",\"rel\":" << obs::format_double(s.rel) << '}';
      }
      out << '}';
    }
    if (!memory_.empty()) {
      out << ",\"memory\":{";
      bool first = true;
      for (const auto& [metric, bytes] : memory_) {
        if (!first) out << ',';
        first = false;
        out << '"' << obs::json_escape(metric) << "\":" << bytes;
      }
      out << '}';
    }
    out << "}\n";
  }

 private:
  /// Forwards every byte to the real std::cout buffer while keeping a
  /// copy for the CSV re-parse.
  class TeeBuf final : public std::streambuf {
   public:
    explicit TeeBuf(std::streambuf* inner) : inner_(inner) {}
    [[nodiscard]] std::streambuf* inner() const noexcept { return inner_; }
    [[nodiscard]] const std::string& text() const noexcept { return text_; }

   protected:
    int overflow(int ch) override {
      if (ch == traits_type::eof()) return traits_type::not_eof(ch);
      text_.push_back(static_cast<char>(ch));
      return inner_->sputc(static_cast<char>(ch));
    }
    std::streamsize xsputn(const char* s, std::streamsize n) override {
      text_.append(s, static_cast<std::size_t>(n));
      return inner_->sputn(s, n);
    }
    int sync() override { return inner_->pubsync(); }

   private:
    std::streambuf* inner_;
    std::string text_;
  };

  struct Samples {
    std::size_t n = 0;
    double mean = 0.0;
    double rel = 0.0;
  };

  static std::string env_or(const char* var, const char* fallback) {
    const char* v = std::getenv(var);
    return (v != nullptr && *v != '\0') ? v : fallback;
  }

  static int env_int(const char* var) {
    const char* v = std::getenv(var);
    return v != nullptr ? std::atoi(v) : 0;
  }

  // Build provenance baked in by bench/CMakeLists.txt; "unknown" keeps
  // ad-hoc compiles (e.g. compile_commands tooling) working.
  static const char* build_type() {
#ifdef CELLFLOW_BUILD_TYPE
    return CELLFLOW_BUILD_TYPE;
#else
    return "unknown";
#endif
  }
  static const char* compiler() {
#ifdef CELLFLOW_COMPILER
    return CELLFLOW_COMPILER;
#else
    return "unknown";
#endif
  }

  std::string name_;
  std::string out_dir_;
  TeeBuf tee_;
  std::uint64_t rounds_ = 0;
  int repetitions_ = 1;
  std::map<std::string, Samples> dispersion_;
  std::map<std::string, std::uint64_t> memory_;
  std::chrono::steady_clock::time_point start_;
};

/// Registers the shared --threads flag and resolves it to a round-engine
/// policy: 0 (the default) defers to $CELLFLOW_THREADS (serial when
/// unset), N >= 1 forces parallel(N). Assign the result to
/// WorkloadSpec::parallel.
inline ParallelPolicy parallel_from_cli(CliArgs& cli) {
  const auto threads = cli.get_uint(
      "threads", 0,
      "round-engine worker threads (0: $CELLFLOW_THREADS or serial)");
  return threads == 0 ? parallel_policy_from_env()
                      : ParallelPolicy::parallel(static_cast<int>(threads));
}

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::cout << "=== " << title << " ===\n"
            << "reproduces: " << paper_ref << '\n'
            << "(absolute values depend on the realization of the paper's\n"
            << " nondeterministic choices; compare shapes, not numbers)\n\n";
}

/// Mean throughput across seeds for a spec (asserting safety internally).
inline double mean_throughput(const WorkloadSpec& spec,
                              const std::vector<std::uint64_t>& seeds) {
  return run_workload_seeds(spec, seeds).mean();
}

}  // namespace cellflow::bench
