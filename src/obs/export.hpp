// Exporters for the observability layer, plus the parsers/validators the
// test suite and the `cellflow_obs_check` smoke tool use to prove the
// exported bytes are well-formed.
//
// Three formats:
//   * Prometheus text exposition (to_prometheus) — a full registry
//     snapshot: # HELP / # TYPE headers, one sample line per series,
//     histograms expanded to _bucket{le=...}/_sum/_count.
//   * JSONL event stream (jsonl_snapshot) — one self-contained JSON
//     object per line: {"round":R,"metrics":[...]}; emitted periodically
//     by MetricsObserver (--metrics-every) and once at end of run.
//   * Chrome trace_event JSON (to_chrome_trace) — the PhaseProfiler's
//     spans as complete ("ph":"X") events; load the file in Perfetto or
//     chrome://tracing. Shards render as separate tid tracks; pool
//     workers get their own named lanes (work / barrier_wait / dispatch
//     spans), and counter samples render as "C" counter tracks.
//
// All exports are byte-deterministic functions of their input snapshot:
// families sorted by name, series by label set, doubles printed in
// shortest round-trip form (std::to_chars). Timings inside a Chrome
// trace are of course run-specific — determinism here means "same
// snapshot, same bytes", which is what the golden tests pin.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace cellflow::obs {

/// Full registry snapshot in the Prometheus text exposition format.
[[nodiscard]] std::string to_prometheus(const MetricsRegistry& registry);

/// One JSONL event (single line, '\n'-terminated) carrying the round
/// number and a full metrics snapshot.
[[nodiscard]] std::string jsonl_snapshot(const MetricsRegistry& registry,
                                         std::uint64_t round);

/// The profiler's spans as a Chrome trace_event JSON document
/// ({"traceEvents":[...]}). Phase spans (shard == -1) render on tid 0,
/// shard spans on tid shard+1, worker-attributed spans on their own
/// named lanes (tid 100+worker), counter samples as "C" events.
[[nodiscard]] std::string to_chrome_trace(const PhaseProfiler& profiler);

/// Shortest round-trip decimal form of `v` ("+Inf"/"-Inf"/"NaN" for the
/// non-finite values, integers without a trailing ".0") — the number
/// format shared by all three exporters.
[[nodiscard]] std::string format_double(double v);

/// JSON string escaping (quotes not included).
[[nodiscard]] std::string json_escape(std::string_view s);

/// One CSV field as a JSON value: emitted bare iff it matches the strict
/// JSON number grammar (so "5.", ".5", "+1", "007", "nan", "inf" and hex
/// all stay quoted strings — strtod would accept them but a JSON parser
/// must not), otherwise as an escaped JSON string. Grammar-matched, not
/// strtod-matched, so the result is locale-independent: under a
/// comma-decimal locale strtod full-matches no fractional field, which
/// used to silently demote every numeric series to strings.
[[nodiscard]] std::string csv_field_as_json(std::string_view field);

/// Re-parses the `CSV:` block out of captured console text into
/// {"header":[...],"rows":[[...],...]} with csv_field_as_json applied
/// per field. The block starts after a line equal to "CSV:" and ends at
/// the first empty line; text without one yields empty header and rows.
/// Used by bench::BenchRecorder for the BENCH_<name>.json sidecars.
[[nodiscard]] std::string csv_block_as_json(const std::string& text);

// --- parsers / validators -------------------------------------------------

/// One sample line of the Prometheus text format.
struct PromSample {
  std::string name;
  Labels labels;
  double value = 0.0;

  friend bool operator==(const PromSample&, const PromSample&) = default;
};

/// Parses the Prometheus text exposition format (the subset to_prometheus
/// emits: # comments, name{labels} value). Throws std::runtime_error with
/// a line number on malformed input.
[[nodiscard]] std::vector<PromSample> parse_prometheus(std::string_view text);

/// Strict JSON well-formedness check (objects, arrays, strings, numbers,
/// true/false/null; trailing garbage rejected). Throws std::runtime_error
/// with an offset on malformed input. Parses with obs/json.hpp's
/// parse_json and discards the document, so it shares that grammar's
/// further rejections: duplicate object keys, unpaired \u surrogates,
/// and nesting deeper than 256.
void validate_json(std::string_view text);

}  // namespace cellflow::obs
