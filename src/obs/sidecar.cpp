#include "obs/sidecar.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/export.hpp"

namespace cellflow::obs {

namespace {

[[nodiscard]] bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

[[noreturn]] void schema_fail(const std::string& why) {
  throw std::runtime_error("sidecar schema error: " + why);
}

const JsonValue& require(const JsonValue& doc, std::string_view key) {
  const JsonValue* v = doc.find(key);
  if (v == nullptr) schema_fail("missing key \"" + std::string(key) + "\"");
  return *v;
}

double require_number(const JsonValue& doc, std::string_view key) {
  const JsonValue& v = require(doc, key);
  if (!v.is_number()) schema_fail("\"" + std::string(key) + "\" not a number");
  return v.as_number();
}

std::string require_string(const JsonValue& doc, std::string_view key) {
  const JsonValue& v = require(doc, key);
  if (!v.is_string()) schema_fail("\"" + std::string(key) + "\" not a string");
  return v.as_string();
}

// Renders a key-column cell for row matching / the trend table.
std::string cell_as_key(const JsonValue& cell) {
  if (cell.is_string()) return cell.as_string();
  if (cell.is_number()) return format_double(cell.as_number());
  if (cell.is_bool()) return cell.as_bool() ? "true" : "false";
  return "?";
}

// Row identity = key columns joined with '/'; falls back to row order
// when the bench has no key columns at all.
std::string row_key(const std::vector<std::string>& header,
                    const std::vector<JsonValue>& row, std::size_t index) {
  std::string key;
  for (std::size_t c = 0; c < header.size() && c < row.size(); ++c) {
    if (classify_metric(header[c]) != MetricDirection::kKey) continue;
    if (!key.empty()) key.push_back('/');
    key += cell_as_key(row[c]);
  }
  if (key.empty()) {
    // Appended rather than `"#" + ...`: GCC 12's -O3 inliner reports a
    // false -Werror=restrict on the temporary-concatenation form.
    key.push_back('#');
    key += std::to_string(index);
  }
  return key;
}

// Relative dispersion for one metric of one row, combining the sidecar's
// cross-repetition map with a per-row "<metric>_rd" column when present.
double rel_dispersion(const Sidecar& s, const std::vector<JsonValue>& row,
                      std::string_view metric) {
  double rel = 0.0;
  if (const auto it = s.dispersion.find(std::string(metric));
      it != s.dispersion.end())
    rel = it->second.rel;
  const std::string rd_col = std::string(metric) + "_rd";
  for (std::size_t c = 0; c < s.header.size() && c < row.size(); ++c) {
    if (s.header[c] == rd_col && row[c].is_number())
      rel = std::max(rel, row[c].as_number());
  }
  return rel;
}

void compare_one(const std::string& key, const std::string& metric,
                 double base, double fresh, double base_rel, double fresh_rel,
                 const CompareOptions& options, CompareReport& report) {
  const MetricDirection dir = classify_metric(metric);
  CompareRow row;
  row.row_key = key;
  row.metric = metric;
  row.base = base;
  row.fresh = fresh;
  const double denom = std::abs(base);
  row.rel_change = denom > 0.0 ? (fresh - base) / denom : 0.0;
  if (dir == MetricDirection::kHigherBetter ||
      dir == MetricDirection::kLowerBetter) {
    row.gated = true;
    row.threshold =
        std::max(options.margin,
                 options.dispersion_mult * std::max(base_rel, fresh_rel));
    const double bad = dir == MetricDirection::kHigherBetter
                           ? -row.rel_change
                           : row.rel_change;
    row.regression = denom > 0.0 && bad > row.threshold;
  }
  if (row.regression) ++report.regressions;
  report.rows.push_back(std::move(row));
}

void parse_dispersion_map(const JsonValue& doc, Sidecar& out) {
  const JsonValue* disp = doc.find("dispersion");
  if (disp == nullptr) return;
  if (!disp->is_object()) schema_fail("\"dispersion\" not an object");
  for (const auto& [metric, entry] : disp->as_object()) {
    if (!entry.is_object())
      schema_fail("dispersion entry \"" + metric + "\" not an object");
    Dispersion d;
    d.n = static_cast<std::uint64_t>(require_number(entry, "n"));
    d.mean = require_number(entry, "mean");
    d.rel = require_number(entry, "rel");
    out.dispersion.emplace(metric, d);
  }
}

void parse_memory_map(const JsonValue& doc, Sidecar& out) {
  const JsonValue* mem = doc.find("memory");
  if (mem == nullptr) return;
  if (!mem->is_object()) schema_fail("\"memory\" not an object");
  for (const auto& [metric, value] : mem->as_object()) {
    if (!value.is_number())
      schema_fail("memory entry \"" + metric + "\" not a number");
    out.memory.emplace(metric, value.as_number());
  }
}

void parse_series(const JsonValue& doc, Sidecar& out) {
  const JsonValue& series = require(doc, "series");
  if (!series.is_object()) schema_fail("\"series\" not an object");
  const JsonValue& header = require(series, "header");
  if (!header.is_array()) schema_fail("series.header not an array");
  for (const JsonValue& h : header.as_array()) {
    if (!h.is_string()) schema_fail("series.header entry not a string");
    out.header.push_back(h.as_string());
  }
  const JsonValue& rows = require(series, "rows");
  if (!rows.is_array()) schema_fail("series.rows not an array");
  for (const JsonValue& r : rows.as_array()) {
    if (!r.is_array()) schema_fail("series row not an array");
    if (r.as_array().size() != out.header.size())
      schema_fail("ragged series row (want " +
                  std::to_string(out.header.size()) + " cells, got " +
                  std::to_string(r.as_array().size()) + ")");
    out.rows.push_back(r.as_array());
  }
}

}  // namespace

MetricDirection classify_metric(std::string_view name) {
  if (ends_with(name, "_rd")) return MetricDirection::kDispersion;
  if (ends_with(name, "_per_sec")) return MetricDirection::kHigherBetter;
  if (ends_with(name, "_ns") || ends_with(name, "_us") ||
      ends_with(name, "_ms") || ends_with(name, "_seconds") ||
      ends_with(name, "_bytes"))
    return MetricDirection::kLowerBetter;
  // Derived ratios: meaningful to eyeball, unstable to gate (their inputs
  // are gated already; gating both double-counts every wobble).
  if (ends_with(name, "_pct") || ends_with(name, "_fraction") ||
      ends_with(name, "_ratio") || name.find("speedup") != std::string::npos ||
      name == "coverage" || ends_with(name, "_coverage") ||
      name.find("imbalance") != std::string::npos)
    return MetricDirection::kInformational;
  return MetricDirection::kKey;
}

Sidecar parse_sidecar(std::string_view json_text) {
  const JsonValue doc = parse_json(json_text);
  if (!doc.is_object()) schema_fail("document not an object");
  Sidecar out;
  out.bench = require_string(doc, "bench");
  out.elapsed_seconds = require_number(doc, "elapsed_seconds");
  if (const JsonValue* v = doc.find("rounds"); v != nullptr && v->is_number())
    out.rounds = v->as_number();
  if (const JsonValue* v = doc.find("rounds_per_sec");
      v != nullptr && v->is_number())
    out.rounds_per_sec = v->as_number();
  if (const JsonValue* v = doc.find("sidecar_version")) {
    if (!v->is_number()) schema_fail("\"sidecar_version\" not a number");
    out.version = static_cast<int>(v->as_number());
  }
  if (const JsonValue* prov = doc.find("provenance")) {
    if (!prov->is_object()) schema_fail("\"provenance\" not an object");
    // Tolerant here (strictness lives in validate_sidecar_schema) so a
    // hand-trimmed baseline still diffs.
    const auto opt_str = [&](std::string_view key, std::string& into) {
      if (const JsonValue* v = prov->find(key); v != nullptr && v->is_string())
        into = v->as_string();
    };
    const auto opt_int = [&](std::string_view key, int& into) {
      if (const JsonValue* v = prov->find(key); v != nullptr && v->is_number())
        into = static_cast<int>(v->as_number());
    };
    opt_str("git_sha", out.provenance.git_sha);
    opt_str("build_type", out.provenance.build_type);
    opt_str("compiler", out.provenance.compiler);
    opt_int("threads", out.provenance.threads);
    opt_int("hardware_threads", out.provenance.hardware_threads);
    opt_int("repetitions", out.provenance.repetitions);
  }
  parse_series(doc, out);
  parse_dispersion_map(doc, out);
  parse_memory_map(doc, out);
  return out;
}

void validate_sidecar_schema(std::string_view json_text) {
  const JsonValue doc = parse_json(json_text);
  if (!doc.is_object()) schema_fail("document not an object");
  (void)require_string(doc, "bench");
  (void)require_number(doc, "elapsed_seconds");
  const double version = require_number(doc, "sidecar_version");
  if (version < 2.0)
    schema_fail("sidecar_version " + format_double(version) + " < 2");
  const JsonValue& prov = require(doc, "provenance");
  if (!prov.is_object()) schema_fail("\"provenance\" not an object");
  (void)require_string(prov, "git_sha");
  (void)require_string(prov, "build_type");
  (void)require_string(prov, "compiler");
  (void)require_number(prov, "threads");
  const double hw = require_number(prov, "hardware_threads");
  if (hw < 1.0) schema_fail("provenance.hardware_threads < 1");
  const double reps = require_number(prov, "repetitions");
  if (reps < 1.0) schema_fail("provenance.repetitions < 1");
  Sidecar parsed;  // reuse the structural checks on series + dispersion
  parse_series(doc, parsed);
  parse_dispersion_map(doc, parsed);
  parse_memory_map(doc, parsed);
  for (const auto& [metric, d] : parsed.dispersion) {
    if (d.n < 1) schema_fail("dispersion." + metric + ".n < 1");
    if (d.rel < 0.0) schema_fail("dispersion." + metric + ".rel < 0");
  }
  for (const auto& [metric, bytes] : parsed.memory) {
    if (bytes < 0.0) schema_fail("memory." + metric + " < 0");
  }
}

CompareReport compare_sidecars(const Sidecar& baseline, const Sidecar& fresh,
                               const CompareOptions& options) {
  CompareReport report;
  report.bench = fresh.bench;
  if (baseline.bench != fresh.bench)
    report.notes.push_back("bench name mismatch: baseline \"" +
                           baseline.bench + "\" vs fresh \"" + fresh.bench +
                           "\"");

  if (baseline.rounds_per_sec && fresh.rounds_per_sec) {
    double base_rel = 0.0;
    double fresh_rel = 0.0;
    if (const auto it = baseline.dispersion.find("rounds_per_sec");
        it != baseline.dispersion.end())
      base_rel = it->second.rel;
    if (const auto it = fresh.dispersion.find("rounds_per_sec");
        it != fresh.dispersion.end())
      fresh_rel = it->second.rel;
    compare_one("-", "rounds_per_sec", *baseline.rounds_per_sec,
                *fresh.rounds_per_sec, base_rel, fresh_rel, options, report);
  }

  // Memory figures compare like top-level scalars; metrics present on
  // only one side are noted (new instrumentation, not a regression).
  for (const auto& [metric, fresh_bytes] : fresh.memory) {
    const auto bit = baseline.memory.find(metric);
    if (bit == baseline.memory.end()) {
      report.notes.push_back("memory." + metric + " only in fresh run");
      continue;
    }
    double base_rel = 0.0;
    double fresh_rel = 0.0;
    if (const auto it = baseline.dispersion.find(metric);
        it != baseline.dispersion.end())
      base_rel = it->second.rel;
    if (const auto it = fresh.dispersion.find(metric);
        it != fresh.dispersion.end())
      fresh_rel = it->second.rel;
    compare_one("-", metric, bit->second, fresh_bytes, base_rel, fresh_rel,
                options, report);
  }
  for (const auto& [metric, bytes] : baseline.memory) {
    (void)bytes;
    if (fresh.memory.find(metric) == fresh.memory.end())
      report.notes.push_back("memory." + metric + " only in baseline");
  }

  if (baseline.header != fresh.header) {
    report.notes.push_back(
        "series header changed; comparing columns present in both runs");
  }

  // Index baseline rows by key (first occurrence wins; duplicate keys are
  // possible for benches without key columns, where "#i" keeps them apart).
  std::vector<std::pair<std::string, const std::vector<JsonValue>*>> base_rows;
  base_rows.reserve(baseline.rows.size());
  for (std::size_t i = 0; i < baseline.rows.size(); ++i)
    base_rows.emplace_back(row_key(baseline.header, baseline.rows[i], i),
                           &baseline.rows[i]);

  std::vector<bool> base_seen(base_rows.size(), false);
  for (std::size_t i = 0; i < fresh.rows.size(); ++i) {
    const std::string key = row_key(fresh.header, fresh.rows[i], i);
    const std::vector<JsonValue>* base_row = nullptr;
    for (std::size_t b = 0; b < base_rows.size(); ++b) {
      if (!base_seen[b] && base_rows[b].first == key) {
        base_seen[b] = true;
        base_row = base_rows[b].second;
        break;
      }
    }
    if (base_row == nullptr) {
      report.notes.push_back("row " + key + " only in fresh run");
      continue;
    }
    for (std::size_t c = 0; c < fresh.header.size(); ++c) {
      const std::string& metric = fresh.header[c];
      const MetricDirection dir = classify_metric(metric);
      if (dir == MetricDirection::kKey || dir == MetricDirection::kDispersion)
        continue;
      const auto bc = std::find(baseline.header.begin(),
                                baseline.header.end(), metric);
      if (bc == baseline.header.end()) continue;
      const std::size_t bi =
          static_cast<std::size_t>(bc - baseline.header.begin());
      if (!fresh.rows[i][c].is_number() || !(*base_row)[bi].is_number())
        continue;
      compare_one(key, metric, (*base_row)[bi].as_number(),
                  fresh.rows[i][c].as_number(),
                  rel_dispersion(baseline, *base_row, metric),
                  rel_dispersion(fresh, fresh.rows[i], metric), options,
                  report);
    }
  }
  for (std::size_t b = 0; b < base_rows.size(); ++b)
    if (!base_seen[b])
      report.notes.push_back("row " + base_rows[b].first +
                             " only in baseline");
  return report;
}

std::string scale_sidecar_metrics(std::string_view json_text, double factor) {
  if (!(factor > 0.0))
    throw std::runtime_error("scale_sidecar_metrics: factor must be > 0");
  JsonValue doc = parse_json(json_text);
  if (!doc.is_object()) schema_fail("document not an object");
  const auto scale = [&](JsonValue& cell, MetricDirection dir) {
    if (!cell.is_number()) return;
    if (dir == MetricDirection::kHigherBetter)
      cell = JsonValue(cell.as_number() * factor);
    else if (dir == MetricDirection::kLowerBetter)
      cell = JsonValue(cell.as_number() / factor);
  };
  if (JsonValue* v = doc.find("rounds_per_sec"))
    scale(*v, MetricDirection::kHigherBetter);
  if (JsonValue* mem = doc.find("memory"); mem != nullptr && mem->is_object())
    for (auto& [metric, cell] : mem->as_object())
      scale(cell, classify_metric(metric));
  if (JsonValue* series = doc.find("series")) {
    std::vector<MetricDirection> dirs;
    if (const JsonValue* header = series->find("header");
        header != nullptr && header->is_array()) {
      for (const JsonValue& h : header->as_array())
        dirs.push_back(h.is_string() ? classify_metric(h.as_string())
                                     : MetricDirection::kKey);
    }
    if (JsonValue* rows = series->find("rows"); rows != nullptr &&
                                                rows->is_array()) {
      for (JsonValue& row : rows->as_array()) {
        if (!row.is_array()) continue;
        auto& cells = row.as_array();
        for (std::size_t c = 0; c < cells.size() && c < dirs.size(); ++c)
          scale(cells[c], dirs[c]);
      }
    }
  }
  return to_json(doc);
}

}  // namespace cellflow::obs
