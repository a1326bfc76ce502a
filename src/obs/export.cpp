#include "obs/export.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "util/csv.hpp"

namespace cellflow::obs {

std::string format_double(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  // Integral values print as integers (counter-like readability); the
  // 2^53 guard keeps the cast exact.
  if (v == std::floor(v) && std::abs(v) < 9007199254740992.0) {
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof buf,
                                 static_cast<long long>(v));
    return std::string(buf, r.ptr);
  }
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

/// Prometheus label-value escaping: backslash, quote, newline.
std::string prom_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

/// Renders {k1="v1",k2="v2"}; empty labels render as nothing.
std::string prom_labels(const Labels& labels, const char* extra_key = nullptr,
                        const std::string* extra_value = nullptr) {
  if (labels.empty() && extra_key == nullptr) return "";
  std::string out = "{";
  bool first = true;
  for (const Label& l : labels) {
    if (!first) out += ',';
    first = false;
    out += l.key + "=\"" + prom_escape(l.value) + '"';
  }
  if (extra_key != nullptr) {
    if (!first) out += ',';
    out += std::string(extra_key) + "=\"" + prom_escape(*extra_value) + '"';
  }
  out += '}';
  return out;
}

const char* type_name(MetricType t) {
  switch (t) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "?";
}

}  // namespace

std::string to_prometheus(const MetricsRegistry& registry) {
  std::string out;
  for (const FamilySnapshot& f : registry.snapshot()) {
    out += "# HELP " + f.name + ' ' + f.help + '\n';
    out += "# TYPE " + f.name + ' ' + type_name(f.type) + '\n';
    for (const SeriesSnapshot& s : f.series) {
      switch (f.type) {
        case MetricType::kCounter:
          out += f.name + prom_labels(s.labels) + ' ' +
                 std::to_string(s.counter_value) + '\n';
          break;
        case MetricType::kGauge:
          out += f.name + prom_labels(s.labels) + ' ' +
                 format_double(s.gauge_value) + '\n';
          break;
        case MetricType::kHistogram: {
          for (const auto& [le, cum] : s.buckets) {
            const std::string le_s = format_double(le);
            out += f.name + "_bucket" + prom_labels(s.labels, "le", &le_s) +
                   ' ' + std::to_string(cum) + '\n';
          }
          out += f.name + "_sum" + prom_labels(s.labels) + ' ' +
                 format_double(s.sum) + '\n';
          out += f.name + "_count" + prom_labels(s.labels) + ' ' +
                 std::to_string(s.count) + '\n';
          break;
        }
      }
    }
  }
  return out;
}

namespace {

std::string json_labels(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const Label& l : labels) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(l.key) + "\":\"" + json_escape(l.value) + '"';
  }
  out += '}';
  return out;
}

}  // namespace

std::string jsonl_snapshot(const MetricsRegistry& registry,
                           std::uint64_t round) {
  std::string out = "{\"round\":" + std::to_string(round) + ",\"metrics\":[";
  bool first_series = true;
  for (const FamilySnapshot& f : registry.snapshot()) {
    for (const SeriesSnapshot& s : f.series) {
      if (!first_series) out += ',';
      first_series = false;
      out += "{\"name\":\"" + json_escape(f.name) + "\",\"type\":\"" +
             type_name(f.type) + "\",\"labels\":" + json_labels(s.labels);
      switch (f.type) {
        case MetricType::kCounter:
          out += ",\"value\":" + std::to_string(s.counter_value);
          break;
        case MetricType::kGauge:
          out += ",\"value\":" + format_double(s.gauge_value);
          break;
        case MetricType::kHistogram: {
          out += ",\"count\":" + std::to_string(s.count) +
                 ",\"sum\":" + format_double(s.sum) + ",\"buckets\":[";
          bool first_bucket = true;
          for (const auto& [le, cum] : s.buckets) {
            if (!first_bucket) out += ',';
            first_bucket = false;
            // le as a string: JSON numbers cannot express +Inf.
            out += "{\"le\":\"" + format_double(le) +
                   "\",\"count\":" + std::to_string(cum) + '}';
          }
          out += ']';
          break;
        }
      }
      out += '}';
    }
  }
  out += "]}\n";
  return out;
}

std::string to_chrome_trace(const PhaseProfiler& profiler) {
  // Track layout: tid 0 = whole-phase spans, tid 1.. = per-shard spans,
  // tid kWorkerTidBase + w = pool worker w (its work/barrier_wait/
  // dispatch spans from ThreadPool timing — a Perfetto lane per worker,
  // so a barrier stall shows as a "barrier_wait" slice on the stalled
  // worker). Counter samples (record_counter) export as "C" events and
  // render as continuous counter tracks (imbalance, parallel work
  // fraction).
  constexpr int kWorkerTidBase = 100;
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto append = [&](const std::string& event) {
    if (!first) out += ',';
    first = false;
    out += event;
  };
  int max_worker = -1;
  for (const PhaseProfiler::Span& s : profiler.spans()) {
    const int tid =
        s.worker >= 0 ? kWorkerTidBase + s.worker : s.shard + 1;
    if (s.worker > max_worker) max_worker = s.worker;
    // trace_event timestamps are microseconds; keep nanosecond precision
    // via fractional values.
    std::string ev = "{\"name\":\"" + json_escape(s.name) +
                     "\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":" +
                     format_double(static_cast<double>(s.start_ns) / 1000.0) +
                     ",\"dur\":" +
                     format_double(static_cast<double>(s.duration_ns) /
                                   1000.0) +
                     ",\"pid\":1,\"tid\":" + std::to_string(tid) +
                     ",\"args\":{\"round\":" + std::to_string(s.round);
    if (s.worker >= 0)
      ev += ",\"worker\":" + std::to_string(s.worker);
    else
      ev += ",\"shard\":" + std::to_string(s.shard);
    ev += "}}";
    append(ev);
  }
  for (const PhaseProfiler::CounterSample& c : profiler.counter_samples()) {
    append("{\"name\":\"" + json_escape(c.name) +
           "\",\"cat\":\"telemetry\",\"ph\":\"C\",\"ts\":" +
           format_double(static_cast<double>(c.ts_ns) / 1000.0) +
           ",\"pid\":1,\"args\":{\"value\":" + format_double(c.value) + "}}");
  }
  // Name the worker lanes so Perfetto labels them "worker N" instead of
  // a bare tid.
  for (int w = 0; w <= max_worker; ++w) {
    append("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(kWorkerTidBase + w) +
           ",\"args\":{\"name\":\"worker " + std::to_string(w) + "\"}}");
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

// --- Prometheus parser ----------------------------------------------------

namespace {

[[noreturn]] void prom_fail(std::size_t line_no, const std::string& why) {
  throw std::runtime_error("prometheus parse error at line " +
                           std::to_string(line_no) + ": " + why);
}

}  // namespace

std::vector<PromSample> parse_prometheus(std::string_view text) {
  std::vector<PromSample> samples;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    ++line_no;
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    if (line.empty()) continue;
    if (line.front() == '#') continue;  // HELP/TYPE/comments

    PromSample s;
    std::size_t k = 0;
    while (k < line.size() && line[k] != '{' && line[k] != ' ') ++k;
    s.name = std::string(line.substr(0, k));
    if (!valid_metric_name(s.name)) prom_fail(line_no, "bad metric name");

    if (k < line.size() && line[k] == '{') {
      ++k;
      while (k < line.size() && line[k] != '}') {
        std::size_t ke = k;
        while (ke < line.size() && line[ke] != '=') ++ke;
        if (ke == line.size()) prom_fail(line_no, "label missing '='");
        Label l;
        l.key = std::string(line.substr(k, ke - k));
        k = ke + 1;
        if (k >= line.size() || line[k] != '"')
          prom_fail(line_no, "label value not quoted");
        ++k;
        while (k < line.size() && line[k] != '"') {
          if (line[k] == '\\') {
            ++k;
            if (k >= line.size()) prom_fail(line_no, "dangling escape");
            if (line[k] == 'n') l.value += '\n';
            else l.value += line[k];
          } else {
            l.value += line[k];
          }
          ++k;
        }
        if (k >= line.size()) prom_fail(line_no, "unterminated label value");
        ++k;  // closing quote
        if (k < line.size() && line[k] == ',') ++k;
        s.labels.push_back(std::move(l));
      }
      if (k >= line.size()) prom_fail(line_no, "unterminated label set");
      ++k;  // '}'
    }
    if (k >= line.size() || line[k] != ' ')
      prom_fail(line_no, "missing value separator");
    ++k;
    const std::string value_s(line.substr(k));
    if (value_s.empty()) prom_fail(line_no, "missing value");
    if (value_s == "+Inf" || value_s == "Inf") {
      s.value = std::numeric_limits<double>::infinity();
    } else if (value_s == "-Inf") {
      s.value = -std::numeric_limits<double>::infinity();
    } else if (value_s == "NaN") {
      s.value = std::numeric_limits<double>::quiet_NaN();
    } else {
      char* end = nullptr;
      s.value = std::strtod(value_s.c_str(), &end);
      if (end != value_s.c_str() + value_s.size())
        prom_fail(line_no, "malformed value '" + value_s + "'");
    }
    samples.push_back(std::move(s));
  }
  return samples;
}

// --- JSON validator -------------------------------------------------------

void validate_json(std::string_view text) { (void)parse_json(text); }

// --- CSV block re-encoding (BENCH_*.json sidecars) ------------------------

namespace {

/// Strict JSON number grammar (RFC 8259 §6):
///   -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
/// Checked character-by-character — deliberately NOT strtod, which is
/// locale-sensitive and full-matches non-JSON spellings ("5.", ".5",
/// "+1", "0x1p3", "inf").
bool is_json_number(std::string_view s) {
  std::size_t k = 0;
  const auto digit = [&](std::size_t i) {
    return i < s.size() && s[i] >= '0' && s[i] <= '9';
  };
  if (k < s.size() && s[k] == '-') ++k;
  if (!digit(k)) return false;
  if (s[k] == '0') {
    ++k;
  } else {
    while (digit(k)) ++k;
  }
  if (k < s.size() && s[k] == '.') {
    ++k;
    if (!digit(k)) return false;
    while (digit(k)) ++k;
  }
  if (k < s.size() && (s[k] == 'e' || s[k] == 'E')) {
    ++k;
    if (k < s.size() && (s[k] == '+' || s[k] == '-')) ++k;
    if (!digit(k)) return false;
    while (digit(k)) ++k;
  }
  return k == s.size();
}

}  // namespace

std::string csv_field_as_json(std::string_view field) {
  if (is_json_number(field)) return std::string(field);
  return '"' + json_escape(field) + '"';
}

std::string csv_block_as_json(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  bool in_csv = false;
  std::vector<std::string> lines;
  while (std::getline(in, line)) {
    if (!in_csv) {
      in_csv = line == "CSV:";
      continue;
    }
    if (line.empty()) break;
    lines.push_back(line);
  }
  std::string json = "{\"header\":[";
  std::string rows = "],\"rows\":[";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string row;
    for (const std::string& f : parse_csv_line(lines[i])) {
      if (!row.empty()) row += ',';
      row += csv_field_as_json(f);
    }
    if (i == 0) {
      json += row;
    } else {
      rows += (i > 1 ? ",[" : "[") + row + ']';
    }
  }
  return json + rows + "]}";
}

}  // namespace cellflow::obs
