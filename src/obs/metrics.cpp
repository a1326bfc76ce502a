#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "util/small_vec.hpp"

namespace cellflow::obs {

namespace {

/// Lock-free add of a double into an atomic bit-pattern cell.
void add_double_bits(std::atomic<std::uint64_t>& bits, double delta) {
  std::uint64_t old = bits.load(std::memory_order_relaxed);
  std::uint64_t wanted;
  do {
    wanted = std::bit_cast<std::uint64_t>(std::bit_cast<double>(old) + delta);
  } while (!bits.compare_exchange_weak(old, wanted, std::memory_order_relaxed));
}

}  // namespace

void Gauge::set(double v) noexcept {
  bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
}

double Gauge::value() const noexcept {
  return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty()) throw std::runtime_error("Histogram: no buckets");
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end())
    throw std::runtime_error("Histogram: bounds must be strictly ascending");
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
}

void Histogram::observe_many(double v, std::uint64_t n) noexcept {
  if (n == 0) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto slot = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[slot].fetch_add(n, std::memory_order_relaxed);
  count_.fetch_add(n, std::memory_order_relaxed);
  add_double_bits(sum_bits_, v * static_cast<double>(n));
}

std::uint64_t Histogram::count() const noexcept {
  return count_.load(std::memory_order_relaxed);
}

double Histogram::sum() const noexcept {
  return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t k = 0; k < out.size(); ++k)
    out[k] = buckets_[k].load(std::memory_order_relaxed);
  return out;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  const auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name.front())) return false;
  for (const char c : name.substr(1))
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  return true;
}

namespace {

/// FNV-1a over a label set's keys and values, each followed by a 0 byte
/// (so {"ab","c"} and {"a","bc"} differ), with the high half folded into
/// the low bits the index masks.
std::uint64_t label_hash(const Labels& labels) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    h *= 0x100000001b3ULL;  // the 0 separator
  };
  for (const Label& l : labels) {
    mix(l.key);
    mix(l.value);
  }
  return h ^ (h >> 32);
}

}  // namespace

struct MetricsRegistry::Family {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  std::vector<double> bounds;  // histograms only
  std::vector<Labels> labels;  // parallel to the active metric vector
  std::vector<std::unique_ptr<Counter>> counters;
  std::vector<std::unique_ptr<Gauge>> gauges;
  std::vector<std::unique_ptr<Histogram>> histograms;
  /// Open-addressing index over `labels`, linear probing: each entry is
  /// a slot number + 1 (0 = empty), placed by label_hash of the canonical
  /// set; a power-of-two table at most half full, sized with the family's
  /// first series. Its first kInline entries live in the Family, so a
  /// family of up to kInline / 2 series, as most are, allocates nothing
  /// for it. A probe compares against labels[slot], so the index holds no
  /// copy of any label.
  static constexpr std::size_t kInline = 8;
  SmallVec<std::uint32_t, kInline> index;

  /// The slot of `want` (canonical), or labels.size() when absent.
  [[nodiscard]] std::size_t find(const Labels& want) const {
    if (index.empty()) return labels.size();  // no series yet
    const std::size_t mask = index.size() - 1;
    for (std::size_t k = label_hash(want) & mask; index[k] != 0;
         k = (k + 1) & mask)
      if (labels[index[k] - 1] == want) return index[k] - 1;
    return labels.size();
  }

  /// Appends `want` (canonical, absent) as a new slot and indexes it; the
  /// caller appends the slot's metric.
  void add(Labels want) {
    labels.push_back(std::move(want));
    if (2 * labels.size() <= index.size()) {
      place(labels.size() - 1);
      return;
    }
    const std::size_t size = std::max(kInline, 2 * index.size());
    index.clear();
    index.resize(size);
    for (std::size_t k = 0; k < labels.size(); ++k) place(k);
  }

 private:
  void place(std::size_t slot) {
    const std::size_t mask = index.size() - 1;
    std::size_t k = label_hash(labels[slot]) & mask;
    while (index[k] != 0) k = (k + 1) & mask;
    index[k] = static_cast<std::uint32_t>(slot + 1);
  }
};

namespace {

Labels canonical(Labels labels) {
  std::sort(labels.begin(), labels.end());
  for (std::size_t k = 1; k < labels.size(); ++k)
    if (labels[k].key == labels[k - 1].key)
      throw std::runtime_error("MetricsRegistry: duplicate label key '" +
                               labels[k].key + "'");
  return labels;
}

}  // namespace

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Family& MetricsRegistry::family(
    std::string_view name, std::string_view help, MetricType type,
    const std::vector<double>& bounds) {
  if (!valid_metric_name(name))
    throw std::runtime_error("MetricsRegistry: invalid metric name '" +
                             std::string(name) + "'");
  if (const auto it = index_.find(name); it != index_.end()) {
    Family& f = *families_[it->second];
    if (f.type != type || f.help != help || f.bounds != bounds)
      throw std::runtime_error(
          "MetricsRegistry: conflicting redefinition of family '" +
          std::string(name) + "'");
    return f;
  }
  auto f = std::make_unique<Family>();
  f->name = std::string(name);
  f->help = std::string(help);
  f->type = type;
  f->bounds = bounds;
  families_.push_back(std::move(f));
  index_.emplace(std::string(name), families_.size() - 1);
  return *families_.back();
}

Counter& MetricsRegistry::counter(std::string_view name, std::string_view help,
                                  Labels labels) {
  const std::lock_guard<std::mutex> lock(mu_);
  Family& f = family(name, help, MetricType::kCounter, {});
  Labels want = canonical(std::move(labels));
  const std::size_t k = f.find(want);
  if (k < f.counters.size()) return *f.counters[k];
  f.add(std::move(want));
  f.counters.push_back(std::make_unique<Counter>());
  return *f.counters.back();
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help,
                              Labels labels) {
  const std::lock_guard<std::mutex> lock(mu_);
  Family& f = family(name, help, MetricType::kGauge, {});
  Labels want = canonical(std::move(labels));
  const std::size_t k = f.find(want);
  if (k < f.gauges.size()) return *f.gauges[k];
  f.add(std::move(want));
  f.gauges.push_back(std::make_unique<Gauge>());
  return *f.gauges.back();
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::string_view help,
                                      std::vector<double> upper_bounds,
                                      Labels labels) {
  const std::lock_guard<std::mutex> lock(mu_);
  Family& f = family(name, help, MetricType::kHistogram, upper_bounds);
  Labels want = canonical(std::move(labels));
  const std::size_t k = f.find(want);
  if (k < f.histograms.size()) return *f.histograms[k];
  f.add(std::move(want));
  f.histograms.push_back(std::make_unique<Histogram>(std::move(upper_bounds)));
  return *f.histograms.back();
}

std::vector<FamilySnapshot> MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<FamilySnapshot> out;
  out.reserve(families_.size());
  for (const auto& fp : families_) {
    const Family& f = *fp;
    FamilySnapshot snap;
    snap.name = f.name;
    snap.help = f.help;
    snap.type = f.type;
    for (std::size_t k = 0; k < f.labels.size(); ++k) {
      SeriesSnapshot s;
      s.labels = f.labels[k];
      switch (f.type) {
        case MetricType::kCounter:
          s.counter_value = f.counters[k]->value();
          break;
        case MetricType::kGauge:
          s.gauge_value = f.gauges[k]->value();
          break;
        case MetricType::kHistogram: {
          const Histogram& h = *f.histograms[k];
          s.count = h.count();
          s.sum = h.sum();
          const std::vector<std::uint64_t> raw = h.bucket_counts();
          std::uint64_t cum = 0;
          for (std::size_t b = 0; b < raw.size(); ++b) {
            cum += raw[b];
            const double le = b < h.bounds().size()
                                  ? h.bounds()[b]
                                  : std::numeric_limits<double>::infinity();
            s.buckets.emplace_back(le, cum);
          }
          break;
        }
      }
      snap.series.push_back(std::move(s));
    }
    std::sort(snap.series.begin(), snap.series.end(),
              [](const SeriesSnapshot& a, const SeriesSnapshot& b) {
                return a.labels < b.labels;
              });
    out.push_back(std::move(snap));
  }
  std::sort(out.begin(), out.end(),
            [](const FamilySnapshot& a, const FamilySnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

}  // namespace cellflow::obs
