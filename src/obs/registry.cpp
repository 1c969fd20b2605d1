#include "obs/registry.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/string_util.hpp"

namespace pcap::obs {

namespace {

/// Minimal JSON string escaping (keys carry label quotes).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string format_double(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return common::strprintf("%.17g", v);
}

}  // namespace

std::string series_key(const std::string& name, const std::string& labels) {
  if (labels.empty()) return name;
  return name + "{" + labels + "}";
}

void Registry::check_new_series(const std::string& key) const {
  if (frozen_) {
    throw std::logic_error("obs::Registry: registering new series '" + key +
                           "' after freeze()");
  }
  if (key.empty() || key.front() == '{') {
    throw std::invalid_argument("obs::Registry: empty series name");
  }
}

CounterHandle Registry::counter(const std::string& name,
                                const std::string& help,
                                const std::string& labels) {
  const std::string key = series_key(name, labels);
  if (const auto existing = find_counter(key)) return *existing;
  check_new_series(key);
  counters_.push_back(CounterSeries{key, name, labels, help, 0});
  return CounterHandle{counters_.size() - 1};
}

GaugeHandle Registry::gauge(const std::string& name, const std::string& help,
                            const std::string& labels) {
  const std::string key = series_key(name, labels);
  if (const auto existing = find_gauge(key)) return *existing;
  check_new_series(key);
  gauges_.push_back(GaugeSeries{key, name, labels, help, 0.0});
  return GaugeHandle{gauges_.size() - 1};
}

HistogramHandle Registry::histogram(const std::string& name,
                                    const std::string& help,
                                    std::vector<double> upper_bounds,
                                    const std::string& labels) {
  const std::string key = series_key(name, labels);
  if (const auto existing = find_histogram(key)) return *existing;
  check_new_series(key);
  if (upper_bounds.empty()) {
    throw std::invalid_argument("obs::Registry: histogram '" + key +
                                "' needs at least one bucket bound");
  }
  for (std::size_t i = 1; i < upper_bounds.size(); ++i) {
    if (!(upper_bounds[i] > upper_bounds[i - 1])) {
      throw std::invalid_argument("obs::Registry: histogram '" + key +
                                  "' bounds not strictly increasing");
    }
  }
  HistogramSeries h;
  h.key = key;
  h.family = name;
  h.labels = labels;
  h.help = help;
  h.bins.assign(upper_bounds.size() + 1, 0);
  h.bounds = std::move(upper_bounds);
  histograms_.push_back(std::move(h));
  return HistogramHandle{histograms_.size() - 1};
}

void Registry::observe(HistogramHandle h, double x) {
  HistogramSeries& s = histograms_[h.index];
  std::size_t i = 0;
  while (i < s.bounds.size() && x > s.bounds[i]) ++i;
  ++s.bins[i];
  ++s.count;
  s.sum += x;
}

std::optional<CounterHandle> Registry::find_counter(
    const std::string& key) const {
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    if (counters_[i].key == key) return CounterHandle{i};
  }
  return std::nullopt;
}

std::optional<GaugeHandle> Registry::find_gauge(const std::string& key) const {
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    if (gauges_[i].key == key) return GaugeHandle{i};
  }
  return std::nullopt;
}

std::optional<HistogramHandle> Registry::find_histogram(
    const std::string& key) const {
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    if (histograms_[i].key == key) return HistogramHandle{i};
  }
  return std::nullopt;
}

std::optional<std::uint64_t> Registry::counter_value(
    const std::string& key) const {
  if (const auto h = find_counter(key)) return value(*h);
  return std::nullopt;
}

std::map<std::string, std::uint64_t> Registry::counter_values() const {
  std::map<std::string, std::uint64_t> out;
  for (const CounterSeries& c : counters_) out.emplace(c.key, c.value);
  return out;
}

std::string Registry::prometheus_text() const {
  std::ostringstream out;
  std::string last_family;
  const auto header = [&](const std::string& family, const std::string& help,
                          const char* type) {
    if (family == last_family) return;
    out << "# HELP " << family << ' ' << help << '\n';
    out << "# TYPE " << family << ' ' << type << '\n';
    last_family = family;
  };

  for (const CounterSeries& c : counters_) {
    header(c.family, c.help, "counter");
    out << c.key << ' ' << c.value << '\n';
  }
  for (const GaugeSeries& g : gauges_) {
    header(g.family, g.help, "gauge");
    out << g.key << ' ' << format_double(g.value) << '\n';
  }
  for (const HistogramSeries& h : histograms_) {
    header(h.family, h.help, "histogram");
    const std::string sep = h.labels.empty() ? "" : ",";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += h.bins[i];
      out << h.family << "_bucket{" << h.labels << sep << "le=\""
          << common::strprintf("%g", h.bounds[i]) << "\"} " << cumulative
          << '\n';
    }
    out << h.family << "_bucket{" << h.labels << sep << "le=\"+Inf\"} "
        << h.count << '\n';
    out << series_key(h.family + "_sum", h.labels) << ' '
        << format_double(h.sum) << '\n';
    out << series_key(h.family + "_count", h.labels) << ' ' << h.count
        << '\n';
  }
  return out.str();
}

std::string Registry::json_snapshot() const {
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \""
        << json_escape(counters_[i].key) << "\": " << counters_[i].value;
  }
  out << (counters_.empty() ? "}" : "\n  }") << ",\n  \"gauges\": {";
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \"" << json_escape(gauges_[i].key)
        << "\": " << common::strprintf("%.17g", gauges_[i].value);
  }
  out << (gauges_.empty() ? "}" : "\n  }") << ",\n  \"histograms\": {";
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    const HistogramSeries& h = histograms_[i];
    out << (i == 0 ? "\n" : ",\n") << "    \"" << json_escape(h.key)
        << "\": {\"count\": " << h.count
        << ", \"sum\": " << common::strprintf("%.17g", h.sum)
        << ", \"le\": [";
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      out << (b == 0 ? "" : ", ") << common::strprintf("%g", h.bounds[b]);
    }
    out << "], \"cumulative\": [";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      cumulative += h.bins[b];
      out << (b == 0 ? "" : ", ") << cumulative;
    }
    out << (h.bounds.empty() ? "" : ", ") << h.count << "]}";
  }
  out << (histograms_.empty() ? "}" : "\n  }") << "\n}\n";
  return out.str();
}

}  // namespace pcap::obs
