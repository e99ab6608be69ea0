#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

// Linear-interpolated quantile of an ascending-sorted series.
double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, q);
}

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.median = quantile_sorted(v, 0.5);
  // Highest of p99.9 / p99 / p95 / p90 with >= 10 samples above it.
  for (double pct : {99.9, 99.0, 95.0, 90.0}) {
    if (static_cast<double>(v.size()) * (1.0 - pct / 100.0) >= 10.0) {
      s.tail_pct = pct;
      s.tail = quantile_sorted(v, pct / 100.0);
      break;
    }
  }
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::series(const std::string& name, const Summary& s,
                    const std::string& unit) {
  std::ostringstream o;
  o << "{\"median\": " << json_number(s.median)
    << ", \"tail\": " << json_number(s.tail)
    << ", \"tail_pct\": " << json_number(s.tail_pct) << ", \"n\": " << s.n
    << ", \"unit\": " << json_string(unit) << "}";
  series_[name] = o.str();
}

void Report::fact(const std::string& key, const std::string& value) {
  facts_[key] = json_string(value);
}

void Report::fact(const std::string& key, double value) {
  facts_[key] = json_number(value);
}

void Report::outcome(bool correct, std::uint64_t attempted,
                     std::uint64_t failed) {
  correct_ = correct;
  attempted_ = attempted;
  failed_ = failed;
}

std::string Report::to_json() const {
  std::ostringstream o;
  o << "{\"correct\": " << (correct_ ? "true" : "false")
    << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
    << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    o << (first ? "" : ", ") << json_string(name)
      << ": {\"value\": " << json_number(m.value)
      << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  o << "}, \"series\": {";
  first = true;
  for (const auto& [name, js] : series_) {
    o << (first ? "" : ", ") << json_string(name) << ": " << js;
    first = false;
  }
  o << "}, \"facts\": {";
  first = true;
  for (const auto& [key, js] : facts_) {
    o << (first ? "" : ", ") << json_string(key) << ": " << js;
    first = false;
  }
  o << "}}";
  return o.str();
}

Spans::Id Spans::begin(const char* name, Id parent) {
  const auto now = Clock::now();
  spans_.push_back(Span{name, now, now, parent});
  return static_cast<Id>(spans_.size());
}

void Spans::end(Id id) { spans_[id - 1].end = Clock::now(); }

double Spans::total_s(std::string_view name) const {
  double total = 0.0;
  for (const auto& s : spans_) {
    if (name == s.name) total += seconds_between(s.start, s.end);
  }
  return total;
}

void Spans::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "# id parent name start_us end_us\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu %u %s %.3f %.3f\n", i + 1, s.parent, s.name,
                 seconds_between(epoch_, s.start) * 1e6,
                 seconds_between(epoch_, s.end) * 1e6);
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

void RegistryDelta::rebase() { base_ = choir::obs::registry().snapshot(); }

const choir::obs::HistogramSnapshot* RegistryDelta::find(
    const choir::obs::RegistrySnapshot& s, std::string_view name) const {
  for (const auto& h : s.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::uint64_t RegistryDelta::counter(std::string_view name) const {
  const auto now = choir::obs::registry().snapshot();
  std::uint64_t cur = 0, base = 0;
  for (const auto& [n, v] : now.counters) {
    if (n == name) cur = v;
  }
  for (const auto& [n, v] : base_.counters) {
    if (n == name) base = v;
  }
  return cur - base;
}

double RegistryDelta::hist_sum(std::string_view name) const {
  const auto now = choir::obs::registry().snapshot();
  const auto* cur = find(now, name);
  const auto* base = find(base_, name);
  return (cur ? cur->sum : 0.0) - (base ? base->sum : 0.0);
}

double RegistryDelta::hist_quantile(std::string_view name, double q) const {
  const auto now = choir::obs::registry().snapshot();
  const auto* cur = find(now, name);
  if (cur == nullptr) return 0.0;
  const auto* base = find(base_, name);
  std::vector<std::uint64_t> counts = cur->counts;
  if (base != nullptr && base->counts.size() == counts.size()) {
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] -= base->counts[i];
  }
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double next = cum + static_cast<double>(counts[i]);
    if (next >= target && counts[i] > 0) {
      const double lo = i == 0 ? 0.0 : cur->bounds[i - 1];
      const double hi = i < cur->bounds.size() ? cur->bounds[i] : cur->max;
      const double frac = (target - cum) / static_cast<double>(counts[i]);
      return lo + std::clamp(frac, 0.0, 1.0) * (std::max(hi, lo) - lo);
    }
    cum = next;
  }
  return cur->max;
}

std::int64_t RegistryDelta::gauge(std::string_view name) const {
  for (const auto& [n, v] : choir::obs::registry().snapshot().gauges) {
    if (n == name) return v;
  }
  return 0;
}

}  // namespace perfbench
