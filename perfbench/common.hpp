// Shared plumbing for the perfbench workloads: run options, the metric
// report, in-memory spans, summary statistics and deltas of the program's
// own obs registry.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans (empty = keep them in memory only).
  std::string trace_out;
};

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Independent 64-bit stream derived from (seed, salt) — splitmix64, so
/// neighbouring seeds give unrelated inputs.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// Median and the highest percentile that still has at least ten samples
/// beyond it (none when fewer than 20 samples), plus the sample count.
struct Summary {
  double median = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;  ///< 0 when the series is too short for a tail
  std::size_t n = 0;
};
Summary summarize(std::vector<double> v);

/// Linear-interpolated quantile of a series, q in [0, 1] (0 when empty).
double quantile(std::vector<double> v, double q);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// What one workload run measured: named metrics with units, timing series
/// summaries, free-form facts, and the correctness outcome.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a timing series as "<name>": {median, tail, tail_pct, n, unit}.
  void series(const std::string& name, const Summary& s,
              const std::string& unit);
  void fact(const std::string& key, const std::string& value);
  void fact(const std::string& key, double value);
  void outcome(bool correct, std::uint64_t attempted, std::uint64_t failed);

  /// The whole report as one JSON object on one line.
  std::string to_json() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> series_;  ///< name -> JSON object
  std::map<std::string, std::string> facts_;   ///< key -> JSON value
  bool correct_ = false;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// In-memory spans recorded around the benchmark's own calls into the
/// program's public functions. Each span has a name, start, end and the
/// span that caused it; write() dumps them when the run ends.
class Spans {
 public:
  using Id = std::uint32_t;  ///< 1-based; 0 = no parent

  Id begin(const char* name, Id parent = 0);
  void end(Id id);

  /// Summed duration of every closed span called `name`, in seconds.
  double total_s(std::string_view name) const;

  /// One line per span: id, parent, name, start_us, end_us (relative to
  /// the recorder's construction). Throws on I/O failure.
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    Id parent;
  };
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span; a null recorder makes it a no-op (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Spans* spans, const char* name, Spans::Id parent = 0)
      : spans_(spans), id_(spans ? spans->begin(name, parent) : 0) {}
  ~ScopedSpan() {
    if (spans_) spans_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  Spans::Id id() const { return id_; }

 private:
  Spans* spans_;
  Spans::Id id_;
};

/// Deltas of obs::registry() instruments since construction (or the last
/// rebase()).
class RegistryDelta {
 public:
  RegistryDelta() { rebase(); }
  void rebase();

  std::uint64_t counter(std::string_view name) const;
  double hist_sum(std::string_view name) const;
  /// Quantile of the values recorded since the baseline, interpolated
  /// within buckets the way obs::Histogram::quantile does.
  double hist_quantile(std::string_view name, double q) const;
  /// Current gauge value (gauges are levels, not deltas).
  std::int64_t gauge(std::string_view name) const;

 private:
  const choir::obs::HistogramSnapshot* find(
      const choir::obs::RegistrySnapshot& s, std::string_view name) const;
  choir::obs::RegistrySnapshot base_;
};

// Workload entry points. Each generates its inputs from opt.seed before
// timing starts, fills `report` and returns normally; any exception is a
// failed run.
void run_gateway(const Options& opt, bool collide, Report& report);
void run_net_udp(const Options& opt, Report& report);
void run_city(const Options& opt, Report& report);

}  // namespace perfbench
