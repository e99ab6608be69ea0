// city: citysim::CityEngine with one million devices, the analytic outcome
// table and two engine workers, feeding the real NetServer in-process on a
// simulated clock (no journal). Its registry working set is a million
// sessions, against 16k in net_udp.
//
// Each repetition constructs a fresh engine on the same seed and runs the
// whole horizon, so every repetition must produce identical counters and
// an exact accounting mirror; only the wall time differs.
#include <algorithm>
#include <memory>

#include "citysim/engine.hpp"
#include "citysim/outcome_table.hpp"
#include "common.hpp"

namespace perfbench {

namespace {

namespace cs = choir::citysim;

constexpr std::size_t kDevices = 1000000;
constexpr double kHorizonS = 120.0;

cs::EngineOptions engine_options(std::uint64_t seed) {
  cs::EngineOptions opt;
  opt.n_devices = kDevices;
  opt.duration_s = kHorizonS;
  opt.threads = 2;
  opt.seed = derive_seed(seed, 400);
  opt.replay_rate = 0.01;
  opt.net.registry.shard_bits = 6;
  opt.net.dedup.shard_bits = 6;
  return opt;
}

struct Rep {
  double run_s = 0.0;
  cs::EngineReport report;
};

Rep one_rep(const cs::EngineOptions& opt, const cs::OutcomeTable& table,
            Spans* spans) {
  Rep r;
  std::unique_ptr<cs::CityEngine> engine;
  {
    ScopedSpan s(spans, "CityEngine::ctor");
    engine = std::make_unique<cs::CityEngine>(opt, table);
  }
  const auto t0 = Clock::now();
  {
    ScopedSpan s(spans, "CityEngine::run");
    r.report = engine->run();
  }
  r.run_s = seconds_between(t0, Clock::now());
  return r;
}

bool same_counts(const cs::EngineReport& a, const cs::EngineReport& b) {
  return a.events == b.events && a.transmissions == b.transmissions &&
         a.collided == b.collided && a.decoded == b.decoded &&
         a.net_stats.uplinks == b.net_stats.uplinks &&
         a.net_stats.accepted == b.net_stats.accepted &&
         a.net_stats.dedup_dropped == b.net_stats.dedup_dropped &&
         a.net_stats.replay_rejected == b.net_stats.replay_rejected;
}

}  // namespace

void run_city(const Options& opt, Report& report) {
  const cs::OutcomeTable table = cs::OutcomeTable::analytic();
  const cs::EngineOptions eopt = engine_options(opt.seed);

  std::vector<Rep> reps;
  std::uint64_t attempted = 0, failed = 0;
  const auto account = [&](const Rep& r) {
    const std::uint64_t uplinks = r.report.net_stats.uplinks;
    attempted += uplinks;
    if (!r.report.accounting_exact ||
        (!reps.empty() && !same_counts(r.report, reps.front().report)))
      failed += uplinks;
  };

  // Set-up cost: the engine constructor (layout, server, workers).
  std::vector<double> setups;
  for (int i = 0; i < 101; ++i) {
    const auto t0 = Clock::now();
    cs::CityEngine engine(eopt, table);
    setups.push_back(seconds_between(t0, Clock::now()));
  }

  const double budget = (opt.trace ? 0.5 : 1.0) * opt.seconds;
  const auto t_start = Clock::now();
  do {
    Rep r = one_rep(eopt, table, nullptr);
    account(r);
    reps.push_back(std::move(r));
  } while (seconds_between(t_start, Clock::now()) < budget);

  std::vector<double> runs, rates;
  for (const Rep& r : reps) {
    runs.push_back(r.run_s);
    rates.push_back(static_cast<double>(kDevices) * kHorizonS / r.run_s);
  }
  // The fastest repetition: every repetition does identical work, and a
  // shared host only ever slows one down.
  const double rate = *std::max_element(rates.begin(), rates.end());
  report.metric("sim_device_s_per_s", rate, "device-s/s");
  report.metric("goodput_per_s", rate, "1/s");
  report.metric("setup_s", summarize(setups).median, "s");
  report.series("citysim.run_s", summarize(runs), "s");
  report.series("citysim.setup_s", summarize(setups), "s");
  const cs::EngineReport& first = reps.front().report;
  report.fact("devices", static_cast<double>(kDevices));
  report.fact("horizon_s", kHorizonS);
  report.fact("repetitions", static_cast<double>(reps.size()));
  report.fact("accounting", first.accounting_exact ? "exact" : "MISMATCH");

  if (opt.trace) {
    Spans spans;
    RegistryDelta reg;
    const Rep traced = one_rep(eopt, table, &spans);
    account(traced);
    const cs::EngineReport& r = traced.report;
    report.metric("trace.overhead_ratio",
                  traced.run_s / *std::min_element(runs.begin(), runs.end()),
                  "ratio");
    report.metric("citysim.run_s", spans.total_s("CityEngine::run"), "s");
    report.metric("citysim.events", static_cast<double>(r.events), "count");
    report.metric("citysim.transmissions", static_cast<double>(r.transmissions),
                  "count");
    report.metric("citysim.collided", static_cast<double>(r.collided), "count");
    report.metric("citysim.decoded", static_cast<double>(r.decoded), "count");
    report.metric("citysim.uplinks", static_cast<double>(r.net_stats.uplinks),
                  "count");
    report.metric("net.accepted",
                  static_cast<double>(reg.counter("net.accepted")), "count");
    report.metric("net.dedup_dropped",
                  static_cast<double>(reg.counter("net.dedup_dropped")),
                  "count");
    report.metric("net.replay_rejected",
                  static_cast<double>(reg.counter("net.replay_rejected")),
                  "count");
    if (!opt.trace_out.empty()) spans.write(opt.trace_out);
  }
  report.outcome(failed == 0 && attempted > 0, attempted,
                 std::min(failed, attempted));
}

}  // namespace perfbench
