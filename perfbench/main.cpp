// choir_perfbench — one workload of the truth-scored benchmark per call.
//
//   choir_perfbench --workload gw_sparse|gw_collide|net_udp|city
//                   [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//
// Prints one JSON object on its last line: correct/attempted/failed, every
// metric the workload measured (name -> value, unit), timing-series
// summaries and run facts. Exits 1 on bad arguments or any exception.
// perfbench/run.py builds this program and turns its output into the
// benchmark's result line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "dsp/simd/simd.hpp"

namespace {

bool parse(int argc, char** argv, perfbench::Options& opt) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else {
      return false;
    }
  }
  return !opt.workload.empty() && opt.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: choir_perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--trace-out FILE]\n");
    return 1;
  }
  perfbench::Report report;
  try {
    if (opt.workload == "gw_sparse" || opt.workload == "gw_collide") {
      perfbench::run_gateway(opt, opt.workload == "gw_collide", report);
    } else if (opt.workload == "net_udp") {
      perfbench::run_net_udp(opt, report);
    } else if (opt.workload == "city") {
      perfbench::run_city(opt, report);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  report.metric("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  report.fact("workload", opt.workload);
  report.fact("seed", static_cast<double>(opt.seed));
  report.fact("seconds", opt.seconds);
  report.fact("trace", opt.trace ? 1.0 : 0.0);
  report.fact("simd_isa", choir::dsp::simd::isa_name(
                              choir::dsp::simd::active().isa));
  report.fact("build_type", PERFBENCH_BUILD_TYPE);
  report.fact("cxx_flags", PERFBENCH_CXX_FLAGS);
  report.fact("compiler", PERFBENCH_COMPILER);
  report.fact("hardware_threads",
              static_cast<double>(std::thread::hardware_concurrency()));
  std::printf("%s\n", report.to_json().c_str());
  return 0;
}
