// gw_sparse / gw_collide: wideband captures with known ground truth fed
// through gateway::GatewayRuntime (one decode worker), scored by content.
//
// Inputs are rendered from the seed before timing, in a child process. The
// timed loop replays the capture set round after round; each capture's
// wall time is its fastest pass, so a busy neighbour on a shared host slows
// some passes, not the result. Every pass is scored: CRC-clean events are
// matched as a multiset against the truth on (channel, payload).
//
// The traced run adds two phases after an untraced one: the same runtime
// passes with spans around push/stop, then a serial decomposition of the
// same captures (Channelizer::push, then one rt::StreamingReceiver per
// channel) whose stage costs add up to the serial work the worker hides.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>

#include "channel/collision.hpp"
#include "common.hpp"
#include "gateway/gateway.hpp"
#include "gateway/traffic.hpp"
#include "lora/frame.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using choir::cvec;
namespace gw = choir::gateway;

constexpr std::size_t kChannels = 8;
constexpr int kSf = 7;
constexpr std::size_t kPayloadBytes = 8;
constexpr std::size_t kChunk = std::size_t{1} << 16;
/// Every collision capture is kChannels x 2^15 baseband samples (0.26 s of
/// air), so every capture costs the same.
constexpr std::size_t kChannelSamples = std::size_t{1} << 15;

struct Capture {
  std::vector<cvec> chunks;  ///< wideband samples, pre-split for push()
  std::size_t samples = 0;
  std::vector<gw::TrafficFrame> truth;
};

choir::lora::PhyParams phy() {
  choir::lora::PhyParams p;
  p.sf = kSf;
  return p;
}

// Collision-free traffic from gateway::generate_traffic. Capture i sits at
// step i % 5 of a 7.5-27.5 dB SNR sweep, so every seed covers the 5-30 dB
// range the same way and seeds differ in noise, offsets, gaps and payloads
// only. Five frames per channel (40 per capture: high-SNR phantoms are
// lumpy, so fewer frames make seeds disagree) put the longest channel
// between 2^15 and 2^16 samples for all but a few percent of captures;
// the upconverter pads to a power of two.
gw::WidebandCapture sparse_capture(std::uint64_t seed, std::size_t index) {
  gw::TrafficConfig cfg;
  cfg.phy = phy();
  cfg.n_channels = kChannels;
  cfg.frames_per_channel = 5;
  cfg.payload_bytes = kPayloadBytes;
  cfg.snr_db_min = 7.5 + 5.0 * static_cast<double>(index % 5);
  cfg.snr_db_max = cfg.snr_db_min;
  cfg.seed = derive_seed(seed, 100 + index);
  return gw::generate_traffic(cfg);
}

// Every channel carries groups of 2-3 uplinks that start together (the
// per-device timing and CFO offsets come from the oscillator model, as in
// Choir's synchronized collisions), rendered and upconverted exactly the
// way gateway::generate_traffic renders its sequential frames. Group sizes
// alternate and members sit at fixed, evenly spaced SNRs within 8-20 dB,
// so every seed sees the same power splits; groups fill each channel up
// to a fixed length, so every capture has the same size.
gw::WidebandCapture collide_capture(std::uint64_t seed) {
  choir::Rng rng(seed);
  const auto p = phy();
  const double sym_s = p.symbol_duration_s();
  const double frame_s =
      static_cast<double>(p.preamble_len + p.sfd_len +
                          choir::lora::frame_symbol_count(kPayloadBytes, p)) *
      sym_s;
  const choir::channel::OscillatorModel osc{};
  std::vector<cvec> basebands(kChannels);
  std::vector<gw::TrafficFrame> truth;
  for (std::size_t ch = 0; ch < kChannels; ++ch) {
    std::vector<choir::channel::TxInstance> txs;
    const double end_s = static_cast<double>(kChannelSamples) /
                         p.sample_rate_hz() - 4.0 * sym_s;
    double t = rng.uniform(2.0, 6.0) * sym_s;
    const std::size_t phase = static_cast<std::size_t>(rng.uniform_int(0, 1));
    for (std::size_t g = 0; t + frame_s + 0.5 * sym_s < end_s; ++g) {
      const std::size_t users = 2 + (g + phase) % 2;
      for (std::size_t u = 0; u < users; ++u) {
        choir::channel::TxInstance tx;
        tx.phy = p;
        tx.payload.resize(kPayloadBytes);
        tx.payload[0] = static_cast<std::uint8_t>(ch);
        tx.payload[1] = static_cast<std::uint8_t>(g);
        tx.payload[2] = static_cast<std::uint8_t>(u);
        for (std::size_t b = 3; b < kPayloadBytes; ++b)
          tx.payload[b] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        tx.hw = choir::channel::DeviceHardware::sample(osc, rng);
        tx.snr_db = 8.0 + 12.0 * (static_cast<double>(u) + 0.5) /
                              static_cast<double>(users);
        tx.fading.kind = choir::channel::FadingKind::kNone;
        tx.extra_delay_s = t;
        truth.push_back(gw::TrafficFrame{ch, tx.payload, t});
        txs.push_back(std::move(tx));
      }
      // At least 16 symbols of silence: the receiver's decode window runs
      // past a short frame, and groups should not swallow each other's
      // preambles (that is gw_sparse's business).
      t += frame_s + (16.0 + rng.exponential(8.0)) * sym_s;
    }
    choir::channel::RenderOptions ropt;
    ropt.osc = osc;
    ropt.add_noise = false;
    ropt.tail_s = 4.0 * sym_s;
    basebands[ch] = choir::channel::render_collision(txs, ropt, rng).samples;
    basebands[ch].resize(kChannelSamples);
  }
  gw::WidebandCapture cap;
  cap.samples = gw::upconvert_channels(basebands);
  const double variance = static_cast<double>(kChannels);
  for (auto& s : cap.samples) s += rng.cgaussian(variance);
  cap.frames = std::move(truth);
  return cap;
}

void write_all(int fd, const void* data, std::size_t len) {
  const auto* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("input pipe: write failed");
    p += n;
    len -= static_cast<std::size_t>(n);
  }
}

void read_all(int fd, void* data, std::size_t len) {
  auto* p = static_cast<char*>(data);
  while (len > 0) {
    const ssize_t n = ::read(fd, p, len);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("input pipe: short read");
    p += n;
    len -= static_cast<std::size_t>(n);
  }
}

/// Child side of render_captures: every capture as (sample count, samples,
/// frame count, then per frame: channel, start, payload length, payload).
template <typename Make>
void stream_captures(int fd, std::size_t n, Make make) {
  for (std::size_t i = 0; i < n; ++i) {
    const gw::WidebandCapture w = make(i);
    const std::uint64_t samples = w.samples.size(), frames = w.frames.size();
    write_all(fd, &samples, sizeof(samples));
    write_all(fd, w.samples.data(), samples * sizeof(cvec::value_type));
    write_all(fd, &frames, sizeof(frames));
    for (const auto& f : w.frames) {
      const std::uint64_t head[2] = {f.channel, f.payload.size()};
      write_all(fd, head, sizeof(head));
      write_all(fd, &f.start_s, sizeof(f.start_s));
      write_all(fd, f.payload.data(), f.payload.size());
    }
  }
}

/// Renders captures 0..n-1 in a child process and streams them back into
/// chunk storage allocated here. The renderer's scratch memory, FFT plans
/// and workspaces stay in the child, so this process's peak RSS is the
/// inputs plus the system under test, whatever sizes the renderer needed.
/// Call before this process starts any thread.
template <typename Make>
std::vector<Capture> render_captures(std::size_t n, Make make) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("input pipe: pipe() failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("input pipe: fork() failed");
  if (pid == 0) {
    ::close(fds[0]);
    int rc = 0;
    try {
      stream_captures(fds[1], n, make);
    } catch (...) {
      rc = 1;
    }
    ::close(fds[1]);
    ::_exit(rc);
  }
  ::close(fds[1]);
  std::vector<Capture> caps(n);
  try {
    for (auto& c : caps) {
      std::uint64_t samples = 0, frames = 0;
      read_all(fds[0], &samples, sizeof(samples));
      c.samples = samples;
      for (std::size_t at = 0; at < samples; at += kChunk) {
        c.chunks.emplace_back(std::min<std::size_t>(kChunk, samples - at));
        read_all(fds[0], c.chunks.back().data(),
                 c.chunks.back().size() * sizeof(cvec::value_type));
      }
      read_all(fds[0], &frames, sizeof(frames));
      c.truth.resize(frames);
      for (auto& f : c.truth) {
        std::uint64_t head[2] = {0, 0};
        read_all(fds[0], head, sizeof(head));
        read_all(fds[0], &f.start_s, sizeof(f.start_s));
        f.channel = head[0];
        f.payload.resize(head[1]);
        read_all(fds[0], f.payload.data(), f.payload.size());
      }
    }
  } catch (...) {
    ::close(fds[0]);
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    throw;
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("input renderer failed");
  return caps;
}

gw::GatewayConfig gateway_config() {
  gw::GatewayConfig cfg;
  cfg.phy = phy();
  cfg.sfs = {kSf};
  cfg.n_channels = kChannels;
  cfg.n_workers = 1;
  cfg.streaming.max_payload_bytes = 16;
  return cfg;
}

/// How one pass's emissions compare with the truth.
struct Score {
  std::size_t events = 0;
  std::size_t matched = 0;  ///< CRC-clean, (channel, payload) in the truth
  std::size_t wrong = 0;    ///< CRC-clean payload that no device sent
  bool operator==(const Score&) const = default;
};

struct Emission {
  std::size_t channel;
  bool crc_ok;
  std::vector<std::uint8_t> payload;
};

Score score(const std::vector<Emission>& events,
            const std::vector<gw::TrafficFrame>& truth) {
  std::map<std::pair<std::size_t, std::vector<std::uint8_t>>, int> want;
  std::map<std::vector<std::uint8_t>, int> sent;
  for (const auto& f : truth) {
    ++want[{f.channel, f.payload}];
    ++sent[f.payload];
  }
  Score s;
  s.events = events.size();
  for (const auto& e : events) {
    if (!e.crc_ok) continue;
    auto it = want.find({e.channel, e.payload});
    if (it != want.end() && it->second > 0) {
      --it->second;
      ++s.matched;
    } else if (sent.find(e.payload) == sent.end()) {
      ++s.wrong;  // duplicates and cross-channel copies are phantoms only
    }
  }
  return s;
}

std::vector<Emission> emissions(const std::vector<gw::GatewayEvent>& events) {
  std::vector<Emission> out;
  out.reserve(events.size());
  for (const auto& e : events)
    out.push_back({e.channel, e.user.crc_ok, e.user.payload});
  return out;
}

/// Per-capture results of a set of runtime rounds.
struct Rounds {
  std::vector<std::vector<double>> walls;  ///< [capture][pass] push+stop
  std::vector<Score> scores;               ///< first pass per capture
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t rounds = 0;

  /// A capture's fastest pass: the work is identical on every pass, and a
  /// shared host only ever slows a pass down.
  double capture_wall(std::size_t c) const {
    return *std::min_element(walls[c].begin(), walls[c].end());
  }
  double total_wall() const {
    double w = 0.0;
    for (std::size_t c = 0; c < walls.size(); ++c) w += capture_wall(c);
    return w;
  }
};

/// Replays every capture through a fresh GatewayRuntime, round after
/// round, while another round still fits in `budget_s` (at least one
/// round). With `spans`, the calls into the runtime are wrapped in spans.
Rounds run_rounds(const std::vector<Capture>& caps, double budget_s,
                  Spans* spans) {
  Rounds r;
  r.walls.resize(caps.size());
  const auto cfg = gateway_config();
  const auto t_start = Clock::now();
  do {
    for (std::size_t c = 0; c < caps.size(); ++c) {
      ScopedSpan pass(spans, "gateway.pass");
      std::unique_ptr<gw::GatewayRuntime> rt;
      {
        ScopedSpan s(spans, "GatewayRuntime::ctor", pass.id());
        rt = std::make_unique<gw::GatewayRuntime>(cfg);
      }
      const auto t1 = Clock::now();
      for (const auto& chunk : caps[c].chunks) {
        ScopedSpan s(spans, "GatewayRuntime::push", pass.id());
        rt->push(chunk);
      }
      std::vector<gw::GatewayEvent> events;
      {
        ScopedSpan s(spans, "GatewayRuntime::stop", pass.id());
        events = rt->stop();
      }
      r.walls[c].push_back(seconds_between(t1, Clock::now()));

      const Score sc = score(emissions(events), caps[c].truth);
      r.attempted += caps[c].truth.size();
      r.failed += sc.wrong;
      if (r.scores.size() <= c) {
        r.scores.push_back(sc);
      } else if (!(sc == r.scores[c])) {
        // The lossless runtime is deterministic: a different result on a
        // repeat pass means every frame of this pass is suspect.
        r.failed += caps[c].truth.size();
      }
    }
    ++r.rounds;
  } while (seconds_between(t_start, Clock::now()) *
               static_cast<double>(r.rounds + 1) /
               static_cast<double>(r.rounds) <=
           budget_s);
  return r;
}

struct SerialCosts {
  double wall_s = 0.0;
  std::vector<Score> scores;
};

/// One capture through the stages the runtime pipelines, run serially on
/// this thread: the channelizer over the whole capture, then one streaming
/// receiver per channel fed the same per-chunk slices the runtime queues.
SerialCosts serial_pass(const std::vector<Capture>& caps, Spans& spans) {
  SerialCosts out;
  const auto cfg = gateway_config();
  const auto t0 = Clock::now();
  for (const auto& cap : caps) {
    ScopedSpan whole(&spans, "serial.capture");
    gw::Channelizer channelizer(cfg.n_channels, cfg.channelizer);
    std::vector<std::vector<cvec>> slices;  // [chunk][channel]
    slices.reserve(cap.chunks.size());
    for (const auto& chunk : cap.chunks) {
      std::vector<cvec> out_ch(cfg.n_channels);
      ScopedSpan s(&spans, "Channelizer::push", whole.id());
      channelizer.push(chunk, out_ch);
      slices.push_back(std::move(out_ch));
    }
    std::vector<Emission> events;
    for (std::size_t ch = 0; ch < cfg.n_channels; ++ch) {
      auto sopt = cfg.streaming;
      sopt.obs_channel = static_cast<int>(ch);
      choir::rt::StreamingReceiver rx(
          cfg.phy, sopt, [&events, ch](const choir::rt::FrameEvent& ev) {
            events.push_back({ch, ev.user.crc_ok, ev.user.payload});
          });
      for (const auto& per_ch : slices) {
        if (per_ch[ch].empty()) continue;
        ScopedSpan s(&spans, "StreamingReceiver::push", whole.id());
        rx.push(per_ch[ch]);
      }
      ScopedSpan s(&spans, "StreamingReceiver::flush", whole.id());
      rx.flush();
    }
    out.scores.push_back(score(events, cap.truth));
  }
  out.wall_s = seconds_between(t0, Clock::now());
  return out;
}

/// Set-up cost: constructing the runtime (receivers, queues, worker
/// thread), timed `n` times; each instance is stopped unused.
std::vector<double> setup_times(int n) {
  const auto cfg = gateway_config();
  std::vector<double> out;
  for (int i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    gw::GatewayRuntime rt(cfg);
    out.push_back(seconds_between(t0, Clock::now()));
  }
  return out;
}

void report_e2e(const std::vector<Capture>& caps, const Rounds& r,
                const std::vector<double>& setups, Report& report) {
  std::size_t truth = 0, matched = 0, events = 0, samples = 0;
  for (std::size_t c = 0; c < caps.size(); ++c) {
    truth += caps[c].truth.size();
    samples += caps[c].samples;
    matched += r.scores[c].matched;
    events += r.scores[c].events;
  }
  const double wall = r.total_wall();
  const double goodput = static_cast<double>(matched) / wall;
  report.metric("goodput_fps", goodput, "1/s");
  report.metric("goodput_per_s", goodput, "1/s");
  report.metric("wideband_msps", static_cast<double>(samples) / wall / 1e6,
                "Msamples/s");
  report.metric("miss_ratio",
                static_cast<double>(truth - matched) / static_cast<double>(truth),
                "ratio");
  report.metric("phantom_ratio",
                static_cast<double>(events - matched) / static_cast<double>(truth),
                "ratio");
  report.metric("setup_s", summarize(setups).median, "s");

  std::vector<double> rates;
  for (std::size_t c = 0; c < caps.size(); ++c) {
    for (double w : r.walls[c])
      rates.push_back(static_cast<double>(caps[c].samples) / w / 1e6);
  }
  report.series("gateway.pass_msps", summarize(rates), "Msamples/s");
  report.series("gateway.setup_s", summarize(setups), "s");
  report.fact("captures", static_cast<double>(caps.size()));
  report.fact("rounds", static_cast<double>(r.rounds));
  report.fact("true_frames", static_cast<double>(truth));
  report.fact("delivered_frames", static_cast<double>(matched));
  report.fact("emissions", static_cast<double>(events));
  report.fact("wideband_samples", static_cast<double>(samples));
}

}  // namespace

void run_gateway(const Options& opt, bool collide, Report& report) {
  // One core decodes a capture in about a second. The sets are sized for
  // several rounds per run, so each capture's fastest pass is found: at the
  // benchmark's run length, 5 sparse captures (one per SNR step, 200 true
  // frames) and 4 collision captures (~320).
  const auto count = [&](double seconds_per_capture, std::size_t floor) {
    return std::max<std::size_t>(
        floor,
        static_cast<std::size_t>(std::lround(opt.seconds / seconds_per_capture)));
  };
  const std::vector<Capture> caps =
      collide ? render_captures(count(5.0, 2),
                                [&](std::size_t i) {
                                  return collide_capture(
                                      derive_seed(opt.seed, 200 + i));
                                })
              : render_captures(5 * count(15.0, 1), [&](std::size_t i) {
                  return sparse_capture(opt.seed, i);
                });
  const std::vector<double> setups = setup_times(31);
  run_rounds({caps.front()}, 0.0, nullptr);  // warm caches and plans

  if (!opt.trace) {
    const Rounds r = run_rounds(caps, opt.seconds, nullptr);
    report_e2e(caps, r, setups, report);
    report.outcome(r.failed == 0, r.attempted, r.failed);
    return;
  }

  // Untraced reference, then the traced runtime, then the serial split.
  const Rounds plain = run_rounds(caps, 0.4 * opt.seconds, nullptr);
  report_e2e(caps, plain, setups, report);

  Spans spans;
  RegistryDelta reg;
  const Rounds traced = run_rounds(caps, 0.3 * opt.seconds, &spans);
  const double rounds = static_cast<double>(traced.rounds);
  report.metric("trace.overhead_ratio", traced.total_wall() / plain.total_wall(),
                "ratio");
  report.metric("gateway.push_s", spans.total_s("GatewayRuntime::push") / rounds,
                "s");
  report.metric("gateway.stop_s", spans.total_s("GatewayRuntime::stop") / rounds,
                "s");
  report.metric("gateway.queue_wait_s",
                reg.hist_sum("gateway.queue.wait.us") / 1e6 / rounds, "s");
  report.metric("gateway.queue_high_water",
                static_cast<double>(reg.gauge("gateway.queue.high_water")),
                "count");

  // Warm this thread's DSP workspace and plan caches on one capture, then
  // decompose one full pass over the set.
  Spans warm_up;
  serial_pass({caps.front()}, warm_up);
  reg.rebase();
  const SerialCosts serial = serial_pass(caps, spans);
  const double channelize = spans.total_s("Channelizer::push");
  const double stream = spans.total_s("StreamingReceiver::push") +
                        spans.total_s("StreamingReceiver::flush");
  report.metric("gateway.channelize_s", channelize, "s");
  report.metric("rt.stream_s", stream, "s");
  report.metric("trace.serial_wall_s", serial.wall_s, "s");

  const double attempts = static_cast<double>(reg.counter("rt.decode_attempts"));
  const double users = reg.hist_sum("core.decode.users");
  report.metric("rt.scan_s", reg.hist_sum("rt.scan.us") / 1e6, "s");
  report.metric("rt.decode_attempts", attempts, "count");
  report.metric("rt.frames_emitted",
                static_cast<double>(reg.counter("rt.frames_emitted")), "count");
  report.metric("core.decode_s", reg.hist_sum("core.decode.us") / 1e6, "s");
  report.metric("core.estimate_s", reg.hist_sum("core.estimate.us") / 1e6, "s");
  report.metric("core.sic_rounds_per_attempt",
                attempts > 0 ? static_cast<double>(reg.counter(
                                   "core.decode.sic_rounds")) / attempts
                             : 0.0,
                "ratio");
  report.metric("core.residual_evals",
                static_cast<double>(reg.counter("core.residual.evals")),
                "count");
  report.metric("core.users_per_attempt", attempts > 0 ? users / attempts : 0.0,
                "ratio");
  report.metric("core.crc_ok_ratio",
                users > 0 ? static_cast<double>(
                                reg.counter("core.decode.crc_ok")) / users
                          : 0.0,
                "ratio");
  report.metric("dsp.fft_s", reg.hist_sum("dsp.fft.us") / 1e6, "s");
  report.metric("dsp.dechirp_windows",
                static_cast<double>(reg.counter("dsp.dechirp.windows")),
                "count");
  report.metric("dsp.workspace_allocs",
                static_cast<double>(reg.counter("dsp.workspace.allocs")),
                "count");

  std::uint64_t failed = plain.failed + traced.failed;
  for (std::size_t c = 0; c < caps.size(); ++c) {
    // The serial split decodes exactly what the runtime decodes.
    if (!(serial.scores[c] == plain.scores[c])) failed += caps[c].truth.size();
  }
  if (!opt.trace_out.empty()) spans.write(opt.trace_out);
  report.outcome(failed == 0, plain.attempted + traced.attempted, failed);
}

}  // namespace perfbench
