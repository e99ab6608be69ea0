// net_udp: loopback UDP into net::UdpIngestServer and a journaling
// net::NetServer (flush_every_records = 1), 16k devices, ~10% cross-gateway
// duplicates and ~5% FCnt replays. No DSP.
//
// Two phases share one pre-generated schedule:
//   * open loop  - 1-frame datagrams at a fixed offered rate; each frame is
//     timed from when it was due to be sent to its accept callback, so a
//     generator or server stall shows up on every frame queued behind it;
//   * closed loop - 16-frame datagrams with a bounded in-flight window, for
//     capacity (accepted frames per second over short slices).
// After each phase the server's counters must match the schedule exactly:
// a lost or misclassified frame is a failed one.
//
// The traced run repeats both phases with trace ids stamped on the CHOU v2
// records (turning on the server's own net.* spans), then times
// net::decode_datagram and NetServer::ingest_at on the same schedule
// in-process.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "common.hpp"
#include "net/server.hpp"
#include "net/udp.hpp"
#include "net/uplink.hpp"

namespace perfbench {

namespace {

namespace net = choir::net;
namespace fs = std::filesystem;

constexpr std::uint32_t kDevices = 16384;
constexpr unsigned kDupPct = 10;
constexpr unsigned kReplayPct = 5;
constexpr std::size_t kPayloadBytes = 12;
constexpr double kOpenRate = 50000.0;       ///< offered frames/s, open loop
constexpr std::size_t kBatch = 16;          ///< frames per closed-loop datagram
constexpr std::uint64_t kWindow = 64;       ///< closed-loop datagrams in flight
constexpr double kClosedCapFps = 500000.0;  ///< schedule headroom, closed loop
constexpr std::size_t kSlice = 1024;        ///< datagrams per capacity slice

enum class Kind : std::uint8_t { kNormal, kDup, kReplay };

struct Planned {
  std::uint32_t dev;
  std::uint32_t fcnt;
  std::uint32_t ref;  ///< payload tag: own index, or the original's for a dup
  Kind kind;
  std::uint8_t streak;  ///< consecutive dups of one original (SNR must rise)
};

/// The whole run's traffic, generated from the seed before timing.
std::vector<Planned> build_schedule(std::uint64_t seed, std::size_t n) {
  std::vector<Planned> out;
  out.reserve(n);
  std::uint64_t rng = derive_seed(seed, 300) | 1;
  const auto next = [&rng] {
    rng ^= rng >> 12;
    rng ^= rng << 25;
    rng ^= rng >> 27;
    return rng * 0x2545F4914F6CDD1DULL;
  };
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  std::vector<std::uint32_t> last_acc(kDevices, kNone);
  std::uint64_t normals = 0;
  std::size_t last_normal = n;
  std::uint8_t streak = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto roll = static_cast<unsigned>(next() % 100);
    if (roll < kDupPct && last_normal != n && streak < 200) {
      Planned p = out[last_normal];
      p.kind = Kind::kDup;
      p.streak = ++streak;
      out.push_back(p);
      continue;
    }
    const auto dev = static_cast<std::uint32_t>(normals % kDevices);
    if (roll < kDupPct + kReplayPct && last_acc[dev] != kNone) {
      out.push_back({dev, last_acc[dev], static_cast<std::uint32_t>(i),
                     Kind::kReplay, 0});
      continue;
    }
    const auto fcnt = static_cast<std::uint32_t>(normals / kDevices);
    out.push_back({dev, fcnt, static_cast<std::uint32_t>(i), Kind::kNormal, 0});
    last_acc[dev] = fcnt;
    last_normal = i;
    streak = 0;
    ++normals;
  }
  return out;
}

/// Builds the wire frame for schedule entry `p` into `f` (reusing its
/// payload storage).
void make_frame(const Planned& p, bool traced, std::uint64_t index,
                net::UplinkFrame& f) {
  f.gateway_id = p.kind == Kind::kDup ? 2 : 1;
  f.channel = static_cast<std::uint16_t>(p.dev & 7);
  f.sf = 8;
  f.dev_addr = p.dev;
  f.fcnt = p.fcnt;
  f.snr_db = -5.0f + static_cast<float>(p.dev % 20) + 1.5f * p.streak;
  f.cfo_bins = static_cast<float>(static_cast<int>(p.dev % 64) - 32) * 0.25f;
  f.timing_samples = 0.0f;
  f.trace_id = traced ? index + 1 : 0;
  f.emitted_unix_us = 0;
  f.payload.assign(kPayloadBytes, 0);
  f.payload[0] = static_cast<std::uint8_t>(p.dev);
  f.payload[1] = static_cast<std::uint8_t>(p.dev >> 8);
  f.payload[2] = static_cast<std::uint8_t>(p.fcnt);
  f.payload[3] = static_cast<std::uint8_t>(p.fcnt >> 8);
  f.payload[4] = static_cast<std::uint8_t>(p.fcnt >> 16);
  std::memcpy(f.payload.data() + 5, &p.ref, sizeof(p.ref));
  f.payload[11] = p.kind == Kind::kReplay ? 0xEE : 0x00;
}

std::uint32_t payload_ref(const net::UplinkFrame& f) {
  std::uint32_t ref = 0;
  std::memcpy(&ref, f.payload.data() + 5, sizeof(ref));
  return ref;
}

/// What the server must report for a schedule segment.
struct Expect {
  std::uint64_t sent = 0, normals = 0, dups = 0, replays = 0;
  void add(const Planned& p) {
    ++sent;
    switch (p.kind) {
      case Kind::kNormal: ++normals; break;
      case Kind::kDup: ++dups; break;
      case Kind::kReplay: ++replays; break;
    }
  }
};

std::uint64_t absdiff(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : b - a;
}

/// Frames lost or misclassified in a segment, from server counter deltas.
std::uint64_t mismatches(const Expect& e, const net::NetServerStats& before,
                         const net::NetServerStats& after) {
  return absdiff(after.uplinks - before.uplinks, e.sent) +
         absdiff(after.accepted - before.accepted, e.normals) +
         absdiff(after.dedup_dropped - before.dedup_dropped, e.dups) +
         absdiff(after.dedup_upgraded - before.dedup_upgraded, e.dups) +
         absdiff(after.replay_rejected - before.replay_rejected, e.replays) +
         (after.unknown_device - before.unknown_device) +
         (after.malformed - before.malformed);
}

net::NetServerConfig server_config(const std::string& dir) {
  net::NetServerConfig cfg;
  cfg.registry.shard_bits = 6;
  cfg.dedup.shard_bits = 6;
  // Wide enough that a duplicate never outlives its original's entry,
  // whatever stalls the loopback path.
  cfg.dedup.window_s = 1.0;
  cfg.keep_feed = false;
  cfg.persist.dir = dir;
  cfg.persist.flush_every_records = 1;
  return cfg;
}

/// Uplinks whose classification has completed: `uplinks` counts a frame
/// when its ingest starts, each outcome counter when it ends.
std::uint64_t classified(const net::NetServerStats& s) {
  return s.accepted + s.dedup_dropped + s.replay_rejected + s.unknown_device +
         s.malformed;
}

/// Waits until the server has classified `target` uplinks in total, or
/// gives up after `timeout_s` (lost datagrams never arrive).
void drain(const net::NetServer& server, std::uint64_t target,
           double timeout_s) {
  const auto t0 = Clock::now();
  while (classified(server.stats()) < target &&
         seconds_between(t0, Clock::now()) < timeout_s) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// The system under test plus the accept-callback probe.
struct Rig {
  // Accept-side latency probe. The sender publishes a phase by storing
  // open_end (release) after the other fields; the UDP receive thread
  // fills accept_us and bumps accepted_seen (release) per frame. Declared
  // first so it outlives the receive thread.
  Clock::time_point open_t0{};
  std::uint64_t open_first = 0;  ///< schedule index of the open phase's start
  std::atomic<std::uint64_t> open_end{0};
  std::vector<float> accept_us;  ///< per open-loop frame, -1 = not accepted
  std::atomic<std::uint64_t> accepted_seen{0};

  std::unique_ptr<net::NetServer> server;
  std::unique_ptr<net::UdpIngestServer> udp;  ///< stopped before server
  std::unique_ptr<net::UdpUplinkSender> sender;
};

struct OpenResult {
  std::vector<double> accept_us;
  std::vector<double> late_us;
  std::uint64_t failed = 0;
  std::uint64_t sent = 0;
};

OpenResult open_loop(Rig& rig, const std::vector<Planned>& sched,
                     std::size_t& cursor, double seconds, bool traced) {
  const auto n = static_cast<std::size_t>(kOpenRate * seconds);
  OpenResult r;
  r.late_us.reserve(n);
  Expect e;
  const net::NetServerStats before = rig.server->stats();
  const std::uint64_t seen0 = rig.accepted_seen.load();
  rig.accept_us.assign(n, -1.0f);
  rig.open_first = cursor;
  std::vector<net::UplinkFrame> one(1);
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  rig.open_t0 = t0;
  rig.open_end.store(cursor + n, std::memory_order_release);
  for (std::size_t i = 0; i < n; ++i) {
    const Planned& p = sched[cursor + i];
    make_frame(p, traced, cursor + i, one[0]);
    const auto due =
        t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(
                 1e9 * static_cast<double>(i) / kOpenRate));
    auto now = Clock::now();
    while (now < due) now = Clock::now();
    r.late_us.push_back(seconds_between(due, now) * 1e6);
    rig.sender->send(one);
    e.add(p);
  }
  cursor += n;
  drain(*rig.server, classified(before) + n, 5.0);
  // Every accepted frame's callback must have finished before accept_us
  // is read; a lost frame never calls back, so this wait is bounded too.
  const auto t_wait = Clock::now();
  while (rig.accepted_seen.load(std::memory_order_acquire) - seen0 <
             e.normals &&
         seconds_between(t_wait, Clock::now()) < 1.0) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const net::NetServerStats after = rig.server->stats();
  rig.open_end.store(0, std::memory_order_release);
  r.failed = mismatches(e, before, after);
  r.sent = n;
  // The first tenth warms the socket path and the registry's sessions; a
  // stall there would otherwise queue up behind it for the whole phase.
  const std::size_t warm = n / 10;
  r.late_us.erase(r.late_us.begin(),
                  r.late_us.begin() + static_cast<std::ptrdiff_t>(warm));
  for (std::size_t i = warm; i < n; ++i) {
    if (rig.accept_us[i] >= 0.0f) r.accept_us.push_back(rig.accept_us[i]);
  }
  return r;
}

struct ClosedResult {
  std::vector<double> slice_fps;  ///< accepted frames/s per slice
  double fps = 0.0;               ///< whole-phase accepted frames/s
  std::uint64_t failed = 0;
  std::uint64_t sent = 0;
  std::size_t first = 0;  ///< schedule range sent
};

ClosedResult closed_loop(Rig& rig, const std::vector<Planned>& sched,
                         std::size_t& cursor, double seconds, bool traced) {
  ClosedResult r;
  r.first = cursor;
  Expect e;
  const net::NetServerStats before = rig.server->stats();
  const std::uint64_t dgrams0 = rig.udp->datagrams_received();
  std::vector<net::UplinkFrame> batch(kBatch);
  const auto t0 = Clock::now();
  auto slice_t = t0;
  std::uint64_t slice_acc = before.accepted;
  std::uint64_t sent_dgrams = 0;
  bool stalled = false;
  while (!stalled && cursor + kBatch <= sched.size() &&
         seconds_between(t0, Clock::now()) < seconds) {
    const auto t_wait = Clock::now();
    while (sent_dgrams - (rig.udp->datagrams_received() - dgrams0) >= kWindow) {
      // A datagram lost on the way never completes; stop sending and let
      // the exact accounting below count the loss.
      if (seconds_between(t_wait, Clock::now()) > 2.0) {
        stalled = true;
        break;
      }
      // Sleep rather than spin: a spinning sender would compete with the
      // receive thread for the core (or its hyperthread sibling). The
      // window holds several milliseconds of work, so the server never idles.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    if (stalled) break;
    for (std::size_t k = 0; k < kBatch; ++k) {
      make_frame(sched[cursor + k], traced, cursor + k, batch[k]);
      e.add(sched[cursor + k]);
    }
    rig.sender->send(batch);
    cursor += kBatch;
    if (++sent_dgrams % kSlice == 0) {
      const auto now = Clock::now();
      const std::uint64_t acc = rig.server->stats().accepted;
      r.slice_fps.push_back(static_cast<double>(acc - slice_acc) /
                            seconds_between(slice_t, now));
      slice_t = now;
      slice_acc = acc;
    }
  }
  drain(*rig.server, classified(before) + e.sent, 5.0);
  const net::NetServerStats after = rig.server->stats();
  r.fps = static_cast<double>(after.accepted - before.accepted) /
          seconds_between(t0, Clock::now());
  r.failed = mismatches(e, before, after);
  r.sent = e.sent;
  return r;
}

/// Builds the server on a state directory that already holds 16k
/// provisioned devices, `reps` times (each construction recovers the
/// previous generation and seals a new one), and binds the UDP listener.
std::vector<double> set_up(Rig& rig, const std::string& dir, int reps) {
  {
    net::NetServer seed_state(server_config(dir));
    for (std::uint32_t d = 0; d < kDevices; ++d) seed_state.provision(d);
    seed_state.checkpoint();
  }
  std::vector<double> setups;
  for (int i = 0; i < reps; ++i) {
    rig.udp.reset();
    rig.server.reset();
    const auto t0 = Clock::now();
    rig.server = std::make_unique<net::NetServer>(server_config(dir));
    rig.udp = std::make_unique<net::UdpIngestServer>(
        *rig.server, std::uint16_t{0}, net::UdpIngestOptions{});
    setups.push_back(seconds_between(t0, Clock::now()));
    if (rig.server->registry().device_count() != kDevices)
      throw std::runtime_error("net_udp: recovery lost provisioned devices");
  }
  rig.server->set_callback([&rig](const net::UplinkFrame& f) {
    const std::uint64_t end = rig.open_end.load(std::memory_order_acquire);
    const std::uint64_t idx = payload_ref(f);
    // open_end first: a zero (no open phase) must not read open_first.
    if (idx >= end || idx < rig.open_first) return;
    const auto due = rig.open_t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(
                                       1e9 * static_cast<double>(idx - rig.open_first) /
                                       kOpenRate));
    rig.accept_us[idx - rig.open_first] =
        static_cast<float>(seconds_between(due, Clock::now()) * 1e6);
    rig.accepted_seen.fetch_add(1, std::memory_order_release);
  });
  rig.sender = std::make_unique<net::UdpUplinkSender>("127.0.0.1",
                                                      rig.udp->port());
  return setups;
}

struct Phases {
  OpenResult open;
  ClosedResult closed;
};

Phases run_phases(Rig& rig, const std::vector<Planned>& sched,
                  std::size_t& cursor, double open_s, double closed_s,
                  bool traced) {
  Phases p;
  p.open = open_loop(rig, sched, cursor, open_s, traced);
  p.closed = closed_loop(rig, sched, cursor, closed_s, traced);
  return p;
}

/// Accepted frames/s the server sustains: the 90th percentile of the
/// 1024-datagram slices, so a busy neighbour on a shared host (which only
/// ever slows slices down) moves some slices, not the result.
double capacity(const ClosedResult& c) {
  return c.slice_fps.size() >= 10 ? quantile(c.slice_fps, 0.9) : c.fps;
}

void report_e2e(const Phases& p, Report& report) {
  const Summary acc = summarize(p.open.accept_us);
  const Summary late = summarize(p.open.late_us);
  const double cap = capacity(p.closed);
  report.metric("accept_p50_us", acc.median, "us");
  report.metric("accept_p99_us", quantile(p.open.accept_us, 0.99), "us");
  report.metric("capacity_fps", cap, "1/s");
  report.metric("goodput_per_s", cap, "1/s");
  report.metric("gen.late_p99_us", quantile(p.open.late_us, 0.99), "us");
  report.metric("gen.late_max_us", quantile(p.open.late_us, 1.0), "us");
  report.series("net.accept_us", acc, "us");
  report.series("gen.late_us", late, "us");
  report.series("net.capacity_slice_fps", summarize(p.closed.slice_fps), "1/s");
  report.fact("open_offered_fps", kOpenRate);
  report.fact("open_frames", static_cast<double>(p.open.sent));
  report.fact("closed_frames", static_cast<double>(p.closed.sent));
}

}  // namespace

void run_net_udp(const Options& opt, Report& report) {
  // Phase lengths: the untraced run gives most of its time to the closed
  // loop; the traced run does both loops untraced, then again traced.
  const double open_s = (opt.trace ? 0.15 : 0.2) * opt.seconds;
  const double closed_s = (opt.trace ? 0.25 : 0.7) * opt.seconds;
  const std::size_t phase_frames = static_cast<std::size_t>(
      kOpenRate * open_s + kClosedCapFps * closed_s);
  const std::vector<Planned> sched =
      build_schedule(opt.seed, (opt.trace ? 2 : 1) * phase_frames + kBatch);

  const fs::path dir = fs::absolute(
      fs::path(".bench_build") / "perfbench-state" /
      ("net_udp-" + std::to_string(::getpid())));
  fs::remove_all(dir);
  fs::create_directories(dir);

  std::uint64_t attempted = 0, failed = 0;
  {
    Rig rig;
    const std::vector<double> setups = set_up(rig, dir.string(), 5);
    report.metric("setup_s", summarize(setups).median, "s");
    report.series("net.setup_s", summarize(setups), "s");

    std::size_t cursor = 0;
    const Phases plain =
        run_phases(rig, sched, cursor, open_s, closed_s, false);
    report_e2e(plain, report);
    attempted += plain.open.sent + plain.closed.sent;
    failed += plain.open.failed + plain.closed.failed;

    if (opt.trace) {
      Spans spans;
      RegistryDelta reg;
      const std::uint64_t dg0 = rig.udp->datagrams_received();
      const std::uint64_t err0 = rig.udp->decode_errors();
      const std::uint64_t drop0 = rig.udp->rcvbuf_dropped();
      const Phases traced =
          run_phases(rig, sched, cursor, open_s, closed_s, true);
      attempted += traced.open.sent + traced.closed.sent;
      failed += traced.open.failed + traced.closed.failed;
      const double frames =
          static_cast<double>(traced.open.sent + traced.closed.sent);
      report.metric("trace.overhead_ratio",
                    capacity(plain.closed) / capacity(traced.closed), "ratio");
      report.metric("net.udp_datagrams",
                    static_cast<double>(rig.udp->datagrams_received() - dg0),
                    "count");
      report.metric("net.udp_decode_errors",
                    static_cast<double>(rig.udp->decode_errors() - err0),
                    "count");
      report.metric("net.udp_rcvbuf_dropped",
                    static_cast<double>(rig.udp->rcvbuf_dropped() - drop0),
                    "count");
      report.metric("net.dedup_us_p50", reg.hist_quantile("net.dedup_us", 0.5),
                    "us");
      report.metric("net.replay_us_p50",
                    reg.hist_quantile("net.replay_us", 0.5), "us");
      report.metric("net.adr_us_p50", reg.hist_quantile("net.adr_us", 0.5), "us");
      report.metric("net.accept_us_p50",
                    reg.hist_quantile("net.accept_us", 0.5), "us");
      report.metric("net.accepted",
                    static_cast<double>(reg.counter("net.accepted")), "count");
      report.metric("net.dedup_dropped",
                    static_cast<double>(reg.counter("net.dedup_dropped")),
                    "count");
      report.metric("net.replay_rejected",
                    static_cast<double>(reg.counter("net.replay_rejected")),
                    "count");
      report.metric("persist.journal_us_p50",
                    reg.hist_quantile("net.persist.journal_us", 0.5), "us");
      report.metric("persist.flush_us_p50",
                    reg.hist_quantile("net.persist.flush_us", 0.5), "us");
      report.metric(
          "persist.flushes",
          static_cast<double>(reg.counter("net.persist.journal.flushes")),
          "count");
      report.metric(
          "persist.journal_bytes_per_frame",
          static_cast<double>(reg.counter("net.persist.journal.bytes")) / frames,
          "B");

      // In-process: the wire decoder on the closed-loop datagrams, then
      // ingest_at over the schedule prefix on a fresh journaling server.
      {
        std::vector<std::vector<std::uint8_t>> dgrams;
        std::vector<net::UplinkFrame> batch(kBatch);
        for (std::size_t at = traced.closed.first;
             at + kBatch <= traced.closed.first + traced.closed.sent;
             at += kBatch) {
          for (std::size_t k = 0; k < kBatch; ++k)
            make_frame(sched[at + k], true, at + k, batch[k]);
          dgrams.push_back(net::encode_datagram(batch, 0, kBatch));
        }
        std::vector<net::UplinkFrame> out;
        out.reserve(kBatch);
        for (const auto& d : dgrams) {
          out.clear();
          ScopedSpan s(&spans, "net::decode_datagram");
          if (!net::decode_datagram(d.data(), d.size(), out) ||
              out.size() != kBatch)
            ++failed;
        }
        report.metric("net.uplink_decode_us_per_dgram",
                      dgrams.empty() ? 0.0
                                     : spans.total_s("net::decode_datagram") *
                                           1e6 / static_cast<double>(dgrams.size()),
                      "us");
      }
      {
        const fs::path replay_dir = dir / "replay";
        net::NetServer replay(server_config(replay_dir.string()));
        const std::size_t n =
            std::min<std::size_t>(cursor, 200000) / kBatch * kBatch;
        std::vector<net::UplinkFrame> frames(n);
        Expect e;
        for (std::size_t i = 0; i < n; ++i) {
          make_frame(sched[i], false, i, frames[i]);
          e.add(sched[i]);
        }
        const net::NetServerStats before = replay.stats();
        for (std::size_t at = 0; at < n; at += kBatch) {
          ScopedSpan s(&spans, "NetServer::ingest_at");
          for (std::size_t k = at; k < at + kBatch; ++k)
            replay.ingest_at(std::move(frames[k]), static_cast<double>(k) * 1e-5);
        }
        failed += mismatches(e, before, replay.stats());
        attempted += n;
        report.metric("net.ingest_us_per_frame",
                      spans.total_s("NetServer::ingest_at") * 1e6 /
                          static_cast<double>(std::max<std::size_t>(n, 1)),
                      "us");
      }
      if (!opt.trace_out.empty()) spans.write(opt.trace_out);
    }
  }
  fs::remove_all(dir);
  report.outcome(failed == 0, attempted, std::min(failed, attempted));
}

}  // namespace perfbench
