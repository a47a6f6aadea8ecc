// Deterministic fault injection for the coordination plane: every
// scenario drives real TCP traffic through a seeded net::ChaosProxy, so
// coordinator crashes, one-way links, hung daemons, and mangled frames
// become plain unit tests that replay identically from a seed.
#include <gtest/gtest.h>

#include <sys/epoll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/buffer.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/socket.h"
#include "runtime/client.h"
#include "runtime/coordinator.h"
#include "runtime/daemon.h"
#include "tests/helpers.h"
#include "tests/support/chaos.h"
#include "util/units.h"

namespace aalo::runtime {
namespace {

using namespace std::chrono_literals;

using testing::waitFor;

// ---------------------------------------------------------------------------
// ChaosProxy determinism: the same seed and frame sequence must produce the
// same mangled stream, byte for byte, and the same decision trace.

/// Accepts connections and records every well-formed frame payload it
/// receives (the length-prefixed framing is reassembled by Connection).
class FrameSink {
 public:
  FrameSink() {
    auto [fd, port] = net::listenTcp(0);
    listener_ = std::move(fd);
    port_ = port;
    loop_.add(listener_.get(), EPOLLIN, [this](std::uint32_t) { accept(); });
    thread_ = std::thread([this] { loop_.run(); });
  }

  ~FrameSink() {
    loop_.stop();
    if (thread_.joinable()) thread_.join();
    connections_.clear();
    if (listener_.valid()) loop_.remove(listener_.get());
  }

  std::uint16_t port() const { return port_; }

  std::vector<std::vector<std::uint8_t>> frames() const {
    std::lock_guard lock(mutex_);
    return frames_;
  }

  std::size_t frameCount() const {
    std::lock_guard lock(mutex_);
    return frames_.size();
  }

 private:
  void accept() {
    for (;;) {
      net::Fd fd = net::acceptTcp(listener_.get());
      if (!fd.valid()) break;
      connections_.push_back(std::make_unique<net::Connection>(
          loop_, std::move(fd),
          [this](net::Buffer& payload) {
            std::lock_guard lock(mutex_);
            frames_.emplace_back(payload.peek(),
                                 payload.peek() + payload.readableBytes());
          },
          [] {}));
    }
  }

  net::EventLoop loop_;
  net::Fd listener_;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::vector<std::unique_ptr<net::Connection>> connections_;
  mutable std::mutex mutex_;
  std::vector<std::vector<std::uint8_t>> frames_;
};

void writeAllBlocking(int fd, const std::uint8_t* data, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      std::this_thread::sleep_for(1ms);
      continue;
    }
    FAIL() << "write failed: errno=" << errno;
  }
}

struct MangleResult {
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<std::string> trace;
};

MangleResult runMangledStream(std::uint64_t seed) {
  FrameSink sink;

  net::ChaosProxyConfig pcfg;
  pcfg.upstream_port = sink.port();
  pcfg.seed = seed;
  pcfg.record_trace = true;
  pcfg.client_to_upstream.drop = 0.2;
  pcfg.client_to_upstream.duplicate = 0.2;
  pcfg.client_to_upstream.reorder = 0.25;
  pcfg.client_to_upstream.truncate = 0.15;
  pcfg.client_to_upstream.corrupt = 0.15;
  pcfg.client_to_upstream.max_write_bytes = 5;  // Shred write boundaries.
  net::ChaosProxy proxy(pcfg);
  proxy.start();

  net::Fd fd = net::connectTcp(proxy.port());
  // 120 frames, each 8 bytes of index plus 24 bytes of pattern — enough
  // payload that truncation and bit flips are visible in the output.
  net::Buffer stream;
  for (std::uint64_t i = 0; i < 120; ++i) {
    net::Buffer payload;
    payload.putU64(i);
    for (int j = 0; j < 24; ++j) {
      payload.putU8(static_cast<std::uint8_t>(i * 7 + static_cast<std::uint64_t>(j)));
    }
    stream.putU32(static_cast<std::uint32_t>(payload.readableBytes()));
    stream.append(payload.readable());
  }
  writeAllBlocking(fd.get(), stream.peek(), stream.readableBytes());

  // Wait until the sink has been quiet for a while (drop/reorder make the
  // exact frame count policy-dependent, but it is seed-deterministic).
  std::size_t last = 0;
  auto last_change = std::chrono::steady_clock::now();
  const auto start = last_change;
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    const std::size_t n = sink.frameCount();
    if (n != last) {
      last = n;
      last_change = now;
    }
    if (now - last_change > 400ms || now - start > 5s) break;
    std::this_thread::sleep_for(5ms);
  }

  MangleResult result;
  result.frames = sink.frames();
  result.trace = proxy.trace();
  proxy.stop();
  return result;
}

TEST(ChaosProxy, SameSeedProducesIdenticalMangledStream) {
  const MangleResult a = runMangledStream(1234);
  const MangleResult b = runMangledStream(1234);
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_FALSE(a.trace.empty());
  // Something actually happened to the stream.
  EXPECT_LT(a.frames.size(), 120u + 40u);
  EXPECT_FALSE(a.frames.empty());

  const MangleResult c = runMangledStream(9999);
  EXPECT_NE(a.trace, c.trace);
}

// ---------------------------------------------------------------------------
// The acceptance scenario: kill the coordinator mid-transfer, restart it on
// the same port, and require (a) every daemon reconnects with backoff,
// (b) post-restart schedules reflect pre-crash absolute sizes within one
// coordination round, (c) the coflow is never promoted above a queue it
// already left — and the whole event trace replays identically from a seed.

struct RestartTrace {
  /// Every distinct value queueOf() took at the byte-holding daemon, in
  /// order. Must be exactly {0, 1, 2}: register, demote at 3 MB, demote at
  /// 12 MB — and nothing else, ever, crash or no crash.
  std::vector<int> transitions;
  /// True if the far daemon (no local bytes) never saw a post-restart
  /// schedule place the coflow at queue 1: the restarted coordinator
  /// learned the absolute 12 MB from the first report instead of
  /// re-accumulating deltas through the 1-10 MB band.
  bool d2_recovered_absolute = false;
  bool d1_retried_with_backoff = false;
  bool both_daemons_reconnected = false;
};

RestartTrace runRestartScenario(std::uint64_t seed) {
  RestartTrace trace;

  CoordinatorConfig ccfg;
  ccfg.sync_interval = 0.005;
  ccfg.dclas.first_threshold = 1 * util::kMB;  // Thresholds 1 MB, 10 MB, ...
  auto coordinator = std::make_unique<Coordinator>(ccfg);
  coordinator->start();
  const std::uint16_t coord_port = coordinator->port();

  // The far daemon's broadcast path runs through seeded chaos: duplicated
  // and reordered schedules must be absorbed by the epoch guard.
  net::ChaosProxyConfig pcfg;
  pcfg.upstream_port = coord_port;
  pcfg.seed = seed;
  pcfg.upstream_to_client.duplicate = 0.2;
  pcfg.upstream_to_client.reorder = 0.2;
  pcfg.upstream_to_client.max_write_bytes = 16;
  net::ChaosProxy proxy(pcfg);
  proxy.start();

  DaemonConfig d1cfg;
  d1cfg.coordinator_port = coord_port;
  // The ids seed the reconnect jitter: each chaos seed draws its own.
  d1cfg.daemon_id = seed * 11 + 1;
  d1cfg.sync_interval = 0.005;
  d1cfg.reconnect_interval = 0.01;
  d1cfg.reconnect_max_backoff = 0.08;
  d1cfg.dclas.first_threshold = 1 * util::kMB;
  DaemonConfig d2cfg = d1cfg;
  d2cfg.coordinator_port = proxy.port();
  d2cfg.daemon_id = seed * 11 + 2;
  Daemon d1(d1cfg);
  Daemon d2(d2cfg);
  d1.start();
  d2.start();

  AaloClient client(coord_port);
  const auto id = client.registerCoflow();

  // Sample d1's queue assignment continuously; record every change.
  std::mutex sample_mutex;
  std::vector<int> transitions;
  std::atomic<bool> sampling{true};
  std::thread sampler([&] {
    int previous = -1;
    while (sampling.load(std::memory_order_relaxed)) {
      const int q = d1.queueOf(id);
      if (q != previous) {
        std::lock_guard lock(sample_mutex);
        transitions.push_back(q);
        previous = q;
      }
      std::this_thread::sleep_for(500us);
    }
  });
  waitFor([&] {
    std::lock_guard lock(sample_mutex);
    return !transitions.empty();
  });

  d1.reportBytes(id, 3 * util::kMB);  // Global 3 MB -> queue 1.
  waitFor([&] { return d1.queueOf(id) == 1 && d2.queueOf(id) == 1; });

  const std::uint64_t pre_attempts =
      d1.stats().reconnect_attempts.load(std::memory_order_relaxed);
  const std::uint64_t d1_pre_reconnects =
      d1.stats().reconnects.load(std::memory_order_relaxed);
  const std::uint64_t d2_pre_reconnects =
      d2.stats().reconnects.load(std::memory_order_relaxed);

  coordinator->stop();
  coordinator.reset();
  waitFor([&] { return !d1.connected() && !d2.connected(); });

  // Mid-outage traffic: local absolute size grows to 12 MB. The local
  // D-CLAS fallback must demote the coflow even without a coordinator.
  d1.reportBytes(id, 9 * util::kMB);
  waitFor([&] { return d1.queueOf(id) == 2; });
  // Let d1 fail several dials so the decorrelated-jitter backoff is
  // actually exercised (each failure schedules the next dial later).
  waitFor([&] {
    return d1.stats().reconnect_attempts.load(std::memory_order_relaxed) >=
           pre_attempts + 3;
  });

  // Restart on the same port: must be invisible to everyone.
  CoordinatorConfig restart_cfg = ccfg;
  restart_cfg.port = coord_port;
  coordinator = std::make_unique<Coordinator>(restart_cfg);
  coordinator->start();

  // d2 holds no local bytes: until a post-restart schedule arrives it
  // keeps returning the stale pre-crash value (1). Once new schedules
  // apply it may briefly see "not scheduled yet" (0), then must jump
  // straight to the absolute-size queue (2) — never 1 again, which would
  // mean the coordinator re-learned sizes gradually from deltas.
  std::vector<int> d2_values;
  waitFor([&] {
    const int q = d2.queueOf(id);
    if (d2_values.empty() || d2_values.back() != q) d2_values.push_back(q);
    return q == 2 && coordinator->daemonCount() == 2 && d1.connected() &&
           d2.connected();
  });
  bool saw_post_restart = false;
  bool relearned_gradually = false;
  for (const int q : d2_values) {
    if (q != 1) saw_post_restart = true;
    if (q == 1 && saw_post_restart) relearned_gradually = true;
  }
  trace.d2_recovered_absolute = !relearned_gradually && d2_values.back() == 2;

  sampling.store(false, std::memory_order_relaxed);
  sampler.join();

  trace.transitions = transitions;
  trace.d1_retried_with_backoff =
      d1.stats().reconnect_attempts.load(std::memory_order_relaxed) >=
      pre_attempts + 3;
  trace.both_daemons_reconnected =
      d1.stats().reconnects.load(std::memory_order_relaxed) >
          d1_pre_reconnects &&
      d2.stats().reconnects.load(std::memory_order_relaxed) > d2_pre_reconnects;

  d1.stop();
  d2.stop();
  proxy.stop();
  coordinator->stop();
  return trace;
}

TEST(Chaos, CoordinatorRestartRecoversAbsoluteSizesDeterministically) {
  const RestartTrace a = runRestartScenario(7);

  EXPECT_EQ(a.transitions, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(a.d2_recovered_absolute);
  EXPECT_TRUE(a.d1_retried_with_backoff);
  EXPECT_TRUE(a.both_daemons_reconnected);

  // Same seed, same event trace — the scenario is a replayable artifact.
  const RestartTrace b = runRestartScenario(7);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.d2_recovered_absolute, b.d2_recovered_absolute);
  EXPECT_EQ(a.d1_retried_with_backoff, b.d1_retried_with_backoff);
  EXPECT_EQ(a.both_daemons_reconnected, b.both_daemons_reconnected);
}

// ---------------------------------------------------------------------------
// Liveness eviction: a daemon whose reports stop (hung machine / dead
// send path) is evicted and its sizes dropped; it rejoins cleanly and
// re-teaches the coordinator from absolute local sizes.

TEST(Chaos, HungDaemonIsEvictedAndRejoins) {
  CoordinatorConfig ccfg;
  ccfg.sync_interval = 0.005;
  ccfg.liveness_timeout_intervals = 8;
  ccfg.dclas.first_threshold = 1 * util::kMB;
  Coordinator coordinator(ccfg);
  coordinator.start();

  net::ChaosProxyConfig pcfg;
  pcfg.upstream_port = coordinator.port();
  pcfg.seed = 42;
  net::ChaosProxy proxy(pcfg);
  proxy.start();

  DaemonConfig dcfg;
  dcfg.coordinator_port = proxy.port();
  dcfg.daemon_id = 3;
  dcfg.sync_interval = 0.005;
  dcfg.reconnect_interval = 0.01;
  dcfg.reconnect_max_backoff = 0.05;
  dcfg.stale_after_intervals = 8;
  dcfg.dclas.first_threshold = 1 * util::kMB;
  Daemon daemon(dcfg);
  daemon.start();

  AaloClient client(coordinator.port());
  const auto id = client.registerCoflow();
  daemon.reportBytes(id, 5 * util::kMB);
  waitFor([&] {
    return coordinator.daemonCount() == 1 && daemon.queueOf(id) == 1;
  });

  // Hang the daemon->coordinator direction only: reports vanish while the
  // TCP connection stays up. The coordinator must evict.
  net::ChaosPolicy hang;
  hang.blackhole = true;
  proxy.setPolicies(hang, {});
  waitFor([&] {
    return coordinator.stats().daemons_evicted.load(std::memory_order_relaxed) >=
               1 &&
           coordinator.daemonCount() == 0;
  });
  EXPECT_GE(proxy.stats().frames_blackholed.load(std::memory_order_relaxed), 1u);
  // The daemon's local demotion outlives the eviction (§3.2): the coflow
  // is never promoted back to queue 0 by the failure.
  EXPECT_GE(daemon.queueOf(id), 1);

  // Heal and force a clean redial (the half-dead session still exists).
  proxy.setPolicies({}, {});
  proxy.killLink();
  waitFor([&] {
    return coordinator.daemonCount() == 1 && daemon.connected();
  });
  // Absolute sizes re-teach the restarted aggregate within a round.
  waitFor([&] { return daemon.queueOf(id) == 1 && daemon.lastEpoch() >= 1; });
  EXPECT_GE(daemon.stats().reconnects.load(std::memory_order_relaxed), 2u);

  daemon.stop();
  proxy.stop();
  coordinator.stop();
}

// ---------------------------------------------------------------------------
// Duplicated/reordered broadcasts: old epochs must never overwrite newer
// state, and a coflow's queue must never move back up.

TEST(Chaos, DuplicatedAndReorderedBroadcastsNeverRegressState) {
  CoordinatorConfig ccfg;
  ccfg.sync_interval = 0.005;
  ccfg.dclas.first_threshold = 1 * util::kMB;
  Coordinator coordinator(ccfg);
  coordinator.start();

  net::ChaosProxyConfig pcfg;
  pcfg.upstream_port = coordinator.port();
  pcfg.seed = 5;
  pcfg.upstream_to_client.duplicate = 0.35;
  pcfg.upstream_to_client.reorder = 0.35;
  net::ChaosProxy proxy(pcfg);
  proxy.start();

  DaemonConfig dcfg;
  dcfg.coordinator_port = proxy.port();
  dcfg.daemon_id = 4;
  dcfg.sync_interval = 0.005;
  dcfg.dclas.first_threshold = 1 * util::kMB;
  Daemon daemon(dcfg);
  daemon.start();

  AaloClient client(coordinator.port());
  const auto id = client.registerCoflow();
  daemon.reportBytes(id, 3 * util::kMB);
  waitFor([&] { return daemon.queueOf(id) == 1; });

  // The epoch guard must be visibly absorbing duplicates/reordering.
  waitFor([&] {
    return daemon.stats().old_epoch_ignored.load(std::memory_order_relaxed) >= 3;
  });

  daemon.reportBytes(id, 9 * util::kMB);
  // While chaotic broadcasts keep arriving, the queue may only go down
  // (demotion) — never back up — and the applied epoch only forward.
  int max_queue = 1;
  std::uint64_t max_epoch = daemon.lastEpoch();
  for (int i = 0; i < 150; ++i) {
    const int q = daemon.queueOf(id);
    EXPECT_GE(q, max_queue) << "coflow promoted above a queue it left";
    max_queue = std::max(max_queue, q);
    const std::uint64_t e = daemon.lastEpoch();
    EXPECT_GE(e, max_epoch) << "applied epoch moved backwards";
    max_epoch = std::max(max_epoch, e);
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(max_queue, 2);  // 12 MB crossed the 10 MB threshold.
  EXPECT_GE(proxy.stats().frames_duplicated.load(std::memory_order_relaxed), 1u);
  EXPECT_GE(proxy.stats().frames_reordered.load(std::memory_order_relaxed), 1u);

  daemon.stop();
  proxy.stop();
  coordinator.stop();
}

// ---------------------------------------------------------------------------
// One-way link: the daemon's reports arrive but broadcasts never do. The
// daemon must degrade to local-only mode (stale schedule) and the
// coordinator must notice the stuck epoch echo and evict.

TEST(Chaos, OneWayLinkDegradesDaemonAndTripsEcho) {
  CoordinatorConfig ccfg;
  ccfg.sync_interval = 0.005;
  ccfg.liveness_timeout_intervals = 200;  // Reports keep flowing: must not trip.
  // Wide enough that the same-socket stale recovery below happens well
  // before an eviction could close the connection.
  ccfg.one_way_timeout_intervals = 60;
  Coordinator coordinator(ccfg);
  coordinator.start();

  net::ChaosProxyConfig pcfg;
  pcfg.upstream_port = coordinator.port();
  pcfg.seed = 11;
  net::ChaosProxy proxy(pcfg);
  proxy.start();

  DaemonConfig dcfg;
  dcfg.coordinator_port = proxy.port();
  dcfg.daemon_id = 5;
  dcfg.sync_interval = 0.005;
  dcfg.reconnect_interval = 0.01;
  dcfg.stale_after_intervals = 6;
  Daemon daemon(dcfg);
  daemon.start();
  waitFor([&] { return daemon.connected() && daemon.lastEpoch() >= 1; });

  // Broadcasts stop; the socket and the report path stay up.
  net::ChaosPolicy dead_receive;
  dead_receive.blackhole = true;
  proxy.setPolicies({}, dead_receive);

  // Stale-schedule degradation on an *open* socket — exactly the case a
  // plain connection check misses.
  waitFor([&] {
    return daemon.stats().stale_transitions.load(std::memory_order_relaxed) >=
               1 &&
           !daemon.connected();
  });
  // Documented local-mode behavior for unknown coflows.
  const coflow::CoflowId fresh{77, 0};
  EXPECT_EQ(daemon.queueOf(fresh), 0);
  EXPECT_TRUE(daemon.isOn(fresh));
  daemon.writerActive(fresh, true);
  EXPECT_TRUE(std::isinf(daemon.rateFor(fresh)));
  daemon.writerActive(fresh, false);

  // Heal while the connection is still alive: the daemon must recover on
  // the same socket without a reconnect.
  const auto reconnects_before =
      daemon.stats().reconnects.load(std::memory_order_relaxed);
  proxy.setPolicies({}, {});
  waitFor([&] {
    return daemon.connected() &&
           daemon.stats().stale_recoveries.load(std::memory_order_relaxed) >= 1;
  });
  EXPECT_EQ(daemon.stats().reconnects.load(std::memory_order_relaxed),
            reconnects_before);

  // Now leave the receive path dead long enough for the coordinator's
  // epoch-echo watchdog to evict the daemon.
  proxy.setPolicies({}, dead_receive);
  waitFor([&] {
    return coordinator.stats().one_way_evictions.load(
               std::memory_order_relaxed) >= 1;
  });

  // Full heal: clean redial, daemon counted again, schedule fresh.
  proxy.setPolicies({}, {});
  proxy.killLink();
  waitFor([&] {
    return coordinator.daemonCount() == 1 && daemon.connected();
  });

  daemon.stop();
  proxy.stop();
  coordinator.stop();
}

// ---------------------------------------------------------------------------
// Client RPCs survive a killed control connection.

TEST(Chaos, ClientSurvivesKilledRpcConnection) {
  CoordinatorConfig ccfg;
  ccfg.sync_interval = 0.005;
  Coordinator coordinator(ccfg);
  coordinator.start();

  net::ChaosProxyConfig pcfg;
  pcfg.upstream_port = coordinator.port();
  pcfg.seed = 3;
  net::ChaosProxy proxy(pcfg);
  proxy.start();

  ClientConfig cfg;
  cfg.coordinator_port = proxy.port();
  cfg.max_rpc_attempts = 20;
  cfg.retry_backoff = 0.01;
  cfg.retry_max_backoff = 0.05;
  AaloClient client(cfg);
  const auto a = client.registerCoflow();

  // Sever the live session AND refuse redials. A probe connection that
  // gets refused proves the link-down takeover (and the sever of the
  // client's session, done in the same step) has been processed before
  // the next RPC starts — so that RPC must observe the failure and retry.
  proxy.setLinkUp(false);
  waitFor([&] {
    net::Fd probe;
    try {
      probe = net::connectTcp(proxy.port());
    } catch (const std::system_error&) {
      return false;
    }
    (void)probe;
    return proxy.stats().sessions_refused.load(std::memory_order_relaxed) >= 1;
  });
  coflow::CoflowId b{};
  std::thread rpc([&] { b = client.registerCoflow(); });
  waitFor([&] {
    return proxy.stats().sessions_refused.load(std::memory_order_relaxed) >= 2;
  });
  proxy.setLinkUp(true);
  rpc.join();

  EXPECT_NE(a, b);
  EXPECT_GE(client.stats().rpc_retries.load(std::memory_order_relaxed), 1u);
  EXPECT_GE(client.stats().rpc_reconnects.load(std::memory_order_relaxed), 1u);

  // The reconnected session carries further RPCs fine.
  client.unregisterCoflow(a);
  client.unregisterCoflow(b);
  waitFor([&] { return coordinator.registeredCoflows() == 0; });

  proxy.stop();
  coordinator.stop();
}

// ---------------------------------------------------------------------------
// Corruption soak: truncated, bit-flipped, dropped, delayed frames and
// shredded write boundaries in both directions must never take the control
// plane down; malformed frames are counted and dropped.

TEST(Chaos, ControlPlaneSurvivesCorruptionSoak) {
  CoordinatorConfig ccfg;
  ccfg.sync_interval = 0.005;
  ccfg.liveness_timeout_intervals = 60;  // Lossy reports must not evict.
  ccfg.one_way_timeout_intervals = 0;    // Lossy echo path: disable.
  Coordinator coordinator(ccfg);
  coordinator.start();

  net::ChaosPolicy nasty;
  nasty.drop = 0.15;
  nasty.truncate = 0.2;
  nasty.corrupt = 0.2;
  nasty.delay = 0.15;
  nasty.delay_min = 0.0005;
  nasty.delay_max = 0.002;
  nasty.max_write_bytes = 9;
  net::ChaosProxyConfig pcfg;
  pcfg.upstream_port = coordinator.port();
  pcfg.seed = 99;
  pcfg.client_to_upstream = nasty;
  pcfg.upstream_to_client = nasty;
  net::ChaosProxy proxy(pcfg);
  proxy.start();

  DaemonConfig dcfg;
  dcfg.coordinator_port = proxy.port();
  dcfg.daemon_id = 6;
  dcfg.sync_interval = 0.005;
  dcfg.reconnect_interval = 0.01;
  dcfg.stale_after_intervals = 60;
  Daemon daemon(dcfg);
  daemon.start();

  AaloClient client(coordinator.port());  // Clean path: must stay served.
  const auto id = client.registerCoflow();
  for (int i = 0; i < 30; ++i) {
    daemon.reportBytes(id, util::kMB / 2);
    std::this_thread::sleep_for(2ms);
  }

  // Truncation guarantees decode failures; both ends must count and drop
  // them without dying.
  waitFor([&] {
    return coordinator.stats().malformed_frames.load(std::memory_order_relaxed) +
               daemon.stats().malformed_frames.load(std::memory_order_relaxed) >=
           3;
  });
  EXPECT_GE(proxy.stats().frames_truncated.load(std::memory_order_relaxed), 1u);
  EXPECT_GE(proxy.stats().frames_corrupted.load(std::memory_order_relaxed), 1u);

  // The coordinator still schedules and still serves clean clients.
  const std::uint64_t epoch_before = coordinator.epoch();
  waitFor([&] { return coordinator.epoch() > epoch_before + 5; });
  AaloClient second(coordinator.port());
  const auto id2 = second.registerCoflow();
  EXPECT_NE(id, id2);
  second.unregisterCoflow(id2);

  daemon.stop();
  proxy.stop();
  coordinator.stop();
}

}  // namespace
}  // namespace aalo::runtime
