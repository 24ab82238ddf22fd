// The reactor's wake model: a reactor with nothing to do sleeps in its
// engine's Wait with no poll interval, and other threads ring its doorbell
// for exactly the work it cannot see on its own fds -- Stop(), drain start,
// a connection pushed onto its ring by a peer, a connection left queued for
// a parked thief. Each test sets up one of those situations with no other
// traffic (deadlines, migration and the watchdog off, so nothing else wakes
// a reactor) and checks that the work gets done, reading the wake counters
// (rt_doorbell_wakeups, rt_epoll_wakeups) rather than timing. Every test
// runs on both engines; the uring leg skips with the probe's reason on a
// kernel without io_uring. Repeated under ThreadSanitizer in CI, which is
// how lost-wakeup races show up.

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/fault/fault_plan.h"
#include "src/rt/load_client.h"
#include "src/rt/runtime.h"
#include "src/steer/skew.h"

namespace affinity {
namespace rt {
namespace {

bool WaitFor(const std::function<bool()>& cond, std::chrono::milliseconds timeout) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return cond();
}

void ExpectBooksBalance(const Runtime& runtime) {
  RtTotals totals = runtime.Totals();
  EXPECT_EQ(totals.accepted, totals.accounted())
      << "accepted=" << totals.accepted << " served=" << totals.served()
      << " drained=" << totals.drained_at_stop << " aborted=" << totals.aborted_at_stop;
  ASSERT_NE(runtime.conn_pool(), nullptr);
  EXPECT_EQ(runtime.conn_pool()->live_objects(), 0u);
}

// A blocking loopback connect with a 5 s read bound; -1 on failure.
int ConnectTcp(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  timeval tv;
  tv.tv_sec = 5;
  tv.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

// The accept workload's answer: one byte, then the server closes.
bool GotServed(int fd) {
  char byte = 0;
  ssize_t n;
  do {
    n = ::read(fd, &byte, 1);
  } while (n < 0 && errno == EINTR);
  return n == 1 && byte == 'A';
}

// Voluntary context switches summed over every thread of this process.
uint64_t VoluntarySwitches() {
  uint64_t total = 0;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) {
    return 0;
  }
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') {
      continue;
    }
    std::ifstream status(std::string("/proc/self/task/") + entry->d_name + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("voluntary_ctxt_switches:", 0) == 0) {
        total += std::strtoull(line.c_str() + std::strlen("voluntary_ctxt_switches:"), nullptr,
                               10);
      }
    }
  }
  ::closedir(dir);
  return total;
}

struct BackendCase {
  io::IoBackendKind kind;
  const char* name;
  fault::CallSite wait_site;  // the engine's blocking point, for stall plans
};
constexpr BackendCase kBackends[] = {
    {io::IoBackendKind::kEpoll, "epoll", fault::CallSite::kEpollWait},
    {io::IoBackendKind::kUring, "uring", fault::CallSite::kUringWait},
};

// Affinity mode with nothing that wakes a reactor on a timer: no deadlines
// (the default), no steering (so no migration tick), no watchdog.
RtConfig QuietConfig(const BackendCase& backend, int threads) {
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = threads;
  config.backend = backend.kind;
  return config;
}

// Starts `runtime`; on the uring leg of a kernel without io_uring, stops it
// and skips the rest of the test (the epoll leg has already run).
#define START_OR_SKIP_URING(runtime, backend)                                       \
  do {                                                                              \
    std::string start_error;                                                        \
    ASSERT_TRUE((runtime).Start(&start_error)) << start_error;                      \
    if ((runtime).io_backend() != (backend).kind) {                                 \
      std::string reason = (runtime).backend_fallback_reason();                     \
      (runtime).Stop();                                                             \
      GTEST_SKIP() << "uring unavailable: " << reason;                              \
    }                                                                               \
  } while (0)

// An idle runtime sleeps: its reactors make (almost) no voluntary context
// switches -- a 1 ms poll would make 300 per reactor here -- and a Stop()
// still wakes them at once.
TEST(RtWakeTest, IdleReactorsSleepAndStopWakesThem) {
  constexpr int kThreads = 2;
  for (const BackendCase& backend : kBackends) {
    SCOPED_TRACE(backend.name);
    Runtime runtime(QuietConfig(backend, kThreads));
    START_OR_SKIP_URING(runtime, backend);
    // One served connection proves the reactors are up and past start-up.
    int fd = ConnectTcp(runtime.port());
    ASSERT_GE(fd, 0);
    EXPECT_TRUE(GotServed(fd));
    ::close(fd);
    ASSERT_TRUE(WaitFor([&] { return runtime.Totals().served() == 1; },
                        std::chrono::seconds(5)));

    uint64_t before = VoluntarySwitches();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    uint64_t switches = VoluntarySwitches() - before;
    // This thread's own sleep, a sanitizer's background thread, the tail
    // of the served connection: a handful, nowhere near 300 per reactor.
    EXPECT_LE(switches, 10u * kThreads + 10u) << "idle reactors are polling";
    EXPECT_EQ(runtime.Totals().doorbell_wakeups, 0u) << "nothing but Stop() should ring";

    auto stop_start = std::chrono::steady_clock::now();
    runtime.Stop();
    auto stop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - stop_start)
                       .count();
    EXPECT_LT(stop_ms, 50) << "Stop() waited on a sleeping reactor";
    ExpectBooksBalance(runtime);
  }
}

// Stop(drain) must reach reactors asleep with no timeout: a parked reactor
// that missed the drain would keep its listen fd watched and accept a
// connection that arrives during the drain window.
TEST(RtWakeTest, DrainStartWakesParkedReactors) {
  for (const BackendCase& backend : kBackends) {
    SCOPED_TRACE(backend.name);
    RtConfig config = QuietConfig(backend, 2);
    config.workload = svc::WorkloadKind::kEcho;
    // A drain needs some deadline to end idle conns; this one never fires
    // here, and with no request on the held conn nothing is armed.
    config.idle_timeout_ms = 60'000;
    Runtime runtime(config);
    START_OR_SKIP_URING(runtime, backend);

    int held = ConnectTcp(runtime.port());
    ASSERT_GE(held, 0);
    ASSERT_TRUE(WaitFor([&] { return runtime.Totals().open_conns == 1; },
                        std::chrono::seconds(5)));

    std::thread stopper([&] { runtime.Stop(/*drain_deadline_ms=*/5000); });
    // The drain is open (the held conn keeps it open); any connection that
    // arrives now must stay in the kernel backlog, unaccepted.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    int late = ConnectTcp(runtime.port());
    ASSERT_GE(late, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_EQ(runtime.Totals().accepted, 1u) << "a reactor kept accepting into the drain";

    // Closing the held conn finishes the drain well before its deadline.
    auto close_at = std::chrono::steady_clock::now();
    ::close(held);
    stopper.join();
    EXPECT_LT(std::chrono::steady_clock::now() - close_at, std::chrono::seconds(2));
    ::close(late);

    RtTotals totals = runtime.Totals();
    EXPECT_EQ(totals.accepted, 1u);
    EXPECT_EQ(totals.drained_gracefully, 1u);
    EXPECT_GE(totals.doorbell_wakeups, 1u);
    ExpectBooksBalance(runtime);
  }
}

// Fallback steering: a connection that reaches reactor 0's shard but
// belongs to a flow group reactor 1 owns is pushed onto reactor 1's ring.
// Nothing on reactor 1's own fds fires for it; the push must ring it.
TEST(RtWakeTest, CrossRingPushIsServedWithNoOtherTraffic) {
  for (const BackendCase& backend : kBackends) {
    SCOPED_TRACE(backend.name);
    RtConfig config = QuietConfig(backend, 2);
    config.steer = true;
    config.steer_force_fallback = true;
    config.migrate_interval_ms = 0;  // the table stays put, no tick
    Runtime runtime(config);
    START_OR_SKIP_URING(runtime, backend);

    // One connection at a time, every one owned by reactor 1: about half
    // arrive on reactor 0's shard and cross.
    constexpr uint64_t kConns = 24;
    LoadClientConfig client_config;
    client_config.port = runtime.port();
    client_config.num_threads = 1;
    client_config.max_conns = kConns;
    client_config.connect_timeout_ms = 2000;
    client_config.src_ports = steer::SkewedSourcePorts(
        /*owner_core=*/1, /*num_cores=*/2, config.num_flow_groups, /*groups=*/8,
        /*ports_per_group=*/8, runtime.port());
    LoadClient client(client_config);
    client.Start();
    client.WaitForMaxConns();
    runtime.Stop();

    EXPECT_GE(client.completed(), kConns);
    EXPECT_EQ(client.timeouts(), 0u) << "a cross-ring push waited for a wakeup that never came";
    RtTotals totals = runtime.Totals();
    EXPECT_GE(totals.steer_cross_accepts, 1u);
    EXPECT_GE(runtime.reactor_stats(1).doorbell_wakeups, 1u);
    ExpectBooksBalance(runtime);
  }
}

// One reactor, accept_batch 1, four listeners whose connections all wait
// in the kernel while the reactor's first wait is stalled: one wakeup
// admits all four, and the ring (deeper than a batch) drains with no
// further event -- the reactor does not sleep on a non-empty ring.
TEST(RtWakeTest, RingDeeperThanABatchDrainsWithoutAnotherEvent) {
  constexpr int kListeners = 4;
  for (const BackendCase& backend : kBackends) {
    SCOPED_TRACE(backend.name);
    RtConfig config = QuietConfig(backend, 1);
    config.accept_batch = 1;
    config.extra_listeners.resize(kListeners - 1);
    for (RtConfig::ExtraListener& extra : config.extra_listeners) {
      extra.workload = svc::WorkloadKind::kAccept;
    }
    config.fault_plan = fault::FaultPlan::ReactorStall(/*core=*/0, /*after_calls=*/0,
                                                       /*stall_ms=*/500, backend.wait_site);
    Runtime runtime(config);
    START_OR_SKIP_URING(runtime, backend);
    ASSERT_TRUE(WaitFor([&] { return runtime.Totals().fault_injected >= 1; },
                        std::chrono::seconds(5)));

    std::vector<int> fds;
    for (int id = 0; id < kListeners; ++id) {
      int fd = ConnectTcp(runtime.listener_port(id));
      ASSERT_GE(fd, 0);
      fds.push_back(fd);
    }
    for (int fd : fds) {
      EXPECT_TRUE(GotServed(fd));
      ::close(fd);
    }
    ASSERT_TRUE(WaitFor([&] { return runtime.Totals().served() == kListeners; },
                        std::chrono::seconds(5)));
    RtTotals totals = runtime.Totals();
    // Fewer wakeups than connections: some connection was served on a pass
    // that no event started (each wakeup serves at most one batch of 1).
    EXPECT_LT(totals.epoll_wakeups, static_cast<uint64_t>(kListeners));
    runtime.Stop();
    ExpectBooksBalance(runtime);
  }
}

// The paper's polling rule (Section 3.3.1): a connection queued behind
// another on a busy owner wakes a parked non-busy peer, which steals it.
// Reactor 0 stalls while a burst queues on its shard, then serves slowly
// (every close delayed); reactor 1, idle and parked, gets rung and steals.
TEST(RtWakeTest, ConnectionQueuedBehindAnotherIsStolenByAParkedPeer) {
  constexpr int kConns = 32;
  for (const BackendCase& backend : kBackends) {
    SCOPED_TRACE(backend.name);
    RtConfig config = QuietConfig(backend, 2);
    config.fault_plan = fault::FaultPlan::ReactorStall(/*core=*/0, /*after_calls=*/0,
                                                       /*stall_ms=*/300, backend.wait_site);
    fault::FaultRule slow_close;
    slow_close.site = fault::CallSite::kClose;
    slow_close.core = 0;
    slow_close.action = fault::FaultAction::kDelay;
    slow_close.duration_us = 20'000;
    slow_close.count = 8;
    config.fault_plan.rules.push_back(slow_close);
    Runtime runtime(config);
    START_OR_SKIP_URING(runtime, backend);
    ASSERT_TRUE(WaitFor([&] { return runtime.Totals().fault_injected >= 1; },
                        std::chrono::seconds(5)));

    std::vector<int> fds;
    for (int i = 0; i < kConns; ++i) {
      int fd = ConnectTcp(runtime.port());
      ASSERT_GE(fd, 0);
      fds.push_back(fd);
    }
    for (int fd : fds) {
      EXPECT_TRUE(GotServed(fd));
      ::close(fd);
    }
    ASSERT_TRUE(WaitFor([&] { return runtime.Totals().served() == kConns; },
                        std::chrono::seconds(5)));
    runtime.Stop();

    EXPECT_GE(runtime.reactor_stats(1).doorbell_wakeups, 1u);
    EXPECT_GE(runtime.reactor_stats(1).steals, 1u);
    ExpectBooksBalance(runtime);
  }
}

}  // namespace
}  // namespace rt
}  // namespace affinity
