// The per-connection syscall budget of the epoll accept path. A short
// connection should cost the reactor only syscalls that do work: the accept
// drain takes exactly the connections the kernel reports ready
// (SysIface::AcceptQueueLen), so no drain ends in a failing accept4, and a
// client's reset is closed on its error event without a read that could
// only return ECONNRESET. Each test runs the real runtime on loopback with
// its syscalls routed through a FaultInjector: FaultPlan::CountOnly injects
// nothing and turns the injector into a counting passthrough, and the
// fallback cases script the query's failure or use a UNIX listener, where
// the drain still runs until EAGAIN. Every case ends with the conservation
// ledger balanced. A last test pins the other per-connection cost taken off
// the path: the balancer's trace ring records decisions, not connections.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/fault/fault_plan.h"
#include "src/obs/trace_ring.h"
#include "src/rt/load_client.h"
#include "src/rt/runtime.h"

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

// Sums the injector's per-core counts of `site` over every reactor.
uint64_t Calls(const Runtime& runtime, fault::CallSite site) {
  uint64_t total = 0;
  for (int core = 0; core < runtime.config().num_threads; ++core) {
    total += runtime.injector()->calls(site, core);
  }
  return total;
}

uint64_t Errors(const Runtime& runtime, fault::CallSite site) {
  uint64_t total = 0;
  for (int core = 0; core < runtime.config().num_threads; ++core) {
    total += runtime.injector()->errors(site, core);
  }
  return total;
}

void SetReadTimeout(int fd) {
  timeval tv;
  tv.tv_sec = 5;
  tv.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
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
  SetReadTimeout(fd);
  return fd;
}

// Connects to a listener path as Runtime::listener_path reports it (a
// leading '@' names the abstract namespace).
int ConnectUnix(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.data(), path.size());
  if (path[0] == '@') {
    addr.sun_path[0] = '\0';
  }
  socklen_t len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + path.size());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), len) != 0) {
    ::close(fd);
    return -1;
  }
  SetReadTimeout(fd);
  return fd;
}

// One request/response round: sends `line` and reads the "<len>\n" header
// and exactly len payload bytes. True when the whole response arrived.
bool Fetch(int fd, const std::string& line) {
  if (::write(fd, line.data(), line.size()) != static_cast<ssize_t>(line.size())) {
    return false;
  }
  std::string got;
  char buf[1024];
  for (;;) {
    size_t nl = got.find('\n');
    if (nl != std::string::npos &&
        got.size() - nl - 1 >= std::strtoull(got.c_str(), nullptr, 10)) {
      return true;
    }
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    got.append(buf, static_cast<size_t>(n));
  }
}

// Closes with a reset (SO_LINGER{1, 0}), as perfbench's churn client does.
void RstClose(int fd) {
  linger lg{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  ::close(fd);
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

RtConfig CountedConfig(int threads, svc::WorkloadKind workload) {
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = threads;
  config.workload = workload;
  config.fault_plan = fault::FaultPlan::CountOnly();
  return config;
}

// The churn shape, one connection at a time: a static fetch, then the
// client's reset. Each connection costs exactly one queue query and one
// accept4 (no drain ends in EAGAIN), and the reset is closed without a read
// (no read fails with ECONNRESET).
TEST(RtAcceptBudgetTest, ResetStaticConnectionsCostNoFailingSyscall) {
  constexpr uint64_t kConns = 16;
  Runtime runtime(CountedConfig(2, svc::WorkloadKind::kStatic));
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;
  ASSERT_NE(runtime.injector(), nullptr);

  for (uint64_t i = 0; i < kConns; ++i) {
    int fd = ConnectTcp(runtime.port());
    ASSERT_GE(fd, 0);
    EXPECT_TRUE(Fetch(fd, "obj1\n"));
    RstClose(fd);
    ASSERT_TRUE(WaitFor([&] { return runtime.Totals().served() == i + 1; },
                        std::chrono::seconds(5)))
        << "connection " << i << " was not closed after its reset";
  }

  RtTotals totals = runtime.Totals();
  EXPECT_EQ(totals.accepted, kConns);
  EXPECT_EQ(totals.requests, kConns);
  EXPECT_EQ(Calls(runtime, fault::CallSite::kAccept4), kConns) << "a drain ended in EAGAIN";
  EXPECT_EQ(Calls(runtime, fault::CallSite::kAcceptQueueLen), kConns);
  EXPECT_EQ(Errors(runtime, fault::CallSite::kAcceptQueueLen), 0u);
  // Every read is the request or an EAGAIN before it arrived; none is the
  // reset's ECONNRESET.
  EXPECT_EQ(Errors(runtime, fault::CallSite::kRead), 0u) << "a reset socket was read";
  EXPECT_GE(Calls(runtime, fault::CallSite::kRead), kConns);
  runtime.Stop();
  ExpectBooksBalance(runtime);
}

// A burst deeper than accept_batch queues in the kernel while the only
// reactor's first wait is stalled. The drains take 4, 4, then 2: each
// bounded by the batch, none ending in EAGAIN, and all ten are served.
TEST(RtAcceptBudgetTest, BurstBeyondTheBatchDrainsInBoundedBatches) {
  constexpr int kConns = 10;
  constexpr int kBatch = 4;
  RtConfig config = CountedConfig(1, svc::WorkloadKind::kAccept);
  config.accept_batch = kBatch;
  config.fault_plan = fault::FaultPlan::ReactorStall(/*core=*/0, /*after_calls=*/0,
                                                     /*stall_ms=*/500);
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;
  ASSERT_TRUE(WaitFor([&] { return runtime.Totals().fault_injected >= 1; },
                      std::chrono::seconds(5)));

  std::vector<int> fds;
  for (int i = 0; i < kConns; ++i) {
    int fd = ConnectTcp(runtime.port());
    ASSERT_GE(fd, 0);
    fds.push_back(fd);
  }
  ASSERT_EQ(runtime.Totals().accepted, 0u) << "the stall ended before the burst queued";
  for (int fd : fds) {
    EXPECT_TRUE(GotServed(fd));
    ::close(fd);
  }
  ASSERT_TRUE(WaitFor([&] { return runtime.Totals().served() == kConns; },
                      std::chrono::seconds(5)));

  EXPECT_EQ(runtime.Totals().accepted, static_cast<uint64_t>(kConns));
  EXPECT_EQ(Calls(runtime, fault::CallSite::kAccept4), static_cast<uint64_t>(kConns))
      << "a drain ended in EAGAIN";
  // ceil(10 / 4) drains: any drain past the batch would make fewer.
  EXPECT_EQ(Calls(runtime, fault::CallSite::kAcceptQueueLen),
            static_cast<uint64_t>((kConns + kBatch - 1) / kBatch));
  runtime.Stop();
  ExpectBooksBalance(runtime);
}

// A query the kernel refuses leaves the old drain in place: each
// connection's drain runs on to an EAGAIN, and everything is served.
TEST(RtAcceptBudgetTest, FailedQueryFallsBackToTheDrainUntilEagain) {
  constexpr uint64_t kConns = 8;
  RtConfig config = CountedConfig(2, svc::WorkloadKind::kAccept);
  config.fault_plan = fault::FaultPlan::ErrnoBurst(fault::CallSite::kAcceptQueueLen, /*core=*/-1,
                                                   EOPNOTSUPP, /*after_calls=*/0, UINT64_MAX);
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  for (uint64_t i = 0; i < kConns; ++i) {
    int fd = ConnectTcp(runtime.port());
    ASSERT_GE(fd, 0);
    EXPECT_TRUE(GotServed(fd));
    ::close(fd);
    ASSERT_TRUE(WaitFor([&] { return runtime.Totals().served() == i + 1; },
                        std::chrono::seconds(5)));
  }

  EXPECT_EQ(runtime.Totals().accepted, kConns);
  EXPECT_EQ(runtime.Totals().fault_injected, Calls(runtime, fault::CallSite::kAcceptQueueLen));
  // One success and one EAGAIN per connection.
  EXPECT_EQ(Calls(runtime, fault::CallSite::kAccept4), 2 * kConns);
  runtime.Stop();
  ExpectBooksBalance(runtime);
}

// A UNIX listener has no TCP_INFO: it is never queried, and its drain runs
// on to an EAGAIN as before. The primary TCP listener sees no traffic.
TEST(RtAcceptBudgetTest, UnixListenerKeepsTheDrainUntilEagain) {
  constexpr uint64_t kConns = 8;
  RtConfig config = CountedConfig(2, svc::WorkloadKind::kAccept);
  RtConfig::ExtraListener unix_echo;
  unix_echo.is_unix = true;
  unix_echo.workload = svc::WorkloadKind::kEcho;
  config.extra_listeners.push_back(unix_echo);
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  for (uint64_t i = 0; i < kConns; ++i) {
    int fd = ConnectUnix(runtime.listener_path(1));
    ASSERT_GE(fd, 0);
    EXPECT_TRUE(Fetch(fd, "ping\n"));
    ::close(fd);
    ASSERT_TRUE(WaitFor([&] { return runtime.Totals().served() == i + 1; },
                        std::chrono::seconds(5)));
  }

  RtTotals totals = runtime.Totals();
  EXPECT_EQ(totals.accepted, kConns);
  EXPECT_EQ(totals.requests, kConns);
  EXPECT_EQ(Calls(runtime, fault::CallSite::kAcceptQueueLen), 0u);
  // Every drain ends in a failing accept4; a drain holds one connection
  // here, and a herd peer woken for it fails too.
  EXPECT_GE(Calls(runtime, fault::CallSite::kAccept4), 2 * kConns);
  runtime.Stop();
  ExpectBooksBalance(runtime);
}

// A steal recorded before a churn burst is still in the trace dump after
// it, though the burst serves several times the ring's capacity in
// connections: a connection opening or closing is not a balancer decision.
// The steal is forced as in RtWakeTest: reactor 0 stalls while connections
// queue on its shard, then serves slowly (each close delayed), and reactor
// 1, parked, is rung and steals. The burst is sequential, so its rings
// never reach the length that wakes a thief.
TEST(RtAcceptBudgetTest, TraceRingKeepsAStealThroughAChurnBurst) {
  constexpr int kQueued = 32;
  constexpr uint64_t kBurst = 400;
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = 2;
  config.trace_capacity = 128;
  config.fault_plan = fault::FaultPlan::ReactorStall(/*core=*/0, /*after_calls=*/0,
                                                     /*stall_ms=*/300);
  fault::FaultRule slow_close;
  slow_close.site = fault::CallSite::kClose;
  slow_close.core = 0;
  slow_close.action = fault::FaultAction::kDelay;
  slow_close.duration_us = 20'000;
  slow_close.count = 8;
  config.fault_plan.rules.push_back(slow_close);
  RtConfig::ExtraListener churn;
  churn.workload = svc::WorkloadKind::kStatic;
  config.extra_listeners.push_back(churn);
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;
  ASSERT_NE(runtime.trace(), nullptr);
  ASSERT_TRUE(WaitFor([&] { return runtime.Totals().fault_injected >= 1; },
                      std::chrono::seconds(5)));

  std::vector<int> fds;
  for (int i = 0; i < kQueued; ++i) {
    int fd = ConnectTcp(runtime.port());
    ASSERT_GE(fd, 0);
    fds.push_back(fd);
  }
  for (int fd : fds) {
    EXPECT_TRUE(GotServed(fd));
    ::close(fd);
  }
  ASSERT_TRUE(WaitFor([&] { return runtime.Totals().served() == kQueued; },
                      std::chrono::seconds(5)));
  std::vector<uint64_t> steals;
  for (const obs::TraceEvent& ev : runtime.trace()->Dump()) {
    if (ev.type == obs::TraceEventType::kSteal) {
      steals.push_back(ev.seq);
    }
  }
  ASSERT_FALSE(steals.empty()) << "no steal was forced";

  LoadClientConfig client_config;
  client_config.port = runtime.listener_port(1);
  client_config.num_threads = 1;
  client_config.max_conns = kBurst;
  client_config.workload = svc::WorkloadKind::kStatic;
  client_config.connect_timeout_ms = 2000;
  LoadClient client(client_config);
  client.Start();
  client.WaitForMaxConns();
  EXPECT_GE(client.completed(), kBurst);
  runtime.Stop();

  std::vector<obs::TraceEvent> after = runtime.trace()->Dump();
  for (uint64_t seq : steals) {
    bool kept = false;
    for (const obs::TraceEvent& ev : after) {
      kept = kept || (ev.seq == seq && ev.type == obs::TraceEventType::kSteal);
    }
    EXPECT_TRUE(kept) << "steal seq=" << seq << " was evicted by the burst";
  }
  ExpectBooksBalance(runtime);
}

}  // namespace
}  // namespace rt
}  // namespace affinity
