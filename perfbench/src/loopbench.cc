// loopbench: drives a live rt::Runtime over loopback with the open-loop
// generator and reports end-to-end or per-layer metrics for one workload.
//
//   loopbench --workload keepalive|churn|skew --seed N --seconds S --trace 0|1
//             [--spans FILE]
//
// Reactors pin to CPUs [0, R) with R = nproc/2; the generator's nproc - R
// threads pin to [R, nproc). Every layer is measured from outside: by timing
// the calls this program makes, and by reading Runtime::Totals() and /proc.
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the exit code is 0 only when every response byte was right and
// every ledger balanced. README.md has the metric map.

#include <errno.h>
#include <fcntl.h>
#include <malloc.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "generator.h"
#include "procfs.h"
#include "src/io/io_backend.h"
#include "src/rt/runtime.h"
#include "src/steer/flow_director.h"
#include "src/steer/skew.h"
#include "src/topo/topology.h"
#include "stats.h"

namespace perfbench {
namespace {

using affinity::rt::RtConfig;
using affinity::rt::RtTotals;
using affinity::rt::Runtime;

constexpr uint64_t kMs = 1'000'000;
// Warm-up before the window: connections, caches and the balancer settle.
constexpr uint64_t kWarmupNs = 1000 * kMs;
// The window is cut into slices, sampled at each edge. End-to-end figures
// come from the slices and set-ups whose hypervisor steal is at most that of
// the quietest kQuietShare of them (QuietMedian).
constexpr uint64_t kSliceNs = 100 * kMs;
constexpr double kQuietShare = 0.2;
// Runtime set-ups timed per run (after kWarmSetups untimed ones).
constexpr int kSetupCycles = 100;
constexpr int kWarmSetups = 3;
// Static object table: the churn and skew fetches. 1 KiB sits inside the
// paper's 30-5670 B object-size mix.
constexpr int kNumObjects = 64;
constexpr int kObjectBytes = 1024;
constexpr int kEchoBytes = 64;
// Deadlines far beyond any response time: armed on every connection, they
// must never fire.
constexpr int kDeadlineMs = 30000;
constexpr uint32_t kFlowGroups = 4096;  // RtConfig's default
// The runtime counts a connection's requests in 16 bits and mis-counts its
// 65536th (README: "Known runtime defect"). Keepalive runs whose connections
// would come near that fail before they start; the margin covers uneven
// round-robin between a thread's connections.
constexpr double kMaxRequestsPerConn = 60000;

struct WorkloadSpec {
  const char* name;
  bool keepalive;
  bool skewed;
  // Offered load, sized so requests rarely wait for a free connection with
  // at most nproc connections open (README: "Rates").
  double rate_per_s;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"keepalive", true, false, 20000},
    {"churn", false, false, 8000},
    {"skew", false, true, 8000},
};

struct Args {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (std::strcmp(w.name, v) == 0) {
          a->workload = &w;
        }
      }
      if (a->workload == nullptr) {
        return false;
      }
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atoi(v);
    } else if (key == "--trace") {
      a->trace = std::strcmp(v, "1") == 0;
    } else if (key == "--spans") {
      a->spans_path = v;
    } else {
      return false;
    }
  }
  return a->workload != nullptr && a->seconds >= 1 && a->seconds <= 600 && argc % 2 == 1;
}

RtConfig MakeConfig(const WorkloadSpec& w, int reactors) {
  RtConfig c;  // affinity mode, epoll, topo=auto
  c.num_threads = reactors;
  c.steer = true;
  c.workload = w.keepalive ? affinity::svc::WorkloadKind::kEcho
                           : affinity::svc::WorkloadKind::kStatic;
  c.handler.num_objects = kNumObjects;
  c.handler.object_bytes = kObjectBytes;
  c.handshake_timeout_ms = kDeadlineMs;
  c.idle_timeout_ms = kDeadlineMs;
  c.read_timeout_ms = kDeadlineMs;
  c.write_timeout_ms = kDeadlineMs;
  return c;
}

// Keepalive and churn spread their source ports evenly over every flow
// group, so connections split evenly over the reactors; skew uses as many
// ports, all from groups the initial steering table gives to reactor 0.
std::vector<uint16_t> SourcePorts(const WorkloadSpec& w, int reactors, uint16_t listen_port) {
  int ports_per_group = 2 * reactors;
  if (w.skewed) {
    return affinity::steer::SkewedSourcePorts(0, reactors, kFlowGroups,
                                              static_cast<int>(kFlowGroups) / reactors,
                                              ports_per_group, listen_port);
  }
  return affinity::steer::SkewedSourcePorts(0, 1, kFlowGroups, static_cast<int>(kFlowGroups), 2,
                                            listen_port);
}

// One blocking request on a fresh connection: the "listener accepts" probe
// that ends a timed set-up. Checks the response like the generator does.
bool Probe(const WorkloadSpec& w, uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string expect = w.keepalive ? "5\nprobe" : "1024\n" + std::string(kObjectBytes, 'a');
  const char* req = w.keepalive ? "probe\n" : "obj0\n";
  bool ok = connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0 &&
            send(fd, req, std::strlen(req), MSG_NOSIGNAL) == static_cast<ssize_t>(std::strlen(req));
  std::string got;
  char buf[2048];
  while (ok && got.size() < expect.size()) {
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      ok = false;
    } else {
      got.append(buf, static_cast<size_t>(n));
    }
  }
  linger lg{1, 0};
  setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  close(fd);
  return ok && got == expect;
}

struct SetupTimes {
  std::vector<double> setup_s;
  std::vector<uint64_t> steal;  // steal jiffies during each set-up
  std::vector<double> start_us;
  std::vector<double> stop_us;
  std::vector<Span> spans;
};

// Builds, starts and probes a Runtime; appends the construct/start spans.
std::unique_ptr<Runtime> SetUp(const WorkloadSpec& w, const RtConfig& config, uint64_t cycle,
                               SetupTimes* times, std::string* error) {
  uint64_t steal0 = 0;
  ParseStealJiffies(ReadFile("/proc/stat"), &steal0);
  uint64_t t0 = NowNs();
  auto rt = std::make_unique<Runtime>(config);
  uint64_t t1 = NowNs();
  if (!rt->Start(error)) {
    return nullptr;
  }
  uint64_t t2 = NowNs();
  if (!Probe(w, rt->port())) {
    *error = "set-up probe got no correct response";
    return nullptr;
  }
  uint64_t t3 = NowNs();
  uint64_t steal1 = 0;
  ParseStealJiffies(ReadFile("/proc/stat"), &steal1);
  times->setup_s.push_back(static_cast<double>(t3 - t0) / 1e9);
  times->steal.push_back(steal1 - steal0);
  times->start_us.push_back(static_cast<double>(t2 - t1) / 1e3);
  times->spans.push_back(Span{cycle, SpanKind::kConstruct, t0, t1});
  times->spans.push_back(Span{cycle, SpanKind::kStart, t1, t2});
  return rt;
}

void TimedStop(Runtime* rt, uint64_t cycle, SetupTimes* times) {
  uint64_t t0 = NowNs();
  rt->Stop();
  uint64_t t1 = NowNs();
  times->stop_us.push_back(static_cast<double>(t1 - t0) / 1e3);
  times->spans.push_back(Span{cycle, SpanKind::kStop, t0, t1});
}

void SleepUntil(uint64_t t_ns) {
  timespec ts{static_cast<time_t>(t_ns / 1'000'000'000ull),
              static_cast<long>(t_ns % 1'000'000'000ull)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

uint64_t ReadVmHwmKb() {
  uint64_t kb = 0;
  ParseStatusField(ReadFile("/proc/self/status"), "VmHWM", &kb);
  return kb;
}

// Returns freed heap to the kernel and restarts VmHWM from the current RSS,
// so the peak no longer holds the set-up cycles' runtimes. False if the
// kernel refused the reset.
bool ResetVmHwm() {
  malloc_trim(0);
  int fd = open("/proc/self/clear_refs", O_WRONLY | O_CLOEXEC);
  if (fd < 0) {
    return false;
  }
  bool ok = write(fd, "5", 1) == 1;
  close(fd);
  return ok;
}

struct HostSample {
  uint64_t steal = 0;
  uint64_t psi_us = 0;
  bool psi = false;
  uint64_t listen_drops = 0;
};

HostSample SampleHost() {
  HostSample h;
  ParseStealJiffies(ReadFile("/proc/stat"), &h.steal);
  h.psi = ParsePsiSomeTotalUs(ReadFile("/proc/pressure/cpu"), &h.psi_us);
  std::string netstat = ReadFile("/proc/net/netstat");
  uint64_t overflows = 0;
  uint64_t drops = 0;
  ParseNetstat(netstat, "TcpExt", "ListenOverflows", &overflows);
  ParseNetstat(netstat, "TcpExt", "ListenDrops", &drops);
  h.listen_drops = overflows + drops;
  return h;
}

// Per-reactor-thread schedstat + context switches at one instant.
struct TaskSnapshot {
  uint64_t at = 0;
  uint64_t steal = 0;
  std::vector<TaskSample> tasks;
};

TaskSnapshot SampleTasks(const std::vector<int>& tids) {
  TaskSnapshot s;
  s.tasks.resize(tids.size());
  for (size_t i = 0; i < tids.size(); ++i) {
    ReadTask(tids[i], &s.tasks[i]);
  }
  s.at = NowNs();
  ParseStealJiffies(ReadFile("/proc/stat"), &s.steal);
  return s;
}

std::vector<Bucket> Buckets(const affinity::Histogram& h) {
  std::vector<Bucket> out;
  uint64_t prev = 0;
  for (const auto& p : h.CumulativeCounts()) {
    int b = affinity::Histogram::BucketFor(p.value);
    out.push_back(Bucket{static_cast<double>(p.value),
                         static_cast<double>(affinity::Histogram::BucketValue(b + 1)),
                         p.cumulative - prev});
    prev = p.cumulative;
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: loopbench --workload keepalive|churn|skew --seed N --seconds S "
                 "--trace 0|1 [--spans FILE]\n");
    return 2;
  }
  const WorkloadSpec& w = *args.workload;

  // CPU partition: reactors on [0, R), generator threads on [R, nproc).
  int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  bool oversubscribed = nproc < 2;
  int reactors = std::max(1, nproc / 2);
  int gen_threads = std::max(1, nproc - reactors);
  std::vector<int> gen_cpus;
  for (int c = reactors; c < nproc; ++c) {
    gen_cpus.push_back(c);
  }
  if (gen_cpus.empty()) {
    gen_cpus.push_back(0);
  }
  // This thread samples counters; keep it (and the threads it spawns before
  // they pin themselves) off the reactors' CPUs.
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : gen_cpus) {
    CPU_SET(c, &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);

  RtConfig config = MakeConfig(w, reactors);
  std::string error;

  // Set-up cost: construct + Start() + one answered probe, timed many times.
  SetupTimes setup;
  SetupTimes warm;
  for (int c = 0; c < kWarmSetups + kSetupCycles; ++c) {
    SetupTimes* into = c < kWarmSetups ? &warm : &setup;
    std::unique_ptr<Runtime> rt = SetUp(w, config, static_cast<uint64_t>(c), into, &error);
    if (rt == nullptr) {
      std::fprintf(stderr, "loopbench: set-up failed: %s\n", error.c_str());
      return 2;
    }
    TimedStop(rt.get(), static_cast<uint64_t>(c), into);
  }
  bool hwm_reset = ResetVmHwm();

  // The measured runtime. Its reactors are the threads Start() adds.
  std::vector<int> before = ListTasks();
  std::unique_ptr<Runtime> rt =
      SetUp(w, config, static_cast<uint64_t>(kWarmSetups + kSetupCycles), &warm, &error);
  if (rt == nullptr) {
    std::fprintf(stderr, "loopbench: set-up failed: %s\n", error.c_str());
    return 2;
  }
  std::vector<int> reactor_tids;
  for (int tid : ListTasks()) {
    if (!std::binary_search(before.begin(), before.end(), tid)) {
      reactor_tids.push_back(tid);
    }
  }
  const uint64_t probes = 1;  // the measured runtime's own set-up probe

  GenConfig g;
  g.keepalive = w.keepalive;
  g.port = rt->port();
  g.seed = args.seed;
  g.rate_per_s = w.rate_per_s;
  g.threads = gen_threads;
  g.cpus = gen_cpus;
  g.slots = std::max(1, nproc / gen_threads);
  if (w.keepalive) {
    double per_conn = w.rate_per_s * (static_cast<double>(kWarmupNs) / 1e9 + args.seconds) /
                      (g.slots * gen_threads);
    if (per_conn > kMaxRequestsPerConn) {
      std::fprintf(stderr,
                   "loopbench: keepalive would carry about %.0f requests per connection "
                   "(%d connections, %d s); the runtime's 16-bit per-connection round counter "
                   "(ConnState::rounds_done) wraps at 65536 and stalls the reactor. "
                   "Use fewer --seconds or more CPUs.\n",
                   per_conn, g.slots * gen_threads, args.seconds);
      return 2;
    }
  }
  g.payload_bytes = kEchoBytes;
  g.num_objects = kNumObjects;
  g.object_bytes = kObjectBytes;
  g.src_ports = SourcePorts(w, reactors, rt->port());
  g.warmup_ns = kWarmupNs;
  g.window_ns = static_cast<uint64_t>(args.seconds) * 1000 * kMs;
  g.slice_ns = kSliceNs;
  g.trace = args.trace;
  Generator gen(g);
  if (!gen.Prepare(&error)) {
    std::fprintf(stderr, "loopbench: generator set-up failed: %s\n", error.c_str());
    return 2;
  }
  uint64_t hwm_start_kb = ReadVmHwmKb();

  // Run: warm-up, then the window sampled at every slice edge.
  uint64_t start = NowNs() + 20 * kMs;
  uint64_t warm_end = start + kWarmupNs;
  int slices = static_cast<int>(g.window_ns / kSliceNs);
  gen.Go(start);
  SleepUntil(warm_end);
  RtTotals t0 = rt->Totals();
  uint64_t r0_acc0 = rt->reactor_stats(0).accepted;
  HostSample h0 = SampleHost();
  std::vector<TaskSnapshot> snaps;
  snaps.push_back(SampleTasks(reactor_tids));
  for (int k = 1; k <= slices; ++k) {
    SleepUntil(warm_end + static_cast<uint64_t>(k) * kSliceNs);
    snaps.push_back(SampleTasks(reactor_tids));
  }
  RtTotals t1 = rt->Totals();
  uint64_t r0_acc1 = rt->reactor_stats(0).accepted;
  HostSample h1 = SampleHost();
  uint64_t window_end = warm_end + g.window_ns;
  gen.Join();
  // Let the server see the keepalive closes before stopping it.
  for (int i = 0; i < 1000 && rt->Totals().open_conns != 0; ++i) {
    SleepUntil(NowNs() + kMs);
  }
  TimedStop(rt.get(), static_cast<uint64_t>(kWarmSetups + kSetupCycles), &warm);
  RtTotals tf = rt->Totals();
  uint64_t hwm_end_kb = ReadVmHwmKb();

  // ---- generator ledger and samples ----
  uint64_t outcomes[kNumOutcomes] = {};
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t completed_all = 0;
  uint64_t slot_waits = 0;
  uint64_t conns_opened = 0;
  uint64_t port_retries = 0;
  uint64_t max_conn_requests = 0;
  uint64_t gen_buffer_bytes = 0;
  std::vector<std::vector<double>> slice_lat(static_cast<size_t>(slices));
  std::vector<uint64_t> slice_ops(static_cast<size_t>(slices), 0);
  std::vector<double> all_lat;
  std::vector<double> lateness;
  std::vector<uint64_t> snap_at;
  for (const TaskSnapshot& snap : snaps) {
    snap_at.push_back(snap.at);
  }
  std::vector<Span> spans = warm.spans;
  spans.insert(spans.end(), setup.spans.begin(), setup.spans.end());
  for (const auto& r : gen.results()) {
    conns_opened += r->conns_opened;
    port_retries += r->port_retries;
    max_conn_requests = std::max(max_conn_requests, r->max_conn_requests);
    gen_buffer_bytes += r->recs.capacity() * sizeof(Rec) + r->spans.capacity() * sizeof(Span);
    spans.insert(spans.end(), r->spans.begin(), r->spans.end());
    for (const Rec& rec : r->recs) {
      ++outcomes[static_cast<int>(rec.outcome)];
      completed_all += rec.outcome == Outcome::kOk ? 1 : 0;
      // Server CPU is charged to the slice in which the work completed.
      auto after = std::upper_bound(snap_at.begin(), snap_at.end(), rec.done);
      if (rec.outcome == Outcome::kOk && after != snap_at.begin() && after != snap_at.end()) {
        ++slice_ops[static_cast<size_t>(after - snap_at.begin() - 1)];
      }
      if (rec.due < warm_end || rec.due >= window_end) {
        continue;
      }
      ++attempted;
      slot_waits += rec.slot_wait ? 1 : 0;
      if (rec.send != 0) {  // requests never dispatched have no send time
        lateness.push_back(static_cast<double>(rec.send - rec.due) / 1e3);
      }
      if (rec.outcome != Outcome::kOk) {
        ++failed;
        continue;
      }
      double lat_us = static_cast<double>(rec.done - rec.due) / 1e3;
      slice_lat[static_cast<size_t>((rec.due - warm_end) / kSliceNs)].push_back(lat_us);
      all_lat.push_back(lat_us);
    }
  }
  uint64_t ops_window = 0;
  for (uint64_t n : slice_ops) {
    ops_window += n;
  }

  // ---- per-slice end-to-end figures ----
  auto slice_run_ns = [&](int k) {
    uint64_t sum = 0;
    for (size_t i = 0; i < reactor_tids.size(); ++i) {
      sum += snaps[static_cast<size_t>(k) + 1].tasks[i].sched.run_ns -
             snaps[static_cast<size_t>(k)].tasks[i].sched.run_ns;
    }
    return sum;
  };
  // Hypervisor steal comes in bursts of seconds that multiply latency
  // several times over; the end-to-end figures are medians over the quiet
  // slices, judged by the steal /proc/stat counted during each.
  std::vector<double> p50s;
  std::vector<double> cpus;
  std::vector<uint64_t> steals;
  std::vector<double> p50s_by_parity[2];  // [1] = the traced slices
  std::vector<uint64_t> steals_by_parity[2];
  for (int k = 0; k < slices; ++k) {
    std::vector<double>& lat = slice_lat[static_cast<size_t>(k)];
    uint64_t ops_k = slice_ops[static_cast<size_t>(k)];
    if (lat.empty() || ops_k == 0) {
      continue;
    }
    uint64_t steal = snaps[static_cast<size_t>(k) + 1].steal - snaps[static_cast<size_t>(k)].steal;
    double p50 = Percentile(&lat, 50);
    p50s.push_back(p50);
    cpus.push_back(static_cast<double>(slice_run_ns(k)) / 1e3 / static_cast<double>(ops_k));
    steals.push_back(steal);
    p50s_by_parity[k % 2].push_back(p50);
    steals_by_parity[k % 2].push_back(steal);
  }
  double latency_p50_us = QuietMedian(p50s, steals, kQuietShare);
  double server_cpu_us_per_op = QuietMedian(cpus, steals, kQuietShare);
  uint64_t quiet_steal_max = QuietThreshold(steals, kQuietShare);
  size_t quiet_slices = static_cast<size_t>(
      std::count_if(steals.begin(), steals.end(), [&](uint64_t s) { return s <= quiet_steal_max; }));
  double setup_s = QuietMedian(setup.setup_s, setup.steal, kQuietShare);
  // The process's peak less the generator's pre-faulted record buffers,
  // which scale with rate x seconds and are the benchmark's, not the runtime's.
  double peak_rss_mb =
      (static_cast<double>(hwm_end_kb) * 1024.0 - static_cast<double>(gen_buffer_bytes)) /
      (1024.0 * 1024.0);
  double tail_p99_us = Percentile(&all_lat, 99);

  // ---- window deltas of the reactors' scheduler counters ----
  const TaskSnapshot& s0 = snaps.front();
  const TaskSnapshot& s1 = snaps.back();
  uint64_t run_ns = 0;
  uint64_t delay_ns = 0;
  uint64_t vol = 0;
  uint64_t nonvol = 0;
  uint64_t run_max = 0;
  for (size_t i = 0; i < reactor_tids.size(); ++i) {
    uint64_t run = s1.tasks[i].sched.run_ns - s0.tasks[i].sched.run_ns;
    run_ns += run;
    run_max = std::max(run_max, run);
    delay_ns += s1.tasks[i].sched.run_delay_ns - s0.tasks[i].sched.run_delay_ns;
    vol += s1.tasks[i].voluntary - s0.tasks[i].voluntary;
    nonvol += s1.tasks[i].nonvoluntary - s0.tasks[i].nonvoluntary;
  }
  double ops = static_cast<double>(ops_window);
  auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
  uint64_t accepted_w = t1.accepted - t0.accepted;

  // ---- correctness: bytes, ledgers, and the workload's own invariants ----
  std::vector<std::string> violations;
  uint64_t wrong = outcomes[static_cast<int>(Outcome::kWrong)];
  if (wrong != 0) {
    violations.push_back(std::to_string(wrong) + " responses had a wrong byte");
  }
  uint64_t resolved = 0;
  for (int o = 1; o < kNumOutcomes; ++o) {
    resolved += outcomes[o];
  }
  if (outcomes[static_cast<int>(Outcome::kPending)] != 0) {
    violations.push_back("generator ledger: " +
                         std::to_string(outcomes[static_cast<int>(Outcome::kPending)]) +
                         " requests never resolved");
  }
  if (tf.accepted != tf.accounted()) {
    violations.push_back("server ledger: accepted " + std::to_string(tf.accepted) +
                         " != accounted " + std::to_string(tf.accounted()));
  }
  uint64_t locality_sum = tf.requests_local_core + tf.requests_same_llc +
                          tf.requests_cross_llc + tf.requests_cross_node;
  if (locality_sum != tf.requests) {
    violations.push_back("locality ledger: " + std::to_string(locality_sum) +
                         " != requests " + std::to_string(tf.requests));
  }
  uint64_t all_failed = resolved - completed_all;
  if (all_failed == 0 && tf.requests != completed_all + probes) {
    violations.push_back("server served " + std::to_string(tf.requests) +
                         " requests, generator completed " +
                         std::to_string(completed_all + probes));
  }
  if (all_failed == 0 && tf.accepted != conns_opened + probes) {
    violations.push_back("server accepted " + std::to_string(tf.accepted) +
                         " connections, generator opened " +
                         std::to_string(conns_opened + probes));
  }
  if (w.keepalive && accepted_w != 0) {
    violations.push_back("keepalive accepted " + std::to_string(accepted_w) +
                         " connections inside the window");
  }
  if (tf.timed_out() != 0) {
    violations.push_back("server deadlines fired " + std::to_string(tf.timed_out()) + " times");
  }
  if (tf.pool_exhausted != 0) {
    violations.push_back("conn pool exhausted " + std::to_string(tf.pool_exhausted) + " times");
  }
  bool correct = violations.empty();

  // ---- report ----
  utsname uts{};
  uname(&uts);
  bool attached = rt->kernel_steering() == affinity::steer::KernelSteering::kAttached;
  std::printf("loopbench %s seed=%llu seconds=%d trace=%d rate=%.0f/s reactors=%d cpus=[0,%d) "
              "generator_threads=%d cpus=[%d,%d) slots=%d%s\n",
              w.name, static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0,
              w.rate_per_s, reactors, reactors, gen_threads, gen_cpus.front(),
              gen_cpus.back() + 1, g.slots * gen_threads,
              oversubscribed ? " OVERSUBSCRIBED (generator shares the reactors' CPUs)" : "");
  std::printf("host {\"nproc\": %d, \"oversubscribed\": %s, \"steal_jiffies\": %llu, "
              "\"quiet_slices\": %zu, \"quiet_slice_steal_max\": %llu, "
              "\"psi_cpu_some_us\": %s, \"kernel\": \"%s\", \"io_backend\": \"%s\", "
              "\"steering\": \"%s\", \"topo_origin\": \"%s\", \"hwm_reset\": %s}\n",
              nproc, oversubscribed ? "true" : "false",
              static_cast<unsigned long long>(h1.steal - h0.steal), quiet_slices,
              static_cast<unsigned long long>(quiet_steal_max),
              h0.psi && h1.psi ? std::to_string(h1.psi_us - h0.psi_us).c_str() : "null",
              uts.release, affinity::io::IoBackendName(rt->io_backend()),
              affinity::steer::KernelSteeringName(rt->kernel_steering()),
              affinity::topo::TopoOriginName(tf.topo_origin), hwm_reset ? "true" : "false");
  if (!attached) {
    std::printf("WARNING: cBPF steering unavailable; flow groups are re-steered in user space\n");
  }
  std::printf("ledger generator: attempted=%llu", static_cast<unsigned long long>(resolved +
                                                                  outcomes[0]));
  for (int o = 1; o < kNumOutcomes; ++o) {
    std::printf(" %s=%llu", OutcomeName(static_cast<Outcome>(o)),
                static_cast<unsigned long long>(outcomes[o]));
  }
  std::printf(" conns_opened=%llu port_retries=%llu max_conn_requests=%llu\n",
              static_cast<unsigned long long>(conns_opened),
              static_cast<unsigned long long>(port_retries),
              static_cast<unsigned long long>(max_conn_requests));
  std::printf("ledger server: accepted=%llu served=%llu open=%llu aborted=%llu drained=%llu "
              "overflow=%llu shed=%llu timed_out=%llu requests=%llu locality=%llu\n",
              static_cast<unsigned long long>(tf.accepted),
              static_cast<unsigned long long>(tf.served()),
              static_cast<unsigned long long>(tf.open_conns),
              static_cast<unsigned long long>(tf.aborted_at_stop),
              static_cast<unsigned long long>(tf.drained_at_stop),
              static_cast<unsigned long long>(tf.overflow_drops),
              static_cast<unsigned long long>(tf.admission_shed),
              static_cast<unsigned long long>(tf.timed_out()),
              static_cast<unsigned long long>(tf.requests),
              static_cast<unsigned long long>(locality_sum));
  for (const std::string& v : violations) {
    std::printf("INCORRECT: %s\n", v.c_str());
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"latency_p50_us", latency_p50_us, "us"},
        {"server_cpu_us_per_op", server_cpu_us_per_op, "us"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    std::printf("tail latency_p99_us=%.1f samples=%zu\n", tail_p99_us, all_lat.size());
    std::printf("gen lateness_p99_us=%.1f slot_wait_pct=%.2f\n", Percentile(&lateness, 99),
                100 * Ratio(static_cast<double>(slot_waits), static_cast<double>(attempted)));
  } else {
    std::vector<double> by_kind[kNumSpanKinds];
    for (const Span& s : spans) {
      by_kind[static_cast<int>(s.kind)].push_back(static_cast<double>(s.end - s.start) / 1e3);
    }
    auto span_p50 = [&](SpanKind k) { return Median(by_kind[static_cast<int>(k)]); };
    std::vector<double> traced_lat;
    for (size_t k = 1; k < slice_lat.size(); k += 2) {
      traced_lat.insert(traced_lat.end(), slice_lat[k].begin(), slice_lat[k].end());
    }
    double service_p50_us = BucketPercentile(Buckets(tf.request_latency_ns), 50) / 1e3;
    std::vector<Bucket> qwait = Buckets(tf.queue_wait_ns);
    double served_w = d(t0.served(), t1.served());
    metrics = {
        {"rt.runq_delay_us_per_op", Ratio(static_cast<double>(delay_ns) / 1e3, ops), "us"},
        {"rt.wakeups_per_op", Ratio(static_cast<double>(vol), ops), "count"},
        {"rt.preemptions_per_op", Ratio(static_cast<double>(nonvol), ops), "count"},
        {"rt.queue_wait_p50_us", BucketPercentile(qwait, 50) / 1e3, "us"},
        {"rt.queue_wait_p99_us", BucketPercentile(qwait, 99) / 1e3, "us"},
        {"rt.cpu_share_max_pct",
         100 * Ratio(static_cast<double>(run_max), static_cast<double>(run_ns)), "%"},
        {"rt.start_us", Median(setup.start_us), "us"},
        {"rt.stop_us", Median(setup.stop_us), "us"},
        {"svc.service_p50_us", service_p50_us, "us"},
        {"svc.requests", static_cast<double>(tf.requests - probes), "count"},
        {"tcp.connect_p50_us", span_p50(SpanKind::kConnect), "us"},
        {"tcp.close_p50_us", span_p50(SpanKind::kClose), "us"},
        {"net.first_byte_p50_us", span_p50(SpanKind::kFirstByte), "us"},
        {"net.wait_p50_us", Median(traced_lat) - service_p50_us, "us"},
        {"tcp.listen_drops", static_cast<double>(h1.listen_drops - h0.listen_drops), "count"},
        {"balance.steals_per_kconn",
         1000 * Ratio(d(t0.steals, t1.steals), static_cast<double>(accepted_w)), "1/kconn"},
        {"balance.remote_served_pct",
         100 * Ratio(d(t0.served_remote, t1.served_remote), served_w), "%"},
        {"balance.busy_transitions",
         d(t0.transitions_to_busy + t0.transitions_to_nonbusy,
           t1.transitions_to_busy + t1.transitions_to_nonbusy),
         "count"},
        {"steer.owner_accept_pct",
         100 * Ratio(d(t0.steer_owner_accepts, t1.steer_owner_accepts),
                     d(t0.steer_owner_accepts + t0.steer_cross_accepts,
                       t1.steer_owner_accepts + t1.steer_cross_accepts)),
         "%"},
        {"steer.migrations", d(t0.migrations, t1.migrations), "count"},
        {"steer.migrations_suppressed", d(t0.migrations_suppressed, t1.migrations_suppressed),
         "count"},
        {"steer.reactor0_accept_pct",
         100 * Ratio(d(r0_acc0, r0_acc1), static_cast<double>(accepted_w)), "%"},
        {"mem.remote_free_pct",
         100 * Ratio(d(t0.conn_remote_frees, t1.conn_remote_frees),
                     static_cast<double>(accepted_w)),
         "%"},
        {"mem.pool_exhausted", static_cast<double>(tf.pool_exhausted), "count"},
        {"mem.rss_growth_mb", static_cast<double>(hwm_end_kb - hwm_start_kb) / 1024.0, "MB"},
        {"time.timeouts", static_cast<double>(tf.timed_out()), "count"},
        {"locality.local_pct",
         100 * Ratio(d(t0.requests_local_core, t1.requests_local_core),
                     d(t0.requests_local_core + t0.requests_remote_core,
                       t1.requests_local_core + t1.requests_remote_core)),
         "%"},
        {"locality.conn_migrations", d(t0.conn_migrations, t1.conn_migrations), "count"},
        {"gen.lateness_p99_us", Percentile(&lateness, 99), "us"},
        {"gen.slot_wait_pct",
         100 * Ratio(static_cast<double>(slot_waits), static_cast<double>(attempted)), "%"},
        {"tail.latency_p99_us", tail_p99_us, "us"},
        {"tail.samples", static_cast<double>(all_lat.size()), "count"},
        {"trace.overhead_p50_us",
         QuietMedian(p50s_by_parity[1], steals_by_parity[1], kQuietShare) -
             QuietMedian(p50s_by_parity[0], steals_by_parity[0], kQuietShare),
         "us"},
    };
    if (!args.spans_path.empty()) {
      if (FILE* f = std::fopen(args.spans_path.c_str(), "w")) {
        std::fprintf(f, "id,kind,start_ns,end_ns\n");
        for (const Span& s : spans) {
          std::fprintf(f, "%llu,%s,%llu,%llu\n", static_cast<unsigned long long>(s.id),
                       SpanKindName(s.kind), static_cast<unsigned long long>(s.start),
                       static_cast<unsigned long long>(s.end));
        }
        std::fclose(f);
      }
    }
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-28s %14.3f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
