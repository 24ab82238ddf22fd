#include "generator.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "stats.h"

namespace perfbench {

uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull + static_cast<uint64_t>(ts.tv_nsec);
}

const char* OutcomeName(Outcome o) {
  static const char* const kNames[kNumOutcomes] = {"pending", "ok",    "refused", "timeout",
                                                   "reset",   "short", "wrong",   "error"};
  return kNames[static_cast<int>(o)];
}

const char* SpanKindName(SpanKind k) {
  static const char* const kNames[kNumSpanKinds] = {
      "connect", "send", "first_byte", "last_byte", "close", "construct", "start", "stop"};
  return kNames[static_cast<int>(k)];
}

namespace {

// Longest request line: "obj<index>\n" or the echo payload plus newline.
constexpr size_t kMaxRequest = 1024;
// Source ports tried per connection before the request fails.
constexpr int kMaxPortTries = 64;
// A request with no complete response by then fails as a timeout.
constexpr uint64_t kResponseTimeoutNs = 1'000'000'000;
constexpr char kPayloadAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";

struct Conn {
  enum class State : uint8_t { kFree, kConnecting, kAwait };
  int fd = -1;
  State state = State::kFree;
  size_t rec = 0;
  uint64_t span_id = 0;
  bool traced = false;
  uint64_t started = 0;  // when the current request was dispatched
  uint64_t requests = 0;  // requests dispatched on this keepalive connection
  uint64_t phase_start = 0;
  bool first_seen = false;
  // The expected response: "<expect_len>\n" then the echoed line or
  // expect_len copies of obj_char.
  uint32_t expect_len = 0;
  char obj_char = 0;
  uint64_t head_value = 0;
  uint32_t head_digits = 0;
  bool head_done = false;
  uint32_t body_got = 0;
  char req[kMaxRequest];
  uint32_t req_len = 0;  // including the newline
};

class Worker {
 public:
  Worker(const GenConfig& config, int t, GenThreadResult* out)
      : config_(config),
        t_(t),
        out_(out),
        schedule_(config.seed, static_cast<uint64_t>(t),
                  config.rate_per_s / static_cast<double>(config.threads)),
        conns_(static_cast<size_t>(config.slots)) {
    payload_rng_ = config.seed * 0xd1b54a32d192ed03ull + static_cast<uint64_t>(t) + 1;
    for (size_t i = static_cast<size_t>(t); i < config.src_ports.size();
         i += static_cast<size_t>(config.threads)) {
      ports_.push_back(config.src_ports[i]);
    }
    addr_.sin_family = AF_INET;
    addr_.sin_port = htons(config.port);
    addr_.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  }

  ~Worker() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) {
        close(c.fd);
      }
    }
    if (ep_ >= 0) {
      close(ep_);
    }
  }

  bool Setup() {
    ep_ = epoll_create1(EPOLL_CLOEXEC);
    if (ep_ < 0) {
      out_->error = std::string("epoll_create1: ") + std::strerror(errno);
      return false;
    }
    // Pre-fault the record buffers so their page faults land in set-up,
    // not in the measurement window or the server's memory growth.
    double seconds = static_cast<double>(config_.warmup_ns + config_.window_ns) / 1e9;
    size_t expect = static_cast<size_t>(config_.rate_per_s * seconds /
                                        static_cast<double>(config_.threads) * 1.25) + 4096;
    out_->recs.resize(expect);
    if (config_.trace) {
      out_->spans.resize(expect * 3);
    }
    if (config_.keepalive) {
      for (size_t i = 0; i < conns_.size(); ++i) {
        if (!OpenKeepalive(i)) {
          out_->error = std::string("keepalive connect: ") + std::strerror(errno);
          return false;
        }
      }
    }
    return true;
  }

  void Run(uint64_t start_ns) {
    warm_end_ = start_ns + config_.warmup_ns;
    window_end_ = warm_end_ + config_.window_ns;
    uint64_t hard_end = window_end_ + 2 * kResponseTimeoutNs;
    schedule_.Reset(start_ns);
    uint64_t next_due = schedule_.Next();
    epoll_event events[16];
    for (;;) {
      uint64_t now = NowNs();
      while (next_due <= now && next_due < window_end_) {
        Admit(next_due);
        next_due = schedule_.Next();
      }
      DispatchPending(now);
      ExpireSlow(hard_end);
      bool arrivals_left = next_due < window_end_;
      if (!arrivals_left && dispatched_ == admitted_ && busy_ == 0) {
        break;
      }
      if (now >= hard_end) {
        FailUndispatched(now);
        break;
      }
      uint64_t wake = std::min(hard_end, now + kResponseTimeoutNs / 4);
      if (arrivals_left) {
        wake = std::min(wake, next_due);
      }
      timespec timeout{};
      if (wake > now) {
        timeout.tv_sec = static_cast<time_t>((wake - now) / 1'000'000'000ull);
        timeout.tv_nsec = static_cast<long>((wake - now) % 1'000'000'000ull);
      }
      int n = epoll_pwait2(ep_, events, 16, &timeout, nullptr);
      for (int i = 0; i < n; ++i) {
        OnEvent(events[i].data.u32);
      }
    }
    if (config_.keepalive) {
      for (Conn& c : conns_) {
        out_->max_conn_requests = std::max(out_->max_conn_requests, c.requests);
        if (c.fd >= 0) {
          uint64_t t0 = NowNs();
          close(c.fd);
          c.fd = -1;
          if (config_.trace) {
            AddSpan(KeepaliveSpanId(&c - conns_.data()), SpanKind::kClose, t0, NowNs());
          }
        }
      }
    }
    out_->recs.resize(admitted_);
    out_->spans.resize(num_spans_);
  }

 private:
  uint64_t KeepaliveSpanId(ptrdiff_t i) const {
    return (static_cast<uint64_t>(t_) << 40) | (1ull << 39) | static_cast<uint64_t>(i);
  }

  void AddSpan(uint64_t id, SpanKind kind, uint64_t start, uint64_t end) {
    if (num_spans_ == out_->spans.size()) {
      out_->spans.resize(out_->spans.size() * 2 + 64);
    }
    out_->spans[num_spans_++] = Span{id, kind, start, end};
  }

  bool OpenKeepalive(size_t i) {
    Conn& c = conns_[i];
    uint64_t t0 = NowNs();
    int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      return false;
    }
    ResetOnClose(fd);
    if ((!ports_.empty() && !BindNextPort(fd)) ||
        connect(fd, reinterpret_cast<const sockaddr*>(&addr_), sizeof(addr_)) != 0) {
      close(fd);
      return false;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<uint32_t>(i);
    if (epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      close(fd);
      return false;
    }
    c.fd = fd;
    ++out_->conns_opened;
    if (config_.trace) {
      AddSpan(KeepaliveSpanId(static_cast<ptrdiff_t>(i)), SpanKind::kConnect, t0, NowNs());
    }
    return true;
  }

  void Admit(uint64_t due) {
    if (admitted_ == out_->recs.size()) {
      out_->recs.resize(out_->recs.size() * 2);
    }
    Rec& r = out_->recs[admitted_];
    r = Rec{};
    r.due = due;
    int free_slots = 0;
    for (const Conn& c : conns_) {
      free_slots += c.state == Conn::State::kFree ? 1 : 0;
    }
    r.slot_wait = admitted_ - dispatched_ >= static_cast<size_t>(free_slots);
    ++admitted_;
  }

  // Free connections are taken round-robin, so keepalive load spreads
  // evenly over the connections (and so over the reactors serving them).
  void DispatchPending(uint64_t now) {
    for (size_t n = 0; n < conns_.size() && dispatched_ < admitted_; ++n) {
      size_t i = next_conn_;
      next_conn_ = (next_conn_ + 1) % conns_.size();
      if (conns_[i].state == Conn::State::kFree) {
        Dispatch(i, dispatched_++, now);
        now = NowNs();
      }
    }
  }

  bool Traced(uint64_t due) const {
    return config_.trace && due >= warm_end_ && ((due - warm_end_) / config_.slice_ns) % 2 == 1;
  }

  void BuildRequest(Conn* c) {
    if (config_.keepalive) {
      uint32_t n = static_cast<uint32_t>(std::min<size_t>(config_.payload_bytes, kMaxRequest - 1));
      uint64_t bits = 0;
      for (uint32_t i = 0; i < n; ++i) {
        if (i % 8 == 0) {
          bits = SplitMix64(&payload_rng_);
        }
        c->req[i] = kPayloadAlphabet[(bits & 0xff) % (sizeof(kPayloadAlphabet) - 1)];
        bits >>= 8;
      }
      c->req[n] = '\n';
      c->req_len = n + 1;
      c->expect_len = n;
    } else {
      uint32_t key = static_cast<uint32_t>(SplitMix64(&payload_rng_) %
                                           static_cast<uint64_t>(config_.num_objects));
      int len = std::snprintf(c->req, kMaxRequest, "obj%u\n", key);
      c->req_len = static_cast<uint32_t>(len);
      c->expect_len = static_cast<uint32_t>(config_.object_bytes);
      c->obj_char = static_cast<char>('a' + key % 26);
    }
    c->head_value = 0;
    c->head_digits = 0;
    c->head_done = false;
    c->body_got = 0;
    c->first_seen = false;
  }

  void Dispatch(size_t ci, size_t ri, uint64_t now) {
    Conn& c = conns_[ci];
    Rec& r = out_->recs[ri];
    r.send = now;
    c.rec = ri;
    c.started = now;
    c.traced = Traced(r.due);
    c.span_id = (static_cast<uint64_t>(t_) << 40) | ri;
    ++busy_;
    BuildRequest(&c);
    if (config_.keepalive) {
      if (c.fd < 0 && !OpenKeepalive(ci)) {
        Resolve(&c, Outcome::kRefused, NowNs());
        return;
      }
      c.state = Conn::State::kAwait;
      ++c.requests;
      SendRequest(&c);
      return;
    }
    int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      Resolve(&c, Outcome::kError, NowNs());
      return;
    }
    c.fd = fd;
    ResetOnClose(fd);
    if (!ports_.empty() && !BindNextPort(fd)) {
      Resolve(&c, Outcome::kError, NowNs());
      return;
    }
    c.phase_start = NowNs();
    int rc = connect(fd, reinterpret_cast<const sockaddr*>(&addr_), sizeof(addr_));
    if (rc != 0 && errno != EINPROGRESS) {
      Resolve(&c, errno == ECONNREFUSED ? Outcome::kRefused : Outcome::kError, NowNs());
      return;
    }
    epoll_event ev{};
    ev.events = rc == 0 ? EPOLLIN : EPOLLOUT;
    ev.data.u32 = static_cast<uint32_t>(ci);
    if (epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      Resolve(&c, Outcome::kError, NowNs());
      return;
    }
    ++out_->conns_opened;
    if (rc == 0) {
      Connected(&c);
    } else {
      c.state = Conn::State::kConnecting;
    }
  }

  // Every generator connection closes with a reset, after its last
  // response: the 4-tuple never lingers in TIME_WAIT, so the fixed
  // source-port list can be cycled at any rate.
  static void ResetOnClose(int fd) {
    linger lg{1, 0};
    setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  }

  bool BindNextPort(int fd) {
    sockaddr_in local{};
    local.sin_family = AF_INET;
    local.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    for (int tries = 0; tries < kMaxPortTries; ++tries) {
      local.sin_port = htons(ports_[port_cursor_++ % ports_.size()]);
      if (bind(fd, reinterpret_cast<const sockaddr*>(&local), sizeof(local)) == 0) {
        return true;
      }
      if (errno != EADDRINUSE) {
        return false;
      }
      ++out_->port_retries;
    }
    return false;
  }

  void Connected(Conn* c) {
    if (c->traced) {
      AddSpan(c->span_id, SpanKind::kConnect, c->phase_start, NowNs());
    }
    c->state = Conn::State::kAwait;
    SendRequest(c);
    if (c->state == Conn::State::kAwait) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = static_cast<uint32_t>(c - conns_.data());
      if (epoll_ctl(ep_, EPOLL_CTL_MOD, c->fd, &ev) != 0) {
        Resolve(c, Outcome::kError, NowNs());
      }
    }
  }

  void SendRequest(Conn* c) {
    uint64_t t0 = NowNs();
    // A request line is far below any socket buffer and each connection has
    // at most one outstanding, so the whole line is written at once.
    ssize_t n = send(c->fd, c->req, c->req_len, MSG_NOSIGNAL);
    uint64_t t1 = NowNs();
    if (n != static_cast<ssize_t>(c->req_len)) {
      Resolve(c, n < 0 && (errno == ECONNRESET || errno == EPIPE) ? Outcome::kReset
                                                                  : Outcome::kError,
              t1);
      return;
    }
    if (c->traced) {
      AddSpan(c->span_id, SpanKind::kSend, t0, t1);
    }
    c->phase_start = t1;
  }

  void OnEvent(uint32_t ci) {
    Conn& c = conns_[ci];
    if (c.state == Conn::State::kConnecting) {
      int err = 0;
      socklen_t len = sizeof(err);
      getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        Resolve(&c, err == ECONNREFUSED ? Outcome::kRefused
                    : err == ECONNRESET ? Outcome::kReset
                                        : Outcome::kError,
                NowNs());
        return;
      }
      Connected(&c);
      return;
    }
    if (c.state == Conn::State::kAwait) {
      ReadResponse(&c);
    }
  }

  void ReadResponse(Conn* c) {
    for (;;) {
      ssize_t n = recv(c->fd, buf_, sizeof(buf_), 0);
      uint64_t now = NowNs();
      if (n == 0) {
        Resolve(c, Outcome::kShort, now);
        return;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          return;
        }
        if (errno == EINTR) {
          continue;
        }
        Resolve(c, errno == ECONNRESET ? Outcome::kReset : Outcome::kError, now);
        return;
      }
      if (!c->first_seen) {
        c->first_seen = true;
        if (c->traced) {
          AddSpan(c->span_id, SpanKind::kFirstByte, c->phase_start, now);
        }
        c->phase_start = now;
      }
      int verdict = Consume(c, buf_, static_cast<size_t>(n));
      if (verdict < 0) {
        Resolve(c, Outcome::kWrong, now);
        return;
      }
      if (verdict > 0) {
        if (c->traced) {
          AddSpan(c->span_id, SpanKind::kLastByte, c->phase_start, now);
        }
        Resolve(c, Outcome::kOk, now);
        return;
      }
    }
  }

  // Checks the next n response bytes: -1 on a wrong byte (or bytes past the
  // end), 1 when the response is complete, 0 when more is expected.
  static int Consume(Conn* c, const char* p, size_t n) {
    size_t i = 0;
    while (!c->head_done && i < n) {
      char ch = p[i++];
      if (ch == '\n') {
        if (c->head_digits == 0 || c->head_value != c->expect_len) {
          return -1;
        }
        c->head_done = true;
      } else if (ch >= '0' && ch <= '9' && c->head_digits < 10) {
        c->head_value = c->head_value * 10 + static_cast<uint64_t>(ch - '0');
        ++c->head_digits;
      } else {
        return -1;
      }
    }
    size_t body = n - i;
    if (body > c->expect_len - c->body_got) {
      return -1;
    }
    if (c->obj_char == 0) {
      if (std::memcmp(p + i, c->req + c->body_got, body) != 0) {
        return -1;
      }
    } else {
      for (size_t k = i; k < n; ++k) {
        if (p[k] != c->obj_char) {
          return -1;
        }
      }
    }
    c->body_got += static_cast<uint32_t>(body);
    return c->head_done && c->body_got == c->expect_len ? 1 : 0;
  }

  // Ends the conversation's current request. Keepalive connections stay
  // open unless the request failed; a churn connection always closes.
  void Resolve(Conn* c, Outcome outcome, uint64_t now) {
    Rec& r = out_->recs[c->rec];
    r.outcome = outcome;
    r.done = now;
    bool keep = config_.keepalive && outcome == Outcome::kOk;
    if (!keep && c->fd >= 0) {
      uint64_t t0 = NowNs();
      close(c->fd);
      if (c->traced) {
        AddSpan(c->span_id, SpanKind::kClose, t0, NowNs());
      }
      c->fd = -1;
    }
    c->state = Conn::State::kFree;
    --busy_;
  }

  void ExpireSlow(uint64_t hard_end) {
    uint64_t now = NowNs();
    for (Conn& c : conns_) {
      if (c.state != Conn::State::kFree &&
          (now - c.started >= kResponseTimeoutNs || now >= hard_end)) {
        Resolve(&c, Outcome::kTimeout, now);
      }
    }
  }

  void FailUndispatched(uint64_t now) {
    for (; dispatched_ < admitted_; ++dispatched_) {
      Rec& r = out_->recs[dispatched_];
      r.outcome = Outcome::kTimeout;
      r.done = now;
    }
  }

  const GenConfig& config_;
  int t_;
  GenThreadResult* out_;
  PoissonSchedule schedule_;
  uint64_t payload_rng_ = 0;
  std::vector<Conn> conns_;
  std::vector<uint16_t> ports_;
  size_t port_cursor_ = 0;
  size_t next_conn_ = 0;
  sockaddr_in addr_{};
  int ep_ = -1;
  size_t admitted_ = 0;    // requests that fell due (recs[0, admitted_))
  size_t dispatched_ = 0;  // of those, handed to a connection (FIFO)
  int busy_ = 0;           // connections with a request in flight
  size_t num_spans_ = 0;
  uint64_t warm_end_ = 0;
  uint64_t window_end_ = 0;
  char buf_[16384];
};

}  // namespace

Generator::Generator(GenConfig config) : config_(std::move(config)) {
  for (int t = 0; t < config_.threads; ++t) {
    results_.push_back(std::make_unique<GenThreadResult>());
  }
}

Generator::~Generator() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    go_ = true;  // releases threads still at the start line (start_ns_ == 0: abort)
  }
  cv_.notify_all();
  Join();
}

bool Generator::Prepare(std::string* error) {
  for (int t = 0; t < config_.threads; ++t) {
    threads_.emplace_back([this, t] { RunThread(t); });
  }
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return ready_ == config_.threads; });
  if (failed_ == 0) {
    return true;
  }
  for (const auto& r : results_) {
    if (!r->error.empty()) {
      *error = r->error;
    }
  }
  return false;
}

void Generator::Go(uint64_t start_ns) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    start_ns_ = start_ns;
    go_ = true;
  }
  cv_.notify_all();
}

void Generator::Join() {
  for (std::thread& th : threads_) {
    if (th.joinable()) {
      th.join();
    }
  }
}

void Generator::RunThread(int t) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(config_.cpus[static_cast<size_t>(t) % config_.cpus.size()], &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  // The default 50 us timer slack would let every timed wait oversleep by
  // up to that much, which shows up directly as request lateness.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  GenThreadResult* out = results_[static_cast<size_t>(t)].get();
  Worker worker(config_, t, out);
  bool ok = worker.Setup();
  uint64_t start = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    ++ready_;
    failed_ += ok ? 0 : 1;
    cv_.notify_all();
    cv_.wait(lock, [this] { return go_; });
    start = start_ns_;
  }
  if (ok && start != 0) {
    worker.Run(start);
  }
}

}  // namespace perfbench
