#include "src/rt/reactor.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>

#include "src/io/uring_backend.h"
#include "src/rt/listener.h"

namespace affinity {
namespace rt {

namespace {

// Stack-array cap for one accept4 drain. accept_batch is clamped to this so
// a batch's bookkeeping never leaves the stack.
constexpr int kMaxAcceptBatch = 256;

// Capped exponential accept backoff after EMFILE/ENFILE: first window 1 ms,
// doubling to at most 100 ms -- long enough for fds to free up, short
// enough that the listen backlog keeps a bound on client-visible latency.
constexpr int kBackoffFirstMs = 1;
constexpr int kBackoffCapMs = 100;

uint64_t ToNs(std::chrono::steady_clock::duration d) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

// The row of a distance split (same_llc, cross_llc, cross_node) for a
// remote topo::LedgerBucket (1..3).
RtMetric::Id DistanceRow(RtMetric::Id same_llc, int bucket) {
  return static_cast<RtMetric::Id>(same_llc + bucket - 1);
}

// The timeouts_* row of a deadline kind other than kNone.
RtMetric::Id TimeoutRow(DeadlineKind kind) {
  return static_cast<RtMetric::Id>(RtMetric::timeouts_handshake + static_cast<int>(kind) - 1);
}
static_assert(static_cast<int>(DeadlineKind::kHandshake) == 1 &&
                  static_cast<int>(DeadlineKind::kLifetime) == 5,
              "TimeoutRow maps kHandshake..kLifetime onto the five timeouts_* rows");

}  // namespace

const char* RtModeName(RtMode mode) {
  switch (mode) {
    case RtMode::kStock:
      return "stock";
    case RtMode::kFine:
      return "fine";
    case RtMode::kAffinity:
      return "affinity";
  }
  return "?";
}

const char* OverloadPolicyName(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kAcceptThenRst:
      return "accept_then_rst";
    case OverloadPolicy::kLeaveInBacklog:
      return "leave_in_backlog";
  }
  return "?";
}

const char* DeadlineKindName(DeadlineKind kind) {
  switch (kind) {
    case DeadlineKind::kNone:
      return "none";
    case DeadlineKind::kHandshake:
      return "handshake";
    case DeadlineKind::kIdle:
      return "idle";
    case DeadlineKind::kRead:
      return "read";
    case DeadlineKind::kWrite:
      return "write";
    case DeadlineKind::kLifetime:
      return "lifetime";
  }
  return "?";
}

Reactor::Reactor(int index, ReactorShared* shared) : index_(index), shared_(shared) {}

void Reactor::ResolveHotCells() {
  obs::MetricsRegistry* m = shared_->metrics;
  for (int i = 0; i < RtMetric::kCount; ++i) {
    obs::MetricsRegistry::MetricId id = shared_->ids[static_cast<size_t>(i)];
    if (id == kNoMetric) {
      continue;
    }
    if (kRtMetricDefs[i].kind == RtKind::kHistogram) {
      hists_[i] = m->HistCell(id, index_);
    } else {
      cells_[i] = m->Cell(id, index_);
    }
  }
  size_t num_queues = shared_->queues.size();
  queue_len_.resize(num_queues);
  for (size_t qi = 0; qi < num_queues; ++qi) {
    queue_len_[qi] = m->Cell(shared_->ids[RtMetric::queue_len], static_cast<int>(qi));
  }
  // Batch scratch state: sized once here, reused every batch.
  enq_.q.resize(num_queues);
  enq_.touched.reserve(num_queues);
  deq_.q.resize(num_queues);
  deq_.touched.reserve(num_queues);
}

void Reactor::Run() {
  if (shared_->pin_threads) {
    PinCurrentThreadToCpu(index_);
  }
  ResolveHotCells();
  // Hardware profiling: open this thread's counter group AFTER pinning so
  // the counters follow the reactor's core. Never fails -- an unavailable
  // PMU yields an inactive profile (phase entries only).
  prof_ = shared_->hwprof != nullptr ? shared_->hwprof->AttachThread(index_) : nullptr;

  // One source per listener: this reactor's shard of a per-shard listener,
  // or the single shared fd (stock mode, and UNIX sockets always -- every
  // reactor polls it, level-triggered, so a shared listener herds like
  // stock accept while per-shard ones stay private). Accepts land on this
  // core's ring outside stock mode regardless of which fd produced them.
  // Sources are derived BEFORE the backend comes up: the uring engine wants
  // the full startup fd set for fixed-file registration.
  sources_.clear();
  std::vector<int> listen_fds;
  for (RtListener* listener : shared_->listeners) {
    int fd = listener->fds.size() == 1 ? listener->fds[0]
                                       : listener->fds[static_cast<size_t>(index_)];
    uint32_t qi = shared_->mode == RtMode::kStock ? 0u : static_cast<uint32_t>(index_);
    ListenSource src;
    src.fd = fd;
    src.qi = qi;
    src.listener = listener;
    src.watch_gen = watch_gen_seed_++;
    sources_.push_back(src);
    listen_fds.push_back(fd);
  }
  base_sources_ = sources_.size();

  // The event engine. The Runtime already probed and resolved the kind; a
  // per-reactor uring setup failure (rlimit on locked memory, seccomp) still
  // degrades to a private epoll engine rather than losing the core.
  io_.reset();
  if (shared_->backend == io::IoBackendKind::kUring) {
    std::unique_ptr<io::UringBackend> uring(new io::UringBackend(index_, shared_->sys));
    std::string err;
    if (uring->Init(&err)) {
      if (shared_->uring_fixed_files) {
        uring->RegisterListenFds(listen_fds);
      }
      io_ = std::move(uring);
    } else {
      std::fprintf(stderr, "rt: reactor %d: uring init failed (%s); falling back to epoll\n",
                   index_, err.c_str());
    }
  }
  if (io_ == nullptr) {
    io_ = io::CreateIoBackend(io::IoBackendKind::kEpoll, index_, shared_->sys);
    std::string err;
    if (!io_->Init(&err)) {
      io_.reset();
      return;
    }
  }
  for (ListenSource& src : sources_) {
    src.watching = io_->WatchListen(src.fd, io::MakeListenToken(src.fd, src.watch_gen));
  }
  // The doorbell: without it nothing could wake a reactor that sleeps with
  // no timeout, Stop() included.
  bell_ = shared_->doorbells[static_cast<size_t>(index_)].get();
  if (!io_->WatchDoorbell(bell_->fd())) {
    std::fprintf(stderr, "rt: reactor %d: cannot watch its doorbell; not running\n", index_);
    io_.reset();
    return;
  }
  open_head_ = kNullConn;
  open_count_ = 0;
  // The deadline wheel, anchored to the shared clock's current reading.
  // Built even when no deadline class is enabled (EvictIdleConns and the
  // close path cancel through it unconditionally); Advance fast-forwards in
  // O(1) while nothing is armed.
  wheel_.reset(new timer::TimerWheel(
      shared_->timer_resolution_ns,
      shared_->clock != nullptr ? shared_->clock->NowNs() : 0));
  drain_unwatched_ = false;

  // EMFILE rescue reserve: one fd held back so fd exhaustion can still
  // accept-and-RST (keeping the backlog moving) instead of wedging.
  reserve_fd_ = open("/dev/null", O_RDONLY | O_CLOEXEC);
  backoff_ms_ = 0;
  backoff_until_ = std::chrono::steady_clock::time_point{};
  drop_bucket_.reset(
      new fault::TokenBucket(shared_->drop_budget_per_sec, std::chrono::steady_clock::now()));

  auto start = std::chrono::steady_clock::now();
  bool migrate = shared_->director != nullptr && shared_->migrate_interval_ms > 0;
  auto migrate_period = std::chrono::milliseconds(shared_->migrate_interval_ms);
  next_migrate_ = migrate ? start + migrate_period : std::chrono::steady_clock::time_point::max();

  bool watchdog = shared_->domains != nullptr && shared_->watchdog_timeout_ms > 0;
  std::unique_ptr<fault::WatchdogMonitor> monitor;
  auto watchdog_period = std::chrono::milliseconds(std::max(1, shared_->watchdog_timeout_ms / 4));
  next_watchdog_ = watchdog ? start + watchdog_period : std::chrono::steady_clock::time_point::max();
  if (watchdog) {
    monitor.reset(new fault::WatchdogMonitor(
        shared_->domains, index_,
        std::chrono::milliseconds(shared_->watchdog_timeout_ms)));
  }

  // The listen shard is usually the only registered source; adopted shards
  // from dead peers join the set after a failover, so events are dispatched
  // per fd.
  io::IoEvent events[64];
  Accepted pending[64];  // uring CQE-delivered fds staged for AdmitBatch
  int timeout_ms = 0;    // the first pass only polls
  bool parked = false;
  bool stole = false;  // the last idle pass stole: the next look is local
  while (!shared_->stop.load(std::memory_order_acquire)) {
    if (shared_->domains != nullptr) {
      shared_->domains->Beat(index_);
      if (shared_->domains->IsDead(index_)) {
        // A peer failed us over while we were stalled; reverse it.
        SelfRecover();
      }
    }
    if (shared_->draining.load(std::memory_order_acquire) && !drain_unwatched_) {
      // Graceful drain: stop accepting (unwatch every listen source) but
      // keep serving queued and open connections. Accepted fds still in a
      // completion engine's CQE pipeline are real connections and are
      // admitted below regardless.
      for (ListenSource& src : sources_) {
        Unwatch(src);
      }
      drain_unwatched_ = true;
    }
    // Sleeps until an fd or the doorbell fires, or the nearest deadline
    // (see the sleep decision at the bottom of the loop).
    Prof(obs::hwprof::Phase::kEpollWait);
    int n = io_->Wait(events, 64, timeout_ms);
    if (parked) {
      bell_->Unpark();
      parked = false;
    }
    if (n == fault::SysIface::kKillReactor) {
      // The chaos plan killed this reactor: exit as if the thread died.
      // Deliberately no recovery, no draining -- the watchdog and the
      // surviving peers own everything from here.
      break;
    }
    bool worked = false;  // an fd event (not only the doorbell) arrived
    if (n > 0) {
      Count(RtMetric::epoll_wakeups);
      int npend = 0;
      bool rung = false;
      auto now = std::chrono::steady_clock::now();
      for (int i = 0; i < n; ++i) {
        const io::IoEvent& ev = events[i];
        if (ev.token == io::kDoorbellToken) {
          rung = true;
          continue;
        }
        worked = true;
        if (io::IsConnToken(ev.token)) {
          ConnHandle handle = io::HandleOfToken(ev.token);
          PendingConn* conn = shared_->pool->Get(handle);
          if (conn == nullptr ||
              io::GenOfToken(ev.token) != conn->io_gen.load(std::memory_order_relaxed)) {
            continue;  // stale completion: the conn closed, the block moved on
          }
          if (io_->oneshot_arms()) {
            conn->svc.armed = 0;  // the delivered one-shot consumed its registration
          }
          Prof(obs::hwprof::Phase::kServe);
          DriveConn(handle, ev.events);
          continue;
        }
        int fd = io::FdOfListenToken(ev.token);
        size_t si = 0;
        while (si < sources_.size() && sources_[si].fd != fd) {
          ++si;
        }
        if (si == sources_.size()) {
          // A CQE from a source released between harvests (failover
          // recovery): any fd inside is still a real connection the kernel
          // accepted on our behalf; dispose of it in order.
          if (ev.accepted_fd >= 0) {
            Count(RtMetric::accepted);
            Count(RtMetric::overflow_drops);
            shared_->sys->Close(index_, ev.accepted_fd);
          }
          continue;
        }
        ListenSource& src = sources_[si];
        if (io_->accepts_inline()) {
          // Readiness engine: the event only says "accept4 will succeed".
          Prof(obs::hwprof::Phase::kAccept);
          AcceptBatch(si);
          continue;
        }
        // Completion engine: the CQE itself carries the accept. The watch
        // generation gates the control bits (rewatch/error) of a canceled
        // epoch's late CQEs; accepted fds are real regardless and are
        // admitted even from a stale generation (dropping them would leak).
        const bool current = io::GenOfToken(ev.token) == src.watch_gen;
        if (ev.accepted_fd >= 0) {
          if (npend == 64) {
            Prof(obs::hwprof::Phase::kAccept);
            AdmitBatch(pending, npend, now);
            npend = 0;
          }
          pending[npend].fd = ev.accepted_fd;
          pending[npend].qi = RouteAccepted(src, ev.accepted_fd, /*peer=*/nullptr);
          pending[npend].src = static_cast<uint32_t>(si);
          ++npend;
        } else if (ev.error != 0 && current) {
          // The multishot accept terminated with an error: sorted like an
          // accept4 failure. The terminal CQE also sets rewatch below.
          SortAcceptError(ev.error, si);
        }
        if (ev.rewatch && current) {
          src.watching = false;  // RewatchSources re-arms once the gates allow
        }
      }
      if (npend > 0) {
        Prof(obs::hwprof::Phase::kAccept);
        AdmitBatch(pending, npend, now);
      }
      if (rung) {
        Count(RtMetric::doorbell_wakeups);
      }
    } else if (n < 0) {
      break;  // hard engine error (the backends swallow EINTR themselves)
    }
    Prof(obs::hwprof::Phase::kServe);
    int served = ServeBatch();
    Prof(obs::hwprof::Phase::kMaintenance);
    if (shared_->deadlines_enabled) {
      wheel_->Advance(shared_->clock->NowNs(),
                      [this](timer::TimerEntry* e) { OnDeadlineExpiry(e); });
    }
    auto now = std::chrono::steady_clock::now();
    if (!drain_unwatched_) {
      RewatchSources(now);
    }
    if (now >= next_migrate_) {
      // The paper's long-term balancer: every 100 ms each (non-busy) core
      // makes its own migration decision. The tick bounds the sleep below.
      MigrationTick();
      next_migrate_ += migrate_period;
    }
    if (now >= next_watchdog_) {
      WatchdogTick(monitor.get());
      next_watchdog_ += watchdog_period;
    }
    // The sleep decision. Park first, then take the last look, so a push
    // that lands after the look finds the flag and rings (doorbell.h). After
    // an iteration that did work the look is at the rings this reactor
    // serves; after an idle one (a timeout or a bare ring) it is the
    // widened idle pass -- the paper's "polling" order, which is where a
    // rung thief steals. Either finding work means poll again, not sleep;
    // a steal's follow-up look is local, so a thief takes the connection it
    // was rung for and sleeps unless rung again.
    bell_->Park();
    bool more;
    if (worked || served > 0 || stole) {
      more = ServedRingNonEmpty();
      stole = false;
    } else {
      more = stole = ServeOne(/*idle=*/true);
      FlushDequeues();
    }
    if (more) {
      bell_->Unpark();
      timeout_ms = 0;
    } else {
      parked = true;
      timeout_ms = NextWaitTimeoutMs();
    }
  }
  Prof(obs::hwprof::Phase::kMaintenance);
  FlushDequeues();
  // Close every connection still mid-conversation -- on the orderly stop
  // path AND the chaos kill path (a killed reactor models a dead process,
  // whose fds the kernel would close; doing it here keeps the pool drained
  // and the conservation ledger exact). Counted as aborted, never served.
  CloseAllOpen();
  if (prof_ != nullptr) {
    shared_->hwprof->DetachThread(index_);
    prof_ = nullptr;
  }
  if (reserve_fd_ >= 0) {
    close(reserve_fd_);
    reserve_fd_ = -1;
  }
  io_->Shutdown();
  io_.reset();
}

void Reactor::MigrationTick() {
  ++migrate_tick_;
  steer::Migration m;
  bool suppressed = false;
  if (!shared_->director->MigrateForCore(index_, shared_->policy, migrate_tick_, &m,
                                         &suppressed)) {
    if (suppressed) {
      // A victim was due but hysteresis vetoed every candidate group: the
      // anti-flapping guard held (FDir-reordering paper), not load balance.
      Count(RtMetric::migrations_suppressed);
    }
    return;
  }
  Count(RtMetric::migrations);
  for (CoreId core : {m.from_core, m.to_core}) {
    shared_->metrics->GaugeSet(shared_->ids[RtMetric::steer_groups_owned], static_cast<int>(core),
                               static_cast<uint64_t>(shared_->director->table().OwnedBy(core)));
  }
  if (shared_->trace != nullptr) {
    Trace({.type = obs::TraceEventType::kMigrate,
           .src = static_cast<int16_t>(m.from_core),
           .dst = static_cast<int16_t>(m.to_core),
           .qlen = static_cast<uint32_t>(m.victim_steals),
           .group = m.group,
           .tick = static_cast<uint32_t>(m.tick)});
  }
}

void Reactor::WatchdogTick(fault::WatchdogMonitor* monitor) {
  ReleaseRecoveredAdoptions();
  std::vector<int> stalled;
  monitor->Scan(std::chrono::steady_clock::now(), &stalled);
  for (int peer : stalled) {
    if (!shared_->domains->IsDead(peer)) {
      TryFailover(peer);
    }
  }
}

void Reactor::TryFailover(int dead) {
  std::lock_guard<std::mutex> lock(shared_->failover_mu);
  if (!shared_->domains->MarkDead(dead)) {
    return;  // another reactor won, or the peer is already dead
  }
  // From here this reactor owns the failover actions; the mutex keeps a
  // concurrently-recovering peer from interleaving with them.
  Count(RtMetric::failovers);
  shared_->metrics->GaugeSet(shared_->ids[RtMetric::reactor_dead], dead, 1);
  if (shared_->policy != nullptr) {
    // Permanently busy: peers steal the dead ring dry, and the migration
    // loop never picks the dead core as a destination.
    shared_->policy->SetForcedBusy(dead, true);
    shared_->metrics->GaugeSet(shared_->ids[RtMetric::busy], dead, 1);
    WakeIdlePeers();
  }
  if (shared_->director != nullptr) {
    NoteFailoverGroupMoves(shared_->director->FailOverCore(dead, shared_->policy, migrate_tick_));
  }
  // Adopt the dead peer's listen shards -- one per per-shard listener:
  // SYNs the kernel already queued there (and, in fallback steering, keeps
  // hashing there) would otherwise strand. Shared-fd listeners (UNIX
  // sockets, stock mode) need no adoption; every reactor polls them
  // already. Accepts land on the dead core's ring by default, where
  // forced-busy stealing drains them. A draining runtime adopts nothing:
  // accepting is over for everyone.
  if (shared_->mode != RtMode::kStock &&
      !shared_->draining.load(std::memory_order_acquire)) {
    for (RtListener* listener : shared_->listeners) {
      if (listener->fds.size() != static_cast<size_t>(shared_->num_reactors) ||
          dead >= static_cast<int>(listener->fds.size())) {
        continue;
      }
      int lfd = listener->fds[static_cast<size_t>(dead)];
      ListenSource src;
      src.fd = lfd;
      src.qi = static_cast<uint32_t>(dead);
      src.listener = listener;
      // A fresh generation even if this fd was adopted before: a previous
      // adoption epoch's terminal CQE may still be in flight.
      src.watch_gen = watch_gen_seed_++;
      src.watching = io_->WatchListen(lfd, io::MakeListenToken(lfd, src.watch_gen));
      if (src.watching) {
        sources_.push_back(src);
      }
    }
  }
  if (shared_->trace != nullptr) {
    Trace({.type = obs::TraceEventType::kReactorDead,
           .src = static_cast<int16_t>(dead),
           .tick = static_cast<uint32_t>(migrate_tick_)});
  }
}

void Reactor::SelfRecover() {
  std::lock_guard<std::mutex> lock(shared_->failover_mu);
  if (!shared_->domains->MarkAlive(index_)) {
    return;
  }
  Count(RtMetric::recoveries);
  shared_->metrics->GaugeSet(shared_->ids[RtMetric::reactor_dead], index_, 0);
  if (shared_->policy != nullptr) {
    shared_->policy->SetForcedBusy(index_, false);
    shared_->metrics->GaugeSet(shared_->ids[RtMetric::busy], index_,
                               shared_->policy->IsBusy(index_) ? 1 : 0);
  }
  if (shared_->director != nullptr) {
    NoteFailoverGroupMoves(shared_->director->RecoverCore(index_, migrate_tick_));
  }
  // The adopter still holds our listen fd in its epoll until its next
  // watchdog tick (ReleaseRecoveredAdoptions); the brief double-drain is
  // harmless -- accept4 hands each connection to exactly one caller.
  if (shared_->trace != nullptr) {
    Trace({.type = obs::TraceEventType::kReactorRecover,
           .src = static_cast<int16_t>(index_),
           .tick = static_cast<uint32_t>(migrate_tick_)});
  }
}

void Reactor::NoteFailoverGroupMoves(size_t moved) {
  if (moved == 0) {
    return;
  }
  Count(RtMetric::failover_group_moves, static_cast<uint64_t>(moved));
  for (int c = 0; c < shared_->num_reactors; ++c) {
    shared_->metrics->GaugeSet(shared_->ids[RtMetric::steer_groups_owned], c,
                               static_cast<uint64_t>(shared_->director->table().OwnedBy(c)));
  }
}

void Reactor::ReleaseRecoveredAdoptions() {
  if (sources_.size() <= base_sources_) {
    return;
  }
  for (size_t i = sources_.size(); i-- > base_sources_;) {
    if (!shared_->domains->IsDead(static_cast<int>(sources_[i].qi))) {
      Unwatch(sources_[i]);
      sources_.erase(sources_.begin() + static_cast<long>(i));
    }
  }
}

void Reactor::RecordBusyFlip(size_t queue, size_t len_after) {
  bool now_busy = shared_->policy->IsBusy(static_cast<CoreId>(queue));
  shared_->metrics->Add(
      shared_->ids[now_busy ? RtMetric::transitions_to_busy : RtMetric::transitions_to_nonbusy],
      static_cast<int>(queue));
  shared_->metrics->GaugeSet(shared_->ids[RtMetric::busy], static_cast<int>(queue),
                             now_busy ? 1 : 0);
  if (shared_->trace != nullptr) {
    Trace({.type = now_busy ? obs::TraceEventType::kBusyOn : obs::TraceEventType::kBusyOff,
           .src = static_cast<int16_t>(queue),
           .ewma = shared_->policy->EwmaValue(static_cast<CoreId>(queue)),
           .qlen = static_cast<uint32_t>(len_after)});
  }
  if (now_busy) {
    WakeIdlePeers();
  }
}

void Reactor::Trace(obs::TraceEvent event) {
  event.core = static_cast<int16_t>(index_);
  shared_->trace->Record(index_, event);
}

void Reactor::RstClose(int fd) {
  // SO_LINGER{on, 0}: close() sends a reset instead of an orderly FIN, so
  // the shed client fails fast (ECONNRESET) rather than reading a clean EOF
  // it could mistake for service.
  struct linger lg;
  lg.l_onoff = 1;
  lg.l_linger = 0;
  setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  shared_->sys->Close(index_, fd);
}

bool Reactor::ShedOrDrop(int fd, size_t qi, std::chrono::steady_clock::time_point now) {
  if (shared_->overload == OverloadPolicy::kAcceptThenRst && drop_bucket_->TryTake(now)) {
    RstClose(fd);
    if (shared_->trace != nullptr) {
      Trace({.type = obs::TraceEventType::kAdmissionShed,
             .src = static_cast<int16_t>(qi),
             .qlen = static_cast<uint32_t>(shared_->queues[qi]->size())});
    }
    return true;
  }
  // kLeaveInBacklog, or the RST budget is dry: orderly close, counted as an
  // overflow drop -- the stage-1 backlog gate does the actual pushing back.
  shared_->sys->Close(index_, fd);
  if (shared_->trace != nullptr) {
    Trace({.type = obs::TraceEventType::kOverflowDrop,
           .src = static_cast<int16_t>(qi),
           .qlen = static_cast<uint32_t>(shared_->queues[qi]->capacity())});
  }
  return false;
}

void Reactor::FdExhaustionRescue(size_t src_idx) {
  Count(RtMetric::accept_emfile);
  int listen_fd = sources_[src_idx].fd;
  if (reserve_fd_ >= 0) {
    // Burn the reserve to accept exactly one connection and RST it: the
    // client gets a fast failure instead of hanging in a backlog no fd can
    // drain, and the backlog keeps moving.
    close(reserve_fd_);
    reserve_fd_ = -1;
    sockaddr_storage peer;
    socklen_t peer_len = sizeof(peer);
    int fd = shared_->sys->Accept4(index_, listen_fd, reinterpret_cast<sockaddr*>(&peer),
                                   &peer_len, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      RstClose(fd);
      Count(RtMetric::accepted);
      Count(RtMetric::admission_shed);
      if (shared_->trace != nullptr) {
        Trace({.type = obs::TraceEventType::kAdmissionShed, .src = static_cast<int16_t>(index_)});
      }
    }
    reserve_fd_ = open("/dev/null", O_RDONLY | O_CLOEXEC);
  }
  // Capped exponential backoff: stop hammering accept4 while the process is
  // out of fds; the kernel backlog holds the line meanwhile.
  backoff_ms_ = backoff_ms_ == 0 ? kBackoffFirstMs : std::min(backoff_ms_ * 2, kBackoffCapMs);
  backoff_until_ = std::chrono::steady_clock::now() + std::chrono::milliseconds(backoff_ms_);
  Count(RtMetric::accept_backoff);
  Unwatch(sources_[src_idx]);
}

void Reactor::AcceptBatch(size_t src_idx) {
  ListenSource& src = sources_[src_idx];
  if (!src.watching) {
    return;  // unwatched earlier in this batch of events
  }
  auto now = std::chrono::steady_clock::now();
  if (now < backoff_until_) {
    // Fd-exhaustion backoff window: leave the backlog queued, and go dormant
    // so the level-triggered fd does not wake us again until it ends.
    Unwatch(src);
    return;
  }
  const int cap =
      shared_->accept_batch < kMaxAcceptBatch ? shared_->accept_batch : kMaxAcceptBatch;
  int limit = cap;
  if (!src.listener->is_unix) {
    // Ask the kernel how many connections are ready, and accept exactly
    // those (up to the batch cap): a drain that runs until EAGAIN pays for
    // one failing accept4 -- which allocates and frees an fd and a file
    // before it looks at the queue -- on every readiness report, and at
    // short-connection rates most reports carry one connection. Zero skips
    // the drain (a stock-mode herd loser). A failed query, or a UNIX
    // listener (no TCP_INFO), keeps the unbounded drain below.
    int ready = shared_->sys->AcceptQueueLen(index_, src.fd);
    if (ready >= 0 && ready < limit) {
      limit = ready;
    }
  }

  // Stage 1: accept up to `limit` connections into a stack array -- no
  // bookkeeping between accept4 calls beyond routing, so the kernel side is
  // drained as fast as the syscall allows. EAGAIN ends the drain early: the
  // unbounded drain's normal end, or a herd peer that took a connection
  // the count included.
  Accepted batch[kMaxAcceptBatch];
  int n = 0;
  int soft_skips = 0;
  while (n < limit) {
    if (shared_->overload == OverloadPolicy::kLeaveInBacklog) {
      // Admission gate: a full local ring stops the drain so the burst
      // queues in the kernel backlog instead of being accepted into a drop.
      const AcceptRing& ring = *shared_->queues[src.qi];
      if (ring.size() >= ring.capacity()) {
        break;
      }
    }
    sockaddr_storage peer;
    socklen_t peer_len = sizeof(peer);
    int fd = shared_->sys->Accept4(index_, src.fd, reinterpret_cast<sockaddr*>(&peer),
                                   &peer_len, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      // The skip budget bounds an injected errno burst to one batch's worth
      // of retries.
      if (SortAcceptError(errno, src_idx) && ++soft_skips <= cap) {
        continue;
      }
      break;  // EAGAIN, fd exhaustion, or a hard error: retry next wakeup
    }
    batch[n].fd = fd;
    batch[n].qi = RouteAccepted(src, fd, &peer);
    batch[n].src = static_cast<uint32_t>(src_idx);
    ++n;
  }
  if (n > 0) {
    AdmitBatch(batch, n, now);
  }
}

uint32_t Reactor::RouteAccepted(const ListenSource& src, int fd, const sockaddr_storage* peer) {
  backoff_ms_ = 0;  // fds are flowing again: reset the exponential window
  // Steering decisions apply only to the primary TCP listener: its source
  // ports are the flow-group key. Extra ports and UNIX sockets keep plain
  // accepting-core affinity.
  if (shared_->director == nullptr || src.listener == nullptr || src.listener->id != 0 ||
      src.listener->is_unix) {
    return src.qi;
  }
  sockaddr_storage recovered;
  if (peer == nullptr) {
    socklen_t len = sizeof(recovered);
    if (getpeername(fd, reinterpret_cast<sockaddr*>(&recovered), &len) != 0) {
      return src.qi;
    }
    peer = &recovered;
  }
  if (peer->ss_family != AF_INET) {
    return src.qi;
  }
  // Flow-group steering: the connection belongs to whichever core owns its
  // source port's group. With cBPF attached the kernel already delivered
  // the SYN to the owner's shard, so owner == self except for connections
  // in flight across a migration; in fallback mode this re-steer IS the
  // steering (one cross-core ring push).
  uint32_t qi = src.qi;
  CoreId owner = shared_->director->OwnerOfPort(
      ntohs(reinterpret_cast<const sockaddr_in*>(peer)->sin_port));
  if (owner >= 0 && owner < shared_->num_reactors) {
    qi = static_cast<uint32_t>(owner);
  }
  Count(qi == static_cast<uint32_t>(index_) ? RtMetric::steer_owner_accepts
                                            : RtMetric::steer_cross_accepts);
  return qi;
}

bool Reactor::SortAcceptError(int err, size_t src_idx) {
  // The connection behind an ECONNABORTED/EPROTO is gone, and EINTR aborted
  // nothing -- none of them says the listen socket is bad.
  switch (err) {
    case EINTR:
      Count(RtMetric::accept_eintr);
      return true;
    case ECONNABORTED:
      Count(RtMetric::accept_econnaborted);
      return true;
    case EPROTO:
      Count(RtMetric::accept_eproto);
      return true;
    case EMFILE:
    case ENFILE:
      FdExhaustionRescue(src_idx);
      return false;
    default:
      return false;
  }
}

void Reactor::AdmitBatch(const Accepted* batch, int n,
                         std::chrono::steady_clock::time_point now) {
  // Stage 2: pool blocks + ring pushes, aggregating per-ring counts.
  // Connections that cannot be queued go through the admission policy:
  // RST-shed while the drop budget lasts, orderly close otherwise.
  uint32_t overflow_drops = 0;
  uint32_t admission_sheds = 0;
  uint32_t pool_drops = 0;
  for (int i = 0; i < n; ++i) {
    const Accepted& a = batch[i];
    ListenSource& src = sources_[a.src];
    if (src.listener != nullptr) {
      src.listener->accepted.fetch_add(1, std::memory_order_relaxed);
    }
    size_t qi = a.qi;
    ConnHandle handle = shared_->pool->Alloc(index_);
    if (handle == kNullConn && shared_->pool_evict_batch > 0 &&
        EvictIdleConns(shared_->pool_evict_batch) > 0) {
      // Pool pressure: the oldest idle conns (slowloris holders, by
      // definition of idle) were just reaped, so the retry usually
      // succeeds -- new work displaces dead weight instead of being shed.
      handle = shared_->pool->Alloc(index_);
    }
    if (handle == kNullConn) {
      // Arena exhausted (sized to cover every ring plus a batch, so this
      // means the rings are full anyway): same disposition as a ring
      // overflow, plus its own counter.
      ++pool_drops;
      if (ShedOrDrop(a.fd, qi, now)) {
        ++admission_sheds;
      } else {
        ++overflow_drops;
      }
      continue;
    }
    PendingConn* conn = shared_->pool->Get(handle);
    conn->fd = a.fd;
    conn->accept_core = static_cast<int16_t>(index_);
    conn->serve_core = -1;
    conn->accepted_at = std::chrono::steady_clock::now();
    conn->svc.Reset(src.listener != nullptr ? static_cast<uint8_t>(src.listener->id) : 0);
    size_t len_after = 0;
    if (!shared_->queues[qi]->Push(handle, &len_after)) {
      shared_->pool->Free(index_, handle);  // we just allocated it: local free
      if (ShedOrDrop(a.fd, qi, now)) {
        ++admission_sheds;
      } else {
        ++overflow_drops;
      }
      if (!io_->accepts_inline() && shared_->overload == OverloadPolicy::kLeaveInBacklog &&
          src.watching) {
        // A completion engine cannot stop draining mid-batch the way the
        // accept4 gate does -- the kernel keeps accepting behind the
        // multishot SQE. Going dormant is the equivalent backpressure:
        // cancel the accept so later connections stay in the listen backlog
        // until the ring has room again (RewatchSources).
        Unwatch(src);
      }
      continue;
    }
    enq_.NoteMove(qi, len_after);
  }

  // Stage 3: one flush per touched ring -- queue-length gauge and the
  // policy's EWMA/watermark update see the post-batch state once.
  Count(RtMetric::accepted, static_cast<uint64_t>(n));
  if (overflow_drops > 0) {
    Count(RtMetric::overflow_drops, overflow_drops);
  }
  if (admission_sheds > 0) {
    Count(RtMetric::admission_shed, admission_sheds);
  }
  if (pool_drops > 0) {
    Count(RtMetric::pool_exhausted, pool_drops);
  }
  for (uint32_t qi : enq_.touched) {
    QueueBatch::PerQueue& entry = enq_.q[qi];
    queue_len_[qi]->store(entry.last_len, std::memory_order_relaxed);
    if (shared_->policy != nullptr &&
        shared_->policy->OnEnqueueBatch(static_cast<CoreId>(qi), entry.moved, entry.last_len)) {
      RecordBusyFlip(qi, entry.last_len);
    }
    WakeForPush(qi, entry.last_len);
    entry.moved = 0;
  }
  enq_.touched.clear();
}

void Reactor::WakeForPush(uint32_t qi, size_t len_after) {
  if (shared_->mode == RtMode::kAffinity && qi != static_cast<uint32_t>(index_)) {
    // A cross-ring push (flow-group re-steer, or an adopted shard's accept):
    // only its owner serves that ring, and a parked owner cannot see it.
    // A dead owner serves nothing; its ring is forced busy for thieves.
    if (shared_->domains != nullptr && shared_->domains->IsDead(static_cast<int>(qi))) {
      WakeThief(qi);
      return;
    }
    if (shared_->doorbells[qi]->Wake()) {
      return;  // the owner was idle: it takes the whole ring, no thief needed
    }
  }
  if (len_after >= 2) {
    WakeThief(qi);
  }
}

void Reactor::WakeThief(uint32_t qi) {
  const int n = shared_->num_reactors;
  if (shared_->mode != RtMode::kAffinity) {
    for (int i = 1; i < n; ++i) {
      Doorbell& bell = *shared_->doorbells[static_cast<size_t>((index_ + i) % n)];
      if (bell.parked_hint() && bell.Wake()) {
        return;
      }
    }
    return;
  }
  for (const std::vector<CoreId>& peers : shared_->topo->PeerClasses(static_cast<CoreId>(qi))) {
    for (CoreId c : peers) {
      Doorbell& bell = *shared_->doorbells[static_cast<size_t>(c)];
      if (c != index_ && bell.parked_hint() && !shared_->policy->IsBusy(c) && bell.Wake()) {
        return;
      }
    }
  }
}

void Reactor::WakeIdlePeers() {
  for (int c = 0; c < shared_->num_reactors; ++c) {
    Doorbell& bell = *shared_->doorbells[static_cast<size_t>(c)];
    if (c != index_ && bell.parked_hint() && !shared_->policy->IsBusy(c)) {
      bell.Wake();
    }
  }
}

bool Reactor::ServedRingNonEmpty() const {
  switch (shared_->mode) {
    case RtMode::kStock:
      return shared_->queues[0]->size() > 0;
    case RtMode::kFine:
      for (const std::unique_ptr<AcceptRing>& ring : shared_->queues) {
        if (ring->size() > 0) {
          return true;
        }
      }
      return false;
    case RtMode::kAffinity:
      if (shared_->queues[static_cast<size_t>(index_)]->size() > 0) {
        return true;
      }
      for (size_t i = base_sources_; i < sources_.size(); ++i) {
        if (shared_->queues[sources_[i].qi]->size() > 0) {
          return true;
        }
      }
      return false;
  }
  return false;
}

void Reactor::Unwatch(ListenSource& src) {
  if (!src.watching) {
    return;
  }
  io_->UnwatchListen(src.fd, io::MakeListenToken(src.fd, src.watch_gen));
  ++src.watch_gen;
  src.watching = false;
}

void Reactor::RewatchSources(std::chrono::steady_clock::time_point now) {
  for (ListenSource& src : sources_) {
    if (src.watching) {
      continue;
    }
    if (now < backoff_until_) {
      continue;  // fd-exhaustion window: stay dormant, the backlog holds
    }
    if (shared_->overload == OverloadPolicy::kLeaveInBacklog) {
      const AcceptRing& ring = *shared_->queues[src.qi];
      if (ring.size() >= ring.capacity()) {
        continue;  // still full: keep the burst queued in the kernel
      }
    }
    if (io_->WatchListen(src.fd, io::MakeListenToken(src.fd, src.watch_gen))) {
      src.watching = true;
    }
  }
}

int Reactor::ServeBatch() {
  int served = 0;
  while (served < shared_->accept_batch && ServeOne(/*idle=*/false)) {
    ++served;
  }
  FlushDequeues();
  return served;
}

bool Reactor::PopFrom(size_t qi, ConnHandle* out) {
  size_t len_after = 0;
  if (!shared_->queues[qi]->TryPop(out, &len_after)) {
    return false;
  }
  deq_.NoteMove(qi, len_after);
  return true;
}

void Reactor::FlushDequeues() {
  for (uint32_t qi : deq_.touched) {
    QueueBatch::PerQueue& entry = deq_.q[qi];
    queue_len_[qi]->store(entry.last_len, std::memory_order_relaxed);
    if (shared_->policy != nullptr &&
        shared_->policy->OnDequeueBatch(static_cast<CoreId>(qi), entry.moved, entry.last_len)) {
      RecordBusyFlip(qi, entry.last_len);
    }
    entry.moved = 0;
  }
  deq_.touched.clear();
  if (batch_served_local_ > 0) {
    Count(RtMetric::served_local, batch_served_local_);
    batch_served_local_ = 0;
  }
  if (batch_served_remote_ > 0) {
    Count(RtMetric::served_remote, batch_served_remote_);
    batch_served_remote_ = 0;
  }
}

void Reactor::RecordSteal(CoreId victim, size_t victim_len_after) {
  shared_->policy->OnSteal(index_, victim);
  Count(RtMetric::steals);
  // Distance ledger: how far this steal reached. LedgerBucket is never 0
  // here (a core does not steal from itself).
  int bucket = topo::LedgerBucket(shared_->topo->Between(index_, victim));
  Count(DistanceRow(RtMetric::steals_same_llc, bucket));
  if (shared_->trace != nullptr) {
    Trace({.type = obs::TraceEventType::kSteal,
           .src = static_cast<int16_t>(victim),
           .dst = static_cast<int16_t>(index_),
           .qlen = static_cast<uint32_t>(victim_len_after)});
  }
}

bool Reactor::ServeOne(bool idle) {
  ConnHandle conn = kNullConn;

  switch (shared_->mode) {
    case RtMode::kStock: {
      if (!PopFrom(0, &conn)) {
        return false;
      }
      Serve(conn, /*local=*/true);
      return true;
    }

    case RtMode::kFine: {
      // Round-robin over all rings through the shared cursor; every core
      // serves every ring, so there is no connection affinity.
      size_t n = shared_->queues.size();
      size_t start =
          static_cast<size_t>(shared_->rr_cursor.fetch_add(1, std::memory_order_relaxed)) % n;
      for (size_t i = 0; i < n; ++i) {
        size_t qi = (start + i) % n;
        if (PopFrom(qi, &conn)) {
          Serve(conn, qi == static_cast<size_t>(index_));
          return true;
        }
      }
      return false;
    }

    case RtMode::kAffinity: {
      // Same decision sequence as ListenSocket::Accept, driven by the same
      // BalancePolicy: proportional-share steal-first check, local ring,
      // late steal, then (only before sleeping) the widened scan. Dequeue
      // reporting is deferred to the end of the batch, so decisions within
      // one batch see busy bits at most one batch stale.
      BalancePolicy* policy = shared_->policy;
      CoreId me = index_;
      bool self_busy = policy->IsBusy(me);
      bool may_steal = !self_busy && policy->AnyBusy();
      size_t local_len = shared_->queues[static_cast<size_t>(me)]->size();
      bool steal_first = false;
      if (may_steal) {
        steal_first = local_len == 0 || policy->ShouldStealThisTime(me);
      }

      if (steal_first && StealFrom(policy->PickBusyVictim(me))) {
        return true;
      }
      if (PopFrom(static_cast<size_t>(me), &conn)) {
        Serve(conn, /*local=*/true);
        return true;
      }
      if (may_steal && !steal_first && StealFrom(policy->PickBusyVictim(me))) {
        return true;
      }
      if (idle && !self_busy) {
        // The widened scan takes a connection queued behind another -- the
        // one a peer rang this reactor for (WakeForPush); a lone queued
        // connection is its owner's next pop.
        return StealFrom(policy->PickAnyVictim(me, [this](CoreId c) {
          return shared_->queues[static_cast<size_t>(c)]->size() >= 2;
        }));
      }
      return false;
    }
  }
  return false;
}

bool Reactor::StealFrom(CoreId victim) {
  ConnHandle conn = kNullConn;
  if (victim == kNoCore || !PopFrom(static_cast<size_t>(victim), &conn)) {
    return false;
  }
  Prof(obs::hwprof::Phase::kSteal);
  RecordSteal(victim, shared_->queues[static_cast<size_t>(victim)]->size());
  Serve(conn, /*local=*/false);
  Prof(obs::hwprof::Phase::kServe);
  return true;
}

void Reactor::Serve(ConnHandle handle, bool local) {
  PendingConn* conn = shared_->pool->Get(handle);
  hists_[RtMetric::queue_wait_ns]->Add(ToNs(std::chrono::steady_clock::now() - conn->accepted_at));
  // The locality ledger's moment of truth: the first serving core is now
  // known. Core locality is a different fact from ring locality (`local`):
  // stock mode's one shared ring makes every pop ring-local, and steering
  // can queue a conn on a third core's ring -- the ledger compares CORES.
  conn->serve_core = static_cast<int16_t>(index_);
  bool core_local = conn->accept_core == static_cast<int16_t>(index_);
  // Distance ledger: how far this request travelled from its accepting
  // core (0 local, then LedgerBucket's same-LLC / cross-LLC / cross-node).
  int dist_bucket = core_local
                        ? 0
                        : topo::LedgerBucket(shared_->topo->Between(
                              static_cast<CoreId>(conn->accept_core), index_));
  if (!core_local) {
    Count(RtMetric::conn_migrations);
  }
  svc::ConnHandler* handler = shared_->listeners[conn->svc.listener]->handler;
  if (handler == nullptr) {
    // The legacy accept workload: one byte, then an orderly close. Enough
    // for the load client to observe end-to-end completion; per-connection
    // application work is what the handlers above this path add.
    if (local) {
      ++batch_served_local_;
    } else {
      ++batch_served_remote_;
    }
    if (core_local) {
      Count(RtMetric::requests_local_core);
    } else {
      Count(RtMetric::requests_remote_core);
      Count(DistanceRow(RtMetric::requests_same_llc, dist_bucket));
    }
    char byte = 'A';
    (void)send(conn->fd, &byte, 1, MSG_NOSIGNAL);
    shared_->sys->Close(index_, conn->fd);
    // Return the block to the accepting core's pool -- the paper's remote
    // deallocation when this connection was stolen or re-steered here.
    FreeConn(handle);
    return;
  }
  // Request/response: the connection enters service on THIS reactor and
  // stays here until a close verdict -- the locality decision was made at
  // the pop, so it is recorded now and accounted at close.
  svc::ConnState& st = conn->svc;
  st.remote_served = !local;
  st.accept_local = core_local;
  st.accept_dist = static_cast<uint8_t>(dist_bucket);
  st.opened = true;
  OpenListAdd(handle, conn);
  ++open_count_;
  cells_[RtMetric::open_conns]->store(open_count_, std::memory_order_relaxed);
  // The absolute lifetime cap starts at first service touch and never
  // re-arms; it rides in the pool block like the phase timer, on THIS
  // reactor's wheel (the conn is pinned here until close).
  if (shared_->max_lifetime_ns > 0) {
    wheel_->Arm(&conn->life_timer, shared_->clock->NowNs() + shared_->max_lifetime_ns,
                static_cast<uint8_t>(DeadlineKind::kLifetime),
                static_cast<uint64_t>(handle));
  }
  svc::ConnRef ref{&st, conn->fd, index_, shared_->sys};
  uint16_t prev = st.rounds_done;
  svc::Verdict verdict = handler->OnAccept(ref);
  NoteRounds(conn, prev);
  Finish(handle, conn, verdict);
}

void Reactor::DriveConn(ConnHandle handle, uint32_t ev_events) {
  PendingConn* conn = shared_->pool->Get(handle);
  svc::ConnState& st = conn->svc;
  if ((ev_events & EPOLLERR) != 0 || (ev_events & (EPOLLIN | EPOLLOUT)) == 0) {
    // The socket has a pending error (a peer RST, which also reports
    // EPOLLIN) or is hung up with nothing readable: the handler's next read
    // or send could only fail, and a reply could not reach the peer. Close
    // directly -- an orderly close, booked as served, exactly as the
    // handler's ECONNRESET path books it. OnClose still runs.
    CloseConn(handle, conn, /*rst=*/false);
    return;
  }
  svc::ConnHandler* handler = shared_->listeners[st.listener]->handler;
  svc::ConnRef ref{&st, conn->fd, index_, shared_->sys};
  uint16_t prev = st.rounds_done;
  svc::Verdict verdict = st.phase == svc::ConnPhase::kWriting ? handler->OnWritable(ref)
                                                              : handler->OnReadable(ref);
  NoteRounds(conn, prev);
  Finish(handle, conn, verdict);
}

void Reactor::NoteRounds(PendingConn* conn, uint16_t prev_rounds) {
  uint16_t done = conn->svc.rounds_done;
  if (done == prev_rounds) {
    return;
  }
  // A completed round retires the current phase deadline: the next verdict
  // arms a fresh one for the next request. Progress WITHIN a phase (partial
  // request bytes, partial response flushes) deliberately does not reach
  // here -- that is the slowloris defense.
  if (shared_->deadlines_enabled) {
    wheel_->Cancel(&conn->phase_timer);
  }
  // rounds_done wraps at 65536: the difference must wrap with it, or the
  // 65536th round of a connection would count as ~4.29e9.
  uint32_t delta = static_cast<uint16_t>(done - prev_rounds);
  Count(RtMetric::requests, delta);
  // Ledger: these rounds ran on the core recorded at Serve() time. A held
  // connection never changes reactors mid-conversation, so the bucket set
  // there is exact for every round.
  if (conn->svc.accept_local) {
    Count(RtMetric::requests_local_core, delta);
  } else {
    Count(RtMetric::requests_remote_core, delta);
    Count(DistanceRow(RtMetric::requests_same_llc, conn->svc.accept_dist), delta);
  }
  // The built-in handlers complete at most one round per call; a handler
  // that completes several books each at the last round's latency.
  for (uint32_t i = 0; i < delta; ++i) {
    hists_[RtMetric::request_latency_ns]->Add(conn->svc.last_request_ns);
  }
}

void Reactor::Finish(ConnHandle handle, PendingConn* conn, svc::Verdict verdict) {
  switch (verdict) {
    case svc::Verdict::kWantRead:
      if (Arm(handle, conn, EPOLLIN) && shared_->deadlines_enabled) {
        ArmPhaseDeadline(handle, conn, /*want_read=*/true);
      }
      return;
    case svc::Verdict::kWantWrite:
      if (Arm(handle, conn, EPOLLOUT) && shared_->deadlines_enabled) {
        ArmPhaseDeadline(handle, conn, /*want_read=*/false);
      }
      return;
    case svc::Verdict::kClose:
      CloseConn(handle, conn, /*rst=*/false);
      return;
    case svc::Verdict::kRstClose:
      CloseConn(handle, conn, /*rst=*/true);
      return;
  }
}

bool Reactor::Arm(ConnHandle handle, PendingConn* conn, uint32_t want) {
  svc::ConnState& st = conn->svc;
  if (st.armed == want) {
    return true;  // level-triggered epoll: the existing registration keeps
                  // firing. (A one-shot backend cleared armed at delivery,
                  // so a live uring poll is never spuriously skipped here.)
  }
  uint64_t token = io::MakeConnToken(handle, conn->io_gen.load(std::memory_order_relaxed));
  if (st.armed != 0 && io_->oneshot_arms()) {
    // Direction change with a one-shot still in flight (defensive; the
    // reactor only re-arms after a delivery): cancel it so the stale
    // direction cannot wake this conversation.
    io_->CancelConn(conn->fd, token);
  }
  if (!io_->ArmConn(conn->fd, want, token, st.armed == 0)) {
    // A connection the engine cannot watch would be held forever: fail it
    // fast.
    CloseConn(handle, conn, /*rst=*/true);
    return false;
  }
  st.armed = want;
  return true;
}

void Reactor::ArmPhaseDeadline(ConnHandle handle, PendingConn* conn, bool want_read) {
  const svc::ConnState& st = conn->svc;
  DeadlineKind kind;
  uint64_t timeout_ns;
  if (!want_read) {
    kind = DeadlineKind::kWrite;
    timeout_ns = shared_->write_timeout_ns;
  } else if (st.req_len > 0) {
    kind = DeadlineKind::kRead;
    timeout_ns = shared_->read_timeout_ns;
  } else if (st.rounds_done == 0) {
    kind = DeadlineKind::kHandshake;
    timeout_ns = shared_->handshake_timeout_ns;
  } else {
    kind = DeadlineKind::kIdle;
    timeout_ns = shared_->idle_timeout_ns;
  }
  timer::TimerEntry* e = &conn->phase_timer;
  if (timeout_ns == 0) {
    wheel_->Cancel(e);  // this class is disabled; drop any stale deadline
    return;
  }
  if (e->armed && e->kind == static_cast<uint8_t>(kind)) {
    // Same phase as last time: the absolute deadline stands. This is the
    // slowloris defense -- a client trickling one byte per wakeup changes
    // nothing here, only a phase TRANSITION (or a completed round, which
    // cancels in NoteRounds) buys a fresh deadline.
    return;
  }
  wheel_->Arm(e, shared_->clock->NowNs() + timeout_ns, static_cast<uint8_t>(kind),
              static_cast<uint64_t>(handle));
}

void Reactor::OnDeadlineExpiry(timer::TimerEntry* e) {
  // Every close path cancels both of a conn's entries before the block can
  // recycle, so a fired entry always refers to a conn this reactor still
  // holds open.
  ConnHandle handle = static_cast<ConnHandle>(e->data);
  PendingConn* conn = shared_->pool->Get(handle);
  CloseConn(handle, conn, /*rst=*/true, static_cast<DeadlineKind>(e->kind));
}

int Reactor::NextWaitTimeoutMs() {
  auto now = std::chrono::steady_clock::now();
  auto wake = std::min(next_migrate_, next_watchdog_);
  if (backoff_until_ > now) {
    wake = std::min(wake, backoff_until_);  // then RewatchSources re-arms
  }
  constexpr uint64_t kNoBound = ~0ull;
  uint64_t sleep_ns = kNoBound;
  if (wake != std::chrono::steady_clock::time_point::max()) {
    sleep_ns = wake > now ? ToNs(wake - now) : 0;
  }
  if (shared_->deadlines_enabled) {
    uint64_t next = wheel_->NextFireNs();
    if (next != timer::TimerWheel::kNever) {
      sleep_ns = std::min(sleep_ns, shared_->clock->SleepNs(next));
    }
  }
  if (sleep_ns == kNoBound) {
    return -1;
  }
  // Round up: waking a little after a deadline is fine, waking before it
  // is a wasted pass.
  uint64_t ms = (sleep_ns + 999'999) / 1'000'000;
  return ms < static_cast<uint64_t>(INT32_MAX) ? static_cast<int>(ms) : INT32_MAX;
}

int Reactor::EvictIdleConns(int max_evict) {
  if (max_evict <= 0 || open_head_ == kNullConn) {
    return 0;
  }
  // open_head_ is newest-first, so walk to the tail and reap backwards:
  // eviction takes the OLDEST idle conns. Pass 0 restricts itself to blocks
  // this core owns (a remote-owned free lands on another core's freelist
  // and would not refill the Alloc that just failed); pass 1 runs only if
  // pass 0 freed nothing, relieving global pressure instead.
  ConnHandle tail = open_head_;
  for (;;) {
    ConnHandle next = shared_->pool->Get(tail)->svc.open_next;
    if (next == kNullConn) {
      break;
    }
    tail = next;
  }
  int evicted = 0;
  for (int pass = 0; pass < 2 && evicted == 0; ++pass) {
    ConnHandle h = tail;
    while (h != kNullConn && evicted < max_evict) {
      PendingConn* conn = shared_->pool->Get(h);
      ConnHandle prev = conn->svc.open_prev;
      if (conn->svc.IdleBetweenRequests() &&
          (pass == 1 || shared_->pool->OwnerOf(h) == index_)) {
        // Counted as an idle timeout (the conservation bucket an
        // early-reaped idle conn belongs to) plus the eviction counter.
        CloseConn(h, conn, /*rst=*/true, DeadlineKind::kIdle);
        ++evicted;
      }
      h = prev;
    }
  }
  if (evicted > 0) {
    Count(RtMetric::pool_evictions, static_cast<uint64_t>(evicted));
  }
  return evicted;
}

void Reactor::CloseConn(ConnHandle handle, PendingConn* conn, bool rst,
                        DeadlineKind timeout) {
  svc::ConnState& st = conn->svc;
  svc::ConnHandler* handler = shared_->listeners[st.listener]->handler;
  // Retire both deadline entries BEFORE the block can recycle: a dangling
  // armed entry would leave the wheel pointing into a block another core
  // now owns.
  wheel_->Cancel(&conn->phase_timer);
  wheel_->Cancel(&conn->life_timer);
  if (st.armed != 0) {
    // Withdraw any in-flight one-shot poll (no-op for epoll, whose close()
    // drops the registration). A completion that raced the cancel is
    // rejected by the io_gen bump in FreeConn below.
    io_->CancelConn(conn->fd,
                    io::MakeConnToken(handle, conn->io_gen.load(std::memory_order_relaxed)));
    st.armed = 0;
  }
  if (st.opened && handler != nullptr) {
    svc::ConnRef ref{&st, conn->fd, index_, shared_->sys};
    handler->OnClose(ref);
  }
  OpenListRemove(handle, conn);
  --open_count_;
  cells_[RtMetric::open_conns]->store(open_count_, std::memory_order_relaxed);
  if (rst) {
    RstClose(conn->fd);
  } else {
    shared_->sys->Close(index_, conn->fd);
  }
  if (timeout != DeadlineKind::kNone) {
    // A deadline expiry (or pool-pressure eviction) is not service: it
    // lands in its classified rt_timeouts_* bucket -- the `timed_out` term
    // of the conservation equation -- never in served.
    Count(TimeoutRow(timeout));
  } else {
    // Served accounting happens at close, under the locality recorded when
    // the connection was popped -- held-open connections are in
    // rt_conn_open until this moment, which is what keeps `accepted ==
    // served + open + drops` exact at any instant.
    if (st.remote_served) {
      ++batch_served_remote_;
    } else {
      ++batch_served_local_;
    }
    if (shared_->draining.load(std::memory_order_relaxed)) {
      // A conversation that finished normally inside the drain window: the
      // graceful half of Stop(drain_deadline_ms)'s ledger.
      Count(RtMetric::drained_gracefully);
    }
  }
  FreeConn(handle);
}

void Reactor::FreeConn(ConnHandle handle) {
  // Retire this block's reuse generation BEFORE the block can recycle: any
  // event token minted for the old occupant is now recognizably stale.
  shared_->pool->Get(handle)->io_gen.fetch_add(1, std::memory_order_relaxed);
  CoreId owner = shared_->pool->OwnerOf(handle);
  shared_->pool->Free(index_, handle);
  if (owner != index_) {
    Count(RtMetric::conn_remote_frees);
  }
}

void Reactor::OpenListAdd(ConnHandle handle, PendingConn* conn) {
  conn->svc.open_prev = kNullConn;
  conn->svc.open_next = open_head_;
  if (open_head_ != kNullConn) {
    shared_->pool->Get(open_head_)->svc.open_prev = handle;
  }
  open_head_ = handle;
}

void Reactor::OpenListRemove(ConnHandle handle, PendingConn* conn) {
  uint32_t prev = conn->svc.open_prev;
  uint32_t next = conn->svc.open_next;
  if (prev != kNullConn) {
    shared_->pool->Get(prev)->svc.open_next = next;
  } else {
    open_head_ = next;
  }
  if (next != kNullConn) {
    shared_->pool->Get(next)->svc.open_prev = prev;
  }
  conn->svc.open_prev = kNullConn;
  conn->svc.open_next = kNullConn;
}

void Reactor::CloseAllOpen() {
  uint64_t aborted = 0;
  while (open_head_ != kNullConn) {
    ConnHandle handle = open_head_;
    PendingConn* conn = shared_->pool->Get(handle);
    svc::ConnState& st = conn->svc;
    svc::ConnHandler* handler = shared_->listeners[st.listener]->handler;
    if (st.opened && handler != nullptr) {
      svc::ConnRef ref{&st, conn->fd, index_, shared_->sys};
      handler->OnClose(ref);
    }
    wheel_->Cancel(&conn->phase_timer);
    wheel_->Cancel(&conn->life_timer);
    OpenListRemove(handle, conn);
    shared_->sys->Close(index_, conn->fd);
    FreeConn(handle);
    ++aborted;
  }
  if (aborted > 0) {
    Count(RtMetric::aborted_at_stop, aborted);
  }
  open_count_ = 0;
  cells_[RtMetric::open_conns]->store(0, std::memory_order_relaxed);
}

}  // namespace rt
}  // namespace affinity
