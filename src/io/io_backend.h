// IoBackend: the reactor's readiness/completion engine, made substitutable.
//
// PR 5 routed every fate-deciding syscall through fault::SysIface; this seam
// goes one level up and abstracts the EVENT ENGINE itself, so the same
// reactor loop (accept rings, BalancePolicy stealing, svc handlers, locality
// ledger) can run on either of two kernel interfaces:
//  - EpollBackend: the original readiness model -- epoll_wait + accept4
//    drained inline by the reactor (src/io/epoll_backend.*),
//  - UringBackend: io_uring completions -- multishot accept delivers
//    already-accepted fds in the completion stream, one-shot POLL_ADDs
//    replace epoll (re-)arming, and all staging is batched into one
//    io_uring_enter per loop iteration (src/io/uring_backend.*).
// The COREC line of work (see PAPERS.md / DESIGN.md 5j) argues completion
// batching beats per-core readiness queues at low load; this seam is what
// lets bench_rt_loopback test that claim against the paper's design without
// forking the reactor.
//
// Token scheme (shared by both backends, carried in epoll_event.data.u64 /
// io_uring_sqe.user_data verbatim):
//  - bit 63 set   = connection: bits [32,48) are the PendingConn block's
//    reuse generation (stale-completion defense -- a one-shot poll can
//    complete after its connection closed and its handle was recycled),
//    bits [0,32) the ConnHandle.
//  - bit 62 set   = backend-internal bookkeeping (a cancel's own CQE);
//    never surfaces as an IoEvent -- except kDoorbellToken (bits 62 and
//    61), the reactor's doorbell, which surfaces as an event of its own.
//  - otherwise    = listen source: bits [0,32) the listen fd, bits [32,48)
//    the source's watch generation (stale-terminal defense for re-armed
//    multishot accepts).
// Listen fds are nonnegative ints, so the tag bits can never collide.

#ifndef AFFINITY_SRC_IO_IO_BACKEND_H_
#define AFFINITY_SRC_IO_IO_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/fault/sys_iface.h"

namespace affinity {
namespace io {

enum class IoBackendKind : uint8_t { kEpoll, kUring };

const char* IoBackendName(IoBackendKind kind);
bool ParseIoBackend(const char* name, IoBackendKind* out);

inline constexpr uint64_t kConnTokenTag = 1ull << 63;
inline constexpr uint64_t kInternalTokenTag = 1ull << 62;
// The doorbell's token: no cancel carries bit 61 (it targets a conn or
// listen token, neither of which sets it).
inline constexpr uint64_t kDoorbellToken = kInternalTokenTag | (1ull << 61);

inline uint64_t MakeConnToken(uint32_t handle, uint16_t gen) {
  return kConnTokenTag | (static_cast<uint64_t>(gen) << 32) | handle;
}
inline uint64_t MakeListenToken(int fd, uint16_t gen) {
  return (static_cast<uint64_t>(gen) << 32) | static_cast<uint64_t>(static_cast<uint32_t>(fd));
}
inline bool IsConnToken(uint64_t token) { return (token & kConnTokenTag) != 0; }
inline uint32_t HandleOfToken(uint64_t token) { return static_cast<uint32_t>(token); }
inline int FdOfListenToken(uint64_t token) { return static_cast<int>(static_cast<uint32_t>(token)); }
inline uint16_t GenOfToken(uint64_t token) { return static_cast<uint16_t>(token >> 32); }

// One readiness/completion event, normalized across backends. Readiness
// masks use the EPOLL* bit values (POLLIN/POLLOUT/POLLERR/POLLHUP are
// numerically identical, which is what lets the uring poll path share them).
struct IoEvent {
  uint64_t token = 0;
  uint32_t events = 0;    // EPOLLIN/EPOLLOUT/EPOLLERR/EPOLLHUP readiness
  int accepted_fd = -1;   // >= 0: a multishot accept delivered this fd
  int error = 0;          // listen-source completion errno (0 = none)
  // The listen source's multishot accept terminated (no more completions
  // will arrive); the reactor must WatchListen again to keep accepting.
  // Epoll never sets this -- its listen registrations are level-triggered
  // and permanent.
  bool rewatch = false;
};

// The engine contract. One instance per reactor thread, used only by that
// thread (Wait/arm/cancel are reactor-loop calls); construction and Init
// happen inside Run() after pinning.
class IoBackend {
 public:
  virtual ~IoBackend() = default;

  virtual const char* name() const = 0;

  // Acquires kernel resources (epoll instance / ring mmaps). False with
  // *error set means this reactor cannot run on this backend.
  virtual bool Init(std::string* error) = 0;
  virtual void Shutdown() = 0;

  // True when the reactor drains accept4 itself on listen readiness
  // (epoll); false when accepted fds arrive inside IoEvents (uring).
  virtual bool accepts_inline() const = 0;

  // True when a delivered conn event consumes its registration (uring's
  // one-shot polls): the reactor clears ConnState::armed before the handler
  // runs so Finish() re-arms. Epoll registrations persist (level-triggered).
  virtual bool oneshot_arms() const = 0;

  // Starts watching a listen fd: EPOLLIN registration (epoll) or a
  // multishot accept SQE (uring).
  virtual bool WatchListen(int fd, uint64_t token) = 0;
  // Stops watching: EPOLL_CTL_DEL, or an async cancel of the multishot
  // accept (its terminal CQE is dropped via the token generation).
  virtual void UnwatchListen(int fd, uint64_t token) = 0;

  // Watches the reactor's doorbell, an eventfd other threads write to wake
  // it: an EPOLLIN|EPOLLET registration (epoll) or a multishot poll
  // (uring), so every write delivers one kDoorbellToken event and the
  // counter never needs a draining read. Called once, before the first
  // Wait; the engine never closes the fd.
  virtual bool WatchDoorbell(int fd) = 0;

  // (Re-)arms `events` (EPOLLIN or EPOLLOUT) for a held connection.
  // `first` distinguishes ADD from MOD for epoll; uring ignores it (every
  // arm is a fresh one-shot POLL_ADD). False = the connection cannot be
  // watched and must be closed.
  virtual bool ArmConn(int fd, uint32_t events, uint64_t token, bool first) = 0;
  // Cancels a pending arm before close (uring; epoll's close() implicitly
  // drops the registration).
  virtual void CancelConn(int fd, uint64_t token) = 0;

  // Blocks up to timeout_ms (-1 = until an event) for events; returns the
  // count filled into `out`, 0 on timeout/EINTR, -1 on a hard engine error,
  // or fault::SysIface::kKillReactor when a chaos plan killed this reactor.
  // For uring this is also the single submission point: every SQE staged
  // since the last Wait goes to the kernel here, batched.
  virtual int Wait(IoEvent* out, int max_events, int timeout_ms) = 0;
};

// Builds the backend for `kind`. `core` keys the SysIface calls; `sys` must
// outlive the backend.
std::unique_ptr<IoBackend> CreateIoBackend(IoBackendKind kind, int core, fault::SysIface* sys);

}  // namespace io
}  // namespace affinity

#endif  // AFFINITY_SRC_IO_IO_BACKEND_H_
