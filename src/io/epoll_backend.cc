#include "src/io/epoll_backend.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace affinity {
namespace io {

bool EpollBackend::Init(std::string* error) {
  ep_ = epoll_create1(EPOLL_CLOEXEC);
  if (ep_ < 0) {
    if (error != nullptr) {
      *error = std::string("epoll_create1: ") + std::strerror(errno);
    }
    return false;
  }
  return true;
}

void EpollBackend::Shutdown() {
  if (ep_ >= 0) {
    close(ep_);
    ep_ = -1;
  }
}

bool EpollBackend::WatchListen(int fd, uint64_t token) {
  // Listen registrations bypass the fault seam, as the pre-refactor reactor
  // did: chaos plans target the hot path (kEpollCtl covers conn arming),
  // and a failed listen ADD at startup must surface as a dead source, not
  // an injected flake.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = token;
  return epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

void EpollBackend::UnwatchListen(int fd, uint64_t token) {
  (void)token;
  epoll_ctl(ep_, EPOLL_CTL_DEL, fd, nullptr);
}

bool EpollBackend::WatchDoorbell(int fd) {
  // Edge-triggered: every eventfd write re-queues the item, so each ring is
  // reported once and the never-read counter cannot re-report it.
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = kDoorbellToken;
  return epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

bool EpollBackend::ArmConn(int fd, uint32_t events, uint64_t token, bool first) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = token;
  int op = first ? EPOLL_CTL_ADD : EPOLL_CTL_MOD;
  return sys_->EpollCtl(core_, ep_, op, fd, &ev) == 0;
}

void EpollBackend::CancelConn(int fd, uint64_t token) {
  // close() removes the fd from every epoll set; nothing to cancel.
  (void)fd;
  (void)token;
}

int EpollBackend::Wait(IoEvent* out, int max_events, int timeout_ms) {
  epoll_event events[64];
  if (max_events > 64) {
    max_events = 64;
  }
  int n = sys_->EpollWait(core_, ep_, events, max_events, timeout_ms);
  if (n == fault::SysIface::kKillReactor) {
    return n;
  }
  if (n < 0) {
    return errno == EINTR ? 0 : -1;
  }
  for (int i = 0; i < n; ++i) {
    out[i] = IoEvent{};
    out[i].token = events[i].data.u64;
    out[i].events = events[i].events;
  }
  return n;
}

}  // namespace io
}  // namespace affinity
