// The original readiness engine, factored out of rt::Reactor::Run() so the
// reactor is engine-agnostic. Semantics are exactly the pre-refactor ones:
// level-triggered registrations, conn arming through sys->EpollCtl (the
// kEpollCtl fault site), the wait through sys->EpollWait (the kEpollWait
// fault site, including the kKillReactor chaos sentinel), and accept4
// drained inline by the reactor (accepts_inline() == true).

#ifndef AFFINITY_SRC_IO_EPOLL_BACKEND_H_
#define AFFINITY_SRC_IO_EPOLL_BACKEND_H_

#include "src/io/io_backend.h"

namespace affinity {
namespace io {

class EpollBackend : public IoBackend {
 public:
  EpollBackend(int core, fault::SysIface* sys) : core_(core), sys_(sys) {}
  ~EpollBackend() override { Shutdown(); }

  const char* name() const override { return "epoll"; }
  bool Init(std::string* error) override;
  void Shutdown() override;
  bool accepts_inline() const override { return true; }
  bool oneshot_arms() const override { return false; }

  bool WatchListen(int fd, uint64_t token) override;
  void UnwatchListen(int fd, uint64_t token) override;
  bool WatchDoorbell(int fd) override;
  bool ArmConn(int fd, uint32_t events, uint64_t token, bool first) override;
  void CancelConn(int fd, uint64_t token) override;
  int Wait(IoEvent* out, int max_events, int timeout_ms) override;

 private:
  int core_;
  fault::SysIface* sys_;
  int ep_ = -1;
};

}  // namespace io
}  // namespace affinity

#endif  // AFFINITY_SRC_IO_EPOLL_BACKEND_H_
