// UringBackend: the completion engine -- io_uring multishot accept, batched
// SQE submission, completion-batch dispatch.
//
// Shape of one reactor loop iteration under this backend:
//  1. everything staged since the last Wait (poll arms, cancels, accept
//     re-watches) is published and submitted in ONE io_uring_enter,
//  2. completions are harvested straight from the mmap'd CQ -- accepted
//     connections arrive as fds inside CQEs (no accept4 calls at all),
//     conn readiness as one-shot poll completions,
//  3. if nothing is pending, the same enter that submits also waits
//     (IORING_ENTER_GETEVENTS + EXT_ARG timeout), through the SysIface
//     kUringWait fault site so chaos plans can stall/kill this reactor
//     exactly as they do epoll ones.
// The data path stays readiness-model (sys->Read/Write on the handler
// side): completions drive WHEN to run a handler, not the byte transfer --
// see DESIGN.md 5j for where that sits relative to COREC's argument.
//
// Degradation: ProbeUringSupport() is the hwprof pattern -- probe once at
// Runtime::Start, and on refusal (seccomp, old kernel, ENOSYS) the runtime
// falls back to epoll with an explicit reason string instead of failing.
// Registered files are optional inside the backend the same way: listen fds
// are registered when the kernel allows (fixed-file accept SQEs), silently
// unregistered otherwise.

#ifndef AFFINITY_SRC_IO_URING_BACKEND_H_
#define AFFINITY_SRC_IO_URING_BACKEND_H_

#include <cstddef>
#include <vector>

#include "src/io/uring_ring.h"

namespace affinity {
namespace io {

// Startup probe result (kept separate from the backend so Runtime::Start
// and the bench can probe without building a reactor's worth of state).
struct UringProbe {
  bool available = false;
  std::string reason;  // set when unavailable
};

// Sets up a scratch ring, verifies the features this backend needs
// (EXT_ARG timeouts, NODROP completions) and that multishot accept is
// real on this kernel, then tears it down.
UringProbe ProbeUringSupport();

class UringBackend : public IoBackend {
 public:
  // `sq_entries` bounds one iteration's staging (arms + cancels + accept
  // re-watches); the CQ is sized larger because one multishot accept can
  // produce many completions per submitted SQE.
  UringBackend(int core, fault::SysIface* sys, uint32_t sq_entries = 256,
               uint32_t cq_entries = 4096)
      : core_(core), sys_(sys), sq_entries_(sq_entries), cq_entries_(cq_entries) {}
  ~UringBackend() override { Shutdown(); }

  const char* name() const override { return "uring"; }
  bool Init(std::string* error) override;
  void Shutdown() override;
  bool accepts_inline() const override { return false; }
  bool oneshot_arms() const override { return true; }

  // Optional fixed files: registers the startup listen fds so their accept
  // SQEs use the registered-file table (one fd-table lookup less per
  // completion). Best-effort -- failure leaves the backend on plain fds.
  // Must run before the first WatchListen; adopted (failover) fds simply
  // miss the table and use plain descriptors.
  void RegisterListenFds(const std::vector<int>& fds);

  bool WatchListen(int fd, uint64_t token) override;
  void UnwatchListen(int fd, uint64_t token) override;
  bool WatchDoorbell(int fd) override;
  bool ArmConn(int fd, uint32_t events, uint64_t token, bool first) override;
  void CancelConn(int fd, uint64_t token) override;
  int Wait(IoEvent* out, int max_events, int timeout_ms) override;

  // Observability for tests: how many enter(2)s actually happened vs how
  // many ops they carried (the batching claim, measurable).
  uint64_t enters() const { return enters_; }
  uint64_t sqes_submitted() const { return sqes_submitted_; }

 private:
  // A staging slot, flushing first when the SQ is full (bounded: the SQ
  // holds one full iteration's worth by construction).
  io_uring_sqe* GetSqe();
  // Pops + translates pending CQEs; returns events filled.
  int HarvestInto(IoEvent* out, int max_events);

  int core_;
  fault::SysIface* sys_;
  uint32_t sq_entries_;
  uint32_t cq_entries_;

  int ring_fd_ = -1;
  void* sq_mmap_ = nullptr;
  size_t sq_mmap_len_ = 0;
  void* cq_mmap_ = nullptr;  // null when IORING_FEAT_SINGLE_MMAP
  size_t cq_mmap_len_ = 0;
  void* sqe_mmap_ = nullptr;
  size_t sqe_mmap_len_ = 0;

  SubmitQueue sq_;
  CompletionQueue cq_;
  int doorbell_fd_ = -1;
  bool files_registered_ = false;
  std::vector<int> registered_fds_;  // index = fixed-file slot
  uint64_t enters_ = 0;
  uint64_t sqes_submitted_ = 0;
};

}  // namespace io
}  // namespace affinity

#endif  // AFFINITY_SRC_IO_URING_BACKEND_H_
