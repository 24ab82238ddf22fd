// A reactor's doorbell: how other threads wake a reactor that sleeps in its
// engine's Wait with no timeout.
//
// A reactor blocks until one of its own fds fires, its nearest real
// deadline comes due, or the doorbell rings. The doorbell is an eventfd its
// engine watches (io::IoBackend::WatchDoorbell); a ring is one 8-byte
// write(2) and never allocates. Other threads ring only for work the
// reactor cannot see on its own fds: Stop() and drain start (every
// reactor, unconditionally), and, through Wake(), a connection pushed onto
// its ring by another reactor or left for a parked peer to steal.
//
// The parked flag is the lost-wakeup guard, the store-buffer handshake of
// every sleep/wake protocol:
//   owner:  Park() (seq_cst exchange) -> last look at its rings -> Wait
//   ringer: push onto a ring          -> Wake() (seq_cst exchange)
// Every write to the flag is an exchange, so its modification order is one
// release sequence: either the ringer's exchange comes first and the
// owner's Park reads from it or a later exchange (the push happens-before
// the owner's last look, which sees it), or the owner parked first and the
// ringer reads 1 and rings. Wake() also clears the flag, so of several
// ringers racing for one parked owner only the first pays for a write.

#ifndef AFFINITY_SRC_RT_DOORBELL_H_
#define AFFINITY_SRC_RT_DOORBELL_H_

#include <sys/eventfd.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>

#include "src/mem/cacheline.h"

namespace affinity {
namespace rt {

class alignas(kCacheLineBytes) Doorbell {
 public:
  Doorbell() : fd_(eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {}
  ~Doorbell() {
    if (fd_ >= 0) {
      close(fd_);
    }
  }
  Doorbell(const Doorbell&) = delete;
  Doorbell& operator=(const Doorbell&) = delete;

  // -1 when eventfd(2) failed (Runtime::Start refuses to run then).
  int fd() const { return fd_; }

  // Rings whatever the owner is doing: a ring that lands while it is awake
  // makes its next Wait return at once.
  void Ring() {
    uint64_t one = 1;
    ssize_t written = write(fd_, &one, sizeof(one));
    (void)written;  // only a saturated counter refuses, and it is rung anyway
  }

  // Owner side: announce the sleep BEFORE the last look at the rings.
  void Park() { parked_.exchange(1, std::memory_order_seq_cst); }
  // Owner side, after waking (or deciding not to sleep).
  void Unpark() { parked_.exchange(0, std::memory_order_seq_cst); }
  // A racy hint for ringers choosing among peers; Wake() is the real test.
  bool parked_hint() const { return parked_.load(std::memory_order_relaxed) != 0; }

  // Ringer side, after the push: rings a parked owner; false (and no
  // syscall) when it is awake or another ringer got there first.
  bool Wake() {
    if (parked_.exchange(0, std::memory_order_seq_cst) == 0) {
      return false;
    }
    Ring();
    return true;
  }

 private:
  std::atomic<uint32_t> parked_{0};
  int fd_;
};

}  // namespace rt
}  // namespace affinity

#endif  // AFFINITY_SRC_RT_DOORBELL_H_
