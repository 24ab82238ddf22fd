// io_uring SQ/CQ ring mechanics, separated from the live kernel ring.
//
// The container toolchain has no liburing, so the backend drives the raw
// mmap'd rings itself. Everything that can go subtly wrong -- tail/head
// arithmetic with wraparound, full-queue detection, SQE field layout for
// multishot accept / one-shot poll / async cancel, CQE-to-event decoding
// (F_MORE, ECANCELED drops, the internal-token filter) -- lives here as
// pure logic over SqView/CqView pointer bundles, so unit tests can attach
// fake heap-allocated rings and exercise the batching without a kernel ring
// (tests/io/uring_ring_test.cc), exactly the scripted-SysIface pattern the
// fault layer uses.
//
// Memory-ordering contract (mirrors liburing): the producer publishes SQEs
// with a release store of the tail; the kernel's head consumption is read
// with acquire. On the CQ side the kernel's tail is read with acquire and
// the consumed head published with release.

#ifndef AFFINITY_SRC_IO_URING_RING_H_
#define AFFINITY_SRC_IO_URING_RING_H_

#include <linux/io_uring.h>
#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>

#include "src/io/io_backend.h"

namespace affinity {
namespace io {

// Pointers into one submission ring (mmap'd, or test-owned arrays).
struct SqView {
  std::atomic<uint32_t>* khead = nullptr;  // kernel-consumed head
  std::atomic<uint32_t>* ktail = nullptr;  // producer-published tail
  uint32_t mask = 0;
  uint32_t entries = 0;
  uint32_t* array = nullptr;  // SQE index array (identity-mapped here)
  io_uring_sqe* sqes = nullptr;
};

// Pointers into one completion ring.
struct CqView {
  std::atomic<uint32_t>* khead = nullptr;  // consumer-published head
  std::atomic<uint32_t>* ktail = nullptr;  // kernel-published tail
  uint32_t mask = 0;
  uint32_t entries = 0;
  io_uring_cqe* cqes = nullptr;
};

// Staged-SQE producer. NextSqe() hands out zeroed slots and advances a
// local tail; Flush() publishes them and returns how many the next
// io_uring_enter should claim (kernel consumption is re-read each time, so
// a partially-consumed batch self-corrects).
class SubmitQueue {
 public:
  void Attach(const SqView& view) {
    v_ = view;
    local_tail_ = v_.ktail->load(std::memory_order_relaxed);
  }

  uint32_t SpaceLeft() const {
    return v_.entries - (local_tail_ - v_.khead->load(std::memory_order_acquire));
  }

  // Staged but not yet published to the kernel-visible tail.
  uint32_t Unflushed() const { return local_tail_ - v_.ktail->load(std::memory_order_relaxed); }

  io_uring_sqe* NextSqe() {
    if (SpaceLeft() == 0) {
      return nullptr;
    }
    uint32_t idx = local_tail_ & v_.mask;
    io_uring_sqe* sqe = &v_.sqes[idx];
    std::memset(sqe, 0, sizeof(*sqe));
    v_.array[idx] = idx;
    ++local_tail_;
    return sqe;
  }

  uint32_t Flush() {
    v_.ktail->store(local_tail_, std::memory_order_release);
    return local_tail_ - v_.khead->load(std::memory_order_acquire);
  }

 private:
  SqView v_;
  uint32_t local_tail_ = 0;
};

// CQE consumer: pops in completion order, publishing consumption as it goes
// (the kernel reuses freed slots, so holding CQEs back risks overflow).
class CompletionQueue {
 public:
  void Attach(const CqView& view) { v_ = view; }

  bool Pop(io_uring_cqe* out) {
    uint32_t head = v_.khead->load(std::memory_order_relaxed);
    if (head == v_.ktail->load(std::memory_order_acquire)) {
      return false;
    }
    *out = v_.cqes[head & v_.mask];
    v_.khead->store(head + 1, std::memory_order_release);
    return true;
  }

  bool Empty() const {
    return v_.khead->load(std::memory_order_relaxed) ==
           v_.ktail->load(std::memory_order_acquire);
  }

 private:
  CqView v_;
};

// --- SQE preparation (field layout knowledge lives here, tested) ---

// Multishot accept: one SQE keeps delivering accepted fds until it posts a
// terminal CQE without IORING_CQE_F_MORE. The multishot flag rides in
// `ioprio` (the kernel ABI reuses the field for accept). Accepted sockets
// inherit SOCK_NONBLOCK | SOCK_CLOEXEC via accept_flags, matching what the
// epoll path's accept4 asks for.
inline void PrepMultishotAccept(io_uring_sqe* sqe, int fd, uint64_t token, bool fixed_file,
                                int file_index) {
  sqe->opcode = IORING_OP_ACCEPT;
  sqe->fd = fixed_file ? file_index : fd;
  if (fixed_file) {
    sqe->flags = IOSQE_FIXED_FILE;
  }
  sqe->ioprio = IORING_ACCEPT_MULTISHOT;
  sqe->accept_flags = SOCK_NONBLOCK | SOCK_CLOEXEC;
  sqe->user_data = token;
}

// One-shot poll: completes once with the ready mask in cqe.res, consuming
// the registration -- the uring analogue of a oneshot epoll arm, re-staged
// by the reactor's Finish() on every verdict. POLL* values equal EPOLL*
// values on every Linux ABI, so the mask passes through untranslated.
inline void PrepPollAdd(io_uring_sqe* sqe, int fd, uint32_t poll_mask, uint64_t token) {
  sqe->opcode = IORING_OP_POLL_ADD;
  sqe->fd = fd;
  sqe->poll32_events = poll_mask;  // little-endian layout (x86/arm64)
  sqe->user_data = token;
}

// Multishot poll: completes once per wakeup of `fd` (IORING_CQE_F_MORE set
// while it stays armed) -- the doorbell's watch, where each eventfd write
// is one wakeup and the counter is never read.
inline void PrepPollMultishot(io_uring_sqe* sqe, int fd, uint32_t poll_mask, uint64_t token) {
  PrepPollAdd(sqe, fd, poll_mask, token);
  sqe->len = IORING_POLL_ADD_MULTI;
}

// Async cancel of a pending SQE by its user_data. The cancel's OWN
// completion is tagged internal and dropped at decode; the canceled op's
// completion (-ECANCELED) is dropped by token/generation checks.
inline void PrepCancel(io_uring_sqe* sqe, uint64_t target_token) {
  sqe->opcode = IORING_OP_ASYNC_CANCEL;
  sqe->fd = -1;
  sqe->addr = target_token;
  sqe->user_data = kInternalTokenTag | target_token;
}

// Decodes one CQE into an IoEvent. Returns false for completions the
// reactor must never see: internal bookkeeping (cancels' own CQEs) and
// canceled one-shot polls (their connection is already closed). A doorbell
// completion surfaces as a kDoorbellToken event whatever its result; re-
// arming a terminated doorbell poll is the backend's business.
inline bool TranslateCqe(const io_uring_cqe& cqe, IoEvent* out) {
  uint64_t token = cqe.user_data;
  if (token == kDoorbellToken) {
    *out = IoEvent{};
    out->token = token;
    out->events = EPOLLIN;
    return true;
  }
  if ((token & kInternalTokenTag) != 0) {
    return false;
  }
  *out = IoEvent{};
  out->token = token;
  if (IsConnToken(token)) {
    if (cqe.res < 0) {
      if (cqe.res == -ECANCELED) {
        return false;  // poll canceled at close: the conn is gone
      }
      // Poll machinery failure: surface as error readiness so the reactor
      // closes the connection instead of holding it unwatched forever.
      out->events = EPOLLERR;
      return true;
    }
    out->events = static_cast<uint32_t>(cqe.res);
    return true;
  }
  // Listen token: one multishot-accept completion. A missing F_MORE means
  // this instance is done (error, cancel, or kernel pressure) and the
  // source needs re-watching -- the reactor gates that on the token
  // generation so a canceled instance's terminal cannot disturb its
  // replacement.
  out->rewatch = (cqe.flags & IORING_CQE_F_MORE) == 0;
  if (cqe.res >= 0) {
    out->accepted_fd = cqe.res;
  } else {
    out->error = -cqe.res;
  }
  return true;
}

}  // namespace io
}  // namespace affinity

#endif  // AFFINITY_SRC_IO_URING_RING_H_
