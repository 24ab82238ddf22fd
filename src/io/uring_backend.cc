#include "src/io/uring_backend.h"

#include <netinet/in.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace affinity {
namespace io {

namespace {

// No liburing in the toolchain: the three ring syscalls, raw. Setup and
// register are cold-path and direct; enter(2) -- the hot path -- goes
// through the SysIface seam instead (kUringSubmit/kUringWait fault sites).
int UringSetup(uint32_t entries, io_uring_params* params) {
  return static_cast<int>(syscall(__NR_io_uring_setup, entries, params));
}

int UringRegister(int ring_fd, unsigned opcode, const void* arg, unsigned nr_args) {
  return static_cast<int>(syscall(__NR_io_uring_register, ring_fd, opcode, arg, nr_args));
}

}  // namespace

bool UringBackend::Init(std::string* error) {
  io_uring_params params;
  std::memset(&params, 0, sizeof(params));
  params.flags = IORING_SETUP_CQSIZE;
  params.cq_entries = cq_entries_;
  ring_fd_ = UringSetup(sq_entries_, &params);
  if (ring_fd_ < 0) {
    if (error != nullptr) {
      *error = std::string("io_uring_setup: ") + std::strerror(errno);
    }
    return false;
  }
  // NODROP: the kernel buffers completions instead of dropping them when
  // the CQ fills -- without it a burst could silently lose accepted fds.
  // EXT_ARG: enter(2) takes the wait timeout directly, so Wait() needs no
  // timeout SQE bookkeeping.
  if ((params.features & IORING_FEAT_NODROP) == 0 ||
      (params.features & IORING_FEAT_EXT_ARG) == 0) {
    if (error != nullptr) {
      *error = "kernel io_uring lacks NODROP/EXT_ARG (pre-5.19)";
    }
    Shutdown();
    return false;
  }

  sq_mmap_len_ = params.sq_off.array + params.sq_entries * sizeof(uint32_t);
  cq_mmap_len_ = params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
  bool single_mmap = (params.features & IORING_FEAT_SINGLE_MMAP) != 0;
  if (single_mmap) {
    sq_mmap_len_ = std::max(sq_mmap_len_, cq_mmap_len_);
  }
  sq_mmap_ = mmap(nullptr, sq_mmap_len_, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_POPULATE,
                  ring_fd_, IORING_OFF_SQ_RING);
  if (sq_mmap_ == MAP_FAILED) {
    sq_mmap_ = nullptr;
    if (error != nullptr) {
      *error = std::string("mmap(sq_ring): ") + std::strerror(errno);
    }
    Shutdown();
    return false;
  }
  char* cq_base = static_cast<char*>(sq_mmap_);
  if (!single_mmap) {
    cq_mmap_ = mmap(nullptr, cq_mmap_len_, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_POPULATE,
                    ring_fd_, IORING_OFF_CQ_RING);
    if (cq_mmap_ == MAP_FAILED) {
      cq_mmap_ = nullptr;
      if (error != nullptr) {
        *error = std::string("mmap(cq_ring): ") + std::strerror(errno);
      }
      Shutdown();
      return false;
    }
    cq_base = static_cast<char*>(cq_mmap_);
  }
  sqe_mmap_len_ = params.sq_entries * sizeof(io_uring_sqe);
  sqe_mmap_ = mmap(nullptr, sqe_mmap_len_, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_POPULATE,
                   ring_fd_, IORING_OFF_SQES);
  if (sqe_mmap_ == MAP_FAILED) {
    sqe_mmap_ = nullptr;
    if (error != nullptr) {
      *error = std::string("mmap(sqes): ") + std::strerror(errno);
    }
    Shutdown();
    return false;
  }

  char* sq_base = static_cast<char*>(sq_mmap_);
  SqView sq;
  sq.khead = reinterpret_cast<std::atomic<uint32_t>*>(sq_base + params.sq_off.head);
  sq.ktail = reinterpret_cast<std::atomic<uint32_t>*>(sq_base + params.sq_off.tail);
  sq.mask = *reinterpret_cast<uint32_t*>(sq_base + params.sq_off.ring_mask);
  sq.entries = *reinterpret_cast<uint32_t*>(sq_base + params.sq_off.ring_entries);
  sq.array = reinterpret_cast<uint32_t*>(sq_base + params.sq_off.array);
  sq.sqes = static_cast<io_uring_sqe*>(sqe_mmap_);
  sq_.Attach(sq);

  CqView cq;
  cq.khead = reinterpret_cast<std::atomic<uint32_t>*>(cq_base + params.cq_off.head);
  cq.ktail = reinterpret_cast<std::atomic<uint32_t>*>(cq_base + params.cq_off.tail);
  cq.mask = *reinterpret_cast<uint32_t*>(cq_base + params.cq_off.ring_mask);
  cq.entries = *reinterpret_cast<uint32_t*>(cq_base + params.cq_off.ring_entries);
  cq.cqes = reinterpret_cast<io_uring_cqe*>(cq_base + params.cq_off.cqes);
  cq_.Attach(cq);
  return true;
}

void UringBackend::Shutdown() {
  if (sqe_mmap_ != nullptr) {
    munmap(sqe_mmap_, sqe_mmap_len_);
    sqe_mmap_ = nullptr;
  }
  if (cq_mmap_ != nullptr) {
    munmap(cq_mmap_, cq_mmap_len_);
    cq_mmap_ = nullptr;
  }
  if (sq_mmap_ != nullptr) {
    munmap(sq_mmap_, sq_mmap_len_);
    sq_mmap_ = nullptr;
  }
  if (ring_fd_ >= 0) {
    close(ring_fd_);
    ring_fd_ = -1;
  }
  files_registered_ = false;
  registered_fds_.clear();
  doorbell_fd_ = -1;
}

void UringBackend::RegisterListenFds(const std::vector<int>& fds) {
  if (fds.empty() || files_registered_) {
    return;
  }
  if (UringRegister(ring_fd_, IORING_REGISTER_FILES, fds.data(),
                    static_cast<unsigned>(fds.size())) == 0) {
    files_registered_ = true;
    registered_fds_ = fds;
  }
  // Refusal (RLIMIT_MEMLOCK, old kernel) is fine: plain fds work the same.
}

io_uring_sqe* UringBackend::GetSqe() {
  io_uring_sqe* sqe = sq_.NextSqe();
  if (sqe != nullptr) {
    return sqe;
  }
  // SQ full mid-iteration: push what is staged and retry once. The kernel
  // consumes submitted entries immediately (no SQPOLL), freeing slots.
  uint32_t to_submit = sq_.Flush();
  int r = sys_->UringSubmit(core_, ring_fd_, to_submit);
  if (r > 0) {
    ++enters_;
    sqes_submitted_ += static_cast<uint64_t>(r);
  }
  return sq_.NextSqe();
}

bool UringBackend::WatchListen(int fd, uint64_t token) {
  io_uring_sqe* sqe = GetSqe();
  if (sqe == nullptr) {
    return false;
  }
  int file_index = -1;
  if (files_registered_) {
    for (size_t i = 0; i < registered_fds_.size(); ++i) {
      if (registered_fds_[i] == fd) {
        file_index = static_cast<int>(i);
        break;
      }
    }
  }
  PrepMultishotAccept(sqe, fd, token, file_index >= 0, file_index);
  return true;
}

void UringBackend::UnwatchListen(int fd, uint64_t token) {
  (void)fd;
  io_uring_sqe* sqe = GetSqe();
  if (sqe != nullptr) {
    PrepCancel(sqe, token);
  }
}

bool UringBackend::WatchDoorbell(int fd) {
  io_uring_sqe* sqe = GetSqe();
  if (sqe == nullptr) {
    return false;
  }
  doorbell_fd_ = fd;
  PrepPollMultishot(sqe, fd, EPOLLIN, kDoorbellToken);
  return true;
}

bool UringBackend::ArmConn(int fd, uint32_t events, uint64_t token, bool first) {
  (void)first;  // every arm is a fresh one-shot POLL_ADD
  io_uring_sqe* sqe = GetSqe();
  if (sqe == nullptr) {
    return false;
  }
  PrepPollAdd(sqe, fd, events, token);
  return true;
}

void UringBackend::CancelConn(int fd, uint64_t token) {
  (void)fd;
  io_uring_sqe* sqe = GetSqe();
  if (sqe != nullptr) {
    PrepCancel(sqe, token);
  }
}

int UringBackend::HarvestInto(IoEvent* out, int max_events) {
  int n = 0;
  io_uring_cqe cqe;
  while (n < max_events && cq_.Pop(&cqe)) {
    if (cqe.user_data == kDoorbellToken && (cqe.flags & IORING_CQE_F_MORE) == 0 &&
        cqe.res != -ECANCELED) {
      // The kernel ended the doorbell's multishot poll (CQ overflow, say):
      // arm a fresh one, or the reactor could sleep through the next ring.
      WatchDoorbell(doorbell_fd_);
    }
    if (TranslateCqe(cqe, &out[n])) {
      ++n;
    }
  }
  return n;
}

int UringBackend::Wait(IoEvent* out, int max_events, int timeout_ms) {
  uint32_t to_submit = sq_.Flush();
  // Completions already posted need no syscall at all: harvest and go. The
  // staged SQEs still get submitted (without blocking) so accepts keep
  // flowing while the reactor is busy.
  int n = HarvestInto(out, max_events);
  if (n > 0) {
    if (to_submit > 0) {
      int r = sys_->UringSubmit(core_, ring_fd_, to_submit);
      if (r > 0) {
        ++enters_;
        sqes_submitted_ += static_cast<uint64_t>(r);
      }
    }
    return n;
  }
  // Nothing pending: one enter both submits the staged batch and waits.
  int r = sys_->UringWait(core_, ring_fd_, to_submit, /*min_complete=*/1, timeout_ms);
  if (r == fault::SysIface::kKillReactor) {
    return r;
  }
  if (r < 0) {
    // ETIME: the EXT_ARG timeout expired (the normal idle path). EBUSY:
    // completion pressure -- harvest below relieves it. EINTR: retry next
    // loop. Anything else is a hard engine error.
    if (errno != ETIME && errno != EBUSY && errno != EINTR && errno != EAGAIN) {
      return -1;
    }
  } else {
    ++enters_;
    sqes_submitted_ += static_cast<uint64_t>(r);
  }
  return HarvestInto(out, max_events);
}

UringProbe ProbeUringSupport() {
  UringProbe probe;
  UringBackend ring(/*core=*/0, fault::DefaultSys(), /*sq_entries=*/8, /*cq_entries=*/16);
  std::string error;
  if (!ring.Init(&error)) {
    probe.reason = error;
    return probe;
  }
  // Feature flags cannot tell multishot accept (5.19) from plain accept
  // (5.5), so ask the kernel directly: arm one on a real listening socket.
  // An unsupporting kernel posts -EINVAL immediately; a supporting one
  // leaves the op pending (nobody connects to the scratch socket).
  int lfd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (lfd < 0) {
    probe.reason = std::string("probe socket: ") + std::strerror(errno);
    return probe;
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 || listen(lfd, 1) != 0) {
    probe.reason = std::string("probe listen: ") + std::strerror(errno);
    close(lfd);
    return probe;
  }
  ring.WatchListen(lfd, MakeListenToken(lfd, 0));
  IoEvent events[4];
  int n = ring.Wait(events, 4, /*timeout_ms=*/10);
  close(lfd);
  for (int i = 0; i < n; ++i) {
    if (events[i].error != 0 && events[i].error != ECANCELED) {
      probe.reason =
          std::string("multishot accept refused: ") + std::strerror(events[i].error);
      return probe;
    }
  }
  probe.available = true;
  return probe;
}

}  // namespace io
}  // namespace affinity
