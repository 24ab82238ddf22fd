// Ring-mechanics unit tests with NO kernel ring: SubmitQueue and
// CompletionQueue attach to fake heap-allocated SQ/CQ arrays, and the test
// plays the kernel's half (consuming the SQ head, publishing the CQ tail).
// This pins the arithmetic that a live ring would only probabilistically
// exercise -- wraparound, full-queue refusal, partially-consumed batches --
// plus the SQE field layout and the CQE-to-IoEvent decode table. The live
// half (a real io_uring fd under the full reactor) is covered by
// tests/rt/rt_backend_parity_test.cc.

#include <gtest/gtest.h>

#include <sys/epoll.h>

#include <cerrno>

#include "src/io/io_backend.h"
#include "src/io/uring_ring.h"

namespace affinity {
namespace io {
namespace {

// A fake submission ring the test owns. The test acts as the kernel by
// advancing `head` (consuming published SQEs).
template <uint32_t kEntries>
struct FakeSq {
  std::atomic<uint32_t> head{0};
  std::atomic<uint32_t> tail{0};
  uint32_t array[kEntries] = {};
  io_uring_sqe sqes[kEntries] = {};

  SqView view() { return SqView{&head, &tail, kEntries - 1, kEntries, array, sqes}; }
};

template <uint32_t kEntries>
struct FakeCq {
  std::atomic<uint32_t> head{0};
  std::atomic<uint32_t> tail{0};
  io_uring_cqe cqes[kEntries] = {};

  CqView view() { return CqView{&head, &tail, kEntries - 1, kEntries, cqes}; }

  // The kernel's half: post one completion.
  void Post(uint64_t user_data, int32_t res, uint32_t flags) {
    uint32_t t = tail.load(std::memory_order_relaxed);
    cqes[t & (kEntries - 1)] = io_uring_cqe{user_data, res, flags};
    tail.store(t + 1, std::memory_order_release);
  }
};

TEST(UringSubmitQueueTest, StagingIsInvisibleUntilFlush) {
  FakeSq<8> ring;
  SubmitQueue sq;
  sq.Attach(ring.view());

  io_uring_sqe* a = sq.NextSqe();
  io_uring_sqe* b = sq.NextSqe();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a, &ring.sqes[0]);
  EXPECT_EQ(b, &ring.sqes[1]);
  // Slots are handed out zeroed and the index array identity-mapped.
  EXPECT_EQ(a->opcode, 0);
  EXPECT_EQ(ring.array[0], 0u);
  EXPECT_EQ(ring.array[1], 1u);

  // Staged, not published: the kernel-visible tail has not moved.
  EXPECT_EQ(sq.Unflushed(), 2u);
  EXPECT_EQ(ring.tail.load(), 0u);

  // Flush publishes both and reports both as claimable by io_uring_enter.
  EXPECT_EQ(sq.Flush(), 2u);
  EXPECT_EQ(ring.tail.load(), 2u);
  EXPECT_EQ(sq.Unflushed(), 0u);
}

TEST(UringSubmitQueueTest, RefusesWhenFullAndRecoversAsKernelConsumes) {
  FakeSq<4> ring;
  SubmitQueue sq;
  sq.Attach(ring.view());

  for (int i = 0; i < 4; ++i) {
    ASSERT_NE(sq.NextSqe(), nullptr) << i;
  }
  EXPECT_EQ(sq.SpaceLeft(), 0u);
  EXPECT_EQ(sq.NextSqe(), nullptr);  // full: refuse, never overwrite

  // The kernel consumes two published entries; space reopens exactly there.
  sq.Flush();
  ring.head.store(2, std::memory_order_release);
  EXPECT_EQ(sq.SpaceLeft(), 2u);
  EXPECT_NE(sq.NextSqe(), nullptr);
}

TEST(UringSubmitQueueTest, FlushCountsPreviouslyUnconsumedEntries) {
  FakeSq<8> ring;
  SubmitQueue sq;
  sq.Attach(ring.view());

  sq.NextSqe();
  sq.NextSqe();
  sq.NextSqe();
  EXPECT_EQ(sq.Flush(), 3u);
  // The kernel claimed only one of the three (short io_uring_enter). The
  // next flush must re-offer the leftovers plus the new staging.
  ring.head.store(1, std::memory_order_release);
  sq.NextSqe();
  EXPECT_EQ(sq.Flush(), 3u);  // 2 leftover + 1 new
}

TEST(UringSubmitQueueTest, IndexArithmeticSurvivesWraparound) {
  FakeSq<4> ring;
  SubmitQueue sq;
  sq.Attach(ring.view());

  // Many laps around a 4-entry ring: each slot handed out must be the
  // masked tail, and capacity must never drift.
  for (uint32_t lap = 0; lap < 10; ++lap) {
    for (uint32_t i = 0; i < 4; ++i) {
      io_uring_sqe* sqe = sq.NextSqe();
      ASSERT_EQ(sqe, &ring.sqes[(lap * 4 + i) & 3]);
    }
    EXPECT_EQ(sq.SpaceLeft(), 0u);
    EXPECT_EQ(sq.Flush(), 4u);
    ring.head.store((lap + 1) * 4, std::memory_order_release);  // kernel drains all
    EXPECT_EQ(sq.SpaceLeft(), 4u);
  }
}

TEST(UringCompletionQueueTest, PopsInOrderAndPublishesConsumption) {
  FakeCq<4> ring;
  CompletionQueue cq;
  cq.Attach(ring.view());

  EXPECT_TRUE(cq.Empty());
  ring.Post(/*user_data=*/11, /*res=*/1, /*flags=*/0);
  ring.Post(/*user_data=*/22, /*res=*/2, /*flags=*/0);

  io_uring_cqe cqe;
  ASSERT_TRUE(cq.Pop(&cqe));
  EXPECT_EQ(cqe.user_data, 11u);
  // Consumption is published immediately so the kernel can reuse the slot.
  EXPECT_EQ(ring.head.load(), 1u);
  ASSERT_TRUE(cq.Pop(&cqe));
  EXPECT_EQ(cqe.user_data, 22u);
  EXPECT_FALSE(cq.Pop(&cqe));
  EXPECT_TRUE(cq.Empty());

  // Wrap the 4-entry ring: slot reuse must deliver the new completions.
  for (uint64_t i = 0; i < 6; ++i) {
    ring.Post(100 + i, 0, 0);
    ASSERT_TRUE(cq.Pop(&cqe));
    EXPECT_EQ(cqe.user_data, 100 + i);
  }
}

TEST(UringPrepTest, MultishotAcceptLayout) {
  io_uring_sqe sqe = {};
  PrepMultishotAccept(&sqe, /*fd=*/7, MakeListenToken(7, 3), /*fixed_file=*/false,
                      /*file_index=*/-1);
  EXPECT_EQ(sqe.opcode, IORING_OP_ACCEPT);
  EXPECT_EQ(sqe.fd, 7);
  EXPECT_EQ(sqe.flags, 0);
  EXPECT_EQ(sqe.ioprio, IORING_ACCEPT_MULTISHOT);  // the multishot flag rides in ioprio
  EXPECT_EQ(sqe.accept_flags, static_cast<uint32_t>(SOCK_NONBLOCK | SOCK_CLOEXEC));
  EXPECT_EQ(sqe.user_data, MakeListenToken(7, 3));

  // Registered-files variant: fd field carries the TABLE INDEX, not the fd.
  io_uring_sqe fixed = {};
  PrepMultishotAccept(&fixed, /*fd=*/7, MakeListenToken(7, 3), /*fixed_file=*/true,
                      /*file_index=*/0);
  EXPECT_EQ(fixed.fd, 0);
  EXPECT_EQ(fixed.flags, IOSQE_FIXED_FILE);
}

TEST(UringPrepTest, PollAddAndCancelLayout) {
  uint64_t token = MakeConnToken(/*handle=*/55, /*gen=*/9);
  io_uring_sqe poll = {};
  PrepPollAdd(&poll, /*fd=*/12, EPOLLIN, token);
  EXPECT_EQ(poll.opcode, IORING_OP_POLL_ADD);
  EXPECT_EQ(poll.fd, 12);
  EXPECT_EQ(poll.poll32_events, static_cast<uint32_t>(EPOLLIN));
  EXPECT_EQ(poll.user_data, token);

  io_uring_sqe cancel = {};
  PrepCancel(&cancel, token);
  EXPECT_EQ(cancel.opcode, IORING_OP_ASYNC_CANCEL);
  EXPECT_EQ(cancel.addr, token);  // target selected by user_data match
  // The cancel's own completion is tagged internal so decode drops it.
  EXPECT_EQ(cancel.user_data, kInternalTokenTag | token);
  EXPECT_FALSE(IsConnToken(cancel.user_data) && (cancel.user_data & kInternalTokenTag) == 0);
}

TEST(UringTranslateTest, InternalCompletionsNeverSurface) {
  IoEvent ev;
  io_uring_cqe cqe{kInternalTokenTag | MakeConnToken(1, 1), 0, 0};
  EXPECT_FALSE(TranslateCqe(cqe, &ev));
}

// The doorbell rides an internal token but is the one internal completion
// that surfaces: the reactor counts it as a wakeup another thread rang. No
// cancel can carry its token (cancels tag a conn or listen token, which
// never sets bit 61).
TEST(UringTranslateTest, DoorbellCompletionSurfacesAsItsOwnEvent) {
  IoEvent ev;
  io_uring_cqe cqe{kDoorbellToken, EPOLLIN, IORING_CQE_F_MORE};
  ASSERT_TRUE(TranslateCqe(cqe, &ev));
  EXPECT_EQ(ev.token, kDoorbellToken);
  EXPECT_EQ(ev.accepted_fd, -1);
  EXPECT_FALSE(ev.rewatch);
  EXPECT_NE(kInternalTokenTag | MakeConnToken(0xFFFFFFFFu, 0xFFFF), kDoorbellToken);
  EXPECT_NE(kInternalTokenTag | MakeListenToken(0x7FFFFFFF, 0xFFFF), kDoorbellToken);
}

TEST(UringPrepTest, MultishotPollLayout) {
  io_uring_sqe sqe = {};
  PrepPollMultishot(&sqe, /*fd=*/9, EPOLLIN, kDoorbellToken);
  EXPECT_EQ(sqe.opcode, IORING_OP_POLL_ADD);
  EXPECT_EQ(sqe.fd, 9);
  EXPECT_EQ(sqe.poll32_events, static_cast<uint32_t>(EPOLLIN));
  EXPECT_EQ(sqe.len, IORING_POLL_ADD_MULTI);
  EXPECT_EQ(sqe.user_data, kDoorbellToken);
}

TEST(UringTranslateTest, ConnPollCompletionCarriesReadinessMask) {
  IoEvent ev;
  uint64_t token = MakeConnToken(77, 4);
  io_uring_cqe cqe{token, EPOLLIN | EPOLLHUP, 0};
  ASSERT_TRUE(TranslateCqe(cqe, &ev));
  EXPECT_EQ(ev.token, token);
  EXPECT_EQ(ev.events, static_cast<uint32_t>(EPOLLIN | EPOLLHUP));
  EXPECT_EQ(ev.accepted_fd, -1);
  EXPECT_FALSE(ev.rewatch);
}

TEST(UringTranslateTest, CanceledConnPollIsDroppedButOtherErrorsSurface) {
  IoEvent ev;
  uint64_t token = MakeConnToken(77, 4);
  // -ECANCELED: the close path canceled this poll; the conn is gone.
  io_uring_cqe canceled{token, -ECANCELED, 0};
  EXPECT_FALSE(TranslateCqe(canceled, &ev));
  // Any other failure surfaces as EPOLLERR so the reactor closes the conn
  // instead of holding it unwatched forever.
  io_uring_cqe broken{token, -EBADF, 0};
  ASSERT_TRUE(TranslateCqe(broken, &ev));
  EXPECT_EQ(ev.events, static_cast<uint32_t>(EPOLLERR));
}

TEST(UringTranslateTest, MultishotAcceptDeliversFdsAndSignalsTermination) {
  IoEvent ev;
  uint64_t token = MakeListenToken(/*fd=*/9, /*gen=*/2);
  // Mid-stream delivery: F_MORE set, the accepted fd rides in res.
  io_uring_cqe more{token, /*res=*/33, IORING_CQE_F_MORE};
  ASSERT_TRUE(TranslateCqe(more, &ev));
  EXPECT_EQ(ev.token, token);
  EXPECT_EQ(ev.accepted_fd, 33);
  EXPECT_EQ(ev.error, 0);
  EXPECT_FALSE(ev.rewatch);

  // Final delivery: fd AND termination in one CQE (no F_MORE).
  io_uring_cqe last{token, /*res=*/34, 0};
  ASSERT_TRUE(TranslateCqe(last, &ev));
  EXPECT_EQ(ev.accepted_fd, 34);
  EXPECT_TRUE(ev.rewatch);

  // Error termination (EMFILE under fd exhaustion): errno out, rewatch on.
  io_uring_cqe failed{token, -EMFILE, 0};
  ASSERT_TRUE(TranslateCqe(failed, &ev));
  EXPECT_EQ(ev.accepted_fd, -1);
  EXPECT_EQ(ev.error, EMFILE);
  EXPECT_TRUE(ev.rewatch);
}

TEST(UringTokenTest, TokensRoundTripWithoutTagCollisions) {
  uint64_t conn = MakeConnToken(/*handle=*/0xABCDEFu, /*gen=*/0x1234);
  EXPECT_TRUE(IsConnToken(conn));
  EXPECT_EQ(HandleOfToken(conn), 0xABCDEFu);
  EXPECT_EQ(GenOfToken(conn), 0x1234);

  // Listen fds are nonnegative ints: bit 63 and bit 62 can never be set.
  uint64_t listen = MakeListenToken(/*fd=*/0x7FFFFFFF, /*gen=*/0xFFFF);
  EXPECT_FALSE(IsConnToken(listen));
  EXPECT_EQ(listen & kInternalTokenTag, 0u);
  EXPECT_EQ(FdOfListenToken(listen), 0x7FFFFFFF);
  EXPECT_EQ(GenOfToken(listen), 0xFFFF);
}

}  // namespace
}  // namespace io
}  // namespace affinity
