// The conservation ledger as RtTotals evaluates it, checked term by term.
// End-to-end runs leave most terms at 0, so a row of the metric table with
// the wrong ledger role would go unnoticed there; here every counter and
// gauge field holds a distinct power of two, so each sum's bits name exactly
// the fields it added.

#include <gtest/gtest.h>

#include <cstdint>

#include "src/rt/metric_table.h"
#include "src/rt/runtime.h"

namespace affinity {
namespace rt {
namespace {

void SetNextBit(uint64_t* field, int* bit) { *field = uint64_t{1} << (*bit)++; }
void SetNextBit(Histogram*, int*) {}

RtTotals PowerOfTwoTotals() {
  RtTotals t;
  int bit = 0;
#define AFF_SET_NEXT_BIT(field, name, kind, when, ledger, help) SetNextBit(&t.field, &bit);
  AFF_RT_METRICS(AFF_SET_NEXT_BIT)
#undef AFF_SET_NEXT_BIT
  SetNextBit(&t.drained_at_stop, &bit);
  EXPECT_LT(bit, 64) << "more fields than bits";
  return t;
}

TEST(RtTotalsLedgerTest, SumsAreTheDocumentedTerms) {
  const RtTotals t = PowerOfTwoTotals();
  EXPECT_EQ(t.served(), t.served_local + t.served_remote);
  EXPECT_EQ(t.timed_out(), t.timeouts_handshake + t.timeouts_idle + t.timeouts_read +
                               t.timeouts_write + t.timeouts_lifetime);
  // accepted == served + open + aborted + drained + overflow + shed + timed_out
  EXPECT_EQ(t.accounted(), t.served_local + t.served_remote + t.open_conns + t.aborted_at_stop +
                               t.drained_at_stop + t.overflow_drops + t.admission_shed +
                               t.timeouts_handshake + t.timeouts_idle + t.timeouts_read +
                               t.timeouts_write + t.timeouts_lifetime);
}

TEST(RtTotalsLedgerTest, InformationalSubsetsAreNotTerms) {
  const RtTotals t = PowerOfTwoTotals();
  const uint64_t sums = t.accounted() | t.timed_out() | t.served();
  for (uint64_t subset : {t.accepted, t.steals, t.pool_evictions, t.drained_gracefully,
                          t.conn_migrations, t.steer_owner_accepts, t.steer_cross_accepts,
                          t.requests_local_core, t.requests_remote_core, t.requests_same_llc}) {
    EXPECT_NE(subset, 0u);
    EXPECT_EQ(sums & subset, 0u) << "bit " << subset << " is counted in a ledger sum";
  }
}

// A fresh RtTotals balances at zero, and drained_at_stop -- the one term
// outside the metric table -- counts toward accounted() only.
TEST(RtTotalsLedgerTest, DrainedAtStopIsTheOneTermOutsideTheTable) {
  RtTotals t;
  EXPECT_EQ(t.accounted(), 0u);
  t.drained_at_stop = 7;
  EXPECT_EQ(t.accounted(), 7u);
  EXPECT_EQ(t.served(), 0u);
  EXPECT_EQ(t.timed_out(), 0u);
}

}  // namespace
}  // namespace rt
}  // namespace affinity
