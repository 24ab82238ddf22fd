// The runtime's metric table: every rt_* series declared once, as one row
//   X(field, name, kind, when, ledger, help)
// giving its field in RtTotals and ReactorStats (also its RtMetric id),
// exported name, kind, whether it is registered always or only with
// flow-group steering on (kSteer rows stay 0 otherwise), its role in the
// conservation ledger, and its help text. The ledger column IS the
// conservation equation
//   accepted == accounted() == [kAccounted rows] + timed_out() + drained_at_stop
//   timed_out() == [kTimedOut rows]
// with drained_at_stop, counted by Stop() after the reactors are gone, the
// one term outside the table.
//
// The rows generate the RtMetric ids, the registration loop (row order is
// registration order, which the exporters keep), each reactor's hot cells,
// the RtTotals / ReactorStats fields and their copies from the registry, and
// the ledger sums. Adding a metric or a ledger term is one row.

#ifndef AFFINITY_SRC_RT_METRIC_TABLE_H_
#define AFFINITY_SRC_RT_METRIC_TABLE_H_

#include <cstdint>
#include <type_traits>

#include "src/sim/stats.h"

namespace affinity {
namespace rt {

enum class RtKind : uint8_t { kCounter, kGauge, kHistogram };
enum class RtWhen : uint8_t { kAlways, kSteer };
enum class RtLedger : uint8_t { kNone, kAccounted, kTimedOut };

// Comments inside the table are /* */: a // comment would swallow the line
// continuation.
#define AFF_RT_METRICS(X) \
  X(accepted, "rt_accepted", kCounter, kAlways, kNone, "connections returned by accept()") \
  /* Stock mode's one shared ring counts as every core's own queue. */ \
  X(served_local, "rt_served_local", kCounter, kAlways, kAccounted, \
    "connections served from the core's own queue") \
  X(served_remote, "rt_served_remote", kCounter, kAlways, kAccounted, \
    "connections served from another core's queue") \
  /* Affinity-mode steals: a subset of served_remote. */ \
  X(steals, "rt_steals", kCounter, kAlways, kNone, "affinity-mode connection steals") \
  X(overflow_drops, "rt_overflow_drops", kCounter, kAlways, kAccounted, \
    "connections dropped on a full local queue") \
  X(epoll_wakeups, "rt_epoll_wakeups", kCounter, kAlways, kNone, "epoll_wait returns with work") \
  /* The subset of those wakeups rung on the reactor's doorbell. */ \
  X(doorbell_wakeups, "rt_doorbell_wakeups", kCounter, kAlways, kNone, \
    "wakeups another thread rang on this reactor's doorbell") \
  X(transitions_to_busy, "rt_transitions_to_busy", kCounter, kAlways, kNone, \
    "high-watermark busy-bit sets") \
  X(transitions_to_nonbusy, "rt_transitions_to_nonbusy", kCounter, kAlways, kNone, \
    "low-watermark busy-bit clears") \
  /* Slab-pool discipline (paper Section 2.2 on live connection state). */ \
  X(conn_remote_frees, "rt_conn_remote_frees", kCounter, kAlways, kNone, \
    "PendingConn blocks freed by a core other than their owner") \
  X(pool_exhausted, "rt_pool_exhausted", kCounter, kAlways, kNone, \
    "connections dropped because the conn pool had no free block") \
  /* Robustness: accept-loop soft errors, one counter per errno class */ \
  /* (skip-and-continue), then fault injection, failure domains and */ \
  /* shaped overload. */ \
  X(accept_eintr, "rt_accept_eintr", kCounter, kAlways, kNone, \
    "accept4 EINTR skip-and-continue") \
  X(accept_econnaborted, "rt_accept_econnaborted", kCounter, kAlways, kNone, \
    "accept4 ECONNABORTED: connection gone before accept") \
  X(accept_eproto, "rt_accept_eproto", kCounter, kAlways, kNone, \
    "accept4 EPROTO skip-and-continue") \
  X(accept_emfile, "rt_accept_emfile", kCounter, kAlways, kNone, \
    "accept4 EMFILE/ENFILE: out of fds") \
  X(accept_backoff, "rt_accept_backoff", kCounter, kAlways, kNone, \
    "capped exponential accept backoff windows entered") \
  X(admission_shed, "rt_admission_shed", kCounter, kAlways, kAccounted, \
    "connections accepted then shed (RST) by the admission policy") \
  X(fault_injected, "rt_fault_injected", kCounter, kAlways, kNone, \
    "faults injected by the chaos plan") \
  X(failovers, "rt_failovers", kCounter, kAlways, kNone, "watchdog failovers won by this core") \
  X(recoveries, "rt_recoveries", kCounter, kAlways, kNone, "reactors recovered after failover") \
  X(failover_group_moves, "rt_failover_group_moves", kCounter, kAlways, kNone, \
    "flow groups mass-moved by failover/recovery") \
  X(reactor_dead, "rt_reactor_dead", kGauge, kAlways, kNone, "1 = this reactor is marked dead") \
  /* Indexed by accept ring, not by core. */ \
  X(queue_len, "rt_queue_len", kGauge, kAlways, kNone, "accept-queue length at last update") \
  X(busy, "rt_busy", kGauge, kAlways, kNone, "busy bit (1 = over high watermark)") \
  X(queue_wait_ns, "rt_queue_wait_ns", kHistogram, kAlways, kNone, \
    "accept() -> service latency per connection") \
  /* Request/response service layer (0 under the kAccept workload). */ \
  X(requests, "rt_requests", kCounter, kAlways, kNone, \
    "completed request/response rounds (svc handlers)") \
  X(aborted_at_stop, "rt_aborted_at_stop", kCounter, kAlways, kAccounted, \
    "held connections closed by a reactor's Run() exit") \
  X(open_conns, "rt_conn_open", kGauge, kAlways, kAccounted, \
    "connections currently mid-conversation") \
  X(request_latency_ns, "rt_request_latency_ns", kHistogram, kAlways, kNone, \
    "per-request service time, first byte to response flushed") \
  /* Connection-locality ledger: requests (legacy workload: connections) */ \
  /* served on vs off their ACCEPTING core, and connections whose first */ \
  /* serving core differed from the acceptor. This is the paper's headline */ \
  /* number made live -- affinity mode should hold locality_fraction near 1 */ \
  /* while stock/fine sit near 1/num_threads. */ \
  X(requests_local_core, "rt_requests_local_core", kCounter, kAlways, kNone, \
    "requests served on the core that accepted the connection") \
  X(requests_remote_core, "rt_requests_remote_core", kCounter, kAlways, kNone, \
    "requests served on a core other than the acceptor") \
  X(conn_migrations, "rt_conn_migrations", kCounter, kAlways, kNone, \
    "connections first served by a core other than their acceptor") \
  /* Distance split of the remote half (src/topo LedgerBucket): same_llc + */ \
  /* cross_llc + cross_node == requests_remote_core in every mode (flat */ \
  /* folds all remote traffic into same_llc). */ \
  X(requests_same_llc, "rt_requests_same_llc", kCounter, kAlways, kNone, \
    "remote-core requests where both cores share the LLC") \
  X(requests_cross_llc, "rt_requests_cross_llc", kCounter, kAlways, kNone, \
    "remote-core requests crossing LLCs on one node") \
  X(requests_cross_node, "rt_requests_cross_node", kCounter, kAlways, kNone, \
    "remote-core requests crossing NUMA nodes") \
  /* Steals by thief-to-victim distance (sums to steals); same layout. */ \
  X(steals_same_llc, "rt_steals_same_llc", kCounter, kAlways, kNone, \
    "steals where thief and victim share the LLC") \
  X(steals_cross_llc, "rt_steals_cross_llc", kCounter, kAlways, kNone, \
    "steals crossing LLCs on one node") \
  X(steals_cross_node, "rt_steals_cross_node", kCounter, kAlways, kNone, \
    "steals crossing NUMA nodes") \
  /* Connection-lifecycle deadlines (0 with no deadline configured): */ \
  /* expiry closes by class, contiguous in DeadlineKind order. Their sum is */ \
  /* the timed_out term -- a timed-out connection is neither served nor */ \
  /* aborted. */ \
  X(timeouts_handshake, "rt_timeouts_handshake", kCounter, kAlways, kTimedOut, \
    "conns closed by the accept-to-first-byte deadline") \
  X(timeouts_idle, "rt_timeouts_idle", kCounter, kAlways, kTimedOut, \
    "conns closed by the between-requests idle deadline (incl. pool evictions)") \
  X(timeouts_read, "rt_timeouts_read", kCounter, kAlways, kTimedOut, \
    "conns closed by the per-request read deadline") \
  X(timeouts_write, "rt_timeouts_write", kCounter, kAlways, kTimedOut, \
    "conns closed by the per-response write deadline") \
  X(timeouts_lifetime, "rt_timeouts_lifetime", kCounter, kAlways, kTimedOut, \
    "conns closed by the absolute max-lifetime cap") \
  /* Idle conns reaped by pool-pressure eviction; informational subset of */ \
  /* timeouts_idle (an eviction is accounted as an idle timeout). */ \
  X(pool_evictions, "rt_pool_evictions", kCounter, kAlways, kNone, \
    "idle conns reaped under pool pressure (subset of rt_timeouts_idle)") \
  /* Conns that finished normally while a drain was in progress; */ \
  /* informational subset of served(), NOT a separate conservation term. */ \
  X(drained_gracefully, "rt_drained_gracefully", kCounter, kAlways, kNone, \
    "conns that finished normally inside a drain window (subset of served)") \
  /* One sample per Stop() that ran a drain. */ \
  X(drain_duration_ns, "rt_drain_duration_ns", kHistogram, kAlways, kNone, \
    "wall duration of each Stop() drain window") \
  /* Steering. Balancer epoch decisions damped by migrate_min_epochs: */ \
  /* hysteresis vetoed every candidate group of an otherwise-due migration. */ \
  X(migrations_suppressed, "rt_migrations_suppressed", kCounter, kSteer, kNone, \
    "balancer epochs where hysteresis held back every candidate group") \
  X(steer_owner_accepts, "rt_steer_owner_accepts", kCounter, kSteer, kNone, \
    "connections accepted on the shard owning their flow group") \
  X(steer_cross_accepts, "rt_steer_cross_accepts", kCounter, kSteer, kNone, \
    "connections re-steered in user space to their owner's queue") \
  /* Flow groups moved by the 100 ms balancer. */ \
  X(migrations, "rt_migrations", kCounter, kSteer, kNone, \
    "flow groups pulled by the long-term balancer") \
  /* Set on core 0 only. */ \
  X(steer_cbpf, "rt_steer_cbpf", kGauge, kSteer, kNone, \
    "1 = SO_ATTACH_REUSEPORT_CBPF program attached") \
  X(steer_groups_owned, "rt_steer_groups_owned", kGauge, kSteer, kNone, \
    "steering-table flow groups per core")

// The metric ids: RtMetric::accepted, RtMetric::timeouts_idle, ... index
// every per-metric array (registry handles, hot cells).
struct RtMetric {
  enum Id : uint8_t {
#define AFF_RT_ID(field, name, kind, when, ledger, help) field,
    AFF_RT_METRICS(AFF_RT_ID)
#undef AFF_RT_ID
    kCount
  };
};

// The rows as data, indexed by RtMetric::Id.
struct RtMetricDef {
  const char* name;
  RtKind kind;
  RtWhen when;
  RtLedger ledger;
  const char* help;
};

inline constexpr RtMetricDef kRtMetricDefs[RtMetric::kCount] = {
#define AFF_RT_DEF(field, name, kind, when, ledger, help) \
  {name, RtKind::kind, RtWhen::when, RtLedger::ledger, help},
    AFF_RT_METRICS(AFF_RT_DEF)
#undef AFF_RT_DEF
};

// The value type of a row: a number for counters and gauges, a Histogram
// for histograms.
template <RtKind K>
using RtValue = std::conditional_t<K == RtKind::kHistogram, Histogram, uint64_t>;

// One value per row, named by its field: the base of RtTotals (all cores)
// and ReactorStats (one core).
struct RtMetricValues {
#define AFF_RT_FIELD(field, name, kind, when, ledger, help) RtValue<RtKind::kind> field{};
  AFF_RT_METRICS(AFF_RT_FIELD)
#undef AFF_RT_FIELD
};

// One row's contribution to the ledger sum over `role`.
constexpr uint64_t LedgerTerm(RtLedger row, RtLedger role, uint64_t value) {
  return row == role ? value : 0;
}
constexpr uint64_t LedgerTerm(RtLedger, RtLedger, const Histogram&) { return 0; }

constexpr bool NoHistogramIsALedgerTerm() {
  for (const RtMetricDef& def : kRtMetricDefs) {
    if (def.kind == RtKind::kHistogram && def.ledger != RtLedger::kNone) {
      return false;
    }
  }
  return true;
}
static_assert(NoHistogramIsALedgerTerm(), "a histogram cannot be a conservation term");

// The ranges the reactor indexes by distance bucket or deadline kind.
static_assert(RtMetric::requests_cross_node == RtMetric::requests_same_llc + 2 &&
                  RtMetric::steals_cross_node == RtMetric::steals_same_llc + 2,
              "distance rows must be contiguous: same_llc, cross_llc, cross_node");
static_assert(RtMetric::timeouts_lifetime == RtMetric::timeouts_handshake + 4,
              "timeout rows must be contiguous, in DeadlineKind order");

}  // namespace rt
}  // namespace affinity

#endif  // AFFINITY_SRC_RT_METRIC_TABLE_H_
