// The runtime's exported metric surface, pinned: the ordered (name, type,
// help) of every rt_* series a Runtime registers, for a steer-off and a
// steer-on (affinity) configuration. Exporters, dashboards and the bench
// JSON read these names, so a change here is an interface change and has to
// be made on purpose.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "src/rt/runtime.h"

namespace affinity {
namespace rt {
namespace {

using Series = std::tuple<std::string, std::string, std::string>;  // name, type, help

// Scalar series first, then histograms -- the order MetricsRegistry::
// Snapshot() (and so every exporter) renders them in.
std::vector<Series> ExportedSeries(const Runtime& runtime) {
  obs::MetricsSnapshot snap = runtime.metrics().Snapshot();
  std::vector<Series> out;
  for (const obs::SeriesSnap& s : snap.series) {
    out.emplace_back(s.name, s.kind == obs::MetricKind::kGauge ? "gauge" : "counter", s.help);
  }
  for (const obs::HistSnap& h : snap.histograms) {
    out.emplace_back(h.name, "histogram", h.help);
  }
  return out;
}

const std::vector<Series>& AlwaysSeries() {
  static const std::vector<Series> kSeries = {
      {"rt_accepted", "counter", "connections returned by accept()"},
      {"rt_served_local", "counter", "connections served from the core's own queue"},
      {"rt_served_remote", "counter", "connections served from another core's queue"},
      {"rt_steals", "counter", "affinity-mode connection steals"},
      {"rt_overflow_drops", "counter", "connections dropped on a full local queue"},
      {"rt_epoll_wakeups", "counter", "epoll_wait returns with work"},
      {"rt_doorbell_wakeups", "counter", "wakeups another thread rang on this reactor's doorbell"},
      {"rt_transitions_to_busy", "counter", "high-watermark busy-bit sets"},
      {"rt_transitions_to_nonbusy", "counter", "low-watermark busy-bit clears"},
      {"rt_conn_remote_frees", "counter",
       "PendingConn blocks freed by a core other than their owner"},
      {"rt_pool_exhausted", "counter",
       "connections dropped because the conn pool had no free block"},
      {"rt_accept_eintr", "counter", "accept4 EINTR skip-and-continue"},
      {"rt_accept_econnaborted", "counter", "accept4 ECONNABORTED: connection gone before accept"},
      {"rt_accept_eproto", "counter", "accept4 EPROTO skip-and-continue"},
      {"rt_accept_emfile", "counter", "accept4 EMFILE/ENFILE: out of fds"},
      {"rt_accept_backoff", "counter", "capped exponential accept backoff windows entered"},
      {"rt_admission_shed", "counter",
       "connections accepted then shed (RST) by the admission policy"},
      {"rt_fault_injected", "counter", "faults injected by the chaos plan"},
      {"rt_failovers", "counter", "watchdog failovers won by this core"},
      {"rt_recoveries", "counter", "reactors recovered after failover"},
      {"rt_failover_group_moves", "counter", "flow groups mass-moved by failover/recovery"},
      {"rt_reactor_dead", "gauge", "1 = this reactor is marked dead"},
      {"rt_queue_len", "gauge", "accept-queue length at last update"},
      {"rt_busy", "gauge", "busy bit (1 = over high watermark)"},
      {"rt_requests", "counter", "completed request/response rounds (svc handlers)"},
      {"rt_aborted_at_stop", "counter", "held connections closed by a reactor's Run() exit"},
      {"rt_conn_open", "gauge", "connections currently mid-conversation"},
      {"rt_requests_local_core", "counter",
       "requests served on the core that accepted the connection"},
      {"rt_requests_remote_core", "counter", "requests served on a core other than the acceptor"},
      {"rt_conn_migrations", "counter",
       "connections first served by a core other than their acceptor"},
      {"rt_requests_same_llc", "counter", "remote-core requests where both cores share the LLC"},
      {"rt_requests_cross_llc", "counter", "remote-core requests crossing LLCs on one node"},
      {"rt_requests_cross_node", "counter", "remote-core requests crossing NUMA nodes"},
      {"rt_steals_same_llc", "counter", "steals where thief and victim share the LLC"},
      {"rt_steals_cross_llc", "counter", "steals crossing LLCs on one node"},
      {"rt_steals_cross_node", "counter", "steals crossing NUMA nodes"},
      {"rt_timeouts_handshake", "counter", "conns closed by the accept-to-first-byte deadline"},
      {"rt_timeouts_idle", "counter",
       "conns closed by the between-requests idle deadline (incl. pool evictions)"},
      {"rt_timeouts_read", "counter", "conns closed by the per-request read deadline"},
      {"rt_timeouts_write", "counter", "conns closed by the per-response write deadline"},
      {"rt_timeouts_lifetime", "counter", "conns closed by the absolute max-lifetime cap"},
      {"rt_pool_evictions", "counter",
       "idle conns reaped under pool pressure (subset of rt_timeouts_idle)"},
      {"rt_drained_gracefully", "counter",
       "conns that finished normally inside a drain window (subset of served)"},
  };
  return kSeries;
}

const std::vector<Series>& SteerSeries() {
  static const std::vector<Series> kSeries = {
      {"rt_migrations_suppressed", "counter",
       "balancer epochs where hysteresis held back every candidate group"},
      {"rt_steer_owner_accepts", "counter",
       "connections accepted on the shard owning their flow group"},
      {"rt_steer_cross_accepts", "counter",
       "connections re-steered in user space to their owner's queue"},
      {"rt_migrations", "counter", "flow groups pulled by the long-term balancer"},
      {"rt_steer_cbpf", "gauge", "1 = SO_ATTACH_REUSEPORT_CBPF program attached"},
      {"rt_steer_groups_owned", "gauge", "steering-table flow groups per core"},
  };
  return kSeries;
}

const std::vector<Series>& Histograms() {
  static const std::vector<Series> kSeries = {
      {"rt_queue_wait_ns", "histogram", "accept() -> service latency per connection"},
      {"rt_request_latency_ns", "histogram",
       "per-request service time, first byte to response flushed"},
      {"rt_drain_duration_ns", "histogram", "wall duration of each Stop() drain window"},
  };
  return kSeries;
}

void ExpectSeries(const std::vector<Series>& got, const std::vector<Series>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "series #" << i;
  }
}

TEST(RtExportedSeriesTest, SteerOffSeriesArePinned) {
  for (RtMode mode : {RtMode::kStock, RtMode::kFine, RtMode::kAffinity}) {
    SCOPED_TRACE(RtModeName(mode));
    RtConfig config;
    config.mode = mode;
    config.num_threads = 2;
    Runtime runtime(config);
    std::vector<Series> want = AlwaysSeries();
    want.insert(want.end(), Histograms().begin(), Histograms().end());
    ExpectSeries(ExportedSeries(runtime), want);
  }
}

TEST(RtExportedSeriesTest, SteerOnSeriesArePinned) {
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = 2;
  config.steer = true;
  Runtime runtime(config);
  std::vector<Series> want = AlwaysSeries();
  want.insert(want.end(), SteerSeries().begin(), SteerSeries().end());
  want.insert(want.end(), Histograms().begin(), Histograms().end());
  ExpectSeries(ExportedSeries(runtime), want);
}

// Steering is an affinity-mode feature: a steer flag on another mode
// registers nothing extra.
TEST(RtExportedSeriesTest, SteerFlagOutsideAffinityAddsNoSeries) {
  RtConfig config;
  config.mode = RtMode::kFine;
  config.num_threads = 2;
  config.steer = true;
  Runtime runtime(config);
  std::vector<Series> want = AlwaysSeries();
  want.insert(want.end(), Histograms().begin(), Histograms().end());
  ExpectSeries(ExportedSeries(runtime), want);
}

}  // namespace
}  // namespace rt
}  // namespace affinity
