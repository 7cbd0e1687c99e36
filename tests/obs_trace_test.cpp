// End-to-end tracing tests: trace propagation from a client read through
// hedge legs, busy retries and server phases; PFS singleflight
// leader/joiner attribution; and the migrated-counter contract (the
// metrics export and the legacy stats_snapshot() views read the same
// counters, and tracing-off behaviour is bit-for-bit legacy).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/hvac_client.hpp"
#include "cluster/hvac_server.hpp"
#include "cluster/pfs_store.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace_context.hpp"
#include "rpc/transport.hpp"

namespace ftc::cluster {
namespace {

using namespace std::chrono_literals;

ClusterConfig traced_config(std::uint32_t nodes = 4) {
  ClusterConfig config;
  config.node_count = nodes;
  config.client.mode = FtMode::kHashRingRecache;
  config.client.rpc_timeout = 100ms;
  config.client.vnodes_per_node = 50;
  config.server.async_data_mover = false;
  config.obs.tracing = true;
  config.obs.sample_every = 1;
  return config;
}

std::vector<obs::Record> of_kind(const std::vector<obs::Record>& records,
                                 obs::RecordKind kind) {
  std::vector<obs::Record> out;
  for (const obs::Record& r : records) {
    if (r.kind == kind) out.push_back(r);
  }
  return out;
}

TEST(TracePropagation, ReadProducesLinkedSpanTree) {
  Cluster cluster(traced_config());
  const auto paths = cluster.stage_dataset(8, 64);
  cluster.warm_caches(paths);
  for (const auto& path : paths) {
    ASSERT_TRUE(cluster.client(0).read_file(path).is_ok());
  }

  const std::vector<obs::Record> records = cluster.dump_traces();
  const auto roots = of_kind(records, obs::RecordKind::kClientRead);
  // warm_caches reads each path once, then we read each once more; every
  // read is sampled at sample_every=1.
  EXPECT_EQ(roots.size(), paths.size() * 2);

  // Every root is a well-formed span: nonzero ids, no parent, end>=start.
  for (const obs::Record& root : roots) {
    EXPECT_NE(root.trace_id, 0u);
    EXPECT_NE(root.span_id, 0u);
    EXPECT_EQ(root.parent_span_id, 0u);
    EXPECT_GE(root.end_ns, root.start_ns);
    EXPECT_EQ(root.code, static_cast<std::uint32_t>(StatusCode::kOk));
  }

  // Pick one root and verify the full client -> server chain under its
  // trace id: attempt (child of root), server queue + handle (children of
  // the attempt, recorded on the owner's recorder).
  const obs::Record& root = roots.back();
  const auto attempts = of_kind(records, obs::RecordKind::kClientAttempt);
  const auto attempt_it =
      std::find_if(attempts.begin(), attempts.end(),
                   [&root](const obs::Record& a) {
                     return a.trace_id == root.trace_id &&
                            a.parent_span_id == root.span_id;
                   });
  ASSERT_NE(attempt_it, attempts.end());
  EXPECT_EQ(attempt_it->detail_view(), "primary");

  const auto handles = of_kind(records, obs::RecordKind::kServerHandle);
  const auto handle_it =
      std::find_if(handles.begin(), handles.end(),
                   [&](const obs::Record& h) {
                     return h.trace_id == root.trace_id &&
                            h.parent_span_id == attempt_it->span_id;
                   });
  ASSERT_NE(handle_it, handles.end());
  EXPECT_EQ(handle_it->node, attempt_it->node);  // ran on the owner

  const auto queues = of_kind(records, obs::RecordKind::kServerQueue);
  EXPECT_TRUE(std::any_of(queues.begin(), queues.end(),
                          [&](const obs::Record& q) {
                            return q.trace_id == root.trace_id &&
                                   q.parent_span_id == attempt_it->span_id;
                          }));
}

TEST(TracePropagation, SampleEveryZeroAttachesButRecordsNoReads) {
  auto config = traced_config();
  config.obs.sample_every = 0;  // recorders wired, nothing sampled
  Cluster cluster(config);
  const auto paths = cluster.stage_dataset(6, 64);
  cluster.warm_caches(paths);
  for (const auto& path : paths) {
    ASSERT_TRUE(cluster.client(1).read_file(path).is_ok());
  }
  ASSERT_NE(cluster.flight_recorder(0), nullptr);
  const std::vector<obs::Record> records = cluster.dump_traces();
  EXPECT_TRUE(of_kind(records, obs::RecordKind::kClientRead).empty());
  EXPECT_TRUE(of_kind(records, obs::RecordKind::kClientAttempt).empty());
  EXPECT_TRUE(of_kind(records, obs::RecordKind::kServerHandle).empty());
}

TEST(TracePropagation, TracingOffByDefault) {
  auto config = traced_config();
  config.obs = obs::ObsConfig{};  // knobs unset = legacy
  Cluster cluster(config);
  const auto paths = cluster.stage_dataset(4, 64);
  cluster.warm_caches(paths);
  EXPECT_EQ(cluster.flight_recorder(0), nullptr);
  EXPECT_TRUE(cluster.dump_traces().empty());
}

TEST(TracePropagation, HedgeLegsShareTheRootsTrace) {
  // The mailbox race: hedge legs resolve on the transport's async pool,
  // possibly after read_file returned.  Their spans must still land in
  // the right trace (ids captured by value into the completion).
  auto config = traced_config();
  config.client.hedge_reads = true;
  config.client.hedge_min_samples = 8;
  config.client.hedge_min_delay = 200us;
  config.client.probe_backoff = 5ms;
  config.client.probe_backoff_cap = 40ms;
  Cluster cluster(config);
  const auto paths = cluster.stage_dataset(40, 64);
  cluster.warm_caches(paths);
  for (const auto& path : paths) {
    ASSERT_TRUE(cluster.client(0).read_file(path).is_ok());
  }
  cluster.transport().set_extra_latency(2, 30ms);
  for (const auto& path : paths) {
    ASSERT_TRUE(cluster.client(0).read_file(path).is_ok());
  }
  ASSERT_GT(cluster.client(0).stats_snapshot().hedge_wins, 0u);

  const std::vector<obs::Record> records = cluster.dump_traces();
  std::unordered_set<std::uint64_t> root_traces;
  std::unordered_set<std::uint64_t> root_spans;
  for (const obs::Record& r : of_kind(records, obs::RecordKind::kClientRead)) {
    root_traces.insert(r.trace_id);
    root_spans.insert(r.span_id);
  }
  const auto legs = of_kind(records, obs::RecordKind::kHedgeLeg);
  ASSERT_FALSE(legs.empty());
  for (const obs::Record& leg : legs) {
    EXPECT_TRUE(root_traces.count(leg.trace_id) == 1)
        << "hedge leg outside any read's trace";
    EXPECT_TRUE(root_spans.count(leg.parent_span_id) == 1)
        << "hedge leg not parented to its read's root span";
  }
  // The primary leg of a hedged read is recorded too.
  EXPECT_FALSE(of_kind(records, obs::RecordKind::kClientAttempt).empty());
}

TEST(TracePropagation, BusyRetriesStayInTrace) {
  // An always-busy server: attempt 0 bounces, the server-directed retry
  // bounces again, then the terminal PFS fallback serves.  All three
  // phases must be children of one root.
  rpc::Transport transport;
  PfsStore pfs;
  pfs.put("/f", "authoritative");
  ASSERT_TRUE(transport
                  .register_endpoint(0,
                                     [](const rpc::RpcRequest&) {
                                       rpc::RpcResponse response;
                                       response.code = StatusCode::kBusy;
                                       response.retry_after_ms = 1;
                                       return response;
                                     })
                  .is_ok());
  HvacClientConfig config;
  config.mode = FtMode::kHashRingRecache;
  config.busy_backoff_base = 1ms;
  config.busy_backoff_cap = 2ms;
  HvacClient client(0, transport, pfs, {0}, config);
  obs::FlightRecorder recorder(256);
  client.attach_observability(&recorder, /*sample_every=*/1);

  auto result = client.read_file("/f");
  ASSERT_TRUE(result.is_ok());

  const std::vector<obs::Record> records = recorder.dump();
  const auto roots = of_kind(records, obs::RecordKind::kClientRead);
  ASSERT_EQ(roots.size(), 1u);
  const obs::Record& root = roots[0];

  const auto primaries = of_kind(records, obs::RecordKind::kClientAttempt);
  ASSERT_EQ(primaries.size(), 1u);
  EXPECT_EQ(primaries[0].trace_id, root.trace_id);
  EXPECT_EQ(primaries[0].parent_span_id, root.span_id);
  EXPECT_EQ(primaries[0].code, static_cast<std::uint32_t>(StatusCode::kBusy));
  EXPECT_EQ(primaries[0].detail_view(), "primary");

  const auto retries = of_kind(records, obs::RecordKind::kBusyRetry);
  ASSERT_EQ(retries.size(), 1u);
  EXPECT_EQ(retries[0].trace_id, root.trace_id);
  EXPECT_EQ(retries[0].parent_span_id, root.span_id);
  EXPECT_EQ(retries[0].detail_view(), "busy_retry");

  const auto pfs_spans = of_kind(records, obs::RecordKind::kPfsDirect);
  ASSERT_EQ(pfs_spans.size(), 1u);
  EXPECT_EQ(pfs_spans[0].trace_id, root.trace_id);

  transport.unregister_endpoint(0);
}

TEST(PfsSingleflightTrace, LeaderAndJoinersAttributed) {
  // The storm shape with tracing: 8 sampled requests for one lost file
  // coalesce; exactly one kPfsFetchLeader span appears, every other
  // caller gets a kPfsFetchJoiner span in its own trace.
  PfsStore pfs(/*read_latency=*/20000us);
  pfs.put("/lost", "payload");
  HvacServerConfig config;
  config.async_data_mover = false;
  config.pfs_singleflight = true;
  HvacServer server(0, pfs, config);
  obs::FlightRecorder recorder(1024);
  server.attach_observability(&recorder);

  constexpr int kThreads = 8;
  std::vector<std::uint64_t> trace_ids(kThreads);
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, &ok, &trace_ids, t] {
      rpc::RpcRequest request;
      request.op = rpc::Op::kReadFile;
      request.path = "/lost";
      request.trace = obs::TraceContext::root();
      trace_ids[static_cast<std::size_t>(t)] = request.trace.trace_id;
      const auto response = server.handle(request);
      if (response.code == StatusCode::kOk) ok.fetch_add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_EQ(ok.load(), kThreads);

  const std::vector<obs::Record> records = recorder.dump();
  const auto leaders = of_kind(records, obs::RecordKind::kPfsFetchLeader);
  ASSERT_EQ(leaders.size(), 1u);
  const std::unordered_set<std::uint64_t> requests(trace_ids.begin(),
                                                   trace_ids.end());
  EXPECT_TRUE(requests.count(leaders[0].trace_id) == 1);
  EXPECT_EQ(leaders[0].detail_view(), "/lost");

  const auto joiners = of_kind(records, obs::RecordKind::kPfsFetchJoiner);
  EXPECT_EQ(joiners.size(),
            server.pfs_guard()->stats_snapshot().coalesced);
  std::unordered_set<std::uint64_t> joiner_traces;
  for (const obs::Record& j : joiners) {
    EXPECT_TRUE(requests.count(j.trace_id) == 1);
    EXPECT_NE(j.trace_id, leaders[0].trace_id);
    joiner_traces.insert(j.trace_id);
  }
  EXPECT_EQ(joiner_traces.size(), joiners.size());  // one per caller

  // Every request got its server-side execute span.
  EXPECT_EQ(of_kind(records, obs::RecordKind::kServerHandle).size(),
            static_cast<std::size_t>(kThreads));
}

TEST(MetricsMigration, ExportMatchesLegacySnapshots) {
  Cluster cluster(traced_config());
  const auto paths = cluster.stage_dataset(12, 64);
  cluster.warm_caches(paths);
  for (const auto& path : paths) {
    ASSERT_TRUE(cluster.client(0).read_file(path).is_ok());
  }

  const HvacClient::Stats c = cluster.client(0).stats_snapshot();
  const HvacServer::Stats s = cluster.server(1).stats_snapshot();
  const rpc::Transport::EndpointStats t = cluster.transport().stats(2);
  const std::string text = cluster.metrics_registry().export_prometheus_text();

  const auto expect_line = [&text](const std::string& line) {
    EXPECT_NE(text.find(line), std::string::npos) << "missing: " << line;
  };
  expect_line("ftc_client_reads_total{node=\"0\"} " + std::to_string(c.reads));
  expect_line("ftc_client_served_total{node=\"0\",outcome=\"remote_cache\"} " +
              std::to_string(c.served_remote_cache));
  expect_line("ftc_server_reads_total{node=\"1\"} " + std::to_string(s.reads));
  expect_line("ftc_server_cache_hits_total{node=\"1\"} " +
              std::to_string(s.cache_hits));
  expect_line("ftc_transport_received_total{node=\"2\"} " +
              std::to_string(t.received));
  expect_line("ftc_client_read_latency_us_count{node=\"0\"} " +
              std::to_string(cluster.client(0).latency().count()));
  // JSON export parses the same series (spot check + well-formedness).
  const std::string json = cluster.metrics_registry().export_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"name\":\"ftc_client_reads_total\""),
            std::string::npos);
}

// The exporter's whole surface, values excluded: every (series name, label
// set) the cluster emits with every optional block on (SWIM membership,
// tiered store, PFS singleflight, flight recorders).  The node label is
// folded out and each entry must appear exactly once per node; a histogram
// counts once.  A renamed, dropped or added series fails here, so changes
// to the collector are deliberate.
TEST(MetricsMigration, ExportedSeriesListIsPinned) {
  ClusterConfig config = traced_config(4);
  config.membership.enabled = true;
  config.membership.background = false;
  config.server.store.tiering = true;
  config.server.store.background_reclaim = false;
  config.server.pfs_singleflight = true;
  Cluster cluster(config);

  std::map<std::string, std::uint32_t> per_node;  // folded series -> count
  std::istringstream text(cluster.metrics_registry().export_prometheus_text());
  std::string line;
  std::string type;
  while (std::getline(text, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      type = line.substr(line.rfind(' ') + 1);
      continue;
    }
    std::string series = line.substr(0, line.rfind(' '));
    if (type == "histogram") {
      const std::size_t suffix = series.find("_count{");
      if (suffix == std::string::npos) continue;  // buckets and sum
      series.erase(suffix, std::string("_count").size());
    }
    // Fold the node label out, with one adjacent separator.
    std::size_t begin = series.find("node=\"");
    ASSERT_NE(begin, std::string::npos) << series;
    std::size_t end = series.find('"', begin + 6) + 1;
    if (series[end] == ',') {
      ++end;
    } else if (series[begin - 1] == ',') {
      --begin;
    }
    series.erase(begin, end - begin);
    if (series.ends_with("{}")) series.resize(series.size() - 2);
    ++per_node[series];
  }

  const std::vector<std::string> pinned = {
      "ftc_client_busy_rejections_total",
      "ftc_client_checksum_failures_total",
      "ftc_client_deadline_give_ups_total",
      "ftc_client_epoch_fast_forwards_total",
      "ftc_client_fenced_puts_total",
      "ftc_client_hedges_total{outcome=\"hedge_win\"}",
      "ftc_client_hedges_total{outcome=\"launched\"}",
      "ftc_client_hedges_total{outcome=\"primary_win\"}",
      "ftc_client_hedges_total{outcome=\"to_pfs\"}",
      "ftc_client_nodes_flagged_total",
      "ftc_client_nodes_reinstated_total",
      "ftc_client_probes_sent_total",
      "ftc_client_read_latency_us",
      "ftc_client_reads_total",
      "ftc_client_reconcile_repushes_total",
      "ftc_client_replicas_pushed_total",
      "ftc_client_retries_denied_total",
      "ftc_client_ring_updates_total",
      "ftc_client_served_total{outcome=\"pfs_direct\"}",
      "ftc_client_served_total{outcome=\"remote_cache\"}",
      "ftc_client_served_total{outcome=\"remote_fetch\"}",
      "ftc_client_stale_view_hints_total",
      "ftc_client_suspicions_reported_total",
      "ftc_client_timeouts_total",
      "ftc_client_warm_deferred_total",
      "ftc_client_warm_invalidations_total",
      "ftc_client_warm_pushes_total",
      "ftc_client_warm_restores_total",
      "ftc_obs_records_written_total",
      "ftc_p2p_bytes_total",
      "ftc_p2p_rescues_total",
      "ftc_pfs_guard_breaker_open",
      "ftc_pfs_guard_breaker_trips_total",
      "ftc_pfs_guard_coalesced_total",
      "ftc_pfs_guard_fetches_total",
      "ftc_pfs_guard_rejections_total{outcome=\"breaker\"}",
      "ftc_pfs_guard_rejections_total{outcome=\"slots\"}",
      "ftc_prefetch_local_hits_total",
      "ftc_prefetch_planned_total",
      "ftc_prefetch_pulls_outcome_total{outcome=\"deferred\"}",
      "ftc_prefetch_pulls_outcome_total{outcome=\"hit\"}",
      "ftc_prefetch_pulls_outcome_total{outcome=\"miss\"}",
      "ftc_prefetch_pulls_total",
      "ftc_ring_hot_demotions_total",
      "ftc_ring_hot_invalidations_total",
      "ftc_ring_hot_promotions_total",
      "ftc_ring_load_hints_total",
      "ftc_ring_load_spread_reads_total",
      "ftc_ring_spilled_reads_total",
      "ftc_server_cache_capacity_bytes",
      "ftc_server_cache_hits_total",
      "ftc_server_cache_misses_total",
      "ftc_server_cache_used_bytes",
      "ftc_server_evictions_total",
      "ftc_server_expired_on_arrival_total",
      "ftc_server_fenced_writes_total",
      "ftc_server_payload_bytes_copied_total",
      "ftc_server_peer_get_bytes_total",
      "ftc_server_peer_get_hits_total",
      "ftc_server_peer_gets_total",
      "ftc_server_pfs_fetches_total",
      "ftc_server_reads_total",
      "ftc_server_recache_completed_total",
      "ftc_server_recache_enqueued_total",
      "ftc_server_replicas_stored_total",
      "ftc_server_stale_epoch_puts_total",
      "ftc_server_stale_replica_puts_total",
      "ftc_server_warm_replica_bytes_total",
      "ftc_server_warm_replicas_stored_total",
      "ftc_store_demotions_total",
      "ftc_store_evictions_total{policy=\"s3fifo\"}",
      "ftc_store_hit_ratio",
      "ftc_store_hits_total{tier=\"nvme\"}",
      "ftc_store_hits_total{tier=\"ram\"}",
      "ftc_store_manifest_rejected_stale_total",
      "ftc_store_manifest_restored_total",
      "ftc_store_misses_total",
      "ftc_store_overflow_writes_total",
      "ftc_store_promotions_total",
      "ftc_store_reclaim_runs_total",
      "ftc_store_tier_used_bytes{tier=\"nvme\"}",
      "ftc_store_tier_used_bytes{tier=\"ram\"}",
      "ftc_swim_acks_received_total",
      "ftc_swim_claims_applied_total",
      "ftc_swim_confirms_deferred_total",
      "ftc_swim_confirms_total",
      "ftc_swim_deltas_served_total",
      "ftc_swim_duplicate_verdicts_total",
      "ftc_swim_epoch",
      "ftc_swim_false_suspicions_total",
      "ftc_swim_fast_forwards_total",
      "ftc_swim_full_syncs_served_total",
      "ftc_swim_gossip_claims_sent_total",
      "ftc_swim_indirect_probes_total",
      "ftc_swim_joins_total",
      "ftc_swim_members_alive",
      "ftc_swim_members_failed",
      "ftc_swim_members_suspect",
      "ftc_swim_probes_sent_total",
      "ftc_swim_refutations_total",
      "ftc_swim_reinstatements_total",
      "ftc_swim_stale_view_hints_sent_total",
      "ftc_swim_suspicions_total",
      "ftc_swim_verdicts_received_total",
      "ftc_swim_verdicts_sent_total",
      "ftc_swim_verdicts_unreachable_total",
      "ftc_transport_dropped_total",
      "ftc_transport_duplicated_total",
      "ftc_transport_handled_total",
      "ftc_transport_inline_handled_total",
      "ftc_transport_partition_dropped_total",
      "ftc_transport_received_data_total",
      "ftc_transport_received_total",
      "ftc_transport_reordered_total",
      "ftc_transport_requests_shed_total",
  };
  std::vector<std::string> exported;
  for (const auto& [series, count] : per_node) {
    EXPECT_EQ(count, config.node_count) << series;
    exported.push_back(series);
  }
  EXPECT_EQ(exported, pinned);
}

TEST(MetricsMigration, TracingKnobsDoNotChangeLegacyStats) {
  // Same deterministic workload with tracing off and fully on: the legacy
  // stats_snapshot() views must be byte-identical (observability must
  // observe, never perturb).
  const auto run = [](bool tracing) {
    auto config = traced_config();
    config.obs.tracing = tracing;
    Cluster cluster(config);
    const auto paths = cluster.stage_dataset(10, 64);
    cluster.warm_caches(paths);
    for (const auto& path : paths) {
      EXPECT_TRUE(cluster.client(0).read_file(path).is_ok());
    }
    return cluster.client(0).stats_snapshot();
  };
  const HvacClient::Stats off = run(false);
  const HvacClient::Stats on = run(true);
  EXPECT_EQ(std::memcmp(&off, &on, sizeof(HvacClient::Stats)), 0);
}

}  // namespace
}  // namespace ftc::cluster
