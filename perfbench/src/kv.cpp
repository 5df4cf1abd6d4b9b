// kv_read_hot and kv_write_lossy: the sharded kv service on 4 storage
// racks with the directory on a spine, ToR rack caches, client edge
// caches and a telemetry sketch feeding directory rebalancing.
// Closed-loop clients keep a fixed window of requests outstanding over
// a Zipf(0.99) key stream whose hot set drifts. kv_read_hot is 95%
// GETs on a loss-free fabric (the in-network hit path); kv_write_lossy
// is 50% PUTs with 1% link loss and ECN marking (invalidations, lease
// broadcasts, in-flight registers and retransmits).
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "directory/protocol.hpp"
#include "directory/sharded_service.hpp"
#include "kvcache/protocol.hpp"
#include "netsim/headers.hpp"
#include "probes.hpp"
#include "telemetry/service.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace daiet;

namespace {

// 8 leaves x 2 hosts: storage servers on leaves 0-3 (hosts 0, 2, 4, 6),
// the telemetry collector on host 1, clients on leaves 4-7 (hosts 8-15).
constexpr std::size_t kHosts = 16;
constexpr std::size_t kCollectorHost = 1;
const std::vector<std::size_t> kServerHosts{0, 2, 4, 6};
const std::vector<std::size_t> kClientHosts{8, 9, 10, 11, 12, 13, 14, 15};
constexpr std::size_t kWindow = 4;
constexpr std::size_t kNumKeys = 65536;
/// Control-loop cadence: every tick polls telemetry and runs a rack
/// cache promotion pass; every kDirectoryEvery ticks the directory
/// rebalances off the telemetry ranking.
constexpr sim::SimTime kTick = 100 * sim::kMicrosecond;
constexpr std::size_t kDirectoryEvery = 10;

class KvBench final : public Workload {
public:
    KvBench(bool lossy, std::uint64_t seed, Size size) : lossy_{lossy}, seed_{seed}, size_{size} {
        kv::KvWorkload wl;
        wl.num_keys = kNumKeys;
        wl.zipf_s = 0.99;
        wl.requests_per_client = size == Size::kTiny ? 400 : 6000;
        wl.get_fraction = lossy ? 0.5 : 0.95;
        wl.hotset_rotate_every = wl.requests_per_client / 4;
        wl.hotset_rotate_by = 64;
        wl.seed = seed;
        for (std::size_t ci = 0; ci < kClientHosts.size(); ++ci) {
            streams_.push_back(kv::client_op_stream(wl, ci, kClientHosts.size()));
        }
        // Every value a GET may legally return: the preload value or a
        // value some PUT of the workload writes.
        for (std::size_t i = 0; i < kNumKeys; ++i) {
            allowed_[kv::KvService::key_of(i)].insert(kv::KvService::preload_value_of(i));
        }
        for (const auto& ops : streams_) {
            for (const kv::KvOpSpec& op : ops) {
                if (!op.is_get) allowed_[op.key].insert(op.value);
            }
        }
    }

    Episode run(Trace trace) override;

private:
    rt::ClusterOptions cluster_options() const {
        rt::ClusterOptions o;
        o.topology = rt::TopologyKind::kLeafSpine;
        o.num_hosts = kHosts;
        o.n_leaf = 8;
        o.n_spine = 2;
        // The kv tenants share chips with an idle DAIET program; keep
        // its register state small.
        o.config.register_size = 512;
        o.config.max_trees = 2;
        o.seed = seed_;
        if (lossy_) {
            o.link.loss_probability = 0.01;
            o.link.ecn_threshold_bytes = 1024;
        }
        return o;
    }

    dir::ShardedKvOptions service_options() const {
        dir::ShardedKvOptions o;
        o.server_hosts = kServerHosts;
        o.client_hosts = kClientHosts;
        o.config.cache_slots = 64;
        o.config.retry.min_rto = 1000 * sim::kMicrosecond;
        return o;
    }

    struct PassTimings {
        double edge_ns{0};
        double directory_ns{0};
        double kvcache_ns{0};
    };
    /// Per-tenant pipeline-pass timings on the quiesced fabric, fed kv
    /// frames built from client 0's own op stream.
    PassTimings pass_timings(rt::ClusterRuntime& rt, dir::ShardedKvService& svc) const;

    bool lossy_;
    std::uint64_t seed_;
    Size size_;
    std::vector<std::vector<kv::KvOpSpec>> streams_;
    std::unordered_map<Key16, std::unordered_set<WireValue>> allowed_;
};

Episode KvBench::run(Trace trace) {
    Episode ep;
    const PoolCounters pool0 = read_pool();

    auto t = Clock::now();
    rt::ClusterRuntime rt{cluster_options()};
    ep.build_s = seconds_since(t);

    t = Clock::now();
    telemetry::TelemetryOptions tel_opts;
    tel_opts.collector_host = kCollectorHost;
    telemetry::TelemetryService tel{rt, tel_opts};
    dir::ShardedKvService svc{rt, service_options()};
    ep.install_s = seconds_since(t);

    t = Clock::now();
    svc.preload(kNumKeys);
    ep.preload_s = seconds_since(t);

    // --- closed-loop clients and the control loops ---------------------------
    const std::size_t n = svc.num_clients();
    std::vector<std::size_t> next(n, 0);
    const auto pump = [&](std::size_t ci) {
        kv::KvClient& client = svc.client(ci);
        while (client.outstanding() < kWindow && next[ci] < streams_[ci].size()) {
            const kv::KvOpSpec& op = streams_[ci][next[ci]++];
            if (op.is_get) {
                client.get(op.key);
            } else {
                client.put(op.key, op.value);
            }
        }
    };
    const auto busy = [&] {
        for (std::size_t ci = 0; ci < n; ++ci) {
            if (svc.client(ci).outstanding() != 0 || next[ci] < streams_[ci].size()) return true;
        }
        return false;
    };
    sim::Simulator& sim = rt.simulator();
    for (std::size_t ci = 0; ci < n; ++ci) {
        svc.client(ci).on_reply = [&pump, ci](const kv::KvClient::OpRecord&) { pump(ci); };
        sim.schedule_at((1 + ci) * 500 * sim::kNanosecond, [&pump, ci] { pump(ci); });
    }
    const auto hot_keys = tel.collector().hot_key_source_for(svc.directory_node());
    std::size_t ticks = 0;
    std::function<void()> tick = [&] {
        tel.collector().poll_once();
        svc.rebalance_racks();
        if (++ticks % kDirectoryEvery == 0) svc.controller().rebalance(hot_keys);
        // Refill window slots that abandoned requests freed.
        for (std::size_t ci = 0; ci < n; ++ci) pump(ci);
        if (busy()) sim.schedule_after(kTick, tick);
    };
    sim.schedule_at(kTick, tick);

    t = Clock::now();
    rt.run();
    ep.run_s = seconds_since(t);

    // --- outputs --------------------------------------------------------------
    Digest digest;
    std::vector<double> latency_us;
    // Each client's own stream completion time: its throughput, and the
    // job time as the mean over clients (the max would be set by the
    // one client that drew the most losses).
    std::vector<double> client_ms;
    double goodput = 0;
    transport::RetryStats retry;
    for (std::size_t ci = 0; ci < n; ++ci) {
        kv::KvClient& client = svc.client(ci);
        client.on_reply = nullptr;
        const transport::RetryStats& s = client.channel().stats();
        retry.requests += s.requests;
        retry.retransmits += s.retransmits;
        retry.nudges += s.nudges;
        retry.replies += s.replies;
        retry.abandoned += s.abandoned;
        retry.ecn_backoffs += s.ecn_backoffs;
        check(client.log().size() + s.abandoned == next[ci],
              "kv: client " + std::to_string(ci) + " issued " + std::to_string(next[ci]) +
                  " requests but " + std::to_string(client.log().size()) + " were answered and " +
                  std::to_string(s.abandoned) + " abandoned");
        std::unordered_set<std::uint32_t> answered;
        for (const kv::KvClient::OpRecord& rec : client.log()) {
            check(answered.insert(rec.req_id).second,
                  "kv: client " + std::to_string(ci) + " request " + std::to_string(rec.req_id) +
                      " answered twice");
            if (rec.op == kv::KvOp::kGet) {
                const auto it = allowed_.find(rec.key);
                check(rec.found && it != allowed_.end() && it->second.contains(rec.value),
                      "kv: client " + std::to_string(ci) + " GET " + std::to_string(rec.req_id) +
                          " returned a value no PUT wrote");
            }
            latency_us.push_back(static_cast<double>(rec.latency) / 1e3);
            digest.add(rec.req_id);
            digest.add(static_cast<std::uint64_t>(rec.op));
            digest.add(std::hash<Key16>{}(rec.key));
            digest.add(rec.value);
            digest.add(static_cast<std::uint64_t>(rec.found) << 2 |
                       static_cast<std::uint64_t>(rec.from_switch) << 1 |
                       static_cast<std::uint64_t>(rec.from_edge));
            digest.add(rec.latency);
            digest.add(rec.completed);
        }
        const double done_ms =
            client.log().empty() ? 0.0 : static_cast<double>(client.log().back().completed) / 1e6;
        client_ms.push_back(done_ms);
        goodput += ratio(static_cast<double>(client.log().size()), done_ms);
        ep.ops += client.log().size();
        ep.attempted += next[ci];
    }
    ep.failed = retry.abandoned;
    if (!lossy_) {
        // The loss-free hit path never times out. Directory NACKs during
        // a range migration are answered by nudges, which the channel
        // also counts as retransmissions; none may come from a timeout.
        check(retry.retransmits == retry.nudges && retry.abandoned == 0,
              "kv_read_hot: " + std::to_string(retry.retransmits - retry.nudges) +
                  " timeout retransmits, " + std::to_string(retry.abandoned) + " abandoned");
    }
    ep.digest = digest.value();

    std::uint64_t server_ops = 0;
    for (std::size_t s = 0; s < svc.num_shards(); ++s) {
        server_ops += svc.server(s).stats().gets + svc.server(s).stats().puts;
    }
    const auto ops = static_cast<double>(ep.ops);
    put(ep.model, "sim_mean_us", mean(latency_us), "us");
    put(ep.model, "sim_p50_us", quantile(latency_us, 0.50), "us");
    put(ep.model, "sim_p99_us", quantile(latency_us, 0.99), "us");
    put(ep.model, "sim_samples", static_cast<double>(latency_us.size()), "count");
    put(ep.model, "sim_goodput_ops_per_ms", goodput, "1/ms");
    // Share of requests the network answered without a storage server.
    put(ep.model, "traffic_reduction", 1.0 - ratio(static_cast<double>(server_ops), ops), "ratio");
    put(ep.model, "job_sim_ms", mean(client_ms), "ms");
    if (trace == Trace::kOff) return ep;

    // --- per-layer numbers, read after the run -------------------------------
    Metrics& m = ep.layers;
    FabricCounters fabric = read_fabric(rt);
    // Telemetry polls reset the link watermarks; the collector keeps
    // the deepest one it was told about.
    fabric.peak_queue_bytes =
        std::max<std::uint64_t>(fabric.peak_queue_bytes, tel.collector().max_watermark_bytes());
    put_fabric_layers(m, fabric, pool0, ep.ops);
    const dir::ShardedKvRunStats st = svc.collect();
    kv::KvCacheStats rack;
    for (std::size_t s = 0; s < svc.num_shards(); ++s) {
        rack.hits += svc.rack_cache(s)->stats().hits;
        rack.gets_seen += svc.rack_cache(s)->stats().gets_seen;
        rack.puts_seen += svc.rack_cache(s)->stats().puts_seen;
    }
    put(m, "kvcache.hit_ratio", rack.hit_rate(), "ratio");
    put(m, "kvcache.server_ops_per_op", ratio(static_cast<double>(server_ops), ops), "count");
    put(m, "directory.edge_hit_ratio", st.edges.hit_rate(), "ratio");
    put(m, "directory.invalidations", static_cast<double>(st.directory.invalidations_sent),
        "count");
    put(m, "directory.nacks", static_cast<double>(st.directory.nacks), "count");
    put(m, "directory.migrations", static_cast<double>(st.control.migrations_completed), "count");
    std::uint64_t observed = 0;
    for (const sim::PipelineSwitchNode* sw : rt.daiet_switches()) {
        if (const auto* p = tel.program_at(sw->id())) observed += p->stats().frames_observed;
    }
    put(m, "telemetry.observed_frames", static_cast<double>(observed), "count");
    put(m, "transport.retransmits_per_op", ratio(static_cast<double>(retry.retransmits), ops),
        "count");
    put(m, "transport.useful_ratio",
        ratio(static_cast<double>(retry.replies),
              static_cast<double>(retry.requests + retry.retransmits)),
        "ratio");
    put(m, "transport.abandoned", static_cast<double>(retry.abandoned), "count");
    put(m, "transport.ecn_backoffs", static_cast<double>(retry.ecn_backoffs), "count");
    if (trace != Trace::kLayersAndProbes) return ep;

    // --- standalone per-hop timings on the quiesced fabric --------------------
    const double ev_ns = event_ns(queue_depth(rt, n * kWindow), size_);
    const double hop = hop_ns(rt, rt.host(kClientHosts[0]), rt.host(kServerHosts[0]).addr(), size_);
    put(m, "netsim.event_ns", ev_ns, "ns");
    put(m, "netsim.hop_ns", hop, "ns");
    const PassTimings pass = pass_timings(rt, svc);
    put(m, "core.mux_pass_ns.edge", pass.edge_ns, "ns");
    put(m, "core.mux_pass_ns.directory", pass.directory_ns, "ns");
    put(m, "core.mux_pass_ns.kvcache", pass.kvcache_ns, "ns");
    const double tenant_s =
        (static_cast<double>(st.edges.gets_seen) * pass.edge_ns +
         static_cast<double>(st.directory.gets_steered + st.directory.puts_steered +
                             st.directory.nacks) *
             pass.directory_ns +
         static_cast<double>(rack.gets_seen + rack.puts_seen) * pass.kvcache_ns) *
        1e-9;
    put(m, "layers.coverage", coverage(ep.run_s, 0.0, fabric, ev_ns, hop, tenant_s), "ratio");
    return ep;
}

KvBench::PassTimings KvBench::pass_timings(rt::ClusterRuntime& rt,
                                           dir::ShardedKvService& svc) const {
    const kv::KvConfig config = service_options().config;
    const sim::HostAddr client = rt.host(kClientHosts[0]).addr();
    const sim::HostAddr server = rt.host(kServerHosts[0]).addr();
    const sim::HostAddr service = dir::service_vaddr(dir::DirectoryConfig{}.service_id);
    const std::vector<kv::KvOpSpec>& ops = streams_[0];
    const auto frame_to = [&](sim::HostAddr dst) {
        return [&, dst](std::size_t i) {
            const kv::KvOpSpec& op = ops[i % ops.size()];
            kv::KvMessage msg;
            msg.op = op.is_get ? kv::KvOp::kGet : kv::KvOp::kPut;
            msg.req_id = static_cast<std::uint32_t>(i + 1);
            msg.seq = static_cast<std::uint32_t>(i + 1);
            msg.key = op.key;
            msg.value = op.value;
            return sim::build_udp_frame(client, dst, config.client_udp_port,
                                        config.server_udp_port, kv::serialize_kv(msg));
        };
    };
    const auto edge_chip = [&](std::size_t host) -> dp::PipelineSwitch& {
        return rt.chip_at(rt.network().edge_switch_of(rt.host(host))->id());
    };
    PassTimings t;
    t.edge_ns = pass_ns(edge_chip(kClientHosts[0]), frame_to(service), size_);
    t.directory_ns = pass_ns(rt.chip_at(svc.directory_node()), frame_to(service), size_);
    t.kvcache_ns = pass_ns(edge_chip(kServerHosts[0]), frame_to(server), size_);
    return t;
}

}  // namespace

std::unique_ptr<Workload> make_kv(bool lossy, std::uint64_t seed, Size size) {
    return std::make_unique<KvBench>(lossy, seed, size);
}

}  // namespace perfbench
