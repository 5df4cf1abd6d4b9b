// agg_wordcount: the paper's Figure 3 shuffle shape (24 mappers, 12
// reducers, 16K-entry registers, <= 10 pairs per packet) on a
// leaf-spine fabric, so DAIET aggregates at every hop. Words are Zipf
// without the collision-free filter, over a vocabulary larger than the
// registers, so some keys combine and some spill. Each episode runs
// several map -> shuffle -> reduce rounds on one deployment.
#include <algorithm>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "mapreduce/corpus.hpp"
#include "mapreduce/reduce.hpp"
#include "mapreduce/wordcount.hpp"
#include "netsim/headers.hpp"
#include "probes.hpp"
#include "runtime/job_driver.hpp"
#include "trace/profiler.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace daiet;

namespace {

constexpr std::size_t kMappers = 24;
constexpr std::size_t kReducers = 12;
constexpr std::size_t kHosts = kMappers + kReducers;
constexpr std::size_t kRounds = 3;

/// The reducer's final step: sort-scan-combine what its receiver holds.
std::vector<KvPair> reduce(const ReducerReceiver& rx) {
    std::vector<KvPair> pairs;
    pairs.reserve(rx.aggregated().size());
    for (const auto& [key, value] : rx.aggregated()) pairs.push_back(KvPair{key, value});
    return mr::sort_scan_combine(std::move(pairs), AggFnId::kSumI32);
}

/// Reducers sit on every third host slot, so each of the six leaves
/// holds two reducers and four mappers.
bool is_reducer_slot(std::size_t i) { return i % 3 == 2; }

class AggWordcount final : public Workload {
public:
    AggWordcount(std::uint64_t seed, Size size)
        : size_{size}, seed_{seed}, corpus_{corpus_config(seed, size)} {
        // The reference comes from the corpus's own ground truth, not
        // from the map code the rounds run.
        reference_.resize(kReducers);
        for (const auto& [word, count] : corpus_.reference_counts()) {
            reference_[corpus_.partition_of(word)].push_back(
                KvPair{Key16{word}, wire_from_i32(static_cast<std::int32_t>(count))});
        }
        for (auto& part : reference_) {
            std::sort(part.begin(), part.end(),
                      [](const KvPair& a, const KvPair& b) { return a.key < b.key; });
        }
    }

    Episode run(Trace trace) override;
    Metrics once_per_trace() override;

private:
    static mr::CorpusConfig corpus_config(std::uint64_t seed, Size size) {
        mr::CorpusConfig c;
        c.num_mappers = kMappers;
        c.num_reducers = kReducers;
        c.vocabulary_size = size == Size::kTiny ? 20'000 : 64'000;
        c.total_words = size == Size::kTiny ? 60'000 : 480'000;
        c.zipf_exponent = 0.99;
        c.collision_free = false;
        c.register_size = Config{}.register_size;
        c.seed = seed;
        return c;
    }

    rt::ClusterOptions cluster_options() const {
        rt::ClusterOptions o;
        o.topology = rt::TopologyKind::kLeafSpine;
        o.num_hosts = kHosts;
        o.n_leaf = 6;
        o.n_spine = 2;
        o.seed = seed_;
        return o;
    }

    /// One aggregation group per reducer, fed by every mapper.
    static rt::JobSpec job_spec(rt::ClusterRuntime& rt) {
        std::vector<sim::Host*> mappers;
        std::vector<sim::Host*> reducers;
        for (std::size_t i = 0; i < kHosts; ++i) {
            (is_reducer_slot(i) ? reducers : mappers).push_back(&rt.host(i));
        }
        rt::JobSpec spec;
        spec.name = "agg_wordcount";
        for (sim::Host* reducer : reducers) {
            spec.groups.push_back(rt::JobGroup{reducer, mappers, AggFnId::kSumI32});
        }
        return spec;
    }

    std::vector<mr::MapOutput> map_all(const std::vector<std::string>& splits) const {
        std::vector<mr::MapOutput> maps;
        maps.reserve(splits.size());
        for (const std::string& text : splits) {
            maps.push_back(mr::run_wordcount_map(text, corpus_, kReducers));
        }
        return maps;
    }

    /// ns per DAIET pass at mapper 0's leaf, fed DATA frames cut from
    /// the round's own map output. Re-arms the trees first.
    double daiet_pass_ns(rt::ClusterRuntime& rt, rt::JobDriver& driver,
                         const std::vector<mr::MapOutput>& maps) const;

    Size size_;
    std::uint64_t seed_{0};
    mr::Corpus corpus_;
    std::vector<std::vector<KvPair>> reference_;
    /// Events of a sequential first round, for parallel.extra_events.
    std::uint64_t seq_round_events_{0};
};

Episode AggWordcount::run(Trace trace) {
    Episode ep;
    const PoolCounters pool0 = read_pool();

    auto t = Clock::now();
    rt::ClusterRuntime rt{cluster_options()};
    ep.build_s = seconds_since(t);

    t = Clock::now();
    rt::JobDriver driver{rt, job_spec(rt)};
    ep.install_s = seconds_since(t);

    t = Clock::now();
    std::vector<std::string> splits;
    for (std::size_t m = 0; m < kMappers; ++m) splits.push_back(corpus_.split_text(m));
    ep.preload_s = seconds_since(t);

    Digest digest;
    std::vector<double> map_s;
    std::vector<double> round_s;
    std::vector<double> reduce_s;
    std::vector<double> tree_latency_us;
    std::uint64_t pairs_sent = 0;
    std::uint64_t pairs_received = 0;
    std::uint64_t attempts = 0;
    sim::SimTime job_sim = 0;
    std::vector<mr::MapOutput> maps;
    for (std::size_t round = 0; round < kRounds; ++round) {
        t = Clock::now();
        maps = map_all(splits);
        map_s.push_back(seconds_since(t));

        t = Clock::now();
        driver.begin_round();
        rt::JobDriver::Receivers receivers = driver.bind_receivers();
        std::vector<sim::SimTime> done(kReducers, 0);
        for (std::size_t g = 0; g < kReducers; ++g) {
            receivers[g]->on_complete = [&rt, &done, g] { done[g] = rt.now(); };
        }
        driver.schedule_sends([&maps](std::size_t group, std::size_t mapper, MapperSender& tx) {
            tx.send_serialized(maps[mapper].partitions[group].bytes());
        });
        driver.run_to_quiescence();
        driver.verify(receivers);
        const rt::RoundStats rs = driver.collect(receivers);
        round_s.push_back(seconds_since(t));
        if (round == 0) seq_round_events_ = rt.network().events_executed();

        t = Clock::now();
        std::vector<std::vector<KvPair>> outputs(kReducers);
        for (std::size_t g = 0; g < kReducers; ++g) outputs[g] = reduce(*receivers[g]);
        reduce_s.push_back(seconds_since(t));

        for (std::size_t g = 0; g < kReducers; ++g) {
            check(outputs[g] == reference_[g],
                  "agg_wordcount: reducer " + std::to_string(g) + " round " +
                      std::to_string(round) + " output differs from the reference");
            check(done[g] >= rs.started, "agg_wordcount: tree finished before its round");
            tree_latency_us.push_back(static_cast<double>(done[g] - rs.started) / 1e3);
            digest.add(done[g] - rs.started);
            digest.add(outputs[g].size());
        }
        digest.add(rs.pairs_sent);
        digest.add(rs.pairs_received);
        digest.add(rs.data_packets_received);
        digest.add(rs.finished - rs.started);
        pairs_sent += rs.pairs_sent;
        pairs_received += rs.pairs_received;
        attempts += rs.attempts;
        job_sim += rs.finished - rs.started;
    }
    for (double s : map_s) ep.run_s += s;
    for (double s : round_s) ep.run_s += s;
    for (double s : reduce_s) ep.run_s += s;
    ep.ops = pairs_sent;
    ep.attempted = pairs_sent;
    ep.failed = 0;  // a lost pair fails verify() or the output check
    ep.digest = digest.value();

    const double job_sim_ms = static_cast<double>(job_sim) / 1e6;
    put(ep.model, "sim_mean_us", mean(tree_latency_us), "us");
    put(ep.model, "sim_p50_us", quantile(tree_latency_us, 0.50), "us");
    put(ep.model, "sim_p99_us", quantile(tree_latency_us, 0.99), "us");
    put(ep.model, "sim_samples", static_cast<double>(tree_latency_us.size()), "count");
    put(ep.model, "sim_goodput_ops_per_ms", ratio(static_cast<double>(pairs_sent), job_sim_ms),
        "1/ms");
    put(ep.model, "traffic_reduction",
        1.0 - ratio(static_cast<double>(pairs_received), static_cast<double>(pairs_sent)),
        "ratio");
    put(ep.model, "job_sim_ms", job_sim_ms, "ms");
    if (trace == Trace::kOff) return ep;

    // --- per-layer numbers, read after the run -------------------------------
    Metrics& m = ep.layers;
    const FabricCounters fabric = read_fabric(rt);
    put_fabric_layers(m, fabric, pool0, ep.ops);
    put(m, "runtime.round_s", median(round_s), "s");
    put(m, "runtime.round_attempts", ratio(static_cast<double>(attempts), kRounds), "count");
    put(m, "mapreduce.map_s", median(map_s), "s");
    put(m, "mapreduce.reduce_s", median(reduce_s), "s");
    AgentTreeStats trees;
    for (std::size_t g = 0; g < kReducers; ++g) {
        const TreeId id = driver.tree(g);
        for (const auto& [node, rule] : rt.controller().layout(id).rules) {
            const AgentTreeStats& s = rt.program_at(node)->tree_stats(id);
            trees.pairs_combined += s.pairs_combined;
            trees.pairs_spilled += s.pairs_spilled;
            trees.spill_flushes += s.spill_flushes;
        }
    }
    put(m, "core.pairs_combined", static_cast<double>(trees.pairs_combined), "count");
    put(m, "core.pairs_spilled", static_cast<double>(trees.pairs_spilled), "count");
    put(m, "core.spill_flushes", static_cast<double>(trees.spill_flushes), "count");
    if (trace != Trace::kLayersAndProbes) return ep;

    // --- standalone per-hop timings on the quiesced fabric --------------------
    const double ev_ns = event_ns(queue_depth(rt, 0), size_);
    const rt::JobGroup& group0 = driver.spec().groups[0];
    const double hop = hop_ns(rt, *group0.reducer, group0.mappers[0]->addr(), size_);
    put(m, "netsim.event_ns", ev_ns, "ns");
    put(m, "netsim.hop_ns", hop, "ns");
    const double daiet_ns = daiet_pass_ns(rt, driver, maps);
    put(m, "core.mux_pass_ns.daiet", daiet_ns, "ns");
    // Every switch visit of this workload is a DAIET pass.
    double spans_s = 0;
    for (double s : map_s) spans_s += s;
    for (double s : reduce_s) spans_s += s;
    put(m, "layers.coverage",
        coverage(ep.run_s, spans_s, fabric, ev_ns, hop,
                 static_cast<double>(fabric.packets_in) * daiet_ns * 1e-9),
        "ratio");
    return ep;
}

double AggWordcount::daiet_pass_ns(rt::ClusterRuntime& rt, rt::JobDriver& driver,
                                   const std::vector<mr::MapOutput>& maps) const {
    driver.begin_round();
    const rt::JobSpec& spec = driver.spec();
    sim::Host& mapper = *spec.groups[0].mappers[0];
    const Config& config = rt.options().config;
    std::vector<std::vector<std::byte>> payloads;
    std::vector<sim::HostAddr> dsts;
    for (std::size_t g = 0; g < kReducers; ++g) {
        const mr::IntermediateFile& file = maps[0].partitions[g];
        const std::size_t per = config.max_pairs_per_packet;
        for (std::size_t first = 0; first + per <= file.record_count() && first < 64 * per;
             first += per) {
            std::vector<KvPair> pairs;
            for (std::size_t i = first; i < first + per; ++i) pairs.push_back(file.record(i));
            payloads.push_back(serialize_data(driver.tree(g), pairs));
            dsts.push_back(spec.groups[g].reducer->addr());
        }
    }
    check(!payloads.empty(), "agg_wordcount: no DATA frames to time");
    dp::PipelineSwitch& chip = rt.chip_at(rt.network().edge_switch_of(mapper)->id());
    return pass_ns(
        chip,
        [&](std::size_t i) {
            const std::size_t k = i % payloads.size();
            return sim::build_udp_frame(mapper.addr(), dsts[k], config.mapper_udp_port,
                                        config.udp_port, payloads[k]);
        },
        size_);
}

Metrics AggWordcount::once_per_trace() {
    // One round under the parallel driver at 2 threads, profiled, with
    // its outputs checked against the reference like a sequential one.
    rt::ClusterRuntime rt{cluster_options()};
    rt.enable_parallel(2);
    rt::JobDriver driver{rt, job_spec(rt)};
    std::vector<std::string> splits;
    for (std::size_t m = 0; m < kMappers; ++m) splits.push_back(corpus_.split_text(m));
    const std::vector<mr::MapOutput> maps = map_all(splits);

    driver.begin_round();
    rt::JobDriver::Receivers receivers = driver.bind_receivers();
    driver.schedule_sends([&maps](std::size_t group, std::size_t mapper, MapperSender& tx) {
        tx.send_serialized(maps[mapper].partitions[group].bytes());
    });
    trace::Profiler& prof = trace::profiler();
    prof.enable();
    const auto t = Clock::now();
    driver.run_to_quiescence();
    const double wall_s = seconds_since(t);
    prof.disable();
    driver.verify(receivers);
    driver.collect(receivers);
    for (std::size_t g = 0; g < kReducers; ++g) {
        check(reduce(*receivers[g]) == reference_[g],
              "agg_wordcount: par2 reducer " + std::to_string(g) + " differs from the reference");
    }

    const trace::Profiler::Report r = prof.report();
    std::uint64_t windows = 0;
    for (const auto& lane : r.lanes) windows = std::max(windows, lane.windows);
    const std::uint64_t events = rt.network().events_executed();
    Metrics m;
    put(m, "parallel.windows", static_cast<double>(windows), "count");
    put(m, "parallel.events_per_window",
        ratio(static_cast<double>(r.events), static_cast<double>(windows)), "count");
    put(m, "parallel.exec_s", static_cast<double>(r.exec_ns) / 1e9, "s");
    put(m, "parallel.barrier_s", static_cast<double>(r.barrier_ns) / 1e9, "s");
    put(m, "parallel.drain_s", static_cast<double>(r.drain_ns) / 1e9, "s");
    put(m, "parallel.extra_events",
        static_cast<double>(events) - static_cast<double>(seq_round_events_), "count");
    put(m, "parallel.wall_s", wall_s, "s");
    return m;
}

}  // namespace

std::unique_ptr<Workload> make_agg_wordcount(std::uint64_t seed, Size size) {
    return std::make_unique<AggWordcount>(seed, size);
}

}  // namespace perfbench
