#include "probes.hpp"

#include <algorithm>
#include <array>

#include "common/rng.hpp"
#include "dataplane/packet.hpp"
#include "netsim/headers.hpp"
#include "netsim/network.hpp"
#include "netsim/simulator.hpp"

namespace perfbench {

using namespace daiet;

namespace {

/// Units of work a timed body did and the wall seconds it was timed for.
struct Timed {
    std::uint64_t units{0};
    double seconds{0};
};

/// Times all of `body()`.
Timed time_all(const std::function<std::uint64_t()>& body) {
    const auto t0 = Clock::now();
    const std::uint64_t units = body();
    return Timed{units, seconds_since(t0)};
}

/// Median over trials of timed ns per unit; each trial repeats `body`
/// until its timed seconds reach the trial's minimum.
double median_ns_per_unit(Size size, const std::function<Timed()>& body) {
    const int trials = size == Size::kTiny ? 3 : 5;
    const double min_s = size == Size::kTiny ? 0.002 : 0.04;
    std::vector<double> per_unit;
    for (int t = 0; t < trials; ++t) {
        Timed sum;
        while (sum.seconds < min_s) {
            const Timed r = body();
            sum.units += r.units;
            sum.seconds += r.seconds;
        }
        per_unit.push_back(sum.seconds * 1e9 / static_cast<double>(sum.units));
    }
    return median(per_unit);
}

/// One event of the hold model: reschedules itself until the budget
/// runs out, so the queue stays at its initial depth.
struct HoldEvent {
    sim::Simulator* sim;
    const std::array<sim::SimTime, 1024>* delays;
    std::uint64_t* budget;
    std::uint32_t i;

    void operator()() const {
        if (*budget == 0) return;
        --*budget;
        const std::uint32_t next = i * 2654435761u + 1;
        sim->schedule_after((*delays)[next & 1023], HoldEvent{sim, delays, budget, next});
    }
};

}  // namespace

FabricCounters read_fabric(rt::ClusterRuntime& rt) {
    FabricCounters c;
    c.events = rt.network().events_executed();
    c.boxed_actions = rt.network().actions_heap_allocated();
    for (const sim::PipelineSwitchNode* sw : rt.daiet_switches()) {
        c.packets_in += sw->chip().stats().packets_in;
        c.recirculations += sw->chip().stats().recirculations;
    }
    for (const auto& link : rt.network().links()) {
        for (int side = 0; side < 2; ++side) {
            const sim::LinkDirectionStats& s = link->stats(side);
            c.drops_loss += s.frames_dropped_loss;
            c.drops_queue += s.frames_dropped_queue;
            c.ecn_marks += s.frames_marked_ecn;
            c.peak_queue_bytes = std::max<std::uint64_t>(c.peak_queue_bytes,
                                                         link->peak_backlog_bytes(side));
        }
    }
    return c;
}

PoolCounters read_pool() {
    const FramePoolStats s = FrameBuf::pool_stats();
    return PoolCounters{s.slab_allocs + s.oversize_allocs, s.cow_copies};
}

void put_fabric_layers(Metrics& m, const FabricCounters& f, const PoolCounters& pool0,
                       std::uint64_t ops) {
    const PoolCounters pool1 = read_pool();
    const auto per_op = [ops](std::uint64_t n) {
        return ratio(static_cast<double>(n), static_cast<double>(ops));
    };
    put(m, "netsim.events_per_op", per_op(f.events), "count");
    put(m, "netsim.hops_per_op", per_op(f.packets_in), "count");
    put(m, "netsim.drops_loss", static_cast<double>(f.drops_loss), "count");
    put(m, "netsim.drops_queue", static_cast<double>(f.drops_queue), "count");
    put(m, "netsim.ecn_marks", static_cast<double>(f.ecn_marks), "count");
    put(m, "netsim.peak_queue_bytes", static_cast<double>(f.peak_queue_bytes), "bytes");
    put(m, "common.frame_heap_allocs", static_cast<double>(pool1.heap_allocs - pool0.heap_allocs),
        "count");
    put(m, "common.frame_cow_copies", static_cast<double>(pool1.cow_copies - pool0.cow_copies),
        "count");
    put(m, "common.boxed_actions", static_cast<double>(f.boxed_actions), "count");
    put(m, "dataplane.passes_per_frame",
        ratio(static_cast<double>(f.packets_in + f.recirculations),
              static_cast<double>(f.packets_in)),
        "count");
    put(m, "dataplane.recirculations", static_cast<double>(f.recirculations), "count");
}

double coverage(double run_s, double spans_s, const FabricCounters& f, double ev_ns,
                double hop_ns, double tenant_s) {
    const double sim_s = (static_cast<double>(f.events) * ev_ns +
                          static_cast<double>(f.packets_in) * (hop_ns - ev_ns)) * 1e-9;
    return ratio(spans_s + sim_s + tenant_s, run_s);
}

std::size_t queue_depth(rt::ClusterRuntime& rt, std::size_t timers) {
    return 2 * rt.network().links().size() + timers;
}

double event_ns(std::size_t depth, Size size) {
    std::array<sim::SimTime, 1024> delays{};
    Rng rng{0x5eed};
    for (sim::SimTime& d : delays) d = 100 + static_cast<sim::SimTime>(rng.next_below(4900));
    const std::uint64_t per_body = size == Size::kTiny ? 20'000 : 200'000;
    return median_ns_per_unit(size, [&] {
        return time_all([&] {
            sim::Simulator sim;
            std::uint64_t budget = per_body;
            for (std::size_t k = 0; k < depth; ++k) {
                sim.schedule_at(delays[k & 1023], HoldEvent{&sim, &delays, &budget,
                                                            static_cast<std::uint32_t>(k)});
            }
            sim.run();
            return sim.events_executed();
        });
    });
}

double hop_ns(rt::ClusterRuntime& rt, sim::Host& dst, sim::HostAddr src, Size size) {
    // Discard port: no tenant claims it and no socket listens, so the
    // frame takes the plain forwarding path and dies at the host NIC.
    constexpr std::uint16_t kDiscard = 9;
    // 18 payload bytes + 42 header bytes: a 60-byte minimum frame.
    const std::vector<std::byte> payload(18);
    const FrameBuf frame = sim::build_udp_frame(src, dst.addr(), kDiscard, kDiscard, payload);
    sim::Node* edge = rt.network().edge_switch_of(dst);
    // Port 0 of a leaf is its first spine uplink. The batch stays small
    // so the egress queue stays below any ECN threshold.
    constexpr std::uint64_t kBatch = 8;
    return median_ns_per_unit(size, [&] {
        return time_all([&] {
            for (std::uint64_t i = 0; i < kBatch; ++i) edge->handle_frame(frame, 0);
            rt.run();
            return kBatch;
        });
    });
}

double pass_ns(dp::PipelineSwitch& chip, const std::function<FrameBuf(std::size_t)>& make,
               Size size) {
    constexpr std::size_t kBatch = 256;
    std::vector<dp::Packet> out;
    std::vector<FrameBuf> frames;
    std::size_t next = 0;
    return median_ns_per_unit(size, [&] {
        // Frames are built untimed and each is passed once, so none is
        // shared when a tenant rewrites it (as on the wire).
        frames.clear();
        for (std::size_t i = 0; i < kBatch; ++i) frames.push_back(make(next++));
        return time_all([&] {
            for (FrameBuf& f : frames) {
                out.clear();
                chip.receive_into(dp::Packet{std::move(f)}, 0, out);
            }
            out.clear();
            return std::uint64_t{kBatch};
        });
    });
}

}  // namespace perfbench
