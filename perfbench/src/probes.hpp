// Outside-in per-layer measurements: public counters read after a run,
// and standalone timed calls to the per-hop public functions (event
// queue, switch + link hop, one tenant's pipeline pass).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common.hpp"
#include "common/framebuf.hpp"
#include "runtime/cluster.hpp"

namespace perfbench {

/// Netsim and dataplane counters of a finished run, summed fabric-wide.
struct FabricCounters {
    std::uint64_t events{0};
    std::uint64_t packets_in{0};  ///< switch visits: the hops
    std::uint64_t recirculations{0};
    std::uint64_t drops_loss{0};
    std::uint64_t drops_queue{0};
    std::uint64_t ecn_marks{0};
    std::uint64_t peak_queue_bytes{0};
    std::uint64_t boxed_actions{0};
};

FabricCounters read_fabric(daiet::rt::ClusterRuntime& rt);

/// Process-wide FrameBuf pool counters, for per-episode deltas.
struct PoolCounters {
    std::uint64_t heap_allocs{0};
    std::uint64_t cow_copies{0};
};
PoolCounters read_pool();

/// The netsim/common/dataplane layer metrics shared by every workload;
/// the pool counts are deltas since `pool0`.
void put_fabric_layers(Metrics& m, const FabricCounters& f, const PoolCounters& pool0,
                       std::uint64_t ops);

/// Outside-in share of `run_s` the layer numbers explain: `spans_s` of
/// timed host-side spans, every event at `ev_ns`, every switch visit at
/// `hop_ns` less its own event, and `tenant_s` of tenant-claimed passes
/// (count x that tenant's pass price, which re-counts the parse).
double coverage(double run_s, double spans_s, const FabricCounters& f, double ev_ns,
                double hop_ns, double tenant_s);

/// Pending events the fabric can hold: one delivery per link direction
/// plus `timers` armed timers. The depth event_ns is measured at.
std::size_t queue_depth(daiet::rt::ClusterRuntime& rt, std::size_t timers);

/// ns per schedule_at + pop + dispatch on a fresh Simulator held at
/// `depth` pending events (the hold model), delays 0.1-5 us.
double event_ns(std::size_t depth, Size size);

/// ns per minimum-size frame handed to `dst`'s edge switch: its
/// handle_frame (tenant mux, routing), the egress link and the delivery
/// event at `dst`. The run must have quiesced.
double hop_ns(daiet::rt::ClusterRuntime& rt, daiet::sim::Host& dst,
              daiet::sim::HostAddr src, Size size);

/// ns per pipeline pass of `chip` over fresh frames from `make(i)`,
/// each arriving on port 0 — one tenant's share of a hop.
double pass_ns(daiet::dp::PipelineSwitch& chip,
               const std::function<daiet::FrameBuf(std::size_t)>& make, Size size);

}  // namespace perfbench
