// The benchmark's workloads. Each one deploys the system afresh per
// episode through the public APIs only (rt::ClusterRuntime,
// rt::JobDriver, the mapreduce map/reduce functions,
// dir::ShardedKvService and its KvClients), runs it, and checks every
// output. Inputs come only from the seed.
#pragma once

#include <cstdint>
#include <memory>

#include "common.hpp"

namespace perfbench {

/// agg_wordcount: the paper's Figure 3 shuffle on a leaf-spine fabric.
std::unique_ptr<Workload> make_agg_wordcount(std::uint64_t seed, Size size);

/// kv_read_hot (lossy = false) and kv_write_lossy (lossy = true).
std::unique_ptr<Workload> make_kv(bool lossy, std::uint64_t seed, Size size);

}  // namespace perfbench
