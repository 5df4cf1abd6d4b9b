// Shared plumbing of the benchmark: wall clocks, order statistics, the
// outcome digest, metric lists and the per-episode record every
// workload returns.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

inline double mean(const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// FNV-1a over a stream of 64-bit words: the outcome digest that must
/// repeat for a fixed seed.
class Digest {
public:
    void add(std::uint64_t word) {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (word >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ULL;
        }
    }
    std::uint64_t value() const noexcept { return h_; }

private:
    std::uint64_t h_{0xcbf29ce484222325ULL};
};

struct Metric {
    std::string name;
    double value{0.0};
    std::string unit;
};
using Metrics = std::vector<Metric>;

inline void put(Metrics& m, std::string name, double value, std::string unit) {
    m.push_back(Metric{std::move(name), value, std::move(unit)});
}

/// An output check failed: the benchmark reports correct=false and
/// exits nonzero.
struct CheckFailure : std::runtime_error {
    using std::runtime_error::runtime_error;
};

inline void check(bool ok, const std::string& what) {
    if (!ok) throw CheckFailure{what};
}

/// One fresh deployment of a workload: set up, run, checked.
struct Episode {
    // Set-up spans (wall seconds).
    double build_s{0};
    double install_s{0};
    double preload_s{0};
    /// Wall seconds of the run phase (the ops_per_s denominator).
    double run_s{0};
    std::uint64_t ops{0};  ///< work completed: kv requests or shuffled pairs
    std::uint64_t attempted{0};
    std::uint64_t failed{0};
    std::uint64_t digest{0};
    /// Deterministic model metrics (simulated time, traffic).
    Metrics model;
    /// Per-layer spans and counters, filled on traced episodes.
    Metrics layers;

    double setup_s() const noexcept { return build_s + install_s + preload_s; }
};

enum class Size { kFull, kTiny };

/// What a traced episode measures beyond the untraced one.
enum class Trace { kOff, kLayers, kLayersAndProbes };

class Workload {
public:
    virtual ~Workload() = default;
    virtual Episode run(Trace trace) = 0;
    /// Per-layer numbers measured once per traced run, outside any
    /// episode (the parallel driver); empty when the workload has none.
    virtual Metrics once_per_trace() { return {}; }
};

}  // namespace perfbench
