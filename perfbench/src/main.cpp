// perfbench: the repository benchmark. Runs one workload for a fixed
// wall time, checks every output, and prints each metric by name and
// unit; the last line of stdout is one JSON object. See README.md.
//
//   perfbench --workload <agg_wordcount|kv_read_hot|kv_write_lossy>
//             --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Spec {
    const char* name;
    const char* unit;
};

/// Every end-to-end metric, reported by untraced runs of every workload.
constexpr Spec kEndToEnd[] = {
    {"ops_per_s", "1/s"},        {"setup_s", "s"},
    {"peak_rss_mb", "MB"},       {"sim_mean_us", "us"},
    {"sim_p99_us", "us"},        {"sim_goodput_ops_per_ms", "1/ms"},
    {"traffic_reduction", "ratio"}, {"job_sim_ms", "ms"},
};

/// Every per-layer metric, reported by traced runs of every workload; a
/// layer a workload leaves idle reads 0.
constexpr Spec kPerLayer[] = {
    {"runtime.build_s", "s"},
    {"runtime.install_s", "s"},
    {"runtime.preload_s", "s"},
    {"runtime.round_s", "s"},
    {"runtime.round_attempts", "count"},
    {"mapreduce.map_s", "s"},
    {"mapreduce.reduce_s", "s"},
    {"netsim.events_per_op", "count"},
    {"netsim.hops_per_op", "count"},
    {"netsim.event_ns", "ns"},
    {"netsim.hop_ns", "ns"},
    {"netsim.drops_loss", "count"},
    {"netsim.drops_queue", "count"},
    {"netsim.ecn_marks", "count"},
    {"netsim.peak_queue_bytes", "bytes"},
    {"common.frame_heap_allocs", "count"},
    {"common.frame_cow_copies", "count"},
    {"common.boxed_actions", "count"},
    {"dataplane.passes_per_frame", "count"},
    {"dataplane.recirculations", "count"},
    {"core.mux_pass_ns.daiet", "ns"},
    {"core.mux_pass_ns.kvcache", "ns"},
    {"core.mux_pass_ns.directory", "ns"},
    {"core.mux_pass_ns.edge", "ns"},
    {"core.pairs_combined", "count"},
    {"core.pairs_spilled", "count"},
    {"core.spill_flushes", "count"},
    {"kvcache.hit_ratio", "ratio"},
    {"kvcache.server_ops_per_op", "count"},
    {"directory.edge_hit_ratio", "ratio"},
    {"directory.invalidations", "count"},
    {"directory.nacks", "count"},
    {"directory.migrations", "count"},
    {"telemetry.observed_frames", "count"},
    {"transport.retransmits_per_op", "count"},
    {"transport.useful_ratio", "ratio"},
    {"transport.abandoned", "count"},
    {"transport.ecn_backoffs", "count"},
    {"parallel.windows", "count"},
    {"parallel.events_per_window", "count"},
    {"parallel.exec_s", "s"},
    {"parallel.barrier_s", "s"},
    {"parallel.drain_s", "s"},
    {"parallel.extra_events", "count"},
    {"parallel.wall_s", "s"},
    {"trace.overhead", "ratio"},
    {"layers.coverage", "ratio"},
};

struct Args {
    std::string workload;
    std::uint64_t seed{0};
    double seconds{0};
    int trace{-1};
    Size size{Size::kFull};
};

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <agg_wordcount|kv_read_hot|"
                 "kv_write_lossy> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]\n",
                 why.c_str());
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + std::string{flag});
        const std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0') usage("bad --seed " + value);
            have_seed = true;
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(a.seconds > 0)) usage("bad --seconds " + value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") usage("bad --trace " + value);
            a.trace = value == "1" ? 1 : 0;
        } else if (flag == "--size") {
            if (value != "full" && value != "tiny") usage("bad --size " + value);
            a.size = value == "tiny" ? Size::kTiny : Size::kFull;
        } else {
            usage("unknown flag " + std::string{flag});
        }
    }
    if (a.workload.empty() || !have_seed || a.seconds <= 0 || a.trace < 0) {
        usage("--workload, --seed, --seconds and --trace are required");
    }
    return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
    if (a.workload == "agg_wordcount") return make_agg_wordcount(a.seed, a.size);
    if (a.workload == "kv_read_hot") return make_kv(false, a.seed, a.size);
    if (a.workload == "kv_write_lossy") return make_kv(true, a.seed, a.size);
    usage("unknown workload " + a.workload);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

const Metric* find(const Metrics& m, std::string_view name) {
    for (const Metric& x : m) {
        if (x.name == name) return &x;
    }
    return nullptr;
}

/// The reported metrics in `specs` order: every name present with its
/// declared unit. A name `got` lacks reads 0 when `zero_if_missing`; a
/// name outside `specs` or a unit mismatch is a benchmark bug.
template <std::size_t N>
Metrics select(const Metrics& got, const Spec (&specs)[N], bool zero_if_missing) {
    for (const Metric& x : got) {
        bool known = false;
        for (const Spec& s : specs) known = known || x.name == s.name;
        check(known, "metric " + x.name + " is not declared");
    }
    Metrics out;
    for (const Spec& s : specs) {
        const Metric* x = find(got, s.name);
        check(x != nullptr || zero_if_missing, std::string{"metric "} + s.name + " missing");
        check(x == nullptr || x->unit == s.unit, std::string{"metric "} + s.name + " unit");
        const double v = x == nullptr ? 0.0 : x->value;
        check(std::isfinite(v), std::string{"metric "} + s.name + " is not finite");
        put(out, s.name, v, s.unit);
    }
    return out;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
    for (const Metric& m : metrics) {
        std::printf("%-30s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                    metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

struct Totals {
    std::uint64_t attempted{0};
    std::uint64_t failed{0};
    std::size_t episodes{0};
};

/// Runs one episode, checks its outcome digest against the reference
/// episode's and adds it to the totals.
Episode run_checked(Workload& w, Trace trace, const Episode& reference, Totals& totals) {
    Episode ep = w.run(trace);
    check(ep.digest == reference.digest,
          "outcome digest differs between episodes of one seed");
    totals.attempted += ep.attempted;
    totals.failed += ep.failed;
    ++totals.episodes;
    return ep;
}

/// Work completed per wall second of the run phase, one value per
/// episode.
struct Throughput {
    std::vector<double> per_episode;

    void add(const Episode& ep) {
        per_episode.push_back(ratio(static_cast<double>(ep.ops), ep.run_s));
    }
    /// The upper quartile: contention from other processes only ever
    /// slows an episode down, so the faster episodes track the code's
    /// own speed, and the quartile ignores a lucky outlier.
    double value() const { return quantile(per_episode, 0.75); }
    void print(const char* label) const {
        std::printf("# %s ops_per_s per episode:", label);
        for (double r : per_episode) std::printf(" %.6g", r);
        std::printf("\n");
    }
};

int run(const Args& a) {
    const std::unique_ptr<Workload> w = make_workload(a);
    // The first episode warms caches and pools and is not timed; it is
    // the reference every later episode's outcome digest must match.
    const Episode reference = w->run(Trace::kOff);
    Totals totals{reference.attempted, reference.failed, 1};
    // At least three measured episodes per side, however short the run.
    constexpr std::size_t kMinEpisodes = 3;
    const auto t0 = Clock::now();
    Metrics got;
    if (a.trace == 0) {
        Throughput rate;
        std::vector<double> setup;
        while (rate.per_episode.size() < kMinEpisodes || seconds_since(t0) < a.seconds) {
            const Episode ep = run_checked(*w, Trace::kOff, reference, totals);
            rate.add(ep);
            setup.push_back(ep.setup_s());
        }
        for (const Metric& m : reference.model) {
            if (m.name != "sim_samples" && m.name != "sim_p50_us") got.push_back(m);
        }
        rate.print("untraced");
        put(got, "ops_per_s", rate.value(), "1/s");
        put(got, "setup_s", median(setup), "s");
        put(got, "peak_rss_mb", peak_rss_mb(), "MB");
    } else {
        // Untraced and traced episodes alternate, so drift hits both.
        Throughput plain_rate;
        Throughput traced_rate;
        std::vector<double> build;
        std::vector<double> install;
        std::vector<double> preload;
        while (traced_rate.per_episode.size() < kMinEpisodes || seconds_since(t0) < a.seconds) {
            plain_rate.add(run_checked(*w, Trace::kOff, reference, totals));
            const Episode ep = run_checked(*w, Trace::kLayers, reference, totals);
            traced_rate.add(ep);
            build.push_back(ep.build_s);
            install.push_back(ep.install_s);
            preload.push_back(ep.preload_s);
        }
        got = run_checked(*w, Trace::kLayersAndProbes, reference, totals).layers;
        for (const Metric& m : w->once_per_trace()) got.push_back(m);
        put(got, "runtime.build_s", median(build), "s");
        put(got, "runtime.install_s", median(install), "s");
        put(got, "runtime.preload_s", median(preload), "s");
        plain_rate.print("untraced");
        traced_rate.print("traced");
        put(got, "trace.overhead", ratio(traced_rate.value(), plain_rate.value()), "ratio");
    }
    std::printf("# workload %s seed %llu: %zu episodes, digest %016llx\n", a.workload.c_str(),
                static_cast<unsigned long long>(a.seed), totals.episodes,
                static_cast<unsigned long long>(reference.digest));
    std::printf("# sim latency per episode: %.0f samples, p50 %.6g us\n",
                find(reference.model, "sim_samples")->value,
                find(reference.model, "sim_p50_us")->value);
    std::printf("# ops attempted %llu, failed %llu, failed_ratio %.6g\n",
                static_cast<unsigned long long>(totals.attempted),
                static_cast<unsigned long long>(totals.failed),
                ratio(static_cast<double>(totals.failed), static_cast<double>(totals.attempted)));
    const Metrics metrics =
        a.trace == 0 ? select(got, kEndToEnd, false) : select(got, kPerLayer, true);
    print_result(true, totals.attempted, totals.failed, metrics);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
    try {
        return run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: check failed: %s\n", e.what());
        print_result(false, 1, 1, {});
        return 1;
    }
}
