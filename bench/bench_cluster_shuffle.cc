/**
 * @file
 * Cluster-scale all-to-all shuffle of the six serializer backends.
 *
 * Drives the event-driven cluster simulator (src/cluster) through one
 * Spark-style all-to-all per backend: every node serializes one
 * partition for each peer, frames cross the fabric, and the receivers
 * deserialize. Reports completion time, wire throughput and the
 * per-partition latency distribution. The summary carries Cereal's
 * completion speedup over each other backend. The serving side of the
 * cluster claim (Cereal dominating the latency-throughput frontier at
 * 40/70/95% load) is asserted by bench_serving_knee on its open-loop
 * rows.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "bench/summary.hh"
#include "cluster/cluster.hh"

using namespace cereal;
using namespace cereal::cluster;

namespace {

constexpr unsigned kNodes = 4;

struct Row
{
    std::string name;
    Backend backend = Backend::Java;
    double capacityRps = 0;
    ShuffleResult shuffle;
};

} // namespace

int
main(int argc, char **argv)
{
    auto opts = bench::Options::parse(argc, argv, 64, "cluster_shuffle");
    bench::banner(
        "Cluster shuffle: all-to-all completion by serializer",
        "Cereal's S/D speedups shorten the cluster-scale all-to-all");

    std::vector<Row> rows(allBackends().size());
    runner::SweepRunner sweep("cluster_shuffle");

    for (std::size_t b = 0; b < allBackends().size(); ++b) {
        Row &sh = rows[b];
        sh.backend = allBackends()[b];
        sh.name = std::string(backendName(sh.backend)) + "-shuffle";
        sweep.add(sh.name, [&sh, &opts](json::Writer &w) {
            ClusterConfig cfg;
            cfg.nodes = kNodes;
            cfg.backend = sh.backend;
            cfg.scale = opts.scale;
            ClusterSim sim(cfg);
            sh.capacityRps = sim.nodeCapacityRps();
            sh.shuffle = sim.runShuffle();
            w.kv("backend", backendName(sh.backend));
            w.kv("mode", "shuffle");
            w.kv("nodes", static_cast<std::uint64_t>(kNodes));
            w.kv("stream_bytes", sim.profile().streamBytes);
            w.kv("frame_bytes", sim.frameBytes());
            w.kv("objects", sim.profile().objects);
            w.kv("node_capacity_rps", sh.capacityRps);
            w.kv("frames", sh.shuffle.frames);
            w.kv("wire_bytes", sh.shuffle.wireBytes);
            w.kv("batches", sh.shuffle.batches);
            w.kv("completion_seconds", sh.shuffle.completionSeconds);
            w.kv("throughput_mbps", sh.shuffle.throughputMBps);
            sh.shuffle.latency.writeJson(w, "latency");
        });
    }

    auto row = [&](Backend b) -> const Row & {
        return rows[static_cast<std::size_t>(b)];
    };

    bench::setSummary(sweep, [&](bench::Summary &s) {
        const double cereal =
            row(Backend::Cereal).shuffle.completionSeconds;
        for (Backend b : allBackends()) {
            if (b != Backend::Cereal) {
                s.kv("cereal_completion_speedup_vs_" +
                         std::string(backendName(b)),
                     row(b).shuffle.completionSeconds / cereal);
            }
        }
    });

    bench::runSweep(sweep, opts);

    std::printf("%-9s | %12s %12s\n", "backend", "cap(rps)", "a2a(ms)");
    for (Backend b : allBackends()) {
        std::printf("%-9s | %12.1f %12.3f\n", backendName(b),
                    row(b).capacityRps,
                    row(b).shuffle.completionSeconds * 1e3);
    }

    bench::writeBenchOutputs(sweep, opts, {{"nodes", kNodes}});
    return 0;
}
