/**
 * @file
 * Saturation-knee sweep of the serving front end for all six backends.
 *
 * The paper's serving claim (Cereal dominance at fixed 40/70/95%
 * utilization) restated as the datacenter question: where is each
 * backend's saturation knee, and what happens to the p99/p999 tail and
 * goodput *past* it? Offered load sweeps 10%-200% of the per-backend
 * measured capacity under two front ends:
 *
 *  - open: the open loop — no admission control, no flow control.
 *    Past the knee the queues (and the tail) diverge.
 *  - ctl:  bounded admission (tail-drop) + credit-based flow control.
 *    Goodput saturates at capacity, the drop rate absorbs the excess,
 *    and p99 stays bounded: at 2x overload it must sit within 10x of
 *    the 50%-load p99 for every backend (`all_tails_bounded`).
 *
 * A per-backend flash-crowd row (4x spike on a 70% base) reports the
 * time-to-recover after the spike window closes.
 *
 * Knee definition: the largest swept load with goodput >= 90% of
 * offered. The knee curve is the Cereal-dominance claim at scale — a
 * faster serializer moves the knee right and holds a lower tail at
 * every shared load point. The summary checks the paper's form of the
 * claim on the open rows at 40/70/95% load: Cereal's goodput is at
 * least, and its p99 at most, each other backend's
 * (`cereal_dominates_<backend>_u<load>`, `cereal_dominates_frontier`
 * over java/kryo/skyway, `cereal_dominates_extended_frontier` over
 * all five).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "bench/summary.hh"
#include "cluster/cluster.hh"
#include "cluster/serving.hh"
#include "load/load_shape.hh"

using namespace cereal;
using namespace cereal::cluster;

namespace {

constexpr unsigned kNodes = 4;
constexpr std::uint64_t kRequestsPerNode = 300;
constexpr unsigned kQueueBound = 8;
constexpr unsigned kCreditWindow = 2;

/** Offered load points, percent of the node's measured capacity. */
const std::vector<unsigned> kLoadPct = {10,  25,  40,  50,  70,  85, 95,
                                        105, 120, 135, 150, 175, 200};

/** Goodput must stay within this fraction of offered to count as
 *  pre-knee. */
constexpr double kKneeGoodputFraction = 0.9;

struct Row
{
    std::string name;
    Backend backend = Backend::Java;
    bool controlled = false;
    bool flash = false;
    unsigned loadPct = 0;
    double capacityRps = 0;
    ServingFrontendResult r;
};

ServingConfig
servingConfig(bool controlled, unsigned pct, double trace_sample)
{
    ServingConfig cfg;
    cfg.utilization = pct / 100.0;
    cfg.requestsPerNode = kRequestsPerNode;
    cfg.reqTrace.sampleRate = trace_sample;
    if (controlled) {
        cfg.admission.policy = AdmissionPolicy::Drop;
        cfg.admission.queueBound = kQueueBound;
        cfg.flow.enabled = true;
        cfg.flow.window = kCreditWindow;
    } else {
        cfg.admission.policy = AdmissionPolicy::None;
        cfg.flow.enabled = false;
    }
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    auto opts = bench::Options::parse(argc, argv, 64, "serving_knee");
    bench::banner(
        "Serving saturation knee: offered load 10%-200% by serializer",
        "admission control + credit flow control hold the p99 tail "
        "bounded at 2x overload where the open loop collapses");

    // Backend-major rows: [open x loads, ctl x loads, flash] per
    // backend, all in registration order for byte-identical JSON
    // across --threads.
    const std::size_t per_backend = 2 * kLoadPct.size() + 1;
    std::vector<Row> rows(allBackends().size() * per_backend);
    runner::SweepRunner sweep("serving_knee");

    for (std::size_t b = 0; b < allBackends().size(); ++b) {
        const Backend backend = allBackends()[b];
        const std::string bname = backendName(backend);

        auto configFor = [&, backend] {
            ClusterConfig cfg;
            cfg.nodes = kNodes;
            cfg.backend = backend;
            cfg.scale = opts.scale;
            return cfg;
        };

        for (int ctl = 0; ctl < 2; ++ctl) {
            for (std::size_t li = 0; li < kLoadPct.size(); ++li) {
                const unsigned pct = kLoadPct[li];
                Row &row = rows[b * per_backend +
                                static_cast<std::size_t>(ctl) *
                                    kLoadPct.size() +
                                li];
                row.name = bname + (ctl ? "-ctl-u" : "-open-u") +
                           std::to_string(pct);
                row.backend = backend;
                row.controlled = ctl != 0;
                row.loadPct = pct;
                sweep.add(row.name,
                          [&row, &opts, configFor, ctl,
                           pct](json::Writer &w) {
                    ClusterSim sim(configFor());
                    row.capacityRps = sim.nodeCapacityRps();
                    row.r = runServingFrontend(
                        sim,
                        servingConfig(ctl != 0, pct, opts.traceSample));
                    w.kv("backend", backendName(row.backend));
                    w.kv("frontend", ctl ? "ctl" : "open");
                    w.kv("shape", "steady");
                    w.kv("nodes", static_cast<std::uint64_t>(kNodes));
                    w.kv("utilization_pct",
                         static_cast<std::uint64_t>(pct));
                    w.kv("node_capacity_rps", row.capacityRps);
                    w.kv("offered_rps", row.r.offeredRps);
                    w.kv("goodput_rps", row.r.goodputRps);
                    w.kv("requests", row.r.requests);
                    w.kv("completed", row.r.completed);
                    w.kv("dropped", row.r.dropped);
                    w.kv("drop_rate", row.r.dropRate);
                    w.kv("duration_seconds", row.r.durationSeconds);
                    w.kv("credits_issued", row.r.creditsIssued);
                    w.kv("credits_returned", row.r.creditsReturned);
                    w.kv("credits_conserved",
                         static_cast<std::uint64_t>(
                             row.r.creditsConserved ? 1 : 0));
                    w.kv("max_admission_occupancy",
                         row.r.maxAdmissionOccupancy);
                    w.kv("max_worker_queue", row.r.maxWorkerQueue);
                    row.r.latency.writeJson(w, "latency");
                    w.key("reqtrace");
                    row.r.reqTrace.writeJson(w);
                });
            }
        }

        Row &fl = rows[b * per_backend + 2 * kLoadPct.size()];
        fl.name = bname + "-ctl-flash";
        fl.backend = backend;
        fl.controlled = true;
        fl.flash = true;
        fl.loadPct = 70;
        sweep.add(fl.name, [&fl, &opts, configFor](json::Writer &w) {
            ClusterSim sim(configFor());
            fl.capacityRps = sim.nodeCapacityRps();
            ServingConfig cfg =
                servingConfig(true, fl.loadPct, opts.traceSample);
            cfg.shape = load::LoadShape::flashCrowd(4.0, 0.5, 0.1);
            fl.r = runServingFrontend(sim, cfg);
            w.kv("backend", backendName(fl.backend));
            w.kv("frontend", "ctl");
            w.kv("shape", cfg.shape.describe());
            w.kv("nodes", static_cast<std::uint64_t>(kNodes));
            w.kv("utilization_pct",
                 static_cast<std::uint64_t>(fl.loadPct));
            w.kv("node_capacity_rps", fl.capacityRps);
            w.kv("offered_rps", fl.r.offeredRps);
            w.kv("goodput_rps", fl.r.goodputRps);
            w.kv("requests", fl.r.requests);
            w.kv("completed", fl.r.completed);
            w.kv("dropped", fl.r.dropped);
            w.kv("drop_rate", fl.r.dropRate);
            w.kv("duration_seconds", fl.r.durationSeconds);
            w.kv("recover_seconds", fl.r.recoverSeconds);
            w.kv("credits_conserved",
                 static_cast<std::uint64_t>(
                     fl.r.creditsConserved ? 1 : 0));
            fl.r.latency.writeJson(w, "latency");
            w.key("reqtrace");
            fl.r.reqTrace.writeJson(w);
        });
    }

    auto row = [&](Backend b, bool ctl, std::size_t li) -> const Row & {
        return rows[static_cast<std::size_t>(b) * per_backend +
                    (ctl ? kLoadPct.size() : 0) + li];
    };
    auto flashRow = [&](Backend b) -> const Row & {
        return rows[static_cast<std::size_t>(b) * per_backend +
                    2 * kLoadPct.size()];
    };
    auto kneePct = [&](Backend b, bool ctl) {
        unsigned knee = 0;
        for (std::size_t li = 0; li < kLoadPct.size(); ++li) {
            const Row &r = row(b, ctl, li);
            if (r.r.goodputRps >=
                kKneeGoodputFraction * r.r.offeredRps) {
                knee = kLoadPct[li];
            }
        }
        return knee;
    };
    // Index of the 50% and 200% load points in kLoadPct.
    const std::size_t i50 = 3, i200 = kLoadPct.size() - 1;
    // Indices of the paper's 40/70/95% serving load points.
    const std::size_t frontierLoads[] = {2, 4, 6};

    bench::setSummary(sweep, [&](bench::Summary &s) {
        bool all_bounded = true;
        bool all_conserved = true;
        for (Backend b : allBackends()) {
            const std::string n = backendName(b);
            const double ctl50 = row(b, true, i50).r.latency.p99;
            const double ctl200 = row(b, true, i200).r.latency.p99;
            const double open50 = row(b, false, i50).r.latency.p99;
            const double open200 = row(b, false, i200).r.latency.p99;
            const bool bounded =
                ctl50 > 0 && ctl200 < 10.0 * ctl50;
            all_bounded = all_bounded && bounded;
            s.kv("knee_u_open_pct_" + n,
                 static_cast<std::uint64_t>(kneePct(b, false)));
            s.kv("knee_u_ctl_pct_" + n,
                 static_cast<std::uint64_t>(kneePct(b, true)));
            s.ratio("p99_ratio_2x_ctl_" + n, ctl200, ctl50);
            s.ratio("p99_ratio_2x_open_" + n, open200, open50);
            s.flag("tail_bounded_under_overload_" + n, bounded);
            s.kv("goodput_2x_ctl_rps_" + n,
                 row(b, true, i200).r.goodputRps);
            s.kv("drop_rate_2x_ctl_" + n,
                 row(b, true, i200).r.dropRate);
            s.kv("flash_recover_seconds_" + n,
                 flashRow(b).r.recoverSeconds);
            // Tail attribution at 2x overload under control: the p99
            // exemplar's dominant causal segment, through the shared
            // key builder (same scheme as bench_dataflow).
            const auto &rt = row(b, true, i200).r.reqTrace;
            if (rt.p99Resolved) {
                const auto &t = rt.p99;
                const trace::Segment dom = t.dominant();
                const Tick e2e = t.endToEnd();
                s.exemplar("p99", n, trace::segmentName(dom),
                           e2e > 0 ? static_cast<double>(
                                         t.segment(dom)) /
                                         static_cast<double>(e2e)
                                   : 0.0);
            } else {
                s.exemplar("p99", n, "unresolved", 0.0);
            }
            for (int ctl = 0; ctl < 2; ++ctl) {
                for (std::size_t li = 0; li < kLoadPct.size(); ++li) {
                    all_conserved = all_conserved &&
                                    row(b, ctl != 0, li).r.reqTrace
                                        .conserved;
                }
            }
            all_conserved =
                all_conserved && flashRow(b).r.reqTrace.conserved;
        }
        s.flag("all_tails_bounded", all_bounded);
        s.flag("all_traces_conserved", all_conserved);

        // The paper's serving claim on the open loop: at each of the
        // 40/70/95% load points Cereal sustains at least the goodput
        // at no higher p99. `cereal_dominates_frontier` covers the
        // reflective serializers the paper measured (java/kryo/
        // skyway); the extended frontier adds the post-paper
        // plaincode and hps, and records whether the claim survives
        // hps's zero-copy receive path.
        bool dominates = true;
        bool dominates_ext = true;
        for (Backend b : allBackends()) {
            if (b == Backend::Cereal) {
                continue;
            }
            for (std::size_t li : frontierLoads) {
                const ServingFrontendResult &sw = row(b, false, li).r;
                const ServingFrontendResult &ce =
                    row(Backend::Cereal, false, li).r;
                const bool dom = ce.goodputRps >= sw.goodputRps &&
                                 ce.latency.p99 <= sw.latency.p99;
                if (b == Backend::Java || b == Backend::Kryo ||
                    b == Backend::Skyway) {
                    dominates = dominates && dom;
                }
                dominates_ext = dominates_ext && dom;
                s.flag("cereal_dominates_" +
                           std::string(backendName(b)) + "_u" +
                           std::to_string(kLoadPct[li]),
                       dom);
            }
        }
        s.flag("cereal_dominates_frontier", dominates);
        s.flag("cereal_dominates_extended_frontier", dominates_ext);
    });

    bench::runSweep(sweep, opts);

    std::printf("%-9s | %9s %9s | %11s %11s | %12s %12s\n", "backend",
                "knee-open", "knee-ctl", "p99x2x-open", "p99x2x-ctl",
                "goodput@2x", "recover(ms)");
    for (Backend b : allBackends()) {
        const double ctl50 = row(b, true, i50).r.latency.p99;
        const double ctl200 = row(b, true, i200).r.latency.p99;
        const double open50 = row(b, false, i50).r.latency.p99;
        const double open200 = row(b, false, i200).r.latency.p99;
        std::printf("%-9s | %8u%% %8u%% | %11.1f %11.1f | %12.1f"
                    " %12.3f\n",
                    backendName(b), kneePct(b, false), kneePct(b, true),
                    open50 > 0 ? open200 / open50 : 0.0,
                    ctl50 > 0 ? ctl200 / ctl50 : 0.0,
                    row(b, true, i200).r.goodputRps,
                    flashRow(b).r.recoverSeconds * 1e3);
    }
    std::printf("(ctl = tail-drop admission, bound %u, credit window %u;"
                " every backend's ctl p99 at 2x overload must stay"
                " within 10x of its 50%%-load p99)\n",
                kQueueBound, kCreditWindow);

    bench::writeBenchOutputs(sweep, opts,
                             {{"nodes", kNodes},
                              {"requests_per_node", kRequestsPerNode},
                              {"queue_bound", kQueueBound},
                              {"credit_window", kCreditWindow}});
    return 0;
}
