/**
 * @file
 * Simulator execution speed: how many simulated ticks (and events,
 * and DRAM bursts) the simulator itself retires per wall-clock second.
 *
 * This is the one bench whose subject is the simulator, not the
 * modeled hardware. Four measured points:
 *
 *  - event-kernel: the raw EventQueue dispatch loop — a self-
 *    rescheduling event chain with fan-out, events/second.
 *  - dram-stream: Dram::accessRange() streaming over a large span on
 *    the batched (non-observing) fast path, bursts/second.
 *  - cluster-serve: the serving front end's open loop (no admission
 *    control, no flow control) at 70% load, sim-ticks/second.
 *
 * Wall-clock rates jitter run to run, so this bench is *not* part of
 * the json_determinism gates and its baseline is compared with
 * one-sided floors (`bench_compare --floor per_sec=0.5`): only a >2x
 * collapse fails. The simulated quantities (events, ticks, bursts,
 * requests) are deterministic and held to the normal tolerance.
 * Timed regions repeat until they exceed a minimum wall time so the
 * rates are not dominated by timer granularity; run it serially
 * (--threads 1, the default) — concurrent points would contend for
 * the cores being timed.
 */

#include <chrono>
#include <cstdio>

#include "bench/bench_util.hh"
#include "cluster/cluster.hh"
#include "cluster/serving.hh"
#include "mem/dram.hh"
#include "sim/event_queue.hh"

using namespace cereal;
using namespace cereal::cluster;

namespace {

constexpr unsigned kNodes = 4;
constexpr std::uint64_t kRequestsPerNode = 200;
constexpr unsigned kServeLoadPct = 70;

/** Repeat a timed thunk until it has run at least this long. */
constexpr double kMinWallSeconds = 0.05;

using WallClock = std::chrono::steady_clock;

/**
 * Wall-time @p fn, repeating until kMinWallSeconds has elapsed.
 * Returns total wall seconds; @p repeats reports the iteration count.
 */
template <typename Fn>
double
timeLoop(Fn &&fn, std::uint64_t &repeats)
{
    repeats = 0;
    const auto t0 = WallClock::now();
    double elapsed = 0;
    do {
        fn();
        ++repeats;
        elapsed = std::chrono::duration<double>(WallClock::now() - t0)
                      .count();
    } while (elapsed < kMinWallSeconds);
    return elapsed;
}

/**
 * One pass of the event-kernel microbench: @p chains self-
 * rescheduling chains racing through the queue until @p total events
 * have executed. Returns the events executed.
 */
std::uint64_t
runEventKernel(std::uint64_t total, std::uint64_t chains)
{
    EventQueue eq;
    eq.reserve(chains + 16);
    std::uint64_t executed = 0;
    // Each chain re-arms itself at a chain-specific cadence so the
    // heap sees interleaved, non-trivial orderings, like real traffic.
    for (std::uint64_t c = 0; c < chains; ++c) {
        struct Chain
        {
            EventQueue *eq;
            std::uint64_t *executed;
            std::uint64_t total;
            Tick period;
            void
            operator()()
            {
                if (++*executed >= total) {
                    return;
                }
                auto self = *this;
                eq->scheduleIn(period, std::move(self));
            }
        };
        eq.scheduleIn(1 + c % 7, Chain{&eq, &executed, total, 1 + c % 7});
    }
    eq.runAll();
    return eq.executedCount();
}

struct Row
{
    std::string name;
    std::uint64_t units = 0;       // events / bursts / sim ticks
    std::uint64_t repeats = 0;
    double wallSeconds = 0;
    double perSec = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    auto opts = bench::Options::parse(argc, argv, 64, "sim_speed");
    bench::banner(
        "Simulator speed: sim-ticks, events, and bursts per wall second",
        "infrastructure bench (no paper figure): the event-kernel & "
        "allocation overhaul must hold its measured speed");

    runner::SweepRunner sweep("sim_speed");
    Row kernel, dram, serve;

    kernel.name = "event-kernel";
    sweep.add(kernel.name, [&kernel](json::Writer &w) {
        constexpr std::uint64_t kEvents = 1'000'000;
        constexpr std::uint64_t kChains = 64;
        kernel.wallSeconds = timeLoop(
            [&] { runEventKernel(kEvents, kChains); }, kernel.repeats);
        kernel.units = kEvents;
        kernel.perSec = static_cast<double>(kEvents) *
                        static_cast<double>(kernel.repeats) /
                        kernel.wallSeconds;
        w.kv("events", kernel.units);
        w.kv("repeats", kernel.repeats);
        w.kv("wall_seconds", kernel.wallSeconds);
        w.kv("events_per_sec", kernel.perSec);
    });

    dram.name = "dram-stream";
    sweep.add(dram.name, [&dram](json::Writer &w) {
        DramConfig cfg;
        constexpr Addr kSpan = 64ULL << 20;
        const std::uint64_t bursts = kSpan / cfg.burstBytes;
        dram.wallSeconds = timeLoop(
            [&] {
                EventQueue eq;
                Dram mem("dram", eq, cfg);
                // Non-observing, so accessRange takes the batched
                // fast path; re-issue at the completion tick so bank
                // state stays live across calls.
                Tick t = 0;
                constexpr Addr kChunk = 1 << 16;
                for (Addr a = 0; a < kSpan; a += kChunk) {
                    t = mem.accessRange(a, kChunk, (a / kChunk) & 1, t);
                }
            },
            dram.repeats);
        dram.units = bursts;
        dram.perSec = static_cast<double>(bursts) *
                      static_cast<double>(dram.repeats) /
                      dram.wallSeconds;
        w.kv("bursts", dram.units);
        w.kv("repeats", dram.repeats);
        w.kv("wall_seconds", dram.wallSeconds);
        w.kv("bursts_per_sec", dram.perSec);
    });

    serve.name = "cluster-serve";
    sweep.add(serve.name, [&serve, &opts](json::Writer &w) {
        ClusterConfig cfg;
        cfg.nodes = kNodes;
        cfg.backend = Backend::Java;
        cfg.scale = opts.scale;
        ClusterSim sim(cfg);
        ServingConfig open;
        open.utilization = kServeLoadPct / 100.0;
        open.requestsPerNode = kRequestsPerNode;
        open.flow.enabled = false;
        // Profile measurement happens in the ctor, outside the timed
        // region: this point times the event-driven run.
        ServingFrontendResult res;
        serve.wallSeconds = timeLoop(
            [&] { res = runServingFrontend(sim, open); }, serve.repeats);
        serve.units = static_cast<std::uint64_t>(
            res.durationSeconds * static_cast<double>(kTicksPerSecond));
        serve.perSec = static_cast<double>(serve.units) *
                       static_cast<double>(serve.repeats) /
                       serve.wallSeconds;
        w.kv("sim_ticks", serve.units);
        w.kv("requests", res.requests);
        w.kv("completed", res.completed);
        w.kv("repeats", serve.repeats);
        w.kv("wall_seconds", serve.wallSeconds);
        w.kv("sim_ticks_per_sec", serve.perSec);
    });

    sweep.setSummary([&](json::Writer &w) {
        w.kv("event_kernel_events_per_sec", kernel.perSec);
        w.kv("dram_bursts_per_sec", dram.perSec);
        w.kv("serve_sim_ticks_per_sec", serve.perSec);
    });

    bench::runSweep(sweep, opts);

    std::printf("%-20s | %14s %8s %12s %14s\n", "point", "units",
                "repeats", "wall(s)", "units/sec");
    for (const Row *r : {&kernel, &dram, &serve}) {
        std::printf("%-20s | %14llu %8llu %12.4f %14.3e\n",
                    r->name.c_str(),
                    static_cast<unsigned long long>(r->units),
                    static_cast<unsigned long long>(r->repeats),
                    r->wallSeconds, r->perSec);
    }
    std::printf("(rates are wall-clock: gate with bench_compare"
                " --floor per_sec=0.5, not exact tolerances)\n");

    bench::writeBenchOutputs(sweep, opts,
                             {{"nodes", kNodes},
                              {"requests_per_node", kRequestsPerNode},
                              {"serve_load_pct", kServeLoadPct}});
    return 0;
}
