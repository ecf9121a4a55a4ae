/**
 * @file
 * Serving front-end for the cluster simulator: shaped load, admission
 * control, and credit-based flow control in front of the per-node
 * serializer workers.
 *
 * This is the simulator's one serving engine. With
 * AdmissionPolicy::None and flow control off it is the textbook open
 * loop: every arrival is admitted, queues are unbounded, and past the
 * saturation knee the tail latency diverges. The other settings model
 * what a production front end does with the same serializer stack:
 *
 *  - Arrivals come from a LoadGenerator (src/load): a large simulated
 *    client population whose aggregate rate follows a composable
 *    LoadShape (steady / diurnal / bursty / flash crowd), each request
 *    carrying a client-derived class (gold / silver / bronze).
 *
 *  - An admission controller in front of each node's worker bounds the
 *    number of requests admitted but not yet on the wire. Over the
 *    bound it can tail-Drop the newcomer, ShedByClass (evict the
 *    newest waiting lower-class request in favour of a better-class
 *    arrival), or RejectEarly on an estimated-sojourn budget.
 *    Occupancy counts credit-stalled frames too, so downstream
 *    backpressure propagates into admission decisions.
 *
 *  - Credit-based flow control (flow_control.hh) gates the fabric: a
 *    frame needs a (src, dst) credit to launch, and the credit returns
 *    only after the receiver has deserialized *and consumed* the
 *    frame. Out-of-credit frames park in per-destination stall
 *    buffers, so ingress incast turns into sender-side stalls instead
 *    of unbounded receiver queues.
 *
 *  - The deserialize job charges deserSeconds + consumeSeconds: the
 *    operator computes on the received partition, on hps directly on
 *    the zero-copy views (NodeProfile::consumeSeconds).
 *
 * Determinism matches the rest of the simulator: per-node seeded
 * generators, EventQueue FIFO tie-breaking, results byte-identical
 * across host thread counts.
 */

#ifndef CEREAL_CLUSTER_SERVING_HH
#define CEREAL_CLUSTER_SERVING_HH

#include <cstdint>

#include "cluster/cluster.hh"
#include "cluster/flow_control.hh"
#include "load/load_gen.hh"
#include "trace/request_trace.hh"

namespace cereal {
namespace cluster {

/** What the admission controller does with an over-bound arrival. */
enum class AdmissionPolicy
{
    /** Open loop: everything is admitted, queues are unbounded. */
    None,
    /** Tail-drop the incoming request. */
    Drop,
    /**
     * Evict the newest waiting request of a worse class to make room;
     * tail-drop the newcomer when no worse victim is waiting.
     */
    ShedByClass,
    /**
     * Refuse the newcomer as soon as its estimated sojourn
     * (occupancy x serialize service) exceeds the budget — the
     * "fail fast, retry elsewhere" front-end idiom.
     */
    RejectEarly,
};

/** "none" / "drop" / "shed" / "reject". */
const char *admissionPolicyName(AdmissionPolicy p);

/** Per-node admission controller parameters. */
struct AdmissionConfig
{
    AdmissionPolicy policy = AdmissionPolicy::None;
    /**
     * Bound on requests admitted but not yet handed to the fabric
     * (waiting + in serialize + credit-stalled).
     */
    unsigned queueBound = 16;
    /**
     * RejectEarly sojourn budget as a fraction of a full queue's worth
     * of serialize service (rejects earlier than the hard bound).
     */
    double rejectBudgetFactor = 0.75;
};

/** One serving-front-end experiment. */
struct ServingConfig
{
    /** Base offered load as a fraction of nodeCapacityRps(). */
    double utilization = 0.5;
    std::uint64_t requestsPerNode = 300;
    /** Simulated client population per node. */
    std::uint64_t clientsPerNode = 1'000'000;
    load::LoadShape shape = load::LoadShape::steady();
    /**
     * Fraction of the horizon treated as warm-up: completions of
     * requests arriving before it are excluded from the latency
     * percentiles (they still count toward goodput).
     */
    double warmupFraction = 0.1;
    AdmissionConfig admission;
    FlowControlConfig flow;
    /**
     * Test hook: when >= 0, every request from other nodes targets
     * this node — the deliberate-incast configuration the
     * no-unbounded-queue invariant is pinned against.
     */
    int fixedDst = -1;
    /**
     * Request tracing: every request gets a trace id; sampled ones
     * (head-based, seeded) carry it across the fabric in the frame's
     * trace extension and leave a conservation-checked timeline in the
     * result's RequestTraceReport. Part of the reported stats, so it
     * runs whether or not a trace sink is attached.
     */
    trace::RequestTraceConfig reqTrace;
};

/** Outcome of one serving-front-end run. */
struct ServingFrontendResult
{
    /** Mean offered arrival rate across the cluster, requests/s. */
    double offeredRps = 0;
    /** Completions / duration — the goodput the knee curve plots. */
    double goodputRps = 0;
    std::uint64_t requests = 0;
    std::uint64_t admitted = 0;
    std::uint64_t completed = 0;
    /** Tail-dropped at admission (Drop, or ShedByClass with no victim). */
    std::uint64_t dropped = 0;
    /** Victims evicted by ShedByClass after admission. */
    std::uint64_t shed = 0;
    /** Refused by RejectEarly. */
    std::uint64_t rejected = 0;
    /** (requests - completed) / requests. */
    double dropRate = 0;
    double durationSeconds = 0;
    /** Sojourn (arrival to consume-done) of post-warm-up completions. */
    LatencySummary latency;
    /**
     * Seconds from the end of the flash-crowd window until the last
     * in-spike arrival completed (0 when the shape has no spike).
     */
    double recoverSeconds = 0;
    std::uint64_t creditsIssued = 0;
    std::uint64_t creditsReturned = 0;
    /** issued == returned and every window refilled after drain. */
    bool creditsConserved = false;
    /** Peak admitted-but-unsent occupancy across nodes. */
    std::uint64_t maxAdmissionOccupancy = 0;
    /** Peak worker FIFO backlog across nodes (incast shows up here). */
    std::uint64_t maxWorkerQueue = 0;
    /** Peak credit-stalled frames parked at any one node. */
    std::uint64_t maxStalledFrames = 0;
    /** Sampled request timelines, tail exemplars, and attribution. */
    trace::RequestTraceReport reqTrace;
};

/**
 * Run the serving front-end experiment on @p sim. Deterministic in
 * (sim config, cfg).
 */
ServingFrontendResult runServingFrontend(const ClusterSim &sim,
                                         const ServingConfig &cfg);

} // namespace cluster
} // namespace cereal

#endif // CEREAL_CLUSTER_SERVING_HH
