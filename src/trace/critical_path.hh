/**
 * @file
 * Critical-path analysis over request timelines.
 *
 * Two consumers:
 *
 *  - Serving tail attribution: given a population of sampled
 *    RequestTimelines, which segments explain the >= p99 cohort's
 *    latency? tailAttribution() selects the cohort by nearest-rank
 *    quantile over integer-tick end-to-end latencies (so the cohort is
 *    identical across thread counts) and returns per-segment shares,
 *    largest first.
 *
 *  - Dataflow barriers: each exchange stage ends when the slowest
 *    destination finishes its reduce, and that destination is bounded
 *    by its last-arriving batch. StageCriticalPath names that
 *    (node, src) pair and splits the stage's wall time into the
 *    bounding batch's causal segments — conservation-checked against
 *    the stage's own start/end, same invariant as the serving side.
 */

#ifndef CEREAL_TRACE_CRITICAL_PATH_HH
#define CEREAL_TRACE_CRITICAL_PATH_HH

#include <vector>

#include "trace/request_trace.hh"

namespace cereal {
namespace trace {

/**
 * Per-segment attribution of the tail cohort's latency: the cohort is
 * every timeline whose end-to-end latency is at or above the
 * nearest-rank @p q quantile of the population. Shares are returned
 * largest-total first (ties break toward the earlier segment), and
 * fractions are of the cohort's summed end-to-end latency, so they sum
 * to 1 up to the residual-free conservation invariant. Empty input
 * yields an empty vector.
 */
std::vector<SegmentShare>
tailAttribution(const std::vector<RequestTimeline> &timelines, double q);

/**
 * The causal path that bounds one dataflow exchange barrier: the
 * destination whose reduce finishes last, and within it the batch that
 * arrived last. Segment semantics differ from serving (there is no
 * admission or credit stall; map compute and exchange queueing share
 * the pre-serialize gap, and the post-barrier reduce is explicit).
 */
struct StageCriticalPath
{
    bool valid = false;
    /** Barrier-bounding destination node. */
    std::uint32_t node = 0;
    /** Origin of that destination's last-arriving batch. */
    std::uint32_t src = 0;

    /** Stage start -> bounding batch's serialize start (map compute
     *  plus exchange-queue wait at the origin). */
    Tick mapQueue = 0;
    Tick serialize = 0;
    Tick wire = 0;
    /** Delivery -> deserialize start at the receiver. */
    Tick rxQueue = 0;
    Tick deserialize = 0;
    /** Barrier release -> reduce completion at the bounding node. */
    Tick reduce = 0;
    /** Stage end - stage start. */
    Tick total = 0;

    /** Sum of the six segments equals total exactly. */
    bool conserves() const;

    /** Name of the longest segment (ties toward the earlier one). */
    const char *dominant() const;

    /** Emit as one JSON object. Schema-stable. */
    void writeJson(json::Writer &w) const;
};

/**
 * Build a stage critical path from the bounding batch's timeline.
 * The batch timeline uses serving-stamp conventions (send == serEnd,
 * dataflow never credit-stalls; done == deserialize completion);
 * @p stage_start and @p reduce_end bracket the stage itself.
 */
StageCriticalPath
stageCriticalPath(const RequestTimeline &bounding, Tick stage_start,
                  Tick reduce_end);

} // namespace trace
} // namespace cereal

#endif // CEREAL_TRACE_CRITICAL_PATH_HH
