/**
 * @file
 * Request-scoped distributed tracing for the serving and dataflow
 * layers.
 *
 * The Chrome-trace layer (trace.hh) answers "what was each component
 * doing over time"; this layer answers the per-request question the
 * tail-latency work needs: *where did THIS request's latency go*.
 * Every serving request (and every dataflow exchange batch) gets a
 * trace id, carries it across the fabric inside the CFRM frame's
 * trace-context extension, and leaves behind a RequestTimeline — a
 * causal sequence of stamped ticks whose derived segments provably sum
 * to the end-to-end latency (the conservation invariant, checked at
 * record time and again by tools/trace_query in CI).
 *
 * Segment model (serving; the dataflow stage engine reuses the stamps
 * with its own labels, see critical_path.hh):
 *
 *   admission   arrival -> serialize start (queue wait at the origin)
 *   serialize   serializer service on the origin's worker
 *   stall       serialize end -> fabric send (credit-parked interval;
 *               exactly brackets the time the frame sat in the
 *               per-destination stall buffer)
 *   wire        fabric send -> delivery (egress occupancy, switch
 *               propagation, ingress occupancy — incast lives here)
 *   residual    delivery -> deserialize start (receive-side queue)
 *   deserialize decode service at the receiver
 *   consume     operator compute on the decoded value
 *
 * Everything is integer ticks derived from the event clock, so trace
 * output is byte-identical across host thread counts and with or
 * without --trace/--metrics: request tracing is part of the *reported
 * stats* (the bench JSON), not of the attachable observability sinks.
 *
 * Sampling is head-based and seeded: the decision is a pure hash of
 * (trace id, seed) against the configured rate, made before the
 * request runs, so a 1% sample at 100x scale keeps traces bounded
 * while remaining deterministic and thread-count independent.
 */

#ifndef CEREAL_TRACE_REQUEST_TRACE_HH
#define CEREAL_TRACE_REQUEST_TRACE_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace cereal {
namespace json {
class Writer;
} // namespace json
namespace stats {
class Distribution;
} // namespace stats
} // namespace cereal

namespace cereal {
namespace trace {

/** Causal segments of one request's end-to-end latency, in order. */
enum class Segment : unsigned
{
    Admission = 0,
    Serialize,
    Stall,
    Wire,
    Residual,
    Deserialize,
    Consume,
};

constexpr unsigned kSegmentCount = 7;

/** "admission" / "serialize" / ... / "consume". */
const char *segmentName(Segment s);

/** Sentinel trace id: "no request" (valid ids are nonzero). */
constexpr std::uint64_t kNoTraceId = 0;

/**
 * One traced request's causal timeline: absolute stamped ticks plus
 * the derived per-segment durations. Stamps are the primary record;
 * segments() derives durations, and conserves() re-checks that the
 * derivation exactly partitions the end-to-end latency.
 */
struct RequestTimeline
{
    std::uint64_t traceId = kNoTraceId;
    std::uint32_t origin = 0;
    std::uint32_t dst = 0;
    /** Request class (gold/silver/bronze) or dataflow stage index. */
    std::uint8_t cls = 0;

    Tick arrival = 0;
    Tick serStart = 0;
    Tick serEnd = 0;
    /** Tick the frame was handed to the fabric (== serEnd unless the
     *  frame credit-stalled; the gap is exactly the parked interval). */
    Tick send = 0;
    Tick deliver = 0;
    Tick deserStart = 0;
    Tick done = 0;
    /** Deserialize share of the receive job (rest is consume). */
    Tick deserTicks = 0;

    Tick endToEnd() const { return done - arrival; }

    /** Derived segment durations, indexed by Segment. */
    void segments(Tick out[kSegmentCount]) const;

    /** Duration of one segment. */
    Tick segment(Segment s) const;

    /** The longest segment (ties break toward the earlier one). */
    Segment dominant() const;

    /**
     * The conservation invariant: stamps are monotone and the seven
     * segments sum to done - arrival exactly.
     */
    bool conserves() const;

    /**
     * Emit as one JSON object (stamps, segment ticks, end-to-end in
     * ticks and derived seconds). Schema-stable.
     */
    void writeJson(json::Writer &w) const;
};

/** Head-based sampling parameters (shared with the Chrome sink). */
struct RequestTraceConfig
{
    /** Fraction of trace ids recorded, (0, 1]; 1 = every request. */
    double sampleRate = 1.0;
    /** Sampling-hash seed; decisions are pure in (id, seed, rate). */
    std::uint64_t seed = 1;
};

/**
 * Deterministic head-based sampling decision for @p trace_id: a pure
 * hash of (id, seed) against the rate, identical across threads,
 * modes, and processes.
 */
bool sampleRequest(std::uint64_t trace_id, const RequestTraceConfig &cfg);

/** Per-segment share of a request population's latency. */
struct SegmentShare
{
    Segment segment = Segment::Admission;
    Tick total = 0;
    /** total / population end-to-end sum. */
    double fraction = 0;
};

/**
 * Aggregate report over one run's sampled timelines: totals, the
 * tail-exemplar timelines resolved through stats::Distribution
 * exemplar ids, and the tail attribution (per-segment share of the
 * >= p99 cohort's latency).
 */
struct RequestTraceReport
{
    /** Completions observed (sampled or not). */
    std::uint64_t requests = 0;
    std::uint64_t sampled = 0;
    double sampleRate = 1.0;
    std::uint64_t seed = 1;
    /** Every recorded timeline passed conserves(). */
    bool conserved = true;

    /** Per-segment totals over the sampled population, ticks. */
    Tick segTotal[kSegmentCount] = {};
    /** Sampled population end-to-end total, ticks. */
    Tick endToEndTotal = 0;

    /** p99/p999 exemplars of the latency distribution, when the
     *  exemplar's request was sampled for tracing. */
    bool p99Resolved = false;
    RequestTimeline p99;
    bool p999Resolved = false;
    RequestTimeline p999;

    /** Segment shares of the >= p99 cohort, largest first. */
    std::vector<SegmentShare> tail;

    /** The raw recorded timelines, in completion order. Carried for
     *  in-process consumers (tests, future tooling); NOT part of the
     *  JSON document, which stays exemplar + aggregate sized. */
    std::vector<RequestTimeline> timelines;

    /** Emit the whole report as one JSON object. Schema-stable. */
    void writeJson(json::Writer &w) const;
};

/**
 * Collects sampled request timelines for one run. Single-threaded,
 * owned by the run (one per runServingFrontend / dataflow stage
 * engine); record() enforces the conservation invariant.
 */
class RequestTraceRecorder
{
  public:
    RequestTraceRecorder() = default;
    explicit RequestTraceRecorder(RequestTraceConfig cfg) : cfg_(cfg) {}

    const RequestTraceConfig &config() const { return cfg_; }

    /** The head-based sampling decision for @p trace_id. */
    bool
    sampled(std::uint64_t trace_id) const
    {
        return sampleRequest(trace_id, cfg_);
    }

    /** Count one completion (sampled or not) toward the report. */
    void countRequest() { ++requests_; }

    /**
     * Record one sampled timeline. Panics unless it conserves — a
     * timeline that does not exactly partition its own latency is a
     * bug in the instrumentation, never data.
     */
    void record(const RequestTimeline &t);

    const std::vector<RequestTimeline> &timelines() const
    {
        return timelines_;
    }

    /** The recorded timeline with @p trace_id, or nullptr. */
    const RequestTimeline *find(std::uint64_t trace_id) const;

    /**
     * Build the aggregate report, resolving the p99/p999 exemplar ids
     * of @p latency (stats::Distribution::exemplarAt) against the
     * recorded timelines. The timelines move into the report, so the
     * recorder is spent afterwards.
     */
    RequestTraceReport report(const stats::Distribution &latency) &&;

  private:
    RequestTraceConfig cfg_;
    std::uint64_t requests_ = 0;
    std::vector<RequestTimeline> timelines_;
    /** traceId -> index into timelines_. */
    std::unordered_map<std::uint64_t, std::size_t> byId_;
};

} // namespace trace
} // namespace cereal

#endif // CEREAL_TRACE_REQUEST_TRACE_HH
