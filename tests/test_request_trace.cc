/**
 * @file
 * Tests for request-scoped distributed tracing: the seeded head-based
 * sampler, the CFRM frame trace-context extension (round trip,
 * negative decode paths, and its split wire form), timeline segment
 * conservation, end-to-end serving timelines (stall spans exactly
 * bracketing the credit-parked interval), bare-vs-observed byte-equality
 * of the trace report, the dataflow per-stage critical path under a
 * deliberate straggler, Distribution exemplar resolution, and the
 * CreditManager refund-ordering / stall-wakeup edge cases.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/flow_control.hh"
#include "cluster/frame.hh"
#include "cluster/serving.hh"
#include "dataflow/job.hh"
#include "metrics/metrics.hh"
#include "sim/json.hh"
#include "sim/stats.hh"
#include "trace/chrome_trace.hh"
#include "trace/critical_path.hh"
#include "trace/request_trace.hh"

namespace cereal {
namespace {

using cluster::Backend;
using cluster::ClusterConfig;
using cluster::ClusterSim;
using cluster::CreditManager;
using cluster::FlowControlConfig;
using cluster::ServingConfig;
using cluster::runServingFrontend;
using trace::RequestTimeline;
using trace::RequestTraceConfig;
using trace::RequestTraceRecorder;
using trace::Segment;

// ---------------------------------------------------------------------
// Head-based sampler
// ---------------------------------------------------------------------

TEST(TraceSampler, RateOneKeepsEverythingRateZeroNothing)
{
    RequestTraceConfig all;
    all.sampleRate = 1.0;
    RequestTraceConfig none;
    none.sampleRate = 0.0;
    for (std::uint64_t id = 1; id < 1000; ++id) {
        EXPECT_TRUE(trace::sampleRequest(id, all));
        EXPECT_FALSE(trace::sampleRequest(id, none));
    }
}

TEST(TraceSampler, DecisionIsDeterministicAndMonotoneInRate)
{
    RequestTraceConfig lo, hi;
    lo.sampleRate = 0.1;
    hi.sampleRate = 0.6;
    lo.seed = hi.seed = 42;
    unsigned kept_lo = 0, kept_hi = 0;
    for (std::uint64_t id = 1; id <= 4000; ++id) {
        const bool a = trace::sampleRequest(id, lo);
        EXPECT_EQ(a, trace::sampleRequest(id, lo)) << "id " << id;
        if (a) {
            ++kept_lo;
            // A request kept at the low rate is kept at every higher
            // rate — the decision is a threshold on one hash draw.
            EXPECT_TRUE(trace::sampleRequest(id, hi)) << "id " << id;
        }
        kept_hi += trace::sampleRequest(id, hi);
    }
    // The hash draw is uniform: keep counts land near rate * n.
    EXPECT_NEAR(kept_lo / 4000.0, 0.1, 0.03);
    EXPECT_NEAR(kept_hi / 4000.0, 0.6, 0.03);
}

TEST(TraceSampler, SeedSelectsADifferentCohort)
{
    RequestTraceConfig a, b;
    a.sampleRate = b.sampleRate = 0.5;
    a.seed = 1;
    b.seed = 2;
    unsigned differ = 0;
    for (std::uint64_t id = 1; id <= 1000; ++id) {
        differ += trace::sampleRequest(id, a) != trace::sampleRequest(id, b);
    }
    EXPECT_GT(differ, 100u);
}

// ---------------------------------------------------------------------
// Frame trace-context extension
// ---------------------------------------------------------------------

Frame
tracedFrame()
{
    Frame f;
    f.format = 1;
    f.flags = kFrameFlagTraced;
    f.srcNode = 2;
    f.dstNode = 5;
    f.partition = 13;
    f.traceId = 0xfeedfacecafeULL;
    f.spanId = 7;
    f.payload = {0x01, 0x02, 0x03, 0x04};
    return f;
}

TEST(FrameTraceExt, RoundTripIsCanonical)
{
    const Frame f = tracedFrame();
    auto bytes = encodeFrame(f);
    EXPECT_EQ(bytes.size(),
              kFrameHeaderBytes + kFrameTraceExtBytes + f.payload.size());

    Frame d = decodeFrame(bytes);
    EXPECT_TRUE(d.hasTrace());
    EXPECT_EQ(d.traceId, f.traceId);
    EXPECT_EQ(d.spanId, f.spanId);
    EXPECT_EQ(d.payload, f.payload);
    // Canonical: the decoded frame re-encodes to the exact input bytes
    // (the fuzzer's round-trip oracle covers traced frames too).
    EXPECT_EQ(encodeFrame(d), bytes);
}

/** @p f as the wire carries it: header inline, payload borrowed. */
WireFrame
wireFrameOf(const Frame &f)
{
    return encodeWireFrame(frameRef(f), fnv1a64(f.payload.data(),
                                                f.payload.size()));
}

TEST(FrameTraceExt, WireFrameCarriesTheExtensionInline)
{
    const Frame f = tracedFrame();
    const auto bytes = encodeFrame(f);
    const WireFrame w = wireFrameOf(f);
    EXPECT_EQ(w.headerLen, kFrameHeaderBytes + kFrameTraceExtBytes);
    EXPECT_EQ(w.payload, f.payload.data()) << "payload was copied";
    std::vector<std::uint8_t> joined(w.header.begin(),
                                     w.header.begin() + w.headerLen);
    joined.insert(joined.end(), w.payload, w.payload + w.payloadLen);
    EXPECT_EQ(joined, bytes);

    const Frame d = decodeFrame(bytes);
    auto res = tryDecodeFrameInfo(w);
    ASSERT_TRUE(res.ok()) << res.error().what();
    const FrameInfo &info = res.value();
    EXPECT_EQ(info.format, d.format);
    EXPECT_EQ(info.flags, d.flags);
    EXPECT_EQ(info.srcNode, d.srcNode);
    EXPECT_EQ(info.dstNode, d.dstNode);
    EXPECT_EQ(info.partition, d.partition);
    EXPECT_TRUE(info.hasTrace());
    EXPECT_EQ(info.traceId, d.traceId);
    EXPECT_EQ(info.spanId, d.spanId);
    EXPECT_EQ(info.payloadLen, d.payload.size());
}

TEST(FrameTraceExt, UntracedFramesAreUnchangedOnTheWire)
{
    Frame f = tracedFrame();
    f.flags = 0;
    f.traceId = 0;
    f.spanId = 0;
    auto bytes = encodeFrame(f);
    EXPECT_EQ(bytes.size(), kFrameHeaderBytes + f.payload.size());
    EXPECT_FALSE(decodeFrame(bytes).hasTrace());
}

/** @p res failed with @p status at byte @p offset. */
template <typename T>
void
expectError(const DecodeResult<T> &res, DecodeStatus status,
            std::size_t offset)
{
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().status(), status);
    EXPECT_EQ(res.error().offset(), offset);
}

TEST(FrameTraceExt, NullTraceIdIsMalformed)
{
    Frame f = tracedFrame();
    auto bytes = encodeFrame(f);
    WireFrame w = wireFrameOf(f);
    // Zero the 8 trace-id bytes right after the header; the payload
    // checksum does not cover the extension, so this isolates the
    // null-id check.
    for (std::size_t i = 0; i < 8; ++i) {
        bytes[kFrameHeaderBytes + i] = 0;
        w.header[kFrameHeaderBytes + i] = 0;
    }
    expectError(tryDecodeFrame(bytes), DecodeStatus::Malformed,
                kFrameHeaderBytes);
    expectError(tryDecodeFrameInfo(w), DecodeStatus::Malformed,
                kFrameHeaderBytes);
}

TEST(FrameTraceExt, NonZeroReservedWordIsMalformed)
{
    Frame f = tracedFrame();
    auto bytes = encodeFrame(f);
    WireFrame w = wireFrameOf(f);
    bytes[kFrameHeaderBytes + 12] = 0x01; // reserved word, must be zero
    w.header[kFrameHeaderBytes + 12] = 0x01;
    expectError(tryDecodeFrame(bytes), DecodeStatus::Malformed,
                kFrameHeaderBytes + 12);
    expectError(tryDecodeFrameInfo(w), DecodeStatus::Malformed,
                kFrameHeaderBytes + 12);
}

TEST(FrameTraceExt, TruncatedExtensionFailsCleanly)
{
    const auto golden = encodeFrame(tracedFrame());
    const WireFrame whole = wireFrameOf(tracedFrame());
    for (std::size_t n = kFrameHeaderBytes;
         n < kFrameHeaderBytes + kFrameTraceExtBytes; ++n) {
        std::vector<std::uint8_t> prefix(golden.begin(),
                                         golden.begin() + n);
        auto res = tryDecodeFrame(prefix);
        ASSERT_FALSE(res.ok()) << "ext prefix of " << n << " decoded";
        EXPECT_EQ(res.error().status(), DecodeStatus::Truncated);

        // A split header cut inside its extension fails the same way.
        WireFrame cut = whole;
        cut.headerLen = static_cast<std::uint32_t>(n);
        auto split = tryDecodeFrameInfo(cut);
        ASSERT_FALSE(split.ok()) << "split ext prefix of " << n;
        EXPECT_EQ(split.error().status(), DecodeStatus::Truncated);
    }
}

// ---------------------------------------------------------------------
// Timeline segment model
// ---------------------------------------------------------------------

RequestTimeline
goldenTimeline()
{
    RequestTimeline t;
    t.traceId = 9;
    t.origin = 0;
    t.dst = 1;
    t.arrival = 100;
    t.serStart = 150;
    t.serEnd = 250;
    t.send = 260;
    t.deliver = 300;
    t.deserStart = 310;
    t.done = 400;
    t.deserTicks = 60;
    return t;
}

TEST(RequestTimeline, SegmentsSumExactlyToEndToEnd)
{
    const RequestTimeline t = goldenTimeline();
    ASSERT_TRUE(t.conserves());
    Tick seg[trace::kSegmentCount];
    t.segments(seg);
    EXPECT_EQ(seg[unsigned(Segment::Admission)], 50u);
    EXPECT_EQ(seg[unsigned(Segment::Serialize)], 100u);
    EXPECT_EQ(seg[unsigned(Segment::Stall)], 10u);
    EXPECT_EQ(seg[unsigned(Segment::Wire)], 40u);
    EXPECT_EQ(seg[unsigned(Segment::Residual)], 10u);
    EXPECT_EQ(seg[unsigned(Segment::Deserialize)], 60u);
    EXPECT_EQ(seg[unsigned(Segment::Consume)], 30u);
    Tick sum = 0;
    for (Tick s : seg) {
        sum += s;
    }
    EXPECT_EQ(sum, t.endToEnd());
    EXPECT_EQ(t.dominant(), Segment::Serialize);
}

TEST(RequestTimeline, NonMonotoneStampsDoNotConserve)
{
    RequestTimeline t = goldenTimeline();
    t.send = t.serEnd - 1; // sent before serialize finished
    EXPECT_FALSE(t.conserves());
    RequestTimeline u = goldenTimeline();
    u.deserTicks = (u.done - u.deserStart) + 1; // service > window
    EXPECT_FALSE(u.conserves());
}

TEST(RequestTraceRecorder, RecordPanicsOnNonConservingTimeline)
{
    RequestTraceRecorder rec{RequestTraceConfig{}};
    RequestTimeline t = goldenTimeline();
    t.send = t.serEnd - 1;
    EXPECT_DEATH(rec.record(t), "conserv");
}

// ---------------------------------------------------------------------
// Distribution exemplars
// ---------------------------------------------------------------------

TEST(DistributionExemplar, QuantileResolvesToTheMatchingId)
{
    stats::Distribution d;
    for (std::uint64_t i = 1; i <= 100; ++i) {
        d.sample(static_cast<double>(i), i);
    }
    // Nearest-rank p99 of 1..100 is 99; the exemplar must be the id
    // recorded with that exact sample.
    EXPECT_EQ(d.exemplarAt(0.99), 99u);
    EXPECT_EQ(d.exemplarAt(1.0), 100u);
    EXPECT_EQ(d.exemplarAt(0.5), 50u);
}

TEST(DistributionExemplar, TiesBreakByIdDeterministically)
{
    stats::Distribution d;
    d.sample(1.0, 30);
    d.sample(1.0, 10);
    d.sample(1.0, 20);
    // Equal values sort by id, so the max-rank exemplar is the
    // largest id — independent of insertion order.
    EXPECT_EQ(d.exemplarAt(1.0), 30u);
    EXPECT_EQ(d.exemplarAt(0.01), 10u);
}

TEST(DistributionExemplar, LogBucketsAreCumulative)
{
    stats::Distribution d;
    d.sample(0.5e-6); // below the first 1us bound
    d.sample(1.5e-6);
    d.sample(2.0);
    const auto &bounds = stats::logBucketBounds();
    const auto counts = d.logBucketCounts();
    ASSERT_EQ(counts.size(), bounds.size());
    EXPECT_EQ(counts.front(), 1u); // <= 1us
    EXPECT_EQ(counts.back(), 3u);  // everything under 50s
    for (std::size_t i = 1; i < counts.size(); ++i) {
        EXPECT_GE(counts[i], counts[i - 1]) << "bucket " << i;
    }
}

// ---------------------------------------------------------------------
// End-to-end serving timelines
// ---------------------------------------------------------------------

ClusterConfig
tinyCluster(Backend b)
{
    ClusterConfig cfg;
    cfg.nodes = 4;
    cfg.backend = b;
    cfg.scale = 1 << 20;
    return cfg;
}

ServingConfig
tracedServing(double utilization)
{
    ServingConfig cfg;
    cfg.utilization = utilization;
    cfg.requestsPerNode = 80;
    cfg.reqTrace.sampleRate = 1.0;
    return cfg;
}

TEST(ServingTrace, EveryTimelineConservesAtFullSampling)
{
    ClusterSim sim(tinyCluster(Backend::Cereal));
    const auto r = runServingFrontend(sim, tracedServing(0.7));
    const auto &rt = r.reqTrace;
    EXPECT_EQ(rt.requests, r.requests);
    EXPECT_EQ(rt.sampled, r.completed);
    EXPECT_TRUE(rt.conserved);
    ASSERT_TRUE(rt.p99Resolved);
    ASSERT_TRUE(rt.p999Resolved);
    // The p99 exemplar's segment breakdown sums exactly to its
    // end-to-end latency — the acceptance invariant, re-checked here
    // from the raw stamps rather than the conserved flag.
    Tick seg[trace::kSegmentCount];
    rt.p99.segments(seg);
    Tick sum = 0;
    for (Tick s : seg) {
        sum += s;
    }
    EXPECT_EQ(sum, rt.p99.endToEnd());
    EXPECT_FALSE(rt.tail.empty());
}

TEST(ServingTrace, StallIsZeroWithoutFlowControl)
{
    ClusterSim sim(tinyCluster(Backend::Java));
    ServingConfig cfg = tracedServing(0.9);
    cfg.flow.enabled = false;
    const auto r = runServingFrontend(sim, cfg);
    ASSERT_GT(r.reqTrace.timelines.size(), 0u);
    for (const auto &t : r.reqTrace.timelines) {
        // No credits -> no parking: every frame launches the instant
        // serialization finishes, so the stall span is exactly empty.
        EXPECT_EQ(t.send, t.serEnd) << "trace " << t.traceId;
    }
}

TEST(ServingTrace, StallBracketsTheParkedIntervalUnderIncast)
{
    // Deliberate incast at a one-credit window: every node sends to
    // node 0, so senders must park and the stall segment captures the
    // full parked interval (and nothing else).
    ClusterSim sim(tinyCluster(Backend::Java));
    ServingConfig cfg = tracedServing(0.9);
    cfg.fixedDst = 0;
    cfg.flow.enabled = true;
    cfg.flow.window = 1;
    const auto r = runServingFrontend(sim, cfg);
    ASSERT_TRUE(r.creditsConserved);
    std::uint64_t stalled = 0;
    for (const auto &t : r.reqTrace.timelines) {
        EXPECT_GE(t.send, t.serEnd);
        stalled += t.segment(Segment::Stall) > 0;
    }
    EXPECT_GT(stalled, 0u) << "one-credit incast never parked a frame";
    EXPECT_GT(r.maxStalledFrames, 0u);
    // The aggregate stall segment in the report matches the per-
    // timeline spans.
    EXPECT_GT(r.reqTrace.segTotal[unsigned(Segment::Stall)], 0u);
}

std::string
reportJson(const trace::RequestTraceReport &rt)
{
    std::ostringstream ss;
    json::Writer w(ss, 0);
    rt.writeJson(w);
    return ss.str();
}

TEST(ServingTrace, ReportIsByteIdenticalBareVsObserved)
{
    ServingConfig scfg = tracedServing(0.8);
    scfg.reqTrace.sampleRate = 0.5; // exercise the sampled path too
    // The ClusterSim is built inside the observed scope, so its node
    // profile is measured under observation too.
    const auto run = [&scfg] {
        return runServingFrontend(ClusterSim(tinyCluster(Backend::Kryo)),
                                  scfg);
    };

    const auto a = run();
    metrics::MetricsRecorder rec;
    trace::ChromeTraceSink sink;
    const auto b = [&] {
        metrics::ScopedMetrics scoped_metrics(rec);
        trace::ScopedTrace scoped_trace(sink);
        return run();
    }();
    // An observed run that observed nothing would prove nothing.
    EXPECT_FALSE(rec.series().empty());
    EXPECT_FALSE(sink.events().empty());

    EXPECT_EQ(reportJson(a.reqTrace), reportJson(b.reqTrace));
    EXPECT_EQ(a.reqTrace.sampled, b.reqTrace.sampled);
    EXPECT_LT(a.reqTrace.sampled, a.reqTrace.requests);
}

// ---------------------------------------------------------------------
// Dataflow critical path
// ---------------------------------------------------------------------

TEST(DataflowTrace, StragglerNodeBoundsTheStageBarrier)
{
    dataflow::DataflowConfig cfg;
    cfg.nodes = 4;
    cfg.backend = "java";
    cfg.job = "wordcount";
    cfg.recordsPerNode = 256;
    cfg.seed = 7;
    cfg.stragglerFactor = 8.0;
    cfg.stragglerNode = 2;
    const auto r = runDataflow(cfg);
    ASSERT_TRUE(r.invariantsOk);

    bool saw_exchange = false;
    for (const auto &s : r.stages) {
        if (!s.crit.valid) {
            continue;
        }
        saw_exchange = true;
        EXPECT_TRUE(s.crit.conserves()) << "stage " << s.name;
        // The 8x-slower node is on the bounding path: either its
        // reduce finished last or it sourced the batch that held the
        // barrier.
        EXPECT_TRUE(s.crit.node == 2 || s.crit.src == 2)
            << "stage " << s.name << " bounded by node " << s.crit.node
            << " src " << s.crit.src;
    }
    EXPECT_TRUE(saw_exchange);
}

TEST(DataflowTrace, CriticalPathSurvivesSparseSampling)
{
    // The per-stage critical path is computed from the full stamp set,
    // not the sampled subset: at a 25% sampling rate every exchanged
    // stage must still carry a valid, conserving critical path with the
    // same shape. (Absolute tick totals legitimately differ between the
    // runs — sampled frames carry the 16-byte trace extension on the
    // wire, so the sampling rate shifts simulated wire timing.)
    dataflow::DataflowConfig cfg;
    cfg.nodes = 4;
    cfg.backend = "cereal";
    cfg.job = "terasort";
    cfg.recordsPerNode = 128;
    cfg.seed = 7;
    auto sparse = cfg;
    sparse.reqTrace.sampleRate = 0.25;
    const auto a = runDataflow(cfg);
    const auto b = runDataflow(sparse);
    ASSERT_EQ(a.stages.size(), b.stages.size());
    ASSERT_TRUE(b.invariantsOk);
    EXPECT_EQ(a.resultChecksum, b.resultChecksum)
        << "sampling rate changed a functional result";
    for (std::size_t i = 0; i < a.stages.size(); ++i) {
        EXPECT_EQ(a.stages[i].crit.valid, b.stages[i].crit.valid)
            << "stage " << a.stages[i].name;
        if (b.stages[i].crit.valid) {
            EXPECT_TRUE(b.stages[i].crit.conserves())
                << "stage " << b.stages[i].name;
            EXPECT_GT(b.stages[i].crit.total, 0u);
        }
    }
}

// ---------------------------------------------------------------------
// CreditManager edge cases
// ---------------------------------------------------------------------

TEST(CreditManagerEdge, RefundReordersAcrossPairsIndependently)
{
    FlowControlConfig fc;
    fc.window = 2;
    CreditManager cm(3, fc);
    // Drain two distinct pairs, then refund in the opposite order:
    // windows are per-pair, so the interleaving must not leak credits
    // across pairs.
    ASSERT_TRUE(cm.tryConsume(0, 1));
    ASSERT_TRUE(cm.tryConsume(0, 1));
    ASSERT_TRUE(cm.tryConsume(0, 2));
    EXPECT_FALSE(cm.tryConsume(0, 1));
    EXPECT_EQ(cm.available(0, 2), 1u);

    cm.refund(0, 2);
    EXPECT_FALSE(cm.tryConsume(0, 1)) << "cross-pair refund leaked";
    cm.refund(0, 1);
    EXPECT_TRUE(cm.tryConsume(0, 1));
    cm.refund(0, 1);
    cm.refund(0, 1);
    EXPECT_TRUE(cm.allWindowsFull());
    EXPECT_EQ(cm.issued(), 4u);
    EXPECT_EQ(cm.returned(), 4u);
}

TEST(CreditManagerEdge, OverRefundPanics)
{
    FlowControlConfig fc;
    fc.window = 1;
    CreditManager cm(2, fc);
    EXPECT_DEATH(cm.refund(0, 1), "overflow");
    ASSERT_TRUE(cm.tryConsume(0, 1));
    cm.refund(0, 1);
    EXPECT_DEATH(cm.refund(0, 1), "overflow");
}

TEST(CreditManagerEdge, AllWindowsFullSpotsALeakedCredit)
{
    FlowControlConfig fc;
    fc.window = 3;
    CreditManager cm(2, fc);
    EXPECT_TRUE(cm.allWindowsFull());
    ASSERT_TRUE(cm.tryConsume(1, 0));
    EXPECT_FALSE(cm.allWindowsFull());
    cm.refund(1, 0);
    EXPECT_TRUE(cm.allWindowsFull());
}

TEST(CreditManagerEdge, DisabledManagerNeverStallsOrCounts)
{
    FlowControlConfig fc;
    fc.enabled = false;
    fc.window = 1;
    CreditManager cm(2, fc);
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(cm.tryConsume(0, 1));
    }
    EXPECT_EQ(cm.issued(), 0u);
    EXPECT_EQ(cm.returned(), 0u);
    EXPECT_TRUE(cm.allWindowsFull());
}

} // namespace
} // namespace cereal
