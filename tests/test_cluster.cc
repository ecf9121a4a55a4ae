/**
 * @file
 * Tests for the cluster subsystem: partition-frame codec (round trip,
 * every negative status, all-prefix truncation sweep, each for the
 * contiguous and the split header + borrowed payload form), fabric
 * timing (zero-load latency, in-place payload delivery, per-flow
 * fairness, incast serialization, batching), and the event-driven
 * cluster simulation (all-to-all completeness, latency percentiles,
 * open-loop serving load response, determinism, and the
 * Cereal-dominance property the knee bench asserts at full scale).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/fabric.hh"
#include "cluster/frame.hh"
#include "cluster/node.hh"
#include "cluster/serving.hh"

namespace cereal {
namespace {

using cluster::Backend;
using cluster::ClusterConfig;
using cluster::ClusterSim;

Frame
goldenFrame()
{
    Frame f;
    f.format = 1;
    f.flags = kFrameFlagCompressed;
    f.srcNode = 2;
    f.dstNode = 5;
    f.partition = 13;
    f.payload = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x42, 0x42, 0x42};
    return f;
}

/**
 * Contiguous frame @p bytes as the wire carries them: the first
 * @p headerLen bytes (at most what there is) inline, the rest borrowed.
 */
WireFrame
splitAt(const std::vector<std::uint8_t> &bytes, std::size_t headerLen)
{
    WireFrame w;
    const std::size_t h = std::min(headerLen, bytes.size());
    EXPECT_LE(h, w.header.size());
    std::copy_n(bytes.begin(), h, w.header.begin());
    w.headerLen = static_cast<std::uint32_t>(h);
    w.payload = bytes.data() + h;
    w.payloadLen = bytes.size() - h;
    return w;
}

TEST(FrameCodec, RoundTripIsCanonical)
{
    Frame f = goldenFrame();
    auto bytes = encodeFrame(f);
    EXPECT_EQ(bytes.size(), kFrameHeaderBytes + f.payload.size());

    Frame d = decodeFrame(bytes);
    EXPECT_EQ(d.format, f.format);
    EXPECT_EQ(d.flags, f.flags);
    EXPECT_EQ(d.srcNode, f.srcNode);
    EXPECT_EQ(d.dstNode, f.dstNode);
    EXPECT_EQ(d.partition, f.partition);
    EXPECT_EQ(d.payload, f.payload);

    // Canonical: a decoded frame re-encodes to the exact input bytes
    // (the fuzzer's round-trip oracle relies on this).
    EXPECT_EQ(encodeFrame(d), bytes);
}

TEST(FrameCodec, EmptyPayloadRoundTrips)
{
    Frame f;
    f.format = 3;
    auto bytes = encodeFrame(f);
    EXPECT_EQ(bytes.size(), kFrameHeaderBytes);
    Frame d = decodeFrame(bytes);
    EXPECT_TRUE(d.payload.empty());
    EXPECT_EQ(encodeFrame(d), bytes);
}

TEST(FrameCodec, WireFrameIsTheContiguousFrameSplit)
{
    const Frame f = goldenFrame();
    const auto bytes = encodeFrame(f);
    const WireFrame w =
        encodeWireFrame(frameRef(f), fnv1a64(f.payload.data(),
                                             f.payload.size()));
    EXPECT_EQ(w.headerLen, kFrameHeaderBytes);
    EXPECT_EQ(w.payload, f.payload.data()) << "payload was copied";
    EXPECT_EQ(w.size(), bytes.size());
    std::vector<std::uint8_t> joined(w.header.begin(),
                                     w.header.begin() + w.headerLen);
    joined.insert(joined.end(), w.payload, w.payload + w.payloadLen);
    EXPECT_EQ(joined, bytes);

    // The split decoder reads back the header decodeFrame() does.
    const Frame d = decodeFrame(bytes);
    auto res = tryDecodeFrameInfo(w);
    ASSERT_TRUE(res.ok()) << res.error().what();
    const FrameInfo &info = res.value();
    EXPECT_EQ(info.format, d.format);
    EXPECT_EQ(info.flags, d.flags);
    EXPECT_EQ(info.srcNode, d.srcNode);
    EXPECT_EQ(info.dstNode, d.dstNode);
    EXPECT_EQ(info.partition, d.partition);
    EXPECT_FALSE(info.hasTrace());
    EXPECT_EQ(info.payload, f.payload.data());
    EXPECT_EQ(info.payloadLen, d.payload.size());
    EXPECT_EQ(info.checksum,
              fnv1a64(d.payload.data(), d.payload.size()));
}

DecodeStatus
statusOf(const std::vector<std::uint8_t> &bytes)
{
    auto res = tryDecodeFrame(bytes);
    EXPECT_FALSE(res.ok()) << "frame unexpectedly decoded";
    return res.ok() ? DecodeStatus::Malformed : res.error().status();
}

DecodeStatus
statusOf(const WireFrame &frame)
{
    auto res = tryDecodeFrameInfo(frame);
    EXPECT_FALSE(res.ok()) << "wire frame unexpectedly decoded";
    return res.ok() ? DecodeStatus::Malformed : res.error().status();
}

/** Status of @p bytes through the contiguous and the split decoder. */
void
expectBoth(const std::vector<std::uint8_t> &bytes, DecodeStatus want)
{
    EXPECT_EQ(statusOf(bytes), want);
    EXPECT_EQ(statusOf(splitAt(bytes, kFrameHeaderBytes)), want);
}

TEST(FrameCodec, EveryBackendFormatIdRoundTrips)
{
    // The codec must carry every registered backend — including the
    // post-paper plaincode (4) and hps (5) ids — and reject the first
    // unassigned id end-to-end.
    for (std::uint8_t id = 0; id < kFrameFormatCount; ++id) {
        Frame f = goldenFrame();
        f.format = id;
        auto res = tryDecodeFrame(encodeFrame(f));
        ASSERT_TRUE(res.ok()) << "format id " << unsigned(id);
        EXPECT_EQ(res.value().format, id);
    }
    Frame bad = goldenFrame();
    bad.format = kFrameFormatCount; // 6: one past the last backend
    auto bytes = encodeFrame(bad);
    auto res = tryDecodeFrame(bytes);
    ASSERT_FALSE(res.ok()) << "unassigned format id decoded";
    EXPECT_EQ(res.error().status(), DecodeStatus::BadClass);
}

TEST(FrameCodec, EveryNegativeStatusIsReachable)
{
    const auto golden = encodeFrame(goldenFrame());

    auto corrupt = [&](std::size_t at, std::uint8_t v) {
        auto b = golden;
        b[at] = v;
        return b;
    };

    // Magic byte wrong.
    expectBoth(corrupt(0, 'X'), DecodeStatus::BadMagic);
    // Unsupported version.
    expectBoth(corrupt(4, 2), DecodeStatus::BadTag);
    // Unknown serializer format id.
    expectBoth(corrupt(5, 9), DecodeStatus::BadClass);
    // Reserved flag bit set (high byte of the u16 at offset 6).
    expectBoth(corrupt(7, 0x80), DecodeStatus::Malformed);

    // Payload byte flipped -> checksum mismatch. The split decoder
    // does not hash the payload: it hands back the stored checksum,
    // which no longer matches the carried bytes.
    const auto flipped = corrupt(kFrameHeaderBytes, 0x00);
    EXPECT_EQ(statusOf(flipped), DecodeStatus::Malformed);
    auto view = tryDecodeFrameInfo(splitAt(flipped, kFrameHeaderBytes));
    ASSERT_TRUE(view.ok()) << view.error().what();
    EXPECT_NE(view.value().checksum,
              fnv1a64(view.value().payload, view.value().payloadLen));

    // Payload shorter than declared (split: carried < declared).
    auto short_payload = golden;
    short_payload.pop_back();
    expectBoth(short_payload, DecodeStatus::Truncated);

    // Trailing bytes after the declared payload (split: carried >
    // declared).
    auto trailing = golden;
    trailing.push_back(0);
    expectBoth(trailing, DecodeStatus::BadLength);

    // Split only: a stray byte after the header (the first payload
    // byte carried inline), and a header length past the inline array.
    EXPECT_EQ(statusOf(splitAt(golden, kFrameHeaderBytes + 1)),
              DecodeStatus::BadLength);
    WireFrame overlong = splitAt(golden, kFrameHeaderBytes);
    overlong.headerLen =
        static_cast<std::uint32_t>(overlong.header.size() + 1);
    EXPECT_EQ(statusOf(overlong), DecodeStatus::BadLength);

    // Declared length overflows the buffer massively (wrap-safety).
    auto huge = golden;
    for (std::size_t i = 20; i < 28; ++i) {
        huge[i] = 0xff; // payloadLen = 2^64-1
    }
    expectBoth(huge, DecodeStatus::Truncated);
}

TEST(FrameCodec, EveryProperPrefixFailsCleanly)
{
    const auto golden = encodeFrame(goldenFrame());
    for (std::size_t n = 0; n < golden.size(); ++n) {
        std::vector<std::uint8_t> prefix(golden.begin(),
                                         golden.begin() + n);
        auto res = tryDecodeFrame(prefix);
        ASSERT_FALSE(res.ok()) << "prefix of " << n << " bytes decoded";
        if (n >= kFrameHeaderBytes) {
            // Header intact: the payload is what is missing.
            EXPECT_EQ(res.error().status(), DecodeStatus::Truncated)
                << "prefix " << n;
        }
        // The split decoder fails the same way on the same bytes.
        auto split = tryDecodeFrameInfo(splitAt(prefix, kFrameHeaderBytes));
        ASSERT_FALSE(split.ok()) << "split prefix of " << n << " decoded";
        EXPECT_EQ(split.error().status(), res.error().status())
            << "prefix " << n;
    }
}

TEST(FrameCodec, FormatNamesMatchBackends)
{
    for (Backend b : cluster::allBackends()) {
        EXPECT_STREQ(frameFormatName(cluster::backendFormatId(b)),
                     cluster::backendName(b));
    }
    EXPECT_STREQ(frameFormatName(kFrameFormatCount), "?");
}

// ---------------------------------------------------------------------
// Fabric
// ---------------------------------------------------------------------

struct Delivery
{
    Tick when;
    std::uint32_t dst;
    std::uint64_t bytes;
    const std::uint8_t *payload;
};

/**
 * A well-formed @p bytes-byte wire frame (36-byte header + payload)
 * whose payload is borrowed from a shared zero buffer.
 */
WireFrame
wireFrameOf(std::size_t bytes)
{
    static const std::vector<std::uint8_t> zeros(64 * 1024, 0);
    EXPECT_GE(bytes, kFrameHeaderBytes);
    EXPECT_LE(bytes - kFrameHeaderBytes, zeros.size());
    FrameRef f;
    f.payload = zeros.data();
    f.payloadLen = bytes - kFrameHeaderBytes;
    return encodeWireFrame(f, 0);
}

struct FabricHarness
{
    EventQueue eq;
    std::vector<Delivery> deliveries;
    Fabric fabric;

    explicit FabricHarness(unsigned nodes, NetConfig cfg = NetConfig())
        : fabric(eq, nodes, cfg,
                 [this](std::uint32_t dst, const WireFrame &frame) {
                     deliveries.push_back(
                         {eq.now(), dst, frame.size(), frame.payload});
                 })
    {
    }
};

TEST(Fabric, ZeroLoadLatencyMatchesLinkModel)
{
    FabricHarness h(2);
    const WireFrame frame = wireFrameOf(1000);
    const Tick tx = h.fabric.txTicks(frame.size());
    const Tick prop = h.fabric.propagationTicks();

    h.fabric.send(0, 1, frame);
    h.eq.runAll();

    ASSERT_EQ(h.deliveries.size(), 1u);
    // Store-and-forward: egress serialization + propagation + ingress
    // serialization.
    EXPECT_EQ(h.deliveries[0].when, tx + prop + tx);
    EXPECT_EQ(h.deliveries[0].dst, 1u);
    EXPECT_EQ(h.fabric.wireBytes(), frame.size());
}

TEST(Fabric, DeliversBorrowedPayloadInPlace)
{
    // A 36 B header + 964 B borrowed payload is a 1000-byte frame on
    // the wire: same occupancy and delivery tick as the zero-load
    // case, and the receiver sees the sender's payload bytes, not a
    // copy of them.
    FabricHarness h(2);
    std::vector<std::uint8_t> payload(964, 0x5a);
    FrameRef f;
    f.srcNode = 0;
    f.dstNode = 1;
    f.payload = payload.data();
    f.payloadLen = payload.size();
    const WireFrame frame = encodeWireFrame(
        f, fnv1a64(payload.data(), payload.size()));
    ASSERT_EQ(frame.headerLen, kFrameHeaderBytes);

    h.fabric.send(0, 1, frame);
    h.eq.runAll();

    ASSERT_EQ(h.deliveries.size(), 1u);
    EXPECT_EQ(h.deliveries[0].payload, payload.data());
    EXPECT_EQ(h.deliveries[0].bytes, 1000u);
    EXPECT_EQ(h.fabric.wireBytes(), 1000u);
    const Tick tx = h.fabric.txTicks(1000);
    EXPECT_EQ(h.deliveries[0].when,
              tx + h.fabric.propagationTicks() + tx);
}

TEST(Fabric, SameFlowStaysFifo)
{
    NetConfig cfg;
    cfg.batchBytes = 1; // one frame per batch
    FabricHarness h(2, cfg);
    for (int i = 1; i <= 4; ++i) {
        h.fabric.send(0, 1,
                      wireFrameOf(static_cast<std::size_t>(i * 100)));
    }
    h.eq.runAll();
    ASSERT_EQ(h.deliveries.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(h.deliveries[i].bytes, (i + 1) * 100);
        if (i > 0) {
            EXPECT_GE(h.deliveries[i].when, h.deliveries[i - 1].when);
        }
    }
}

TEST(Fabric, RoundRobinSharesEgressAcrossFlows)
{
    NetConfig cfg;
    cfg.batchBytes = 1; // per-frame batches make the RR visible
    FabricHarness h(3, cfg);
    const WireFrame frame = wireFrameOf(5000);
    // Three frames to node 1 queued first, then one to node 2; fair
    // sharing must not make node 2 wait for the whole node-1 backlog.
    h.fabric.send(0, 1, frame);
    h.fabric.send(0, 1, frame);
    h.fabric.send(0, 1, frame);
    h.fabric.send(0, 2, frame);
    h.eq.runAll();

    ASSERT_EQ(h.deliveries.size(), 4u);
    Tick to2 = 0, last_to1 = 0;
    for (const auto &d : h.deliveries) {
        if (d.dst == 2) {
            to2 = d.when;
        } else {
            last_to1 = std::max(last_to1, d.when);
        }
    }
    EXPECT_LT(to2, last_to1)
        << "flow to node 2 starved behind node 1's backlog";
}

TEST(Fabric, IncastSerializesAtIngress)
{
    FabricHarness h(4);
    const WireFrame frame = wireFrameOf(20000);
    const Tick tx = h.fabric.txTicks(frame.size());
    const Tick prop = h.fabric.propagationTicks();
    // Nodes 1..3 converge on node 0 simultaneously.
    for (std::uint32_t src = 1; src < 4; ++src) {
        h.fabric.send(src, 0, frame);
    }
    h.eq.runAll();

    ASSERT_EQ(h.deliveries.size(), 3u);
    // All three egress links run in parallel, but node 0's ingress
    // admits one batch at a time: the last delivery pays ~3 ingress
    // serialization times.
    EXPECT_EQ(h.deliveries[0].when, tx + prop + tx);
    EXPECT_EQ(h.deliveries[1].when, tx + prop + 2 * tx);
    EXPECT_EQ(h.deliveries[2].when, tx + prop + 3 * tx);
}

TEST(Fabric, BatchingCoalescesSmallFrames)
{
    NetConfig cfg;
    cfg.batchBytes = 64 * 1024;
    FabricHarness h(2, cfg);
    // 32 x 1 KB to the same flow while the egress is busy with the
    // first frame: the rest coalesce into few batches.
    for (int i = 0; i < 32; ++i) {
        h.fabric.send(0, 1, wireFrameOf(1024));
    }
    h.eq.runAll();
    EXPECT_EQ(h.deliveries.size(), 32u);
    EXPECT_LT(h.fabric.batches(), 8u);
    EXPECT_EQ(h.fabric.wireBytes(), 32u * 1024u);
}

TEST(Fabric, DeterministicAcrossRuns)
{
    auto drive = [] {
        NetConfig cfg;
        cfg.batchBytes = 4096;
        FabricHarness h(4, cfg);
        for (std::uint32_t src = 0; src < 4; ++src) {
            for (std::uint32_t dst = 0; dst < 4; ++dst) {
                if (src == dst) {
                    continue;
                }
                h.fabric.send(src, dst,
                              wireFrameOf(1000 + src * 100 + dst));
            }
        }
        h.eq.runAll();
        std::vector<std::uint64_t> trace;
        for (const auto &d : h.deliveries) {
            trace.push_back(d.when);
            trace.push_back(d.dst);
            trace.push_back(d.bytes);
        }
        return trace;
    };
    EXPECT_EQ(drive(), drive());
}

// ---------------------------------------------------------------------
// Cluster simulation (tiny partitions: scale divisor floors the
// workload builders at their minimum record counts)
// ---------------------------------------------------------------------

ClusterConfig
tinyConfig(Backend b)
{
    ClusterConfig cfg;
    cfg.nodes = 4;
    cfg.backend = b;
    cfg.scale = 1 << 20;
    return cfg;
}

TEST(ClusterShuffle, AllPartitionsArriveWithOrderedPercentiles)
{
    ClusterSim sim(tinyConfig(Backend::Kryo));
    auto r = sim.runShuffle();

    EXPECT_EQ(r.frames, 12u); // 4 * 3 partitions
    EXPECT_EQ(r.latency.count, r.frames);
    EXPECT_EQ(r.wireBytes, r.frames * sim.frameBytes());
    EXPECT_GT(r.batches, 0u);
    EXPECT_GT(r.completionSeconds, 0.0);
    EXPECT_GT(r.throughputMBps, 0.0);

    EXPECT_LE(r.latency.min, r.latency.p50);
    EXPECT_LE(r.latency.p50, r.latency.p95);
    EXPECT_LE(r.latency.p95, r.latency.p99);
    EXPECT_LE(r.latency.p99, r.latency.max);
    // The last partition to finish defines completion.
    EXPECT_DOUBLE_EQ(r.completionSeconds, r.latency.max);
}

TEST(ClusterShuffle, WorkerQueueingShowsInTheTail)
{
    // Three serialize jobs share one worker: the third partition a
    // node emits waits ~2 service times, so max latency must exceed
    // min by at least one serialize time.
    ClusterSim sim(tinyConfig(Backend::Java));
    auto r = sim.runShuffle();
    EXPECT_GT(r.latency.max - r.latency.min,
              sim.profile().serSeconds * 0.9);
}

TEST(ClusterShuffle, DeterministicAcrossRuns)
{
    ClusterSim a(tinyConfig(Backend::Skyway));
    ClusterSim b(tinyConfig(Backend::Skyway));
    auto ra = a.runShuffle();
    auto rb = b.runShuffle();
    EXPECT_DOUBLE_EQ(ra.completionSeconds, rb.completionSeconds);
    EXPECT_DOUBLE_EQ(ra.latency.p99, rb.latency.p99);
    EXPECT_EQ(ra.wireBytes, rb.wireBytes);
    EXPECT_EQ(ra.batches, rb.batches);

    // And re-running on the same sim instance replays identically.
    auto ra2 = a.runShuffle();
    EXPECT_DOUBLE_EQ(ra.completionSeconds, ra2.completionSeconds);
    EXPECT_DOUBLE_EQ(ra.latency.p95, ra2.latency.p95);
}

/** The serving front end's open loop: all admitted, no credits. */
cluster::ServingFrontendResult
serveOpen(const ClusterSim &sim, double utilization)
{
    cluster::ServingConfig cfg;
    cfg.utilization = utilization;
    cfg.requestsPerNode = 100;
    cfg.flow.enabled = false;
    return cluster::runServingFrontend(sim, cfg);
}

TEST(ClusterServing, CompletesAllRequestsAndTailGrowsWithLoad)
{
    ClusterSim sim(tinyConfig(Backend::Kryo));
    auto low = serveOpen(sim, 0.4);
    auto high = serveOpen(sim, 0.95);

    EXPECT_EQ(low.completed, low.requests);
    EXPECT_EQ(high.completed, high.requests);
    EXPECT_GT(low.offeredRps, 0.0);
    EXPECT_GT(high.offeredRps, low.offeredRps);
    EXPECT_GT(high.goodputRps, low.goodputRps);
    // Open-loop queueing: more load, fatter tail.
    EXPECT_GE(high.latency.p99, low.latency.p99);
    EXPECT_LE(low.latency.p50, low.latency.p99);
}

TEST(ClusterServing, DeterministicAcrossRuns)
{
    ClusterSim a(tinyConfig(Backend::Cereal));
    ClusterSim b(tinyConfig(Backend::Cereal));
    auto ra = serveOpen(a, 0.7);
    auto rb = serveOpen(b, 0.7);
    EXPECT_DOUBLE_EQ(ra.goodputRps, rb.goodputRps);
    EXPECT_DOUBLE_EQ(ra.latency.p99, rb.latency.p99);
    EXPECT_DOUBLE_EQ(ra.durationSeconds, rb.durationSeconds);
}

TEST(ClusterServing, CerealDominatesJavaFrontier)
{
    // bench_serving_knee asserts this across all backends and load
    // points at full scale; pin the headline pair here at test scale.
    ClusterSim java(tinyConfig(Backend::Java));
    ClusterSim cer(tinyConfig(Backend::Cereal));
    EXPECT_GT(cer.nodeCapacityRps(), java.nodeCapacityRps());

    auto js = serveOpen(java, 0.7);
    auto cs = serveOpen(cer, 0.7);
    EXPECT_GT(cs.goodputRps, js.goodputRps);
    EXPECT_LT(cs.latency.p99, js.latency.p99);

    EXPECT_LT(cer.runShuffle().completionSeconds,
              java.runShuffle().completionSeconds);
}

TEST(ClusterSim, ProfileAndFrameAreConsistent)
{
    ClusterSim sim(tinyConfig(Backend::Kryo));
    const auto &p = sim.profile();
    EXPECT_GT(p.serSeconds, 0.0);
    EXPECT_GT(p.deserSeconds, 0.0);
    EXPECT_GT(p.streamBytes, 0u);
    EXPECT_GT(p.objects, 0u);
    EXPECT_TRUE(p.compressed);
    EXPECT_EQ(sim.frameBytes(), kFrameHeaderBytes + p.payload.size());

    // Cereal ships the packed stream uncompressed.
    ClusterSim csim(tinyConfig(Backend::Cereal));
    EXPECT_FALSE(csim.profile().compressed);
}

} // namespace
} // namespace cereal
