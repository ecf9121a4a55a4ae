/**
 * @file
 * The sim-speed tier: tests for the simulator fast path.
 *
 *  - ContiguousBuffer semantics (zeroing, growth).
 *  - A global-operator-new counting proof that the hot event loop
 *    allocates zero bytes per event (same technique as test_trace's
 *    null-sink guarantee).
 *  - Dram::accessRange batched fast path vs the per-burst access()
 *    loop: identical completion ticks, counters, latency accounting,
 *    and bank/bus state.
 *  - Observation is free of side effects: every stat a bare run
 *    reports must come back bit-identical from a run built under a
 *    metrics recorder and a Chrome trace sink, at the harness level
 *    (measureSoftware / measureCereal), the cluster level (runShuffle
 *    and the serving front end's open loop) and the dataflow engine.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include <sstream>
#include <string>

#include "cluster/cluster.hh"
#include "cluster/serving.hh"
#include "dataflow/job.hh"
#include "mem/dram.hh"
#include "metrics/metrics.hh"
#include "serde/java_serde.hh"
#include "sim/arena.hh"
#include "sim/event_queue.hh"
#include "sim/json.hh"
#include "trace/chrome_trace.hh"
#include "workloads/harness.hh"
#include "workloads/micro.hh"

// ------------------------------------------------- allocation counter
//
// Program-wide operator new replacement so the event-loop test can
// assert the hot path never touches the global allocator. Counting is
// cheap and thread-safe, so replacing it for the whole test binary is
// harmless (test_trace uses the same technique).

namespace {
std::atomic<std::uint64_t> g_allocCount{0};
} // namespace

void *
operator new(std::size_t size)
{
    ++g_allocCount;
    if (void *p = std::malloc(size ? size : 1)) {
        return p;
    }
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

// std::stable_sort takes its scratch buffer from the nothrow form and
// returns it through operator delete. Under ASan the sanitizer's own
// nothrow new would otherwise pair with the free() below.
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    ++g_allocCount;
    return std::malloc(size ? size : 1);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace cereal {
namespace {

using cluster::Backend;
using cluster::ClusterConfig;
using cluster::ClusterSim;
using cluster::LatencySummary;

// ------------------------------------------------ contiguous buffer

TEST(ContiguousBuffer, ZeroesClaimsAndPreservesAcrossGrowth)
{
    sim::ContiguousBuffer buf(64);
    buf.claimZeroed(48);
    ASSERT_GE(buf.size(), 48u);
    for (std::size_t i = 0; i < 48; ++i) {
        ASSERT_EQ(buf.data()[i], 0u);
    }
    std::memset(buf.data(), 0x5A, 48);

    // Growth past capacity preserves contents and zeroes the new span.
    buf.claimZeroed(1 << 20);
    ASSERT_GE(buf.capacity(), std::size_t{1} << 20);
    for (std::size_t i = 0; i < 48; ++i) {
        ASSERT_EQ(buf.data()[i], 0x5A);
    }
    for (std::size_t i = 48; i < (1 << 20); i += 4096) {
        ASSERT_EQ(buf.data()[i], 0u);
    }
    // Monotonic: shrinking claims are no-ops.
    const std::size_t size = buf.size();
    buf.claimZeroed(100);
    EXPECT_EQ(buf.size(), size);
}

// ------------------------------------------- zero-alloc event loop

TEST(EventLoop, HotPathAllocatesZeroBytesPerEvent)
{
    // A self-rescheduling chain: the callback fits the inline buffer
    // and the heap vector is pre-reserved, so after setup the loop
    // must never reach the global allocator.
    EventQueue eq;
    eq.reserve(64);
    std::uint64_t remaining = 100000;
    struct Chain
    {
        EventQueue *eq;
        std::uint64_t *remaining;
        void
        operator()()
        {
            if (--*remaining > 0) {
                eq->scheduleIn(3, Chain{eq, remaining});
            }
        }
    };
    static_assert(sizeof(Chain) <= EventQueue::Callback::kInlineBytes,
                  "chain callback must stay inline");
    eq.scheduleIn(1, Chain{&eq, &remaining});

    const std::uint64_t before = g_allocCount.load();
    eq.runAll();
    const std::uint64_t after = g_allocCount.load();
    EXPECT_EQ(after - before, 0u)
        << "event loop allocated " << (after - before)
        << " times over 100000 events";
    EXPECT_EQ(remaining, 0u);
    EXPECT_EQ(eq.executedCount(), 100000u);
}

// --------------------------------------------- DRAM batched ticking

/** Drive @p mem over [addr, addr+bytes) one burst at a time. */
Tick
perBurstRange(Dram &mem, const DramConfig &cfg, Addr addr, Addr bytes,
              bool write, Tick issue)
{
    if (bytes == 0) {
        return issue;
    }
    Tick done = issue;
    Addr first = addr / cfg.burstBytes * cfg.burstBytes;
    Addr last = (addr + bytes - 1) / cfg.burstBytes * cfg.burstBytes;
    for (Addr a = first; a <= last; a += cfg.burstBytes) {
        done = std::max(done, mem.access(a, write, issue).completeTick);
    }
    return done;
}

TEST(DramBatch, AccessRangeMatchesPerBurstLoopExactly)
{
    // Two identically configured instances, one driven through the
    // batched accessRange fast path and one through the per-burst
    // access() loop. Completion ticks, every counter, the
    // double-accumulated latency sum, and the bank/bus state (probed
    // via a follow-up access) must be bit-identical.
    DramConfig cfg;
    EventQueue eqa, eqb;
    Dram a("a", eqa, cfg);
    Dram b("b", eqb, cfg);

    struct Op
    {
        Addr addr;
        Addr bytes;
        bool write;
    };
    // Sequential stream, row-crossing span, unaligned slice, write
    // traffic revisiting rows, and a zero-length no-op.
    const std::vector<Op> ops = {
        {0, 1 << 16, false},           {1 << 16, 3 * 8192, false},
        {12345, 1000, false},          {0, 1 << 15, true},
        {40 * 8192 + 7, 8192, true},   {123, 0, false},
        {5 << 20, 64, false},
    };

    Tick ta = 0, tb = 0;
    for (const Op &op : ops) {
        ta = a.accessRange(op.addr, op.bytes, op.write, ta);
        tb = perBurstRange(b, cfg, op.addr, op.bytes, op.write, tb);
        ASSERT_EQ(ta, tb);
        ASSERT_EQ(a.accesses(), b.accesses());
        ASSERT_EQ(a.rowHits(), b.rowHits());
        ASSERT_EQ(a.bytesRead(), b.bytesRead());
        ASSERT_EQ(a.bytesWritten(), b.bytesWritten());
        // Exact double equality: the fast path must accumulate the
        // latency sum in the same order as the per-burst loop.
        ASSERT_EQ(a.avgLatencyNs(), b.avgLatencyNs());
    }

    // Registered stats match too.
    for (const char *name : {"reads", "writes", "rowHits", "rowMisses"}) {
        const auto *ea = a.stats().find(name);
        const auto *eb = b.stats().find(name);
        ASSERT_NE(ea, nullptr);
        ASSERT_NE(eb, nullptr);
        EXPECT_EQ(static_cast<const stats::Scalar *>(ea->stat)->value(),
                  static_cast<const stats::Scalar *>(eb->stat)->value())
            << name;
    }

    // Bank and bus state: the next access must see identical timing.
    auto ra = a.access(4096, false, ta + 100);
    auto rb = b.access(4096, false, tb + 100);
    EXPECT_EQ(ra.completeTick, rb.completeTick);
    EXPECT_EQ(ra.rowHit, rb.rowHit);
}

// ------------------------------------------------ observed vs bare

/**
 * Run @p fn with a metrics recorder and a Chrome trace sink installed,
 * so everything it builds observes. Both must record something: an
 * observed run that observed nothing would prove nothing.
 */
template <typename Fn>
auto
observed(Fn &&fn)
{
    metrics::MetricsRecorder rec;
    trace::ChromeTraceSink sink;
    metrics::ScopedMetrics scoped_metrics(rec);
    trace::ScopedTrace scoped_trace(sink);
    auto out = fn();
    EXPECT_FALSE(rec.series().empty());
    EXPECT_FALSE(sink.events().empty());
    return out;
}

class ObservedVsBare : public ::testing::Test
{
  protected:
    ObservedVsBare() : micro(reg), src(reg)
    {
        Rng rng(11);
        root = micro.buildTree(src, 2, 1023, rng);
    }

    KlassRegistry reg;
    workloads::MicroWorkloads micro;
    Heap src;
    Addr root;
};

/** Every SdMeasurement field, compared bit-exactly. */
void
expectSameMeasurement(const workloads::SdMeasurement &c,
                      const workloads::SdMeasurement &f)
{
    EXPECT_EQ(c.serializer, f.serializer);
    EXPECT_EQ(c.serSeconds, f.serSeconds);
    EXPECT_EQ(c.deserSeconds, f.deserSeconds);
    EXPECT_EQ(c.serBandwidth, f.serBandwidth);
    EXPECT_EQ(c.deserBandwidth, f.deserBandwidth);
    EXPECT_EQ(c.serIpc, f.serIpc);
    EXPECT_EQ(c.deserIpc, f.deserIpc);
    EXPECT_EQ(c.serLlcMissRate, f.serLlcMissRate);
    EXPECT_EQ(c.deserLlcMissRate, f.deserLlcMissRate);
    EXPECT_EQ(c.streamBytes, f.streamBytes);
    EXPECT_EQ(c.objects, f.objects);
    EXPECT_EQ(c.serEnergyJ, f.serEnergyJ);
    EXPECT_EQ(c.deserEnergyJ, f.deserEnergyJ);
}

TEST_F(ObservedVsBare, SoftwareMeasurement)
{
    JavaSerializer java;
    const auto run = [&] {
        return workloads::measureSoftware(java, src, root);
    };
    expectSameMeasurement(run(), observed(run));
}

TEST_F(ObservedVsBare, CerealMeasurement)
{
    const auto run = [&] { return workloads::measureCereal(src, root); };
    expectSameMeasurement(run(), observed(run));
}

void
expectSameLatency(const LatencySummary &c, const LatencySummary &f)
{
    EXPECT_EQ(c.count, f.count);
    EXPECT_EQ(c.mean, f.mean);
    EXPECT_EQ(c.min, f.min);
    EXPECT_EQ(c.max, f.max);
    EXPECT_EQ(c.p50, f.p50);
    EXPECT_EQ(c.p95, f.p95);
    EXPECT_EQ(c.p99, f.p99);
    EXPECT_EQ(c.p999, f.p999);
}

ClusterConfig
clusterConfig(Backend backend = Backend::Java)
{
    ClusterConfig cfg;
    cfg.nodes = 4;
    cfg.backend = backend;
    cfg.scale = 256;
    return cfg;
}

TEST(ObservedVsBareCluster, Shuffle)
{
    for (Backend b : {Backend::Java, Backend::Cereal}) {
        // The ClusterSim is built inside the observed scope, so its
        // node profile is measured under observation too.
        const auto run = [b] {
            return ClusterSim(clusterConfig(b)).runShuffle();
        };
        const auto c = run();
        const auto f = observed(run);
        EXPECT_EQ(c.completionSeconds, f.completionSeconds);
        EXPECT_EQ(c.frames, f.frames);
        EXPECT_EQ(c.wireBytes, f.wireBytes);
        EXPECT_EQ(c.batches, f.batches);
        EXPECT_EQ(c.throughputMBps, f.throughputMBps);
        expectSameLatency(c.latency, f.latency);
    }
}

/** The serving front end's open loop at 70% load, 64 requests/node. */
cluster::ServingFrontendResult
serveOpen(const ClusterSim &sim)
{
    cluster::ServingConfig cfg;
    cfg.utilization = 0.7;
    cfg.requestsPerNode = 64;
    cfg.flow.enabled = false;
    return cluster::runServingFrontend(sim, cfg);
}

template <typename T>
std::string
jsonOf(const T &v)
{
    std::ostringstream ss;
    json::Writer w(ss, 0);
    v.writeJson(w);
    return ss.str();
}

TEST(ObservedVsBareCluster, ServingOpenLoop)
{
    const auto run = [] { return serveOpen(ClusterSim(clusterConfig())); };
    const auto c = run();
    const auto f = observed(run);
    EXPECT_EQ(c.offeredRps, f.offeredRps);
    EXPECT_EQ(c.goodputRps, f.goodputRps);
    EXPECT_EQ(c.requests, f.requests);
    EXPECT_EQ(c.completed, f.completed);
    EXPECT_EQ(c.durationSeconds, f.durationSeconds);
    EXPECT_EQ(c.maxWorkerQueue, f.maxWorkerQueue);
    expectSameLatency(c.latency, f.latency);
    EXPECT_EQ(jsonOf(c.reqTrace), jsonOf(f.reqTrace));
}

TEST(ObservedVsBareDataflow, WordcountKryo)
{
    dataflow::DataflowConfig cfg;
    cfg.nodes = 4;
    cfg.job = "wordcount";
    cfg.backend = "kryo";
    cfg.recordsPerNode = 96;
    cfg.seed = 3;
    cfg.skew = 0.3;
    const auto run = [&cfg] { return dataflow::runDataflow(cfg); };
    const auto c = run();
    const auto f = observed(run);
    EXPECT_TRUE(c.invariantsOk);
    EXPECT_EQ(c.resultChecksum, f.resultChecksum);
    EXPECT_EQ(c.outputRecords, f.outputRecords);
    EXPECT_EQ(c.completionSeconds, f.completionSeconds);
    EXPECT_EQ(c.skewRatio, f.skewRatio);
    EXPECT_EQ(c.wireBytes, f.wireBytes);
    EXPECT_EQ(c.fabricBatches, f.fabricBatches);
    ASSERT_EQ(c.stages.size(), f.stages.size());
    for (std::size_t i = 0; i < c.stages.size(); ++i) {
        const auto &cs = c.stages[i];
        const auto &fs = f.stages[i];
        EXPECT_EQ(cs.startSeconds, fs.startSeconds);
        EXPECT_EQ(cs.endSeconds, fs.endSeconds);
        EXPECT_EQ(cs.payloadBytes, fs.payloadBytes);
        EXPECT_EQ(cs.streamBytes, fs.streamBytes);
        EXPECT_EQ(jsonOf(cs.crit), jsonOf(fs.crit));
    }
}

// --------------------------------- serving: callbacks stay inline

TEST(ServingFrontend, PerRequestCallbacksStayInline)
{
    // Each request's admission, serialize-completion and
    // receive-completion events capture a handler reference plus the
    // request's indices, so they fit EventCallback's inline buffer.
    // What still allocates per request is the fabric's batch vector
    // and amortised deque blocks (about 1.5 allocations). A step whose
    // closure spilled to the heap would add one allocation per request.
    ClusterSim sim(clusterConfig());
    const auto allocations = [&](std::uint64_t requests_per_node) {
        cluster::ServingConfig cfg;
        cfg.requestsPerNode = requests_per_node;
        cfg.reqTrace.sampleRate = 0;
        const std::uint64_t before = g_allocCount.load();
        const auto r = cluster::runServingFrontend(sim, cfg);
        EXPECT_EQ(r.completed, r.requests);
        return g_allocCount.load() - before;
    };
    const std::uint64_t base = allocations(200);
    const std::uint64_t doubled = allocations(400);
    ASSERT_GT(doubled, base);
    // 4 nodes x 200 extra requests per node.
    const double per_request = static_cast<double>(doubled - base) / 800.0;
    EXPECT_LT(per_request, 2.0)
        << per_request << " allocations per request";
}

} // namespace
} // namespace cereal
