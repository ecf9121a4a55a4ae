/**
 * @file
 * Tests of the host-time benchmark itself, on workloads shrunk to run in
 * seconds: every metric is emitted with a unit, sim_digest follows the
 * seed, a corrupted stream is counted as a failure, and the ledger's
 * cross-checks fire when their inputs disagree.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "heap/heap.hh"
#include "hostbench/dataflow_jobs.hh"
#include "hostbench/ledger.hh"
#include "hostbench/micro_sd.hh"
#include "hostbench/serve.hh"
#include "mem/dram.hh"
#include "serde/java_serde.hh"
#include "sim/event_queue.hh"
#include "workloads/harness.hh"
#include "workloads/micro.hh"

using namespace hostbench;

namespace {

using Factory = std::function<std::unique_ptr<Workload>()>;

struct Case
{
    std::string name;
    Factory make;
    /** The workload's own per-layer metrics. */
    std::vector<std::string> layerMetrics;
};

std::vector<Case>
cases()
{
    std::vector<std::string> micro = {
        "heap.walk_s",        "heap.verify_s",      "cpu.replay_s",
        "cpu.insts",          "cpu.minsts_per_s",   "mem.cache_replay_s",
        "mem.cache_accesses", "mem.l3_misses",      "mem.dram_replay_s",
        "mem.dram_accesses",  "cereal.ser_s",       "cereal.deser_s",
        "cereal.objects",     "workloads.build_s",
    };
    for (const char *b :
         {"java", "kryo", "skyway", "cereal", "plaincode", "hps"}) {
        micro.push_back(std::string("serde.") + b + ".encode_s");
        micro.push_back(std::string("serde.") + b + ".decode_s");
    }
    const ServeParams serve{1024, 24};
    return {
        {"micro-sd", [] { return makeMicroSd({4096, false}); }, micro},
        {"serve-mix", [serve] { return makeServeMix(serve); },
         {"cluster.profile_s", "cluster.open_s", "cluster.ctl_s",
          "cluster.flash_s", "cluster.host_us_per_req", "cluster.requests",
          "cluster.completed", "cluster.refused", "cluster.goodput_ratio",
          "load.gen_s", "load.arrivals"}},
        {"serve-observed", [serve] { return makeServeObserved(serve); },
         {"cluster.profile_s", "metrics.serve_s", "metrics.overhead_x",
          "metrics.samples", "metrics.export_s", "metrics.export_bytes",
          "trace.serve_s", "trace.overhead_x", "trace.events",
          "trace.export_s", "trace.export_bytes"}},
        {"dataflow-jobs", [] { return makeDataflowJobs({64, 2, 32}); },
         {"cluster.profile_s", "dataflow.wordcount_s", "dataflow.terasort_s",
          "dataflow.pagerank_s", "dataflow.batches", "dataflow.wire_bytes",
          "serde.batch_encode_s", "serde.batch_decode_s",
          "shuffle.lz_compress_s", "shuffle.lz_decompress_s",
          "shuffle.lz_ratio"}},
    };
}

RunResult
runCase(const Case &c, std::uint64_t seed, bool trace)
{
    auto w = c.make();
    RunOptions opts;
    opts.seed = seed;
    opts.seconds = 0.001;
    opts.trace = trace;
    return runWorkload(*w, opts);
}

void
expectMetric(const RunResult &r, const std::string &name,
             const std::string &workload)
{
    const Metric *m = r.metrics.find(name);
    ASSERT_NE(m, nullptr) << workload << " did not emit " << name;
    EXPECT_FALSE(m->unit.empty()) << workload << ": " << name;
}

} // namespace

TEST(Hostbench, EveryMetricEmittedWithUnit)
{
    for (const Case &c : cases()) {
        const RunResult r = runCase(c, 1, true);
        EXPECT_EQ(r.checks.failed(), 0u) << c.name;
        EXPECT_GT(r.checks.attempted(), 0u) << c.name;
        std::vector<std::string> names = {
            "setup_s",      "run_ref",      "units_per_ref",
            "run_s",        "units_per_s",  "ref_ms",
            "peak_rss_mb",  "fail_ratio",   "pass_ratio",
            "ledger.run_s", "ledger.untraced_run_s",
            "ledger.overhead_x", "ledger.spans",
        };
        for (const std::string &layer : ledgerLayers()) {
            names.push_back("self." + layer + "_s");
        }
        names.insert(names.end(), c.layerMetrics.begin(),
                     c.layerMetrics.end());
        for (const std::string &n : names) {
            expectMetric(r, n, c.name);
        }
        EXPECT_GT(r.metrics.find("run_s")->value, 0) << c.name;
        EXPECT_GT(r.metrics.find("run_ref")->value, 0) << c.name;
        EXPECT_GT(r.metrics.find("setup_s")->value, 0) << c.name;
        EXPECT_FALSE(r.spans.spans().empty()) << c.name;
    }
}

TEST(Hostbench, UntracedRunRecordsNoSpans)
{
    const RunResult r = runCase(cases()[0], 1, false);
    EXPECT_TRUE(r.spans.spans().empty());
    EXPECT_EQ(r.metrics.find("ledger.run_s"), nullptr);
}

TEST(Hostbench, SimDigestFollowsTheSeed)
{
    for (const Case &c : cases()) {
        const auto a = runCase(c, 7, false).simDigest.value();
        const auto b = runCase(c, 7, false).simDigest.value();
        const auto other = runCase(c, 8, false).simDigest.value();
        EXPECT_EQ(a, b) << c.name;
        EXPECT_NE(a, other) << c.name;
    }
}

TEST(Hostbench, CorruptedStreamCountsAsFailure)
{
    auto w = makeMicroSd({4096, true});
    RunOptions opts;
    opts.seconds = 0.001;
    const RunResult r = runWorkload(*w, opts);
    EXPECT_GT(r.checks.failed(), 0u);
    EXPECT_GT(r.metrics.find("fail_ratio")->value, 0);
    EXPECT_LT(r.metrics.find("pass_ratio")->value, 1);
}

TEST(Hostbench, UnitWhoseResultsDriftCountsAsFailure)
{
    SpanLog spans;
    Checks checks;
    std::vector<std::uint64_t> digests;
    Digest d;
    d.addU64(1);
    Pass warm{true, spans, checks, digests};
    warm.unitDone("u", true, d);
    Pass same{false, spans, checks, digests};
    same.unitDone("u", true, d);
    EXPECT_EQ(checks.failed(), 0u);
    Digest drift;
    drift.addU64(2);
    Pass later{false, spans, checks, digests};
    later.unitDone("u", true, drift);
    EXPECT_EQ(checks.attempted(), 3u);
    EXPECT_EQ(checks.failed(), 1u);
}

TEST(Hostbench, SelfTimeSubtractsChildSpans)
{
    SpanLog log(true);
    {
        SpanScope outer(log, "unit.x");
        SpanScope inner(log, "serde.encode");
    }
    ASSERT_EQ(log.spans().size(), 2u);
    EXPECT_EQ(log.spans()[1].parent, 0u);
    const auto self = log.selfTimeByLayer();
    const double outer = log.spans()[0].end - log.spans()[0].start;
    const double inner = log.spans()[1].end - log.spans()[1].start;
    EXPECT_DOUBLE_EQ(self.at("serde"), inner);
    EXPECT_NEAR(self.at("unit"), outer - inner, 1e-12);
}

namespace {

/** A small graph, its live java measurement and the recorded narration. */
struct ReplayFixture
{
    cereal::KlassRegistry reg;
    cereal::workloads::MicroWorkloads micro{reg};
    cereal::Heap heap{reg};
    cereal::Addr root = micro.build(heap,
                                    cereal::workloads::MicroBench::TreeNarrow,
                                    4096, 3);
    cereal::JavaSerializer java;
    cereal::workloads::SdMeasurement live =
        cereal::workloads::measureSoftware(java, heap, root,
                                           cereal::CoreConfig(), false);
    Narration narration;

    ReplayFixture() { java.serialize(heap, root, &narration); }

    cereal::CoreRunStats
    replay(const Narration &n) const
    {
        cereal::EventQueue eq;
        cereal::Dram dram("dram.test", eq);
        cereal::CoreModel core(dram, cereal::CoreConfig());
        n.replay(core);
        return core.finish();
    }
};

} // namespace

TEST(Hostbench, CoreReplayCrossCheckFiresOnDisagreement)
{
    ReplayFixture f;
    const auto st = f.replay(f.narration);
    EXPECT_TRUE(coreReplayMatches(f.live, st));

    Narration cut = f.narration;
    ASSERT_GT(cut.events().size(), 10u);
    cut.events().resize(cut.events().size() / 2);
    EXPECT_FALSE(coreReplayMatches(f.live, f.replay(cut)));
}

TEST(Hostbench, CacheChainCrossCheckFiresOnDisagreement)
{
    ReplayFixture f;
    const auto st = f.replay(f.narration);
    const cereal::CoreConfig cfg;
    EXPECT_TRUE(cacheChainMatches(replayCacheChain(f.narration, cfg), st));
    EXPECT_GT(replayDram(replayCacheChain(f.narration, cfg).dramOps), 0u);

    // A chain with tiny direct-mapped L1 and L2 sends more accesses to
    // its L3 than the core's hierarchy did.
    cereal::CoreConfig small = cfg;
    small.l1 = cereal::CacheConfig{1024, 1, 64, 4};
    small.l2 = cereal::CacheConfig{2048, 1, 64, 14};
    EXPECT_FALSE(cacheChainMatches(replayCacheChain(f.narration, small), st));
}

TEST(Hostbench, ArrivalsCrossCheckFiresOnDisagreement)
{
    Checks checks;
    checks.record(arrivalsMatch(1200, 1200), "equal");
    checks.record(arrivalsMatch(1199, 1200), "one short");
    EXPECT_EQ(checks.attempted(), 2u);
    EXPECT_EQ(checks.failed(), 1u);
}

TEST(Hostbench, ReferenceLoopsFollowUnitTime)
{
    // A unit too short to cover one loop still gets one; a long unit
    // gets many, so the loop samples the host while it runs.
    EXPECT_GT(referenceSeconds(), 0);
    const std::vector<int> counts = referenceLoopCounts({0.0, 1.0});
    ASSERT_EQ(counts.size(), 2u);
    EXPECT_EQ(counts[0], 1);
    EXPECT_GT(counts[1], 10);
}
