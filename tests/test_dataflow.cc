/**
 * @file
 * Dataflow operator layer: operator edge cases, batch serde across
 * every backend, and the three jobs end-to-end on the cluster fabric.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dataflow/batch.hh"
#include "dataflow/job.hh"
#include "dataflow/operators.hh"
#include "dataflow/partitioner.hh"
#include "dataflow/record.hh"
#include "serde/registry.hh"

namespace cereal {
namespace dataflow {
namespace {

Record
rec(const std::string &key, std::uint64_t value)
{
    Record r;
    r.key.assign(key.begin(), key.end());
    r.value = packU64(value);
    return r;
}

// --- reduce table -------------------------------------------------------

TEST(ReduceTable, MergesDuplicateKeys)
{
    ReduceTable t(sumU64Merge());
    t.insert(rec("a", 2));
    t.insert(rec("a", 3));
    t.insert(rec("b", 1));
    EXPECT_EQ(t.size(), 2u);
    auto out = t.drain();
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(unpackU64(out[0].value), 5u);
    EXPECT_EQ(unpackU64(out[1].value), 1u);
    EXPECT_TRUE(t.takeSpills().empty());
}

TEST(ReduceTable, SpillsExactlyAtThresholdBoundary)
{
    ReduceTable t(sumU64Merge(), 4);
    for (int i = 0; i < 4; ++i) {
        t.insert(rec("k" + std::to_string(i), 1));
    }
    // Four distinct keys fit the budget exactly: no spill yet.
    EXPECT_EQ(t.size(), 4u);
    EXPECT_TRUE(t.takeSpills().empty());

    // The fifth distinct key flushes the full table first.
    t.insert(rec("k4", 1));
    EXPECT_EQ(t.size(), 1u);
    auto spills = t.takeSpills();
    ASSERT_EQ(spills.size(), 1u);
    EXPECT_EQ(spills[0].size(), 4u);
    EXPECT_TRUE(std::is_sorted(spills[0].begin(), spills[0].end(),
                               recordLess));
}

TEST(ReduceTable, SingleHotKeyNeverSpills)
{
    ReduceTable t(sumU64Merge(), 1);
    for (int i = 0; i < 100; ++i) {
        t.insert(rec("hot", 1));
    }
    EXPECT_EQ(t.size(), 1u);
    EXPECT_TRUE(t.takeSpills().empty());
    auto out = t.drain();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(unpackU64(out[0].value), 100u);
}

TEST(ReduceByKey, SpilledRunsReReduceToExactCounts)
{
    // The pre-table spills under a tiny budget; re-reducing its output
    // unbounded must give the exact aggregation.
    std::vector<Record> in;
    for (int i = 0; i < 64; ++i) {
        in.push_back(rec("k" + std::to_string(i % 10), 1));
    }
    ReduceByKeyOperator pre("pre", sumU64Merge(), 3);
    ReduceByKeyOperator post("post", sumU64Merge(), 0);
    auto combined = pre.apply(in, 0, nullptr);
    EXPECT_GT(combined.size(), 10u); // spills kept duplicates
    auto exact = post.apply(std::move(combined), 0, nullptr);
    auto direct = post.apply(std::move(in), 0, nullptr);
    EXPECT_EQ(exact.size(), 10u);
    EXPECT_TRUE(std::equal(exact.begin(), exact.end(), direct.begin(),
                           direct.end()));
}

// --- multiway merge -----------------------------------------------------

TEST(MultiwayMerge, HandlesEmptyRunsAndEmptyInput)
{
    EXPECT_TRUE(multiwayMerge({}).empty());
    EXPECT_TRUE(multiwayMerge({{}, {}, {}}).empty());
    auto out = multiwayMerge({{}, {rec("a", 1)}, {}});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], rec("a", 1));
}

TEST(MultiwayMerge, MergesSortedRunsToGlobalOrder)
{
    std::vector<std::vector<Record>> runs = {
        {rec("a", 1), rec("c", 1), rec("e", 1)},
        {rec("b", 1), rec("d", 1)},
        {rec("a", 0), rec("f", 1)},
    };
    for (auto &r : runs) {
        std::sort(r.begin(), r.end(), recordLess);
    }
    auto out = multiwayMerge(runs);
    ASSERT_EQ(out.size(), 7u);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end(), recordLess));
}

TEST(MultiwayMerge, DuplicateKeyTiesPopInRunOrder)
{
    // Equal (key, value) records are interchangeable bytes, but the
    // tie-break is still pinned: run index order.
    std::vector<std::vector<Record>> runs = {
        {rec("k", 7), rec("k", 9)},
        {rec("k", 7)},
        {rec("k", 7), rec("k", 8)},
    };
    auto out = multiwayMerge(runs);
    ASSERT_EQ(out.size(), 5u);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end(), recordLess));
    EXPECT_EQ(unpackU64(out[0].value), 7u);
    EXPECT_EQ(unpackU64(out[1].value), 7u);
    EXPECT_EQ(unpackU64(out[2].value), 7u);
    EXPECT_EQ(unpackU64(out[3].value), 8u);
    EXPECT_EQ(unpackU64(out[4].value), 9u);
}

// --- partitioners -------------------------------------------------------

TEST(Partitioners, HashStaysInRangeAndIsKeyPure)
{
    HashPartitioner h;
    for (int i = 0; i < 200; ++i) {
        const auto r = rec("key" + std::to_string(i), 1);
        const auto p = h.partition(r, 7);
        EXPECT_LT(p, 7u);
        auto r2 = r;
        r2.value = packU64(99); // value must not affect routing
        EXPECT_EQ(h.partition(r2, 7), p);
    }
}

TEST(Partitioners, RangeSplitsOnSplitterBoundaries)
{
    std::vector<std::vector<std::uint8_t>> sp = {{'g'}, {'p'}};
    RangePartitioner range(sp);
    EXPECT_EQ(range.partition(rec("a", 0), 3), 0u);
    EXPECT_EQ(range.partition(rec("g", 0), 3), 0u); // inclusive upper
    EXPECT_EQ(range.partition(rec("h", 0), 3), 1u);
    EXPECT_EQ(range.partition(rec("p", 0), 3), 1u);
    EXPECT_EQ(range.partition(rec("z", 0), 3), 2u);
}

TEST(Partitioners, OwnerRoutesIdsToTheirHome)
{
    OwnerPartitioner owner(100);
    Record r;
    r.key = packU64(0);
    EXPECT_EQ(owner.partition(r, 4), 0u);
    r.key = packU64(199);
    EXPECT_EQ(owner.partition(r, 4), 1u);
    r.key = packU64(399);
    EXPECT_EQ(owner.partition(r, 4), 3u);
}

TEST(Partitioners, SplitterSelectionIsSortedAndSized)
{
    std::vector<std::vector<std::uint8_t>> keys;
    for (int i = 99; i >= 0; --i) {
        keys.push_back({static_cast<std::uint8_t>(i)});
    }
    auto sp = selectSplitters(std::move(keys), 4);
    ASSERT_EQ(sp.size(), 3u);
    EXPECT_TRUE(std::is_sorted(sp.begin(), sp.end()));
}

// --- batch serde --------------------------------------------------------

std::vector<Record>
assortedBatch()
{
    std::vector<Record> batch;
    batch.push_back(rec("alpha", 1));
    batch.push_back(rec("", 0)); // empty key
    Record empty_value;
    empty_value.key = {0x00, 0xff, 0x7f}; // binary key bytes
    batch.push_back(empty_value);
    Record big;
    big.key.assign(300, 0xab);
    big.value.assign(1000, 0xcd);
    batch.push_back(std::move(big));
    return batch;
}

TEST(BatchCodec, RoundTripsEveryBackend)
{
    const auto batch = assortedBatch();
    for (const auto &name : serde::availableBackends()) {
        SCOPED_TRACE(name);
        BatchCodec codec(name);
        auto enc = codec.encode(batch);
        EXPECT_EQ(enc.records, batch.size());
        EXPECT_GT(enc.streamBytes, 0u);
        auto back = codec.decode(enc.payload);
        EXPECT_TRUE(std::equal(batch.begin(), batch.end(), back.begin(),
                               back.end()));
    }
}

TEST(BatchCodec, RoundTripsEmptyBatchEveryBackend)
{
    for (const auto &name : serde::availableBackends()) {
        SCOPED_TRACE(name);
        BatchCodec codec(name);
        auto enc = codec.encode({});
        EXPECT_EQ(enc.records, 0u);
        EXPECT_TRUE(codec.decode(enc.payload).empty());
    }
}

TEST(BatchCodec, ZeroCopyViewReadMatchesGraphRead)
{
    const auto batch = assortedBatch();
    BatchCodec hps("hps");
    BatchCodec java("java");
    const auto viaViews = hps.decode(hps.encode(batch).payload);
    const auto viaGraph = java.decode(java.encode(batch).payload);
    EXPECT_TRUE(std::equal(viaViews.begin(), viaViews.end(),
                           viaGraph.begin(), viaGraph.end()));
}

TEST(BatchCodec, CompressedBackendsShrinkRedundantPayloads)
{
    std::vector<Record> batch;
    for (int i = 0; i < 32; ++i) {
        Record r;
        r.key.assign(64, 0x41);
        r.value.assign(64, 0x42);
        batch.push_back(std::move(r));
    }
    for (const auto &b : serde::backends()) {
        SCOPED_TRACE(b.name);
        BatchCodec codec(b.name);
        auto enc = codec.encode(batch);
        if (b.lzOnWire) {
            EXPECT_LT(enc.payload.size(), enc.streamBytes);
        } else {
            EXPECT_EQ(enc.payload.size(), enc.streamBytes);
        }
    }
}

// --- end-to-end jobs ----------------------------------------------------

DataflowConfig
smallConfig(const std::string &job, const std::string &backend)
{
    DataflowConfig cfg;
    cfg.nodes = 4;
    cfg.job = job;
    cfg.backend = backend;
    cfg.recordsPerNode = 96;
    cfg.seed = 3;
    cfg.skew = 0.3;
    cfg.iterations = 2;
    return cfg;
}

class DataflowJobs : public ::testing::TestWithParam<const char *>
{
};

TEST_P(DataflowJobs, CompletesOnEveryBackendWithOneChecksum)
{
    const std::string job = GetParam();
    std::uint64_t checksum = 0;
    std::uint64_t outputs = 0;
    bool first = true;
    for (const auto &name : serde::availableBackends()) {
        SCOPED_TRACE(name);
        const auto res = runDataflow(smallConfig(job, name));
        EXPECT_TRUE(res.invariantsOk);
        EXPECT_GT(res.completionSeconds, 0.0);
        EXPECT_GT(res.wireBytes, 0u);
        EXPECT_GT(res.outputRecords, 0u);
        for (const auto &s : res.stages) {
            EXPECT_GE(s.endSeconds, s.startSeconds);
            // Every stage in the three jobs exchanges: nodes^2 batches,
            // empty and self-partitions included.
            EXPECT_EQ(s.batches, 16u);
        }
        if (first) {
            checksum = res.resultChecksum;
            outputs = res.outputRecords;
            first = false;
        } else {
            // The functional result is backend-invariant: every
            // backend ships the same records and must recover them.
            EXPECT_EQ(res.resultChecksum, checksum);
            EXPECT_EQ(res.outputRecords, outputs);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllJobs, DataflowJobs,
                         ::testing::Values("wordcount", "terasort",
                                           "pagerank"));

TEST(Dataflow, RunsAreDeterministic)
{
    const auto a = runDataflow(smallConfig("pagerank", "plaincode"));
    const auto b = runDataflow(smallConfig("pagerank", "plaincode"));
    EXPECT_EQ(a.resultChecksum, b.resultChecksum);
    EXPECT_DOUBLE_EQ(a.completionSeconds, b.completionSeconds);
}

TEST(Dataflow, SingleHotKeyDrainsToOneReducer)
{
    // skew = 1: every record is the hot word, all but one partition's
    // batches are empty, and the job still completes exactly.
    auto cfg = smallConfig("wordcount", "java");
    cfg.skew = 1.0;
    const auto res = runDataflow(cfg);
    EXPECT_TRUE(res.invariantsOk);
    EXPECT_EQ(res.outputRecords, 1u);
    EXPECT_GT(res.skewRatio, 1.5);
}

TEST(Dataflow, SkewRaisesImbalanceAndCompletion)
{
    // PageRank ships contributions uncombined, so a hot vertex
    // concentrates receive-side load on its owner. (TeraSort would
    // not work here: sample sort adapts its splitters to the skewed
    // distribution and rebalances.)
    auto uniform = smallConfig("pagerank", "java");
    uniform.skew = 0.0;
    auto skewed = smallConfig("pagerank", "java");
    skewed.skew = 0.9;
    const auto u = runDataflow(uniform);
    const auto s = runDataflow(skewed);
    EXPECT_TRUE(u.invariantsOk);
    EXPECT_TRUE(s.invariantsOk);
    EXPECT_GT(s.skewRatio, u.skewRatio);
    EXPECT_GT(s.completionSeconds, u.completionSeconds);
}

TEST(Dataflow, StragglerStretchesCompletion)
{
    auto base = smallConfig("wordcount", "skyway");
    auto slow = base;
    slow.stragglerFactor = 4.0;
    slow.stragglerNode = 1;
    const auto b = runDataflow(base);
    const auto s = runDataflow(slow);
    EXPECT_TRUE(s.invariantsOk);
    EXPECT_EQ(s.resultChecksum, b.resultChecksum); // timing-only knob
    EXPECT_GT(s.completionSeconds, b.completionSeconds);
}

TEST(Dataflow, PageRankConservesRankMass)
{
    auto cfg = smallConfig("pagerank", "cereal");
    cfg.iterations = 4;
    const auto res = runDataflow(cfg);
    EXPECT_TRUE(res.invariantsOk);
    EXPECT_EQ(res.outputRecords,
              std::uint64_t{cfg.nodes} * cfg.recordsPerNode);
    EXPECT_EQ(res.stages.size(), 4u);
}

} // namespace
} // namespace dataflow
} // namespace cereal
