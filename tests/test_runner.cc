/**
 * @file
 * Unit tests for the experiment runner subsystem: the deterministic
 * SweepRunner (the same sweep run with 1 and 8 threads must render
 * byte-identical JSON), the JSON writer's escaping/formatting, and the
 * harness JSON exporter.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runner/sweep_runner.hh"
#include "sim/json.hh"
#include "workloads/harness.hh"

namespace cereal {
namespace {

// ---------------------------------------------------------------- json

TEST(Json, EscapeCoversControlAndQuoteCharacters)
{
    EXPECT_EQ(json::escape("plain"), "\"plain\"");
    EXPECT_EQ(json::escape("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(json::escape("back\\slash"), "\"back\\\\slash\"");
    EXPECT_EQ(json::escape("tab\there"), "\"tab\\there\"");
    EXPECT_EQ(json::escape("nl\n"), "\"nl\\n\"");
    EXPECT_EQ(json::escape(std::string("nul\x01")), "\"nul\\u0001\"");
}

TEST(Json, FormatDoubleIsShortestRoundTrip)
{
    EXPECT_EQ(json::formatDouble(0.1), "0.1");
    EXPECT_EQ(json::formatDouble(2), "2");
    EXPECT_EQ(json::formatDouble(-1.5e300), "-1.5e+300");
    EXPECT_EQ(json::formatDouble(std::nan("")), "null");
    EXPECT_EQ(json::formatDouble(INFINITY), "null");
}

TEST(Json, WriterRendersNestedDocument)
{
    std::ostringstream ss;
    json::Writer w(ss, 0);
    w.beginObject();
    w.kv("a", 1);
    w.key("b");
    w.beginArray();
    w.value(1.5);
    w.value(true);
    w.null();
    w.endArray();
    w.kv("c", "x\"y");
    w.endObject();
    EXPECT_TRUE(w.balanced());
    EXPECT_EQ(ss.str(), "{\"a\":1,\"b\":[1.5,true,null],\"c\":\"x\\\"y\"}");
}

TEST(Json, WriterTracksBalance)
{
    std::ostringstream ss;
    json::Writer w(ss, 2);
    w.beginObject();
    EXPECT_FALSE(w.balanced());
    w.endObject();
    EXPECT_TRUE(w.balanced());
}

// --------------------------------------------------------------- stats

TEST(StatsJson, SdMeasurementMemberSetIsStable)
{
    workloads::SdMeasurement m;
    m.serializer = "kryo";
    m.objects = 7;
    m.streamBytes = 99;
    m.serSeconds = 0.5;

    std::ostringstream ss;
    json::Writer w(ss, 0);
    w.beginObject();
    m.writeJson(w, "kryo");
    w.endObject();
    ASSERT_TRUE(w.balanced());

    const std::string doc = ss.str();
    for (const char *member :
         {"serializer", "objects", "stream_bytes", "ser_seconds",
          "deser_seconds", "ser_bandwidth", "deser_bandwidth", "ser_ipc",
          "deser_ipc", "ser_llc_miss_rate", "deser_llc_miss_rate",
          "ser_energy_j", "deser_energy_j"}) {
        EXPECT_NE(doc.find(std::string("\"") + member + "\":"),
                  std::string::npos)
            << "missing member " << member << " in " << doc;
    }
}

// -------------------------------------------------------------- runner

/**
 * A deterministic pseudo-workload: points do unequal amounts of work
 * (so parallel completion order scrambles) but the value for slot i
 * depends only on i.
 */
std::string
renderSweep(unsigned threads, std::uint64_t seed)
{
    runner::SweepRunner sweep("unit");
    std::vector<std::uint64_t> results(24, 0);
    for (std::size_t i = 0; i < results.size(); ++i) {
        sweep.add("pt-" + std::to_string(i),
                  [&results, i, seed](json::Writer &w) {
                      std::uint64_t x = seed + i * 2654435761ULL;
                      // More iterations for earlier points: finish
                      // order under parallelism inverts registration
                      // order.
                      for (std::uint64_t k = 0;
                           k < 20000 * (results.size() - i); ++k) {
                          x ^= x << 13;
                          x ^= x >> 7;
                          x ^= x << 17;
                      }
                      results[i] = x;
                      w.kv("hash", x);
                  });
    }
    sweep.setSummary([&results](json::Writer &w) {
        std::uint64_t sum = 0;
        for (auto v : results) {
            sum += v;
        }
        w.kv("hash_sum", sum);
    });
    sweep.run(threads);
    std::ostringstream ss;
    sweep.writeJson(ss, {{"seed", seed}});
    return ss.str();
}

TEST(SweepRunner, ParallelJsonIsByteIdenticalToSerial)
{
    const std::string serial = renderSweep(1, 42);
    const std::string parallel = renderSweep(8, 42);
    EXPECT_EQ(serial, parallel);
}

TEST(SweepRunner, SameSeedTwiceIsByteIdentical)
{
    EXPECT_EQ(renderSweep(8, 7), renderSweep(8, 7));
    EXPECT_NE(renderSweep(1, 7), renderSweep(1, 8));
}

TEST(SweepRunner, DocumentHasStableShape)
{
    runner::SweepRunner sweep("shape");
    sweep.add("only", [](json::Writer &w) { w.kv("x", 1); });
    sweep.run(1);
    std::ostringstream ss;
    sweep.writeJson(ss, {{"scale", 64}});
    const std::string doc = ss.str();
    EXPECT_NE(doc.find("\"schema\": \"cereal-bench-v1\""),
              std::string::npos)
        << doc;
    EXPECT_NE(doc.find("\"bench\": \"shape\""), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"scale\": 64"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"name\": \"only\""), std::string::npos) << doc;
    // No summary installed: the member must be absent, not empty.
    EXPECT_EQ(doc.find("\"summary\""), std::string::npos) << doc;
    EXPECT_EQ(doc.back(), '\n');
}

TEST(SweepRunner, PointsRunExactlyOnceEach)
{
    // {threads, points}: fewer threads than points, and more (the
    // runner starts only as many workers as there are points).
    for (auto [threads, points] :
         {std::pair<unsigned, std::size_t>{4, 16}, {8, 3}}) {
        runner::SweepRunner sweep("once");
        std::vector<std::atomic<int>> counts(points);
        for (std::size_t i = 0; i < counts.size(); ++i) {
            sweep.add("p" + std::to_string(i),
                      [&counts, i](json::Writer &) { ++counts[i]; });
        }
        sweep.run(threads);
        for (auto &c : counts) {
            EXPECT_EQ(c.load(), 1) << threads << " threads";
        }
    }
}

TEST(SweepRunner, PointExceptionLeavesRunOnEveryPath)
{
    for (unsigned threads : {1u, 4u}) {
        runner::SweepRunner sweep("throws");
        for (int i = 0; i < 8; ++i) {
            sweep.add("p" + std::to_string(i), [i](json::Writer &) {
                if (i == 3) {
                    throw std::runtime_error("point 3");
                }
            });
        }
        EXPECT_THROW(sweep.run(threads), std::runtime_error)
            << threads << " threads";
    }
}

} // namespace
} // namespace cereal
