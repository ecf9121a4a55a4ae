/**
 * @file
 * Tests for the perf-regression baseline gate: JSON parsing, the
 * tolerance policy (default + longest-substring overrides), and the
 * document-comparison engine behind tools/bench_compare — pass on an
 * identical document, fail on a perturbed metric (the acceptance
 * criterion for the gate), exact-match config policy, point matching
 * by name, exact string leaves, metrics-subtree exclusion, and error
 * handling for documents that cannot be meaningfully compared.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "runner/baseline.hh"
#include "runner/sweep_runner.hh"
#include "sim/json.hh"
#include "sim/json_parse.hh"

namespace cereal {
namespace {

using runner::compareBenchJson;
using runner::CompareResult;
using runner::Tolerance;

// ------------------------------------------------------- JSON parser

TEST(JsonParse, ParsesScalarsContainersAndEscapes)
{
    auto r = json::parse(
        R"({"a": 1.5, "b": [true, null, "x\nA"], "c": {"d": -2e3}})");
    ASSERT_TRUE(r.ok()) << r.error;
    const json::Value &v = r.value;
    ASSERT_TRUE(v.isObject());
    EXPECT_DOUBLE_EQ(v.find("a")->number, 1.5);
    const json::Value *b = v.find("b");
    ASSERT_TRUE(b->isArray());
    ASSERT_EQ(b->array.size(), 3u);
    EXPECT_TRUE(b->array[0].boolean);
    EXPECT_EQ(b->array[1].type, json::Value::Type::Null);
    EXPECT_EQ(b->array[2].str, "x\nA");
    EXPECT_DOUBLE_EQ(v.find("c")->find("d")->number, -2000.0);
}

TEST(JsonParse, PreservesMemberOrder)
{
    auto r = json::parse(R"({"z": 1, "a": 2, "m": 3})");
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value.object.size(), 3u);
    EXPECT_EQ(r.value.object[0].first, "z");
    EXPECT_EQ(r.value.object[1].first, "a");
    EXPECT_EQ(r.value.object[2].first, "m");
}

TEST(JsonParse, ReportsErrorsWithOffset)
{
    EXPECT_FALSE(json::parse("").ok());
    EXPECT_FALSE(json::parse("{").ok());
    EXPECT_FALSE(json::parse("{\"a\": 1,}").ok());
    EXPECT_FALSE(json::parse("[1, 2] trailing").ok());
    auto r = json::parse("[1, nope]");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("offset"), std::string::npos);
}

TEST(JsonParse, RejectsRunawayNesting)
{
    std::string deep(100, '[');
    deep += std::string(100, ']');
    EXPECT_FALSE(json::parse(deep).ok());
}

TEST(JsonParse, RoundTripsWriterOutput)
{
    std::ostringstream ss;
    json::Writer w(ss, 2);
    w.beginObject();
    w.kv("schema", "cereal-bench-v1");
    w.key("points");
    w.beginArray();
    w.beginObject();
    w.kv("name", "pt \"quoted\"");
    w.kv("value", 0.125);
    w.endObject();
    w.endArray();
    w.endObject();
    auto r = json::parse(ss.str());
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.value.find("points")->array[0].find("name")->str,
              "pt \"quoted\"");
}

// -------------------------------------------------- tolerance policy

TEST(Tolerance, LongestMatchingOverrideWins)
{
    Tolerance tol;
    tol.defaultRel = 0.05;
    tol.overrides = {{"ser_s", 0.10}, {"points.tree.ser_s", 0.01}};
    EXPECT_DOUBLE_EQ(tol.relFor("points.list.bytes"), 0.05);
    EXPECT_DOUBLE_EQ(tol.relFor("points.list.ser_s"), 0.10);
    // Substring matching: "deser_s" contains "ser_s", so the override
    // applies there too — scope overrides with separators if unwanted.
    EXPECT_DOUBLE_EQ(tol.relFor("points.list.deser_s"), 0.10);
    EXPECT_DOUBLE_EQ(tol.relFor("points.tree.ser_s"), 0.01);
}

// ------------------------------------------------- document compare

/** A minimal valid bench document with one adjustable value. */
std::string
doc(double speedup, const std::string &bench = "fig10")
{
    std::ostringstream ss;
    ss << R"({"schema": "cereal-bench-v1", "bench": ")" << bench
       << R"(", "config": {"scale": 256}, "points": [)"
       << R"({"name": "tree-narrow", "speedup": )"
       << json::formatDouble(speedup) << "}]}";
    return ss.str();
}

TEST(BenchCompare, IdenticalDocumentsPass)
{
    const auto res = compareBenchJson(doc(12.5), doc(12.5));
    EXPECT_TRUE(res.pass) << res.report();
    EXPECT_TRUE(res.error.empty());
    EXPECT_EQ(res.comparedLeaves, 1u);
    EXPECT_NE(res.report().find("OK"), std::string::npos);
}

TEST(BenchCompare, SmallDriftWithinTolerancePasses)
{
    // 2% drift under the 5% default tolerance.
    const auto res = compareBenchJson(doc(12.75), doc(12.5));
    EXPECT_TRUE(res.pass) << res.report();
}

TEST(BenchCompare, PerturbedValueFails)
{
    // 20% drift over the 5% default: the acceptance-criterion case.
    const auto res = compareBenchJson(doc(15.0), doc(12.5));
    EXPECT_FALSE(res.pass);
    ASSERT_EQ(res.findings.size(), 1u);
    EXPECT_EQ(res.findings[0].path, "points.tree-narrow.speedup");
    EXPECT_NE(res.findings[0].message.find("drift"), std::string::npos);
    EXPECT_NE(res.report().find("FAIL"), std::string::npos);
}

TEST(BenchCompare, OverrideToleranceChangesVerdict)
{
    Tolerance loose;
    loose.overrides = {{"speedup", 0.5}};
    EXPECT_TRUE(compareBenchJson(doc(15.0), doc(12.5), loose).pass);

    Tolerance strict;
    strict.overrides = {{"speedup", 0.001}};
    EXPECT_FALSE(compareBenchJson(doc(12.55), doc(12.5), strict).pass);
}

TEST(Tolerance, FloorLongestMatchWinsAndDefaultsToNone)
{
    Tolerance tol;
    tol.floors = {{"per_sec", 0.5}, {"points.slow.per_sec", 0.9}};
    EXPECT_DOUBLE_EQ(tol.floorFor("points.fast.per_sec"), 0.5);
    EXPECT_DOUBLE_EQ(tol.floorFor("points.slow.per_sec"), 0.9);
    EXPECT_DOUBLE_EQ(tol.floorFor("points.fast.wall_seconds"), 0.0);
}

TEST(BenchCompare, FloorIsOneSided)
{
    // Wall-clock gate semantics: any improvement passes (even one a
    // symmetric 5% band would flag as drift), a small drop passes, a
    // collapse past the ratio fails.
    Tolerance tol;
    tol.floors = {{"speedup", 0.5}};
    EXPECT_TRUE(compareBenchJson(doc(125.0), doc(12.5), tol).pass);
    EXPECT_TRUE(compareBenchJson(doc(7.0), doc(12.5), tol).pass);
    const auto res = compareBenchJson(doc(6.0), doc(12.5), tol);
    EXPECT_FALSE(res.pass);
    ASSERT_EQ(res.findings.size(), 1u);
    EXPECT_NE(res.findings[0].message.find("below floor"),
              std::string::npos);
}

TEST(BenchCompare, FloorOnlyAppliesToMatchingPaths)
{
    // A floor on one path leaves every other leaf on the symmetric
    // tolerance.
    Tolerance tol;
    tol.floors = {{"unrelated_metric", 0.5}};
    EXPECT_FALSE(compareBenchJson(doc(25.0), doc(12.5), tol).pass);
}

TEST(BenchCompare, BaselineZeroRequiresExactZero)
{
    EXPECT_TRUE(compareBenchJson(doc(0.0), doc(0.0)).pass);
    EXPECT_FALSE(compareBenchJson(doc(1e-9), doc(0.0)).pass);
}

TEST(BenchCompare, MissingAndExtraLeavesFail)
{
    const std::string two_leaves =
        R"({"schema": "cereal-bench-v1", "bench": "fig10",)"
        R"( "points": [{"name": "p", "a": 1, "b": 2}]})";
    const std::string one_leaf =
        R"({"schema": "cereal-bench-v1", "bench": "fig10",)"
        R"( "points": [{"name": "p", "a": 1}]})";

    const auto missing = compareBenchJson(one_leaf, two_leaves);
    EXPECT_FALSE(missing.pass);
    ASSERT_EQ(missing.findings.size(), 1u);
    EXPECT_EQ(missing.findings[0].path, "points.p.b");
    EXPECT_NE(missing.findings[0].message.find("missing"),
              std::string::npos);

    const auto extra = compareBenchJson(two_leaves, one_leaf);
    EXPECT_FALSE(extra.pass);
    ASSERT_EQ(extra.findings.size(), 1u);
    EXPECT_NE(extra.findings[0].message.find("not present in baseline"),
              std::string::npos);
}

TEST(BenchCompare, MissingAndExtraPointsFail)
{
    const std::string two_points =
        R"({"schema": "cereal-bench-v1", "bench": "fig10",)"
        R"( "points": [{"name": "p", "a": 1}, {"name": "q", "a": 2}]})";
    const std::string one_point =
        R"({"schema": "cereal-bench-v1", "bench": "fig10",)"
        R"( "points": [{"name": "p", "a": 1}]})";

    const auto missing = compareBenchJson(one_point, two_points);
    EXPECT_FALSE(missing.pass);
    EXPECT_EQ(missing.findings[0].path, "points.q");

    const auto extra = compareBenchJson(two_points, one_point);
    EXPECT_FALSE(extra.pass);
    EXPECT_NE(extra.findings[0].message.find("not present in baseline"),
              std::string::npos);
}

TEST(BenchCompare, ChangedStringLeafFailsWhateverTheTolerance)
{
    // A p99 exemplar whose dominant segment moves is a behaviour
    // change even when every number stays inside the band.
    auto knee = [](const std::string &segment) {
        return R"({"schema": "cereal-bench-v1", "bench": "serving_knee",)"
               R"( "points": [{"name": "p", "reqtrace": {"p99_exemplar":)"
               R"( {"end_to_end_ticks": 10, "dominant_segment": ")" +
               segment + R"("}}}]})";
    };
    const auto same = compareBenchJson(knee("queue"), knee("queue"));
    EXPECT_TRUE(same.pass) << same.report();
    EXPECT_EQ(same.comparedLeaves, 2u);

    Tolerance loose;
    loose.defaultRel = 1e18;
    const auto res = compareBenchJson(knee("deser"), knee("queue"), loose);
    EXPECT_FALSE(res.pass);
    ASSERT_EQ(res.findings.size(), 1u);
    EXPECT_EQ(res.findings[0].path,
              "points.p.reqtrace.p99_exemplar.dominant_segment");
    EXPECT_EQ(res.findings[0].message, R"(changed "queue" -> "deser")");
}

TEST(BenchCompare, PointOrderDoesNotMatter)
{
    const std::string ab =
        R"({"schema": "cereal-bench-v1", "bench": "fig10",)"
        R"( "points": [{"name": "a", "v": 1}, {"name": "b", "v": 2}]})";
    const std::string ba =
        R"({"schema": "cereal-bench-v1", "bench": "fig10",)"
        R"( "points": [{"name": "b", "v": 2}, {"name": "a", "v": 1}]})";
    EXPECT_TRUE(compareBenchJson(ab, ba).pass);
}

TEST(BenchCompare, ConfigDifferenceIsExactMatchFailure)
{
    // A 1-unit scale difference is far under 5% relative, but config
    // is a different experiment, not a drift — must still fail.
    const std::string base = doc(12.5);
    std::string fresh = base;
    const auto pos = fresh.find("\"scale\": 256");
    ASSERT_NE(pos, std::string::npos);
    fresh.replace(pos, 12, "\"scale\": 257");
    const auto res = compareBenchJson(fresh, base);
    EXPECT_FALSE(res.pass);
    EXPECT_NE(res.findings[0].message.find("config mismatch"),
              std::string::npos);
}

TEST(BenchCompare, BenchOrSchemaMismatchIsAnErrorNotADrift)
{
    const auto res = compareBenchJson(doc(12.5, "fig11"), doc(12.5));
    EXPECT_FALSE(res.pass);
    EXPECT_NE(res.error.find("'bench' mismatch"), std::string::npos);
    EXPECT_NE(res.report().find("ERROR"), std::string::npos);

    std::string bad_schema = doc(12.5);
    const auto pos = bad_schema.find("cereal-bench-v1");
    bad_schema.replace(pos, 15, "cereal-bench-v2");
    EXPECT_FALSE(compareBenchJson(bad_schema, doc(12.5)).error.empty());
}

TEST(BenchCompare, ParseFailureIsAnError)
{
    const auto res = compareBenchJson("{not json", doc(1.0));
    EXPECT_FALSE(res.pass);
    EXPECT_NE(res.error.find("fresh document"), std::string::npos);

    const auto res2 = compareBenchJson(doc(1.0), "");
    EXPECT_NE(res2.error.find("baseline document"), std::string::npos);
}

TEST(BenchCompare, MetricsSubtreesAreExcluded)
{
    // Identical numbers everywhere except inside "metrics": must pass,
    // and the metrics leaves must not count as compared.
    const std::string with_metrics_a =
        R"({"schema": "cereal-bench-v1", "bench": "fig10", "points":)"
        R"( [{"name": "p", "v": 1, "metrics": {"interval_ticks": 100,)"
        R"( "series": [{"values": [1, 2, 3]}]}}]})";
    const std::string with_metrics_b =
        R"({"schema": "cereal-bench-v1", "bench": "fig10", "points":)"
        R"( [{"name": "p", "v": 1, "metrics": {"interval_ticks": 999,)"
        R"( "series": [{"values": [7]}]}}]})";
    const auto res = compareBenchJson(with_metrics_a, with_metrics_b);
    EXPECT_TRUE(res.pass) << res.report();
    EXPECT_EQ(res.comparedLeaves, 1u);
}

TEST(BenchCompare, GateRoundTripsARealSweepDocument)
{
    // End-to-end shape check: a real SweepRunner document compares
    // clean against itself and flags an injected drift.
    auto render = [](double v) {
        runner::SweepRunner sweep("gate_unit");
        sweep.add("pt", [v](json::Writer &w) { w.kv("seconds", v); });
        sweep.run(1);
        std::ostringstream ss;
        sweep.writeJson(ss, {{"scale", 64}});
        return ss.str();
    };
    EXPECT_TRUE(compareBenchJson(render(1.0), render(1.0)).pass);
    const auto res = compareBenchJson(render(2.0), render(1.0));
    EXPECT_FALSE(res.pass);
    EXPECT_EQ(res.findings[0].path, "points.pt.seconds");
}

} // namespace
} // namespace cereal
