/**
 * @file
 * Tests for the time-series metrics layer: series kinds and sampling
 * semantics, capacity bounding, run-length catch-up (differential
 * against a per-boundary reference recorder, plus closure-call
 * counts), prefix uniquification, RAII detach,
 * the StatGroup bridge, the disabled (no ambient recorder) path, the
 * three exporters (JSON/CSV/Prometheus), byte-determinism of sweep
 * metrics across thread counts on both the micro and cluster stacks,
 * and the pinned golden CSV of a small Figure-10-style run.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "metrics/metrics.hh"
#include "runner/sweep_runner.hh"
#include "serde/registry.hh"
#include "sim/json.hh"
#include "sim/stats.hh"
#include "workloads/harness.hh"
#include "workloads/micro.hh"

namespace cereal {
namespace {

using metrics::Group;
using metrics::MetricsRecorder;
using metrics::ScopedMetrics;

// ------------------------------------------------------- series kinds

TEST(Metrics, GaugeSamplesAtEveryCrossedBoundary)
{
    MetricsRecorder rec(100);
    Group g(&rec, "comp");
    double v = 1.0;
    g.gauge("depth", "a depth", [&v](Tick) { return v; });

    g.tick(50); // no boundary crossed yet
    EXPECT_EQ(rec.series()[0].sampleCount(), 0u);

    g.tick(100); // boundary at 100
    v = 7.0;
    g.tick(350); // boundaries at 200, 300
    const auto samples = rec.series()[0].samples();
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_EQ(samples[0].tick, 100u);
    EXPECT_EQ(samples[0].value, 1.0);
    EXPECT_EQ(samples[1].tick, 200u);
    EXPECT_EQ(samples[1].value, 7.0);
    EXPECT_EQ(samples[2].tick, 300u);
}

TEST(Metrics, RateIsScaledDeltaPerIntervalTick)
{
    MetricsRecorder rec(100);
    Group g(&rec, "comp");
    double counter = 40.0; // primed at registration
    g.rate("bw", "bytes per tick", [&counter] { return counter; }, 2.0);

    counter = 140.0;
    g.tick(100); // delta 100 over 100 ticks, scale 2 -> 2.0
    counter = 140.0;
    g.tick(200); // flat -> 0
    const auto samples = rec.series()[0].samples();
    ASSERT_EQ(samples.size(), 2u);
    EXPECT_DOUBLE_EQ(samples[0].value, 2.0);
    EXPECT_DOUBLE_EQ(samples[1].value, 0.0);
}

TEST(Metrics, RatioIsDeltaOverDeltaAndZeroWhenFlat)
{
    MetricsRecorder rec(10);
    Group g(&rec, "comp");
    double hits = 0, total = 0;
    g.ratio("hit_rate", "hits per access", [&hits] { return hits; },
            [&total] { return total; });

    hits = 3;
    total = 4;
    g.tick(10);
    g.tick(20); // both flat -> 0, not NaN
    const auto samples = rec.series()[0].samples();
    ASSERT_EQ(samples.size(), 2u);
    EXPECT_DOUBLE_EQ(samples[0].value, 0.75);
    EXPECT_DOUBLE_EQ(samples[1].value, 0.0);
}

TEST(Metrics, RingDropsOldestAndCounts)
{
    MetricsRecorder rec(1, 4);
    Group g(&rec, "comp");
    Tick t = 0;
    g.gauge("x", "", [&t](Tick) { return static_cast<double>(t); });
    for (t = 1; t <= 10; ++t) {
        g.tick(t);
    }
    const auto &s = rec.series()[0];
    EXPECT_EQ(s.sampleCount(), 4u);
    EXPECT_EQ(s.dropped(), 6u);
    const auto samples = s.samples();
    EXPECT_EQ(samples.front().tick, 7u); // oldest retained
    EXPECT_EQ(samples.back().tick, 10u);
    EXPECT_EQ(s.last().tick, 10u);
}

TEST(Metrics, BackwardClockProducesNoSamplesUntilHighWaterMark)
{
    MetricsRecorder rec(100);
    Group g(&rec, "comp");
    g.gauge("x", "", [](Tick) { return 1.0; });
    g.tick(300); // samples at 100, 200, 300
    g.tick(50);  // a component restarting at ~0: nothing new
    g.tick(250); // still below the next boundary (400)
    EXPECT_EQ(rec.series()[0].sampleCount(), 3u);
    g.tick(400);
    EXPECT_EQ(rec.series()[0].sampleCount(), 4u);
}

// ------------------------------------------------ run-length catch-up

/** Component state read by the closures of both recorders below. */
struct World
{
    double level = 0;
    double counter = 0;
    double num = 0;
    double den = 0;
};

/** The tick gauge under test: depends on the boundary and the state. */
double
tickGaugeValue(const World &w, Tick t)
{
    return w.level + static_cast<double>(t % 97);
}

/** The four closure forms a series can take. */
enum class Form { State, TickGauge, Rate, Ratio };

/**
 * Reference series: the straightforward recorder that calls its
 * closure at every crossed boundary and keeps a bounded FIFO of
 * samples. Run-length catch-up must be indistinguishable from it.
 */
class RefSeries
{
  public:
    RefSeries(Form form, const World &w, Tick interval, std::size_t cap,
              double scale)
        : form_(form), w_(w), interval_(interval), cap_(cap),
          scale_(scale), next_(interval), prevNum_(initialNum()),
          prevDen_(w.den)
    {
    }

    void
    tick(Tick now)
    {
        while (live_ && now >= next_) {
            push(next_, valueAt(next_));
            next_ += interval_;
        }
    }

    void detach() { live_ = false; }

    const std::deque<metrics::Sample> &samples() const { return ring_; }
    std::uint64_t dropped() const { return dropped_; }

  private:
    double
    initialNum() const
    {
        return form_ == Form::Rate ? w_.counter : w_.num;
    }

    double
    valueAt(Tick at)
    {
        switch (form_) {
          case Form::State:
            return w_.level;
          case Form::TickGauge:
            return tickGaugeValue(w_, at);
          case Form::Rate: {
            const double delta = w_.counter - prevNum_;
            prevNum_ = w_.counter;
            return delta / static_cast<double>(interval_) * scale_;
          }
          case Form::Ratio: {
            const double dn = w_.num - prevNum_;
            const double dd = w_.den - prevDen_;
            prevNum_ = w_.num;
            prevDen_ = w_.den;
            return dd != 0 ? dn / dd : 0.0;
          }
        }
        return 0;
    }

    void
    push(Tick at, double v)
    {
        ring_.push_back({at, v});
        if (ring_.size() > cap_) {
            ring_.pop_front();
            ++dropped_;
        }
    }

    Form form_;
    const World &w_;
    Tick interval_;
    std::size_t cap_;
    double scale_;
    Tick next_;
    double prevNum_;
    double prevDen_;
    bool live_ = true;
    std::deque<metrics::Sample> ring_;
    std::uint64_t dropped_ = 0;
};

/** Register @p form on @p g over @p w (the recorder under test). */
void
registerForm(Group &g, Form form, const World &w, double scale)
{
    switch (form) {
      case Form::State:
        g.gauge("state", "", [&w] { return w.level; });
        break;
      case Form::TickGauge:
        g.gauge("tick", "", [&w](Tick t) { return tickGaugeValue(w, t); });
        break;
      case Form::Rate:
        g.rate("rate", "", [&w] { return w.counter; }, scale);
        break;
      case Form::Ratio:
        g.ratio("ratio", "", [&w] { return w.num; },
                [&w] { return w.den; });
        break;
    }
}

/** Bitwise sample-by-sample equality, with a readable failure. */
void
expectSameSeries(const metrics::Series &s, const RefSeries &ref,
                 const std::string &ctx)
{
    const auto got = s.samples();
    const auto &want = ref.samples();
    ASSERT_EQ(got.size(), want.size()) << ctx << " " << s.name();
    ASSERT_EQ(s.sampleCount(), want.size()) << ctx << " " << s.name();
    EXPECT_EQ(s.dropped(), ref.dropped()) << ctx << " " << s.name();
    for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i].tick, want[i].tick)
            << ctx << " " << s.name() << " sample " << i;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].value),
                  std::bit_cast<std::uint64_t>(want[i].value))
            << ctx << " " << s.name() << " sample " << i << ": "
            << got[i].value << " vs " << want[i].value;
    }
    if (!want.empty()) {
        EXPECT_EQ(s.last().tick, want.back().tick) << ctx;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(s.last().value),
                  std::bit_cast<std::uint64_t>(want.back().value))
            << ctx;
    }
}

TEST(MetricsCatchUp, MatchesPerBoundaryReferenceBitForBit)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    // Levels include the values a run merge could get wrong: -0.0
    // next to 0.0, and NaN (never == itself).
    const std::vector<double> levels = {0.0, -0.0, 1.5, nan, 3.0, -7.25};
    const std::vector<Form> forms = {Form::State, Form::TickGauge,
                                     Form::Rate, Form::Ratio};

    for (std::size_t cap : {1u, 2u, 7u, 512u}) {
        for (std::uint64_t seed = 1; seed <= 12; ++seed) {
            std::mt19937_64 rng(seed * 7919 + cap);
            const Tick interval =
                std::vector<Tick>{1, 3, 100, 1000}[seed % 4];
            // A negative scale turns the zero filler into -0.0.
            const double scale = seed % 3 == 0 ? -2.0 : 0.5;
            World w;
            MetricsRecorder rec(interval, cap);
            // Group a lives throughout; group b is detached mid-run
            // with boundaries still pending.
            Group a(&rec, "a");
            std::optional<Group> b;
            b.emplace(&rec, "b");
            std::vector<RefSeries> refs;
            for (Group *g : {&a, &*b}) {
                for (Form f : forms) {
                    registerForm(*g, f, w, scale);
                    refs.emplace_back(f, w, interval, cap, scale);
                }
            }
            const std::size_t per = forms.size();
            const std::string ctx = "cap=" + std::to_string(cap) +
                                    " seed=" + std::to_string(seed);

            Tick now_a = 0, now_b = 0;
            const int steps = 300;
            const int detach_at = static_cast<int>(rng() % steps);
            for (int step = 0; step < steps; ++step) {
                // Mutate the state the closures read.
                switch (rng() % 6) {
                  case 0:
                    w.level = levels[rng() % levels.size()];
                    break;
                  case 1:
                    w.counter += static_cast<double>(rng() % 50);
                    break;
                  case 2:
                    w.num += static_cast<double>(rng() % 3);
                    break; // flat denominator
                  case 3:
                    w.num += static_cast<double>(rng() % 5);
                    w.den += static_cast<double>(1 + rng() % 5);
                    break;
                  default:
                    break;
                }
                if (seed == 5 && step == steps / 2) {
                    w.counter = inf; // inf - inf filler is NaN
                }
                // Advance one component's clock: small steps, long
                // jumps over thousands of boundaries, and restarts.
                Tick &now = rng() % 2 ? now_a : now_b;
                switch (rng() % 5) {
                  case 0:
                    now = now / 3; // clock moves backwards
                    break;
                  case 1:
                    now += interval * (rng() % 4000);
                    break;
                  default:
                    now += rng() % (3 * interval + 1);
                    break;
                }
                if (&now == &now_a) {
                    a.tick(now);
                    for (std::size_t i = 0; i < per; ++i) {
                        refs[i].tick(now);
                    }
                } else if (b) {
                    b->tick(now);
                    for (std::size_t i = per; i < 2 * per; ++i) {
                        refs[i].tick(now);
                    }
                }
                if (step == detach_at) {
                    b.reset();
                    for (std::size_t i = per; i < 2 * per; ++i) {
                        refs[i].detach();
                    }
                }
            }
            ASSERT_EQ(rec.series().size(), refs.size());
            for (std::size_t i = 0; i < refs.size(); ++i) {
                expectSameSeries(rec.series()[i], refs[i], ctx);
            }
        }
    }
}

TEST(MetricsCatchUp, LongJumpCallsEachClosureOncePerTick)
{
    constexpr std::size_t kCap = 64;
    constexpr std::uint64_t kBoundaries = 1'000'000'000;
    MetricsRecorder rec(1000, kCap);
    Group g(&rec, "comp");
    std::uint64_t state_calls = 0, tick_calls = 0, rate_calls = 0,
                  num_calls = 0, den_calls = 0;
    g.gauge("state", "", [&] {
        ++state_calls;
        return 1.0;
    });
    g.gauge("tick", "", [&](Tick t) {
        ++tick_calls;
        return static_cast<double>(t);
    });
    g.rate("rate", "", [&] {
        ++rate_calls;
        return 5.0;
    }, 1.0);
    g.ratio("ratio", "",
            [&] {
                ++num_calls;
                return 2.0;
            },
            [&] {
                ++den_calls;
                return 4.0;
            });
    // Registration primes the counters once.
    rate_calls = num_calls = den_calls = 0;

    g.tick(kBoundaries * 1000);
    EXPECT_EQ(state_calls, 1u);
    EXPECT_EQ(rate_calls, 1u);
    EXPECT_EQ(num_calls, 1u);
    EXPECT_EQ(den_calls, 1u);
    EXPECT_LE(tick_calls, kCap);
    for (const auto &s : rec.series()) {
        EXPECT_EQ(s.sampleCount(), kCap) << s.name();
        EXPECT_EQ(s.dropped(), kBoundaries - kCap) << s.name();
        EXPECT_EQ(s.last().tick, kBoundaries * 1000) << s.name();
    }
    // The tick gauge's retained samples are its real values.
    const auto tail = rec.series()[1].samples();
    EXPECT_EQ(tail.front().tick, (kBoundaries - kCap + 1) * 1000);
    EXPECT_EQ(tail.front().value, static_cast<double>(tail.front().tick));
}

// ------------------------------------------- registration and detach

TEST(Metrics, PrefixesAreUniquifiedLikeTraceTracks)
{
    MetricsRecorder rec;
    Group a(&rec, "cpu.core");
    Group b(&rec, "cpu.core");
    Group c(&rec, "cpu.core");
    a.gauge("ipc", "", [](Tick) { return 0.0; });
    b.gauge("ipc", "", [](Tick) { return 0.0; });
    c.gauge("ipc", "", [](Tick) { return 0.0; });
    EXPECT_EQ(rec.series()[0].name(), "cpu.core.ipc");
    EXPECT_EQ(rec.series()[1].name(), "cpu.core#1.ipc");
    EXPECT_EQ(rec.series()[2].name(), "cpu.core#2.ipc");
}

TEST(Metrics, DestroyedGroupStopsSamplingButKeepsSamples)
{
    MetricsRecorder rec(100);
    {
        Group g(&rec, "comp");
        // The closure references a stack local; detach-on-destroy is
        // what makes this registration pattern safe.
        double local = 5.0;
        g.gauge("x", "", [&local](Tick) { return local; });
        g.tick(100);
    }
    ASSERT_EQ(rec.series().size(), 1u);
    EXPECT_EQ(rec.series()[0].sampleCount(), 1u);
    EXPECT_DOUBLE_EQ(rec.series()[0].samples()[0].value, 5.0);
}

TEST(Metrics, DisabledGroupIsANoOp)
{
    ASSERT_EQ(metrics::current(), nullptr);
    Group g(metrics::current(), "comp");
    EXPECT_FALSE(g.enabled());
    g.gauge("x", "", [](Tick) { return 1.0; });
    g.rate("y", "", [] { return 1.0; }, 1.0);
    g.ratio("z", "", [] { return 1.0; }, [] { return 1.0; });
    g.tick(1'000'000'000);
    SUCCEED(); // nothing registered anywhere, nothing crashed
}

TEST(Metrics, ScopedRecorderInstallsAndRestores)
{
    EXPECT_EQ(metrics::current(), nullptr);
    {
        MetricsRecorder rec;
        ScopedMetrics scope(rec);
        EXPECT_EQ(metrics::current(), &rec);
    }
    EXPECT_EQ(metrics::current(), nullptr);
}

TEST(Metrics, GaugeFromStatBridgesScalarsAndAverages)
{
    stats::StatGroup sg("dev");
    stats::Scalar reads;
    stats::Average lat;
    sg.add("reads", "read count", reads);
    sg.add("lat", "latency", lat);
    reads += 7;
    lat.sample(10);
    lat.sample(20);

    MetricsRecorder rec(100);
    Group g(&rec, "dev");
    g.gaugeFromStat(sg, "reads");
    g.gaugeFromStat(sg, "lat");
    g.tick(100);
    EXPECT_DOUBLE_EQ(rec.series()[0].last().value, 7.0);
    EXPECT_DOUBLE_EQ(rec.series()[1].last().value, 15.0);
}

TEST(Metrics, GaugeFromStatPanicsOnUnknownName)
{
    stats::StatGroup sg("dev");
    MetricsRecorder rec;
    Group g(&rec, "dev");
    EXPECT_DEATH(g.gaugeFromStat(sg, "nope"), "no stat");
}

// ----------------------------------------------------------- exports

TEST(MetricsExport, CsvIsLongFormWithHeader)
{
    MetricsRecorder rec(100);
    Group g(&rec, "comp");
    g.gauge("depth", "", [](Tick t) { return static_cast<double>(t); });
    g.tick(200);

    std::ostringstream ss;
    metrics::writeCsv(ss, {{"pt", &rec}});
    EXPECT_EQ(ss.str(),
              "point,series,kind,tick,value\n"
              "pt,comp.depth,gauge,100,100\n"
              "pt,comp.depth,gauge,200,200\n");
}

TEST(MetricsExport, PromFamiliesAreContiguousAndSanitized)
{
    MetricsRecorder a(100), b(100);
    Group ga(&a, "mem.dram");
    Group gb(&b, "mem.dram");
    ga.gauge("bw", "bandwidth", [](Tick) { return 0.5; });
    gb.gauge("bw", "bandwidth", [](Tick) { return 0.25; });
    ga.tick(100);
    gb.tick(100);

    std::ostringstream ss;
    metrics::writeProm(ss, {{"p1", &a}, {"p2", &b}});
    const std::string doc = ss.str();
    EXPECT_EQ(doc,
              "# HELP cereal_mem_dram_bw bandwidth\n"
              "# TYPE cereal_mem_dram_bw gauge\n"
              "cereal_mem_dram_bw{point=\"p1\",series=\"mem.dram.bw\"}"
              " 0.5 100\n"
              "cereal_mem_dram_bw{point=\"p2\",series=\"mem.dram.bw\"}"
              " 0.25 100\n");
}

TEST(MetricsExport, PromSkipsEmptySeriesAndEscapesLabels)
{
    MetricsRecorder rec(100);
    Group g(&rec, "comp");
    g.gauge("never", "", [](Tick) { return 0.0; });
    std::ostringstream ss;
    metrics::writeProm(ss, {{"quote\"back\\slash", &rec}});
    EXPECT_TRUE(ss.str().empty());

    g.tick(100);
    std::ostringstream ss2;
    metrics::writeProm(ss2, {{"quote\"back\\slash", &rec}});
    EXPECT_NE(ss2.str().find("point=\"quote\\\"back\\\\slash\""),
              std::string::npos);
}

TEST(MetricsExport, PromEscapesBackslashAndNewlineInHelp)
{
    MetricsRecorder rec(100);
    Group g(&rec, "comp");
    g.gauge("x", "a\\b\nc", [] { return 1.0; });
    g.tick(100);
    stats::Distribution d;
    d.sample(1.0);
    g.histogram("h", "p\\q\nr", d);

    std::ostringstream ss;
    metrics::writeProm(ss, {{"pt", &rec}});
    const std::string doc = ss.str();
    EXPECT_NE(doc.find("# HELP cereal_comp_x a\\\\b\\nc\n"),
              std::string::npos)
        << doc;
    EXPECT_NE(doc.find("# HELP cereal_comp_h p\\\\q\\nr\n"),
              std::string::npos)
        << doc;
    // Every line is a comment or a sample: no help text leaked out.
    std::istringstream lines(doc);
    for (std::string line; std::getline(lines, line);) {
        EXPECT_TRUE(line.rfind("# ", 0) == 0 ||
                    line.rfind("cereal_comp_", 0) == 0)
            << line;
    }
}

TEST(MetricsExport, PromNameSanitizesToMetricCharset)
{
    EXPECT_EQ(metrics::promName("mem.dram.ch0.bw_util"),
              "cereal_mem_dram_ch0_bw_util");
    EXPECT_EQ(metrics::promName("cpu.core#1.ipc"),
              "cereal_cpu_core_1_ipc");
}

TEST(MetricsExport, JsonFragmentCarriesSeriesColumns)
{
    MetricsRecorder rec(100);
    Group g(&rec, "comp");
    g.gauge("x", "a help", [](Tick) { return 2.5; });
    g.tick(100);

    std::ostringstream ss;
    json::Writer w(ss, 0);
    w.beginObject();
    rec.writeJson(w);
    w.endObject();
    ASSERT_TRUE(w.balanced());
    const std::string doc = ss.str();
    EXPECT_NE(doc.find("\"interval_ticks\":100"), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"comp.x\""), std::string::npos);
    EXPECT_NE(doc.find("\"kind\":\"gauge\""), std::string::npos);
    EXPECT_NE(doc.find("\"ticks\":[100]"), std::string::npos);
    EXPECT_NE(doc.find("\"values\":[2.5]"), std::string::npos);
}

// ----------------------------------------- sweep-level determinism

/** Figure-10-style two-point sweep with metrics on. */
runner::SweepRunner
runMicroSweep(unsigned threads)
{
    runner::SweepRunner sweep("metrics_unit");
    for (auto mb : {workloads::MicroBench::TreeNarrow,
                    workloads::MicroBench::ListSmall}) {
        sweep.add(workloads::microBenchName(mb), [mb](json::Writer &w) {
            KlassRegistry reg;
            workloads::MicroWorkloads micro(reg);
            Heap src(reg, 0x1'0000'0000ULL);
            Addr root = micro.build(src, mb, 1 << 15, 42);
            auto ser = serde::makeSerializer("kryo", &reg);
            auto ms = workloads::measureSoftware(*ser, src, root);
            auto mc = workloads::measureCereal(src, root);
            w.kv("sw_ser_s", ms.serSeconds);
            w.kv("accel_ser_s", mc.serSeconds);
        });
    }
    sweep.enableMetrics();
    sweep.run(threads);
    return sweep;
}

TEST(SweepMetrics, MicroMetricsAreByteIdenticalAcrossThreadCounts)
{
    auto serial = runMicroSweep(1);
    auto parallel = runMicroSweep(4);

    std::ostringstream cs, cp, ps, pp, js, jp;
    serial.writeMetricsCsv(cs);
    parallel.writeMetricsCsv(cp);
    serial.writeMetricsProm(ps);
    parallel.writeMetricsProm(pp);
    serial.writeJson(js);
    parallel.writeJson(jp);

    EXPECT_FALSE(cs.str().empty());
    EXPECT_EQ(cs.str(), cp.str());
    EXPECT_FALSE(ps.str().empty());
    EXPECT_EQ(ps.str(), pp.str());
    EXPECT_EQ(js.str(), jp.str());

    // The instrumented components all showed up.
    for (const char *needle :
         {"mem.dram.bw_util", "cpu.core.miss_window",
          "cereal.accel.su_busy_frac", "mem.dram.row_hit_rate"}) {
        EXPECT_NE(cs.str().find(needle), std::string::npos)
            << "missing series " << needle;
    }
}

/** Small cluster shuffle sweep with metrics on. */
runner::SweepRunner
runClusterSweep(unsigned threads)
{
    runner::SweepRunner sweep("cluster_metrics_unit");
    for (auto backend :
         {cluster::Backend::Kryo, cluster::Backend::Cereal}) {
        sweep.add(cluster::backendName(backend),
                  [backend](json::Writer &w) {
            cluster::ClusterConfig cfg;
            cfg.nodes = 4;
            cfg.backend = backend;
            cfg.scale = 1 << 20;
            cluster::ClusterSim sim(cfg);
            auto r = sim.runShuffle();
            w.kv("completion_s", r.completionSeconds);
        });
    }
    sweep.enableMetrics();
    sweep.run(threads);
    return sweep;
}

TEST(SweepMetrics, ClusterMetricsAreByteIdenticalAcrossThreadCounts)
{
    auto serial = runClusterSweep(1);
    auto parallel = runClusterSweep(4);

    std::ostringstream cs, cp, ps, pp;
    serial.writeMetricsCsv(cs);
    parallel.writeMetricsCsv(cp);
    serial.writeMetricsProm(ps);
    parallel.writeMetricsProm(pp);
    EXPECT_FALSE(cs.str().empty());
    EXPECT_EQ(cs.str(), cp.str());
    EXPECT_EQ(ps.str(), pp.str());

    for (const char *needle :
         {"cluster.fabric.n0.tx_util", "cluster.n0.queue_len"}) {
        EXPECT_NE(cs.str().find(needle), std::string::npos)
            << "missing series " << needle;
    }
}

TEST(SweepMetrics, MetricsOffInstallsNoAmbientRecorder)
{
    runner::SweepRunner sweep("no_metrics");
    bool ran = false;
    sweep.add("pt", [&ran](json::Writer &w) {
        EXPECT_EQ(metrics::current(), nullptr);
        ran = true;
        w.kv("x", 1);
    });
    sweep.run(1);
    EXPECT_TRUE(ran);
}

// -------------------------------------------------------- golden CSV

/**
 * Pinned golden metrics CSV of a tiny fig10-style run. Regenerate
 * after a deliberate instrumentation/model change with:
 *
 *   CEREAL_UPDATE_GOLDEN=1 ./build/tests/test_metrics \
 *       --gtest_filter='GoldenMetrics.*'
 */
TEST(GoldenMetrics, SmallFig10RunMatchesPinnedCsv)
{
    runner::SweepRunner sweep("fig10_small");
    sweep.add("tree-narrow", [](json::Writer &w) {
        KlassRegistry reg;
        workloads::MicroWorkloads micro(reg);
        Heap src(reg, 0x1'0000'0000ULL);
        Addr root = micro.build(src, workloads::MicroBench::TreeNarrow,
                                1 << 16, 42);
        auto java = serde::makeSerializer("java", &reg);
        auto mj = workloads::measureSoftware(*java, src, root);
        auto mc = workloads::measureCereal(src, root);
        w.kv("java_ser_s", mj.serSeconds);
        w.kv("cereal_ser_s", mc.serSeconds);
    });
    sweep.enableMetrics();
    sweep.run(1);
    std::ostringstream ss;
    sweep.writeMetricsCsv(ss);
    const std::string doc = ss.str();

    const std::string path =
        std::string(CEREAL_GOLDEN_DIR) + "/metrics_fig10_small.csv";
    if (std::getenv("CEREAL_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << doc;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " (generate with CEREAL_UPDATE_GOLDEN=1)";
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(doc, golden.str())
        << "metrics output drifted from the pinned golden CSV; if the "
           "change is deliberate, regenerate with CEREAL_UPDATE_GOLDEN=1";
}

/**
 * Pinned golden of the log-bucketed histogram export: a fixed latency
 * population snapshotted through recordHistogram() and rendered as the
 * Prometheus text exposition plus the JSON fragment. Regenerate after
 * a deliberate ladder/exporter change with:
 *
 *   CEREAL_UPDATE_GOLDEN=1 ./build/tests/test_metrics \
 *       --gtest_filter='GoldenMetrics.*'
 */
TEST(GoldenMetrics, HistogramExportMatchesPinnedGolden)
{
    stats::Distribution lat;
    // Deterministic spread: 1us..~0.8s across the log ladder.
    for (int i = 0; i < 64; ++i) {
        lat.sample(1e-6 * (1 << (i % 20)));
    }
    MetricsRecorder rec(1000);
    rec.recordHistogram("serving.latency_seconds",
                        "end-to-end request latency, log-bucketed",
                        lat);

    std::ostringstream doc;
    metrics::writeProm(doc, {{"golden-pt", &rec}});
    doc << "--- json ---\n";
    {
        json::Writer w(doc, 2);
        w.beginObject();
        rec.writeJson(w); // emits the "metrics" member
        w.endObject();
    }
    doc << "\n";

    const std::string path =
        std::string(CEREAL_GOLDEN_DIR) + "/metrics_histogram.txt";
    if (std::getenv("CEREAL_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << doc.str();
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " (generate with CEREAL_UPDATE_GOLDEN=1)";
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(doc.str(), golden.str())
        << "histogram export drifted from the pinned golden; if the "
           "change is deliberate, regenerate with CEREAL_UPDATE_GOLDEN=1";
}

} // namespace
} // namespace cereal
