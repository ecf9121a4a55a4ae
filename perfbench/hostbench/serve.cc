#include "hostbench/serve.hh"

#include <streambuf>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/serving.hh"
#include "load/load_gen.hh"
#include "load/load_shape.hh"
#include "metrics/metrics.hh"
#include "trace/chrome_trace.hh"
#include "trace/trace.hh"

namespace hostbench {

using namespace cereal;
using namespace cereal::cluster;

bool
arrivalsMatch(std::uint64_t arrivals, std::uint64_t requests)
{
    return arrivals == requests;
}

namespace {

constexpr unsigned kNodes = 4;
/** Admission queue bound and credit window of bench_serving_knee. */
constexpr unsigned kQueueBound = 8;
constexpr unsigned kCreditWindow = 2;
/** Request-timeline sampling of the observed points (--trace-sample). */
constexpr double kObservedTraceSample = 0.01;

enum class Kind
{
    Open,
    Ctl,
    Flash,
};

const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::Open:
        return "open";
      case Kind::Ctl:
        return "ctl";
      case Kind::Flash:
        return "flash";
    }
    return "?";
}

struct Point
{
    /** Index of the point's backend in the workload's ClusterSims. */
    std::size_t sim = 0;
    Kind kind = Kind::Open;
    unsigned loadPct = 50;
    std::string name;
};

ServingConfig
servingConfig(const Point &pt, std::uint64_t requests_per_node,
              double trace_sample)
{
    ServingConfig cfg;
    cfg.utilization = pt.loadPct / 100.0;
    cfg.requestsPerNode = requests_per_node;
    cfg.reqTrace.sampleRate = trace_sample;
    if (pt.kind == Kind::Open) {
        cfg.admission.policy = AdmissionPolicy::None;
        cfg.flow.enabled = false;
    } else {
        cfg.admission.policy = AdmissionPolicy::Drop;
        cfg.admission.queueBound = kQueueBound;
        cfg.flow.enabled = true;
        cfg.flow.window = kCreditWindow;
    }
    if (pt.kind == Kind::Flash) {
        cfg.shape = load::LoadShape::flashCrowd(4.0, 0.5, 0.1);
    }
    return cfg;
}

std::uint64_t
refused(const ServingFrontendResult &r)
{
    return r.dropped + r.shed + r.rejected;
}

/** The unit's own check: nothing lost, timelines and credits conserved. */
bool
servingOk(const Point &pt, const ServingFrontendResult &r)
{
    return r.reqTrace.conserved && r.requests == r.completed + refused(r) &&
           (pt.kind == Kind::Open || r.creditsConserved);
}

void
digestServing(Digest &d, const ServingFrontendResult &r)
{
    for (double v : {r.offeredRps, r.goodputRps, r.dropRate,
                     r.durationSeconds, r.recoverSeconds, r.latency.mean,
                     r.latency.min, r.latency.max, r.latency.p50,
                     r.latency.p95, r.latency.p99, r.latency.p999}) {
        d.addF64(v);
    }
    for (std::uint64_t v :
         {r.requests, r.admitted, r.completed, r.dropped, r.shed,
          r.rejected, r.latency.count, r.creditsIssued, r.creditsReturned,
          r.maxAdmissionOccupancy, r.maxWorkerQueue, r.maxStalledFrames,
          r.reqTrace.requests, r.reqTrace.sampled,
          r.reqTrace.endToEndTotal}) {
        d.addU64(v);
    }
    d.addBool(r.creditsConserved);
    d.addBool(r.reqTrace.conserved);
}

/** Discards what is written to it and counts the bytes. */
class ByteCounter : public std::streambuf
{
  public:
    ByteCounter() { setp(buf_, buf_ + sizeof buf_); }

    std::uint64_t
    bytes() const
    {
        return n_ + static_cast<std::uint64_t>(pptr() - pbase());
    }

  protected:
    int_type
    overflow(int_type c) override
    {
        n_ += static_cast<std::uint64_t>(pptr() - pbase());
        setp(buf_, buf_ + sizeof buf_);
        if (!traits_type::eq_int_type(c, traits_type::eof())) {
            *pptr() = traits_type::to_char_type(c);
            pbump(1);
        }
        return traits_type::not_eof(c);
    }

  private:
    char buf_[1 << 16];
    std::uint64_t n_ = 0;
};

/** Bytes of the CSV export of @p rec (every retained sample). */
std::uint64_t
exportMetrics(const metrics::MetricsRecorder &rec, const std::string &point)
{
    ByteCounter counter;
    std::ostream os(&counter);
    metrics::writeCsv(os, {{point, &rec}});
    os.flush();
    return counter.bytes();
}

/** Bytes of the Chrome trace_event export of @p sink. */
std::uint64_t
exportTrace(const trace::ChromeTraceSink &sink, const std::string &point)
{
    ByteCounter counter;
    std::ostream os(&counter);
    trace::writeChromeTrace(os, {{point, &sink}});
    os.flush();
    return counter.bytes();
}

std::uint64_t
metricSamples(const metrics::MetricsRecorder &rec)
{
    std::uint64_t n = 0;
    for (const auto &s : rec.series()) {
        n += s.sampleCount() + s.dropped();
    }
    return n;
}

class Serve : public Workload
{
  public:
    Serve(const ServeParams &p, bool observed) : p_(p), observed_(observed)
    {
        if (observed_) {
            // Few points: an observed run costs about 100x a bare one.
            backends_ = {Backend::Java, Backend::Cereal};
            for (std::size_t i = 0; i < backends_.size(); ++i) {
                addPoint(i, Kind::Ctl, 95);
            }
        } else {
            backends_ = allBackends();
            for (std::size_t i = 0; i < backends_.size(); ++i) {
                for (Kind k : {Kind::Open, Kind::Ctl}) {
                    for (unsigned pct : {50u, 95u, 200u}) {
                        addPoint(i, k, pct);
                    }
                }
                addPoint(i, Kind::Flash, 70);
            }
        }
    }

    void
    setup(std::uint64_t seed, bool keep, SpanLog &spans) override
    {
        std::vector<std::unique_ptr<ClusterSim>> sims;
        for (Backend b : backends_) {
            SpanScope s(spans, "cluster.profile");
            ClusterConfig cfg;
            cfg.nodes = kNodes;
            cfg.backend = b;
            cfg.scale = p_.scale;
            cfg.seed = seed;
            sims.push_back(std::make_unique<ClusterSim>(cfg));
        }
        if (keep) {
            sims_ = std::move(sims);
        }
    }

    std::uint64_t
    workItemsPerPass() const override
    {
        return points_.size() * kNodes * p_.requestsPerNode;
    }

    void
    pass(Pass &p) override
    {
        for (const Point &pt : points_) {
            const ClusterSim &sim = *sims_[pt.sim];
            ServingFrontendResult r;
            Digest d;
            p.timed(pt.name, [&] {
                if (!observed_) {
                    SpanScope call(p.spans, "cluster.serve");
                    r = runServingFrontend(
                        sim, servingConfig(pt, p_.requestsPerNode, 1.0));
                } else {
                    metrics::MetricsRecorder rec;
                    trace::ChromeTraceSink sink;
                    {
                        metrics::ScopedMetrics sm(rec);
                        trace::ScopedTrace st(sink);
                        SpanScope call(p.spans, "cluster.serve");
                        r = runServingFrontend(
                            sim, servingConfig(pt, p_.requestsPerNode,
                                               kObservedTraceSample));
                    }
                    {
                        SpanScope s(p.spans, "metrics.export");
                        d.addU64(exportMetrics(rec, pt.name));
                    }
                    {
                        SpanScope s(p.spans, "trace.export");
                        d.addU64(exportTrace(sink, pt.name));
                    }
                    d.addU64(metricSamples(rec));
                    d.addU64(sink.events().size());
                }
            });
            digestServing(d, r);
            p.unitDone(pt.name, servingOk(pt, r), d);
        }
    }

    void
    ledger(RunResult &r) override
    {
        r.metrics.set("cluster.profile_s", r.metrics.find("setup_s")->value,
                      "s");
        if (observed_) {
            observedLedger(r);
        } else {
            mixLedger(r);
        }
    }

  private:
    void
    addPoint(std::size_t sim, Kind k, unsigned pct)
    {
        const Backend b = backends_[sim];
        Point pt;
        pt.sim = sim;
        pt.kind = k;
        pt.loadPct = pct;
        pt.name = std::string(backendName(b)) + "-" + kindName(k) + "-u" +
                  std::to_string(pct);
        points_.push_back(pt);
    }

    void
    mixLedger(RunResult &r)
    {
        SpanLog &spans = r.spans;
        const std::size_t from = spans.spans().size();
        std::uint64_t requests = 0, completed = 0, refused_n = 0;
        std::uint64_t arrivals = 0;
        for (const Point &pt : points_) {
            SpanScope unit(spans, "unit.ledger." + pt.name);
            const ClusterSim &sim = *sims_[pt.sim];
            const ServingConfig cfg =
                servingConfig(pt, p_.requestsPerNode, 1.0);
            ServingFrontendResult res;
            {
                SpanScope s(spans, std::string("cluster.") + kindName(pt.kind));
                res = runServingFrontend(sim, cfg);
            }
            requests += res.requests;
            completed += res.completed;
            refused_n += refused(res);

            // The arrival streams runServingFrontend draws internally,
            // from the same config it builds.
            load::LoadGenConfig lg;
            lg.nodes = sim.config().nodes;
            lg.lambdaBase = cfg.utilization * sim.nodeCapacityRps();
            lg.requestsPerNode = cfg.requestsPerNode;
            lg.clientsPerNode = cfg.clientsPerNode;
            lg.shape = cfg.shape;
            lg.seed = sim.config().seed;
            std::uint64_t drawn = 0;
            {
                SpanScope s(spans, "load.gen");
                load::LoadGenerator gen(lg);
                for (std::uint32_t o = 0; o < lg.nodes; ++o) {
                    drawn += gen.arrivalsFor(o).size();
                }
            }
            arrivals += drawn;
            r.checks.record(arrivalsMatch(drawn, res.requests),
                            "ledger " + pt.name +
                                " load.arrivals == cluster.requests");
        }
        MetricSet &m = r.metrics;
        const double open = spans.total("cluster.open", from);
        const double ctl = spans.total("cluster.ctl", from);
        const double flash = spans.total("cluster.flash", from);
        m.set("cluster.open_s", open, "s");
        m.set("cluster.ctl_s", ctl, "s");
        m.set("cluster.flash_s", flash, "s");
        m.set("cluster.host_us_per_req",
              (open + ctl + flash) / static_cast<double>(requests) * 1e6,
              "us");
        m.set("cluster.requests", static_cast<double>(requests), "count");
        m.set("cluster.completed", static_cast<double>(completed), "count");
        m.set("cluster.refused", static_cast<double>(refused_n), "count");
        m.set("cluster.goodput_ratio",
              static_cast<double>(completed) / static_cast<double>(requests),
              "ratio");
        m.set("load.gen_s", spans.total("load.gen", from), "s");
        m.set("load.arrivals", static_cast<double>(arrivals), "count");
    }

    void
    observedLedger(RunResult &r)
    {
        SpanLog &spans = r.spans;
        const std::size_t from = spans.spans().size();
        std::uint64_t samples = 0, metric_bytes = 0;
        std::uint64_t events = 0, trace_bytes = 0;
        for (const Point &pt : points_) {
            SpanScope unit(spans, "unit.ledger." + pt.name);
            const ClusterSim &sim = *sims_[pt.sim];
            const ServingConfig cfg = servingConfig(pt, p_.requestsPerNode,
                                                    kObservedTraceSample);
            {
                SpanScope s(spans, "cluster.serve");
                runServingFrontend(sim, cfg);
            }
            {
                metrics::MetricsRecorder rec;
                {
                    metrics::ScopedMetrics sm(rec);
                    SpanScope s(spans, "metrics.serve");
                    runServingFrontend(sim, cfg);
                }
                samples += metricSamples(rec);
                SpanScope s(spans, "metrics.export");
                metric_bytes += exportMetrics(rec, pt.name);
            }
            {
                trace::ChromeTraceSink sink;
                {
                    trace::ScopedTrace st(sink);
                    SpanScope s(spans, "trace.serve");
                    runServingFrontend(sim, cfg);
                }
                events += sink.events().size();
                SpanScope s(spans, "trace.export");
                trace_bytes += exportTrace(sink, pt.name);
            }
        }
        MetricSet &m = r.metrics;
        const double bare = spans.total("cluster.serve", from);
        const double ms = spans.total("metrics.serve", from);
        const double ts = spans.total("trace.serve", from);
        m.set("metrics.serve_s", ms, "s");
        m.set("metrics.overhead_x", ms / bare, "x");
        m.set("metrics.samples", static_cast<double>(samples), "count");
        m.set("metrics.export_s", spans.total("metrics.export", from), "s");
        m.set("metrics.export_bytes", static_cast<double>(metric_bytes),
              "bytes");
        m.set("trace.serve_s", ts, "s");
        m.set("trace.overhead_x", ts / bare, "x");
        m.set("trace.events", static_cast<double>(events), "count");
        m.set("trace.export_s", spans.total("trace.export", from), "s");
        m.set("trace.export_bytes", static_cast<double>(trace_bytes),
              "bytes");
    }

    ServeParams p_;
    bool observed_;
    std::vector<Backend> backends_;
    std::vector<Point> points_;
    std::vector<std::unique_ptr<ClusterSim>> sims_;
};

} // namespace

std::unique_ptr<Workload>
makeServeMix(const ServeParams &params)
{
    return std::make_unique<Serve>(params, false);
}

std::unique_ptr<Workload>
makeServeObserved(const ServeParams &params)
{
    return std::make_unique<Serve>(params, true);
}

} // namespace hostbench
