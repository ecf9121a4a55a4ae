#include "runner/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "sim/logging.hh"

namespace cereal {
namespace runner {

namespace {

/** Depth of a point fragment inside the final document. */
constexpr std::size_t kPointDepth = 2;

/**
 * Render into @p path through @p render: "" is a no-op, "-" is stdout,
 * anything else a file that must open and flush cleanly. Returns the
 * path written ("" when nothing was).
 */
template <typename Render>
std::string
writeOutput(const std::string &path, Render &&render)
{
    if (path.empty()) {
        return "";
    }
    if (path == "-") {
        render(std::cout);
        return path;
    }
    std::ofstream os(path, std::ios::binary);
    fatal_if(!os, "cannot open %s for writing", path.c_str());
    render(os);
    os.flush();
    fatal_if(!os, "write to %s failed", path.c_str());
    return path;
}

} // namespace

void
SweepRunner::run(unsigned threads)
{
    panic_if(ran_, "SweepRunner::run() called twice");
    ran_ = true;
    pointJson_.resize(points_.size());
    if (traceEnabled_) {
        pointTrace_.resize(points_.size());
    }
    if (metricsEnabled_) {
        pointMetrics_.resize(points_.size());
    }

    auto run_point = [this](std::size_t i) {
        std::unique_ptr<trace::ScopedTrace> scope;
        if (traceEnabled_) {
            pointTrace_[i] = std::make_unique<trace::ChromeTraceSink>();
            scope = std::make_unique<trace::ScopedTrace>(*pointTrace_[i]);
        }
        std::unique_ptr<metrics::ScopedMetrics> mscope;
        if (metricsEnabled_) {
            pointMetrics_[i] = std::make_unique<metrics::MetricsRecorder>(
                metricsInterval_ ? metricsInterval_
                                 : metrics::MetricsRecorder::kDefaultInterval);
            mscope =
                std::make_unique<metrics::ScopedMetrics>(*pointMetrics_[i]);
        }
        std::ostringstream ss;
        json::Writer w(ss, 2, kPointDepth);
        w.beginObject();
        w.kv("name", points_[i].name);
        points_[i].fn(w);
        if (metricsEnabled_) {
            pointMetrics_[i]->writeJson(w);
        }
        w.endObject();
        panic_if(!w.balanced(),
                 "sweep point '%s' left the JSON writer unbalanced",
                 points_[i].name.c_str());
        pointJson_[i] = ss.str();
    };

    // Points are independent and write only their own slots, so a
    // worker just claims the next unrun index until none are left. The
    // first exception a point throws stops further claims and is
    // rethrown once every worker has stopped.
    std::atomic<std::size_t> next{0};
    std::mutex failureMutex;
    std::exception_ptr failure;
    auto work = [&] {
        try {
            for (std::size_t i; (i = next.fetch_add(1)) < points_.size();) {
                run_point(i);
            }
        } catch (...) {
            next.store(points_.size());
            std::lock_guard<std::mutex> lk(failureMutex);
            if (!failure) {
                failure = std::current_exception();
            }
        }
    };
    if (threads <= 1 || points_.size() <= 1) {
        work();
    } else {
        // std::jthread joins on destruction, on every path out.
        std::vector<std::jthread> workers;
        const std::size_t n = std::min<std::size_t>(threads, points_.size());
        for (std::size_t t = 0; t < n; ++t) {
            workers.emplace_back(work);
        }
    }
    if (failure) {
        std::rethrow_exception(failure);
    }
}

void
SweepRunner::writeJson(std::ostream &os,
                       const std::vector<ConfigKv> &config) const
{
    panic_if(!ran_, "writeJson() before run()");
    json::Writer w(os, 2);
    w.beginObject();
    w.kv("schema", "cereal-bench-v1");
    w.kv("bench", benchName_);
    w.key("config");
    w.beginObject();
    for (const auto &kv : config) {
        w.kv(kv.key, kv.value);
    }
    w.endObject();
    w.key("points");
    w.beginArray();
    for (const auto &frag : pointJson_) {
        w.raw(frag);
    }
    w.endArray();
    if (summary_) {
        w.key("summary");
        w.beginObject();
        summary_(w);
        w.endObject();
    }
    w.endObject();
    panic_if(!w.balanced(), "summary writer left document unbalanced");
    os << "\n";
}

std::vector<trace::TracePoint>
SweepRunner::tracePoints() const
{
    panic_if(!ran_ || !traceEnabled_,
             "trace output needs enableTrace() before run()");
    std::vector<trace::TracePoint> pts;
    pts.reserve(points_.size());
    for (std::size_t i = 0; i < points_.size(); ++i) {
        pts.push_back({points_[i].name, pointTrace_[i].get()});
    }
    return pts;
}

void
SweepRunner::writeTrace(std::ostream &os) const
{
    trace::writeChromeTrace(os, tracePoints());
}

std::string
SweepRunner::writeTraceFile(const std::string &path) const
{
    return writeOutput(path, [this](std::ostream &os) { writeTrace(os); });
}

void
SweepRunner::writeTraceSummary(std::ostream &os) const
{
    trace::writeSelfTimeSummary(os, tracePoints());
}

void
SweepRunner::enableMetrics(Tick interval)
{
    panic_if(ran_, "enableMetrics() after run()");
    metricsEnabled_ = true;
    metricsInterval_ = interval;
}

std::vector<metrics::MetricsPoint>
SweepRunner::metricsPoints() const
{
    panic_if(!ran_ || !metricsEnabled_,
             "metrics output needs enableMetrics() before run()");
    std::vector<metrics::MetricsPoint> pts;
    pts.reserve(points_.size());
    for (std::size_t i = 0; i < points_.size(); ++i) {
        pts.push_back({points_[i].name, pointMetrics_[i].get()});
    }
    return pts;
}

void
SweepRunner::writeMetricsCsv(std::ostream &os) const
{
    metrics::writeCsv(os, metricsPoints());
}

void
SweepRunner::writeMetricsProm(std::ostream &os) const
{
    metrics::writeProm(os, metricsPoints());
}

std::string
SweepRunner::writeMetricsFile(const std::string &path) const
{
    const bool csv = path.size() >= 4 &&
                     path.compare(path.size() - 4, 4, ".csv") == 0;
    return writeOutput(path, [this, csv](std::ostream &os) {
        if (csv) {
            writeMetricsCsv(os);
        } else {
            writeMetricsProm(os);
        }
    });
}

std::string
SweepRunner::writeJsonFile(const std::string &path,
                           const std::vector<ConfigKv> &config) const
{
    return writeOutput(path, [&](std::ostream &os) { writeJson(os, config); });
}

} // namespace runner
} // namespace cereal
