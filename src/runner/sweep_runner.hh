/**
 * @file
 * Parallel experiment-sweep execution with deterministic output.
 *
 * A SweepRunner holds an ordered list of named experiment points. Each
 * point is a closure that builds its *own* simulation context (klass
 * registry, heap, DDR4, cores, accelerator — nothing shared) from
 * explicit seeds, so points are independent and can execute on any
 * thread in any order. Results — both the numbers a bench prints and
 * the JSON fragment a point emits — land in slots indexed by
 * registration order, so an N-thread run is bit-identical to a serial
 * run (tested in test_runner.cc and by the bench-level ctest
 * comparisons).
 *
 * writeJson() renders the stable `BENCH_<name>.json` document:
 *
 *   {
 *     "schema": "cereal-bench-v1",
 *     "bench": "<name>",
 *     "config": { ...header kv... },
 *     "points": [ {"name": ..., <point fields>}, ... ],
 *     "summary": { ...optional cross-point aggregates... }
 *   }
 *
 * Deliberately absent: thread count, timestamps, host info — anything
 * that would make equal experiments produce unequal bytes.
 */

#ifndef CEREAL_RUNNER_SWEEP_RUNNER_HH
#define CEREAL_RUNNER_SWEEP_RUNNER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "metrics/metrics.hh"
#include "sim/json.hh"
#include "trace/chrome_trace.hh"

namespace cereal {
namespace runner {

/** One member of the top-level "config" object. */
struct ConfigKv
{
    std::string key;
    std::uint64_t value;
};

class SweepRunner
{
  public:
    /**
     * A point writes its JSON fields into an already-open object (the
     * runner supplies the "name" member; the point must leave the
     * writer balanced at the same depth it got it).
     */
    using PointFn = std::function<void(json::Writer &)>;

    explicit SweepRunner(std::string bench_name)
        : benchName_(std::move(bench_name))
    {
    }

    /** Register one point; executes in registration order slots. */
    void
    add(std::string point_name, PointFn fn)
    {
        points_.push_back({std::move(point_name), std::move(fn)});
    }

    /**
     * Execute every point. @p threads <= 1 runs serially on the
     * calling thread (the reference behaviour); otherwise
     * min(@p threads, points) worker threads claim points by index
     * until none are left. A point that panics aborts the process
     * (panic() calls std::abort()). The first exception a point throws
     * stops the remaining points from starting and propagates out of
     * run() after every worker has stopped.
     *
     * May be called once per runner instance.
     */
    void run(unsigned threads);

    /**
     * Record a trace of every point. Must be called before run():
     * each point gets its own trace::ChromeTraceSink installed as the
     * ambient trace root (trace::ScopedTrace) for the point's
     * duration, so every instrumented component under the point emits
     * into the point's own sink. Sinks live in registration-order
     * slots; the merged document is therefore byte-identical across
     * thread counts, like the JSON.
     */
    void enableTrace() { traceEnabled_ = true; }

    /**
     * Record time-series metrics for every point. Must be called
     * before run(): each point gets its own metrics::MetricsRecorder
     * installed as the ambient recorder (metrics::ScopedMetrics) for
     * the point's duration, and the recorded series are embedded as a
     * "metrics" member of the point's JSON object. Recorders live in
     * registration-order slots, so all metrics documents are
     * byte-identical across thread counts, like the JSON and traces.
     *
     * @param interval sampling interval in ticks (0 -> the recorder
     *        default of 1 us simulated time)
     */
    void enableMetrics(Tick interval = 0);

    /** Merged long-form CSV document over all points. */
    void writeMetricsCsv(std::ostream &os) const;

    /** Merged Prometheus text exposition over all points. */
    void writeMetricsProm(std::ostream &os) const;

    /**
     * Write the merged metrics to @p path ("" -> no-op, "-" -> stdout
     * as Prometheus text). A ".csv" suffix selects CSV, anything else
     * the Prometheus exposition. Returns the path written.
     */
    std::string writeMetricsFile(const std::string &path) const;

    /** Render the merged Chrome trace_event document. */
    void writeTrace(std::ostream &os) const;

    /**
     * Write the Chrome trace to @p path ("" -> no-op, "-" -> stdout).
     * Returns the path written.
     */
    std::string writeTraceFile(const std::string &path) const;

    /** Compact per-point self-time summary (see trace::selfTimes). */
    void writeTraceSummary(std::ostream &os) const;

    /**
     * Install a closure that writes cross-point aggregate members into
     * the top-level "summary" object. Runs after all points, on the
     * calling thread.
     */
    void
    setSummary(PointFn fn)
    {
        summary_ = std::move(fn);
    }

    /** Render the whole document to @p os. */
    void writeJson(std::ostream &os,
                   const std::vector<ConfigKv> &config = {}) const;

    /**
     * Write `BENCH_<bench>.json` to @p path ("" -> no-op, "-" ->
     * stdout). Returns the resolved path actually written.
     */
    std::string writeJsonFile(const std::string &path,
                              const std::vector<ConfigKv> &config = {}) const;

  private:
    struct Point
    {
        std::string name;
        PointFn fn;
    };

    std::vector<trace::TracePoint> tracePoints() const;
    std::vector<metrics::MetricsPoint> metricsPoints() const;

    std::string benchName_;
    std::vector<Point> points_;
    std::vector<std::string> pointJson_;
    std::vector<std::unique_ptr<trace::ChromeTraceSink>> pointTrace_;
    std::vector<std::unique_ptr<metrics::MetricsRecorder>> pointMetrics_;
    PointFn summary_;
    bool traceEnabled_ = false;
    bool metricsEnabled_ = false;
    Tick metricsInterval_ = 0;
    bool ran_ = false;
};

} // namespace runner
} // namespace cereal

#endif // CEREAL_RUNNER_SWEEP_RUNNER_HH
