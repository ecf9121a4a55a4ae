/**
 * @file
 * Cycle-driven time-series metrics layer.
 *
 * Traces (src/trace) answer "where did the cycles go" one event at a
 * time; each component's own counters answer "how much in total". This
 * layer answers the question in between: *what was the value at cycle
 * N* — DRAM bandwidth utilization, miss-window occupancy, SU busy
 * fraction, fabric queue depth — sampled on a fixed tick interval into
 * bounded, deterministic time series.
 *
 * Model:
 *
 *  - A MetricsRecorder owns an ordered registry of Series. Each series
 *    is one of three kinds:
 *      gauge: value = fn() or fn(t)                (queue depths)
 *      rate:  value = d(fn)/dt_ticks * scale       (bandwidth, busy
 *                                                   fractions)
 *      ratio: value = d(num)/d(den) over the tick  (hit rates, stall
 *                                                   fractions)
 *  - Components register series through a Group — an RAII handle that
 *    prefixes names ("mem.dram", "cpu.core", ...), uniquifies repeated
 *    prefixes ("cpu.core", "cpu.core#1", ...) the way trace tracks do,
 *    and detaches its series when the component dies (the recorded
 *    samples stay; sampling stops).
 *  - Sampling is driven by the component's own clock: Group::tick(now)
 *    records each of the group's series at every interval boundary the
 *    clock has crossed. Components in this codebase restart local
 *    clocks at tick 0 per measurement, so a per-series time base (not
 *    a global one) is the only scheme under which every component gets
 *    sampled.
 *  - Catch-up is run-length. A component's state is frozen between two
 *    of its tick() calls, so the k boundaries one call crosses hold one
 *    value for a state gauge, and the first-boundary delta followed by
 *    k-1 zero deltas for a rate or ratio. Series store runs of equal
 *    samples, and one tick() costs O(1) closure calls per series no
 *    matter how far the clock jumped. The exception is a gauge over
 *    the boundary tick itself (fn(t)): it is evaluated at each crossed
 *    boundary that stays retained, at most the series capacity.
 *
 * Determinism contract (same as tracing): a recorder is single-threaded
 * and owned by one sweep point; registration happens in program order;
 * samples depend only on simulated time. An N-thread bench run
 * therefore produces byte-identical metrics documents to a serial run
 * (runner::SweepRunner keeps per-point recorders in registration-order
 * slots).
 *
 * Exports: compact JSON (embedded in `BENCH_<name>.json` points), CSV
 * (long form: point,series,kind,tick,value) and the Prometheus text
 * exposition format (one family per series, last sample per series,
 * `point`/`series` labels; the timestamp column carries simulated
 * ticks).
 */

#ifndef CEREAL_METRICS_METRICS_HH
#define CEREAL_METRICS_METRICS_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace cereal {
namespace json {
class Writer;
} // namespace json
} // namespace cereal

namespace cereal {
namespace metrics {

/** One (tick, value) observation. */
struct Sample
{
    Tick tick;
    double value;
};

/**
 * State gauge: reads component state only, so it is called once per
 * tick() and its value holds for every boundary that call crossed.
 */
using GaugeFn = std::function<double()>;
/**
 * Tick gauge: a function of the boundary tick it is sampled at (e.g. a
 * bus's free-at time relative to that boundary). Called once per
 * retained boundary.
 */
using TickGaugeFn = std::function<double(Tick)>;
/** Cumulative-counter closure for rates/ratios. */
using CounterFn = std::function<double()>;

/** Kind discriminator for registered series. */
enum class Kind { Gauge, Rate, Ratio };

/** "gauge" / "rate" / "ratio". */
const char *kindName(Kind k);

/**
 * One registered time series. The closures are only invoked while the
 * owning Group is alive; after detach the recorded samples remain.
 */
class Series
{
  public:
    Series(std::string name, std::string help, Kind kind,
           std::size_t max_samples, Tick interval);

    const std::string &name() const { return name_; }
    const std::string &help() const { return help_; }
    Kind kind() const { return kind_; }

    /** Retained samples in time order (oldest first). */
    std::vector<Sample> samples() const;

    /** Number of samples currently retained. */
    std::size_t sampleCount() const { return count_; }

    /** Samples dropped from the front to keep the capacity bound. */
    std::uint64_t dropped() const { return dropped_; }

    /** Last retained sample; sampleCount() must be > 0. */
    Sample last() const;

  private:
    friend class MetricsRecorder;

    /** @p count consecutive boundaries from @p first, all valued @p v. */
    struct Run
    {
        Tick first;
        std::uint64_t count;
        double value;
    };

    /** Record every boundary in (last boundary, @p now]. */
    void catchUp(Tick now);

    /** Append a run, then trim the front back to the capacity. */
    void append(Tick first, std::uint64_t count, double v);

    std::string name_;
    std::string help_;
    Kind kind_;

    /** Live closures; cleared on detach. */
    GaugeFn gauge_;
    TickGaugeFn tickGauge_;
    CounterFn num_;
    CounterFn den_;
    /** Rate scaling applied to the per-tick delta. */
    double scale_ = 1.0;
    /** Counter values at the previous boundary. */
    double prevNum_ = 0;
    double prevDen_ = 0;

    /** Next boundary this series samples at. */
    Tick next_;
    Tick interval_;
    bool live_ = true;

    /** Retained samples as runs; at most capacity_ samples in total. */
    std::deque<Run> runs_;
    std::size_t capacity_;
    std::size_t count_ = 0;
    std::uint64_t dropped_ = 0;
};

class Group;

/**
 * An end-of-run copy of a latency population's log-bucketed histogram.
 *
 * Unlike Series, a snapshot holds data by value: the source
 * stats::Distribution may die with its component before export, and a
 * closure over it would dangle. recordHistogram() copies the bucket
 * counts at call time instead.
 */
struct HistogramSnapshot
{
    std::string name;
    std::string help;
    /** Bucket upper bounds (stats::logBucketBounds()). */
    std::vector<double> bounds;
    /** Cumulative counts at or below each bound. */
    std::vector<std::uint64_t> counts;
    double sum = 0;
    std::uint64_t count = 0;
};

/**
 * The per-sweep-point metrics registry and sample store.
 *
 * Single-threaded; owned by the harness (runner::SweepRunner allocates
 * one per point). Components reach the ambient recorder via current().
 */
class MetricsRecorder
{
  public:
    /** Default sampling interval: 1 us of simulated time. */
    static constexpr Tick kDefaultInterval = 1'000'000;
    /** Default per-series capacity in retained samples. */
    static constexpr std::size_t kDefaultMaxSamples = 512;

    explicit MetricsRecorder(Tick interval = kDefaultInterval,
                             std::size_t max_samples = kDefaultMaxSamples);

    Tick interval() const { return interval_; }
    std::size_t maxSamples() const { return maxSamples_; }

    /** Registered series in registration order. */
    const std::vector<Series> &series() const { return series_; }

    /**
     * Snapshot @p d as a log-bucketed histogram named @p name. Copies
     * the bucket counts now — call at end of run, after the population
     * is complete; the distribution need not outlive the recorder.
     */
    void recordHistogram(const std::string &name, const std::string &help,
                         const stats::Distribution &d);

    /** Recorded histogram snapshots in record order. */
    const std::vector<HistogramSnapshot> &histograms() const
    {
        return histograms_;
    }

    /**
     * Uniquify @p prefix against every prefix handed out so far: first
     * use returns it verbatim, later uses get "#1", "#2", ... appended
     * (the trace::uniqueTrack convention).
     */
    std::string uniquePrefix(const std::string &prefix);

    /**
     * Emit a "metrics" fragment as one member of the currently open
     * JSON object: interval plus every series with its sample columns.
     */
    void writeJson(json::Writer &w) const;

    /** Long-form CSV rows (no header): point,series,kind,tick,value. */
    void writeCsvRows(std::ostream &os, const std::string &point) const;

    /** CSV header line matching writeCsvRows(). */
    static void writeCsvHeader(std::ostream &os);

  private:
    friend class Group;

    std::size_t addGauge(std::string name, std::string help, GaugeFn fn);
    std::size_t addGauge(std::string name, std::string help,
                         TickGaugeFn fn);
    std::size_t addRate(std::string name, std::string help, CounterFn fn,
                        double scale);
    std::size_t addRatio(std::string name, std::string help, CounterFn num,
                         CounterFn den);
    void detach(const std::vector<std::size_t> &ids);
    void tickSeries(const std::vector<std::size_t> &ids, Tick now);

    Tick interval_;
    std::size_t maxSamples_;
    std::vector<Series> series_;
    std::vector<HistogramSnapshot> histograms_;
    /** prefix -> times handed out, for uniquePrefix(). */
    std::vector<std::pair<std::string, unsigned>> prefixes_;
};

/**
 * A component's registration handle: a (recorder, prefix) pair owning
 * the series ids it registered. Default-constructed == disabled; every
 * operation on a disabled group is a no-op costing one branch, so
 * instrumented components pay nothing when metrics are off.
 *
 * Destroying the group detaches its series (closures are dropped,
 * samples stay) — components register closures over their own members,
 * and this is what makes that safe.
 */
class Group
{
  public:
    Group() = default;

    /** Register under recorder @p r with uniquified @p prefix. */
    Group(MetricsRecorder *r, const std::string &prefix);

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;
    Group(Group &&other) noexcept;
    Group &operator=(Group &&other) noexcept;
    ~Group();

    bool enabled() const { return rec_ != nullptr; }
    const std::string &prefix() const { return prefix_; }

    /** Register "<prefix>.<name>" sampling state gauge @p fn. */
    void gauge(const char *name, const char *help, GaugeFn fn);

    /** Register "<prefix>.<name>" sampling @p fn at each boundary tick. */
    void gauge(const char *name, const char *help, TickGaugeFn fn);

    /**
     * Register a rate over cumulative counter @p fn: each sample is
     * (delta since previous boundary) / interval_ticks * @p scale.
     * scale = kTicksPerSecond yields a per-second rate.
     */
    void rate(const char *name, const char *help, CounterFn fn,
              double scale);

    /** Register delta(num)/delta(den) per interval (0 when den flat). */
    void ratio(const char *name, const char *help, CounterFn num,
               CounterFn den);

    /** recordHistogram() under "<prefix>.<name>" (see the recorder). */
    void histogram(const char *name, const char *help,
                   const stats::Distribution &d);

    /**
     * Record every series of this group at each interval boundary in
     * (last boundary, now], in O(1) closure calls per series (tick
     * gauges: one per retained boundary). Clocks that move backwards
     * (a component restarting at tick 0) simply produce no samples
     * until they pass the series' high-water mark.
     */
    void tick(Tick now);

  private:
    MetricsRecorder *rec_ = nullptr;
    std::string prefix_;
    std::vector<std::size_t> ids_;
};

/**
 * Ambient per-thread recorder (the trace::current() pattern): a sweep
 * point installs its recorder with ScopedMetrics; components deep
 * inside a measurement pick it up at construction. nullptr when
 * metrics are off.
 */
MetricsRecorder *current();

/** Installs @p rec as the thread's recorder for its lifetime. */
class ScopedMetrics
{
  public:
    explicit ScopedMetrics(MetricsRecorder &rec);
    ~ScopedMetrics();

    ScopedMetrics(const ScopedMetrics &) = delete;
    ScopedMetrics &operator=(const ScopedMetrics &) = delete;

  private:
    MetricsRecorder *prev_;
};

/** One point's worth of metrics for the merged exporters below. */
struct MetricsPoint
{
    std::string name;
    const MetricsRecorder *recorder;
};

/** Merged CSV document (header + rows per point, point order). */
void writeCsv(std::ostream &os, const std::vector<MetricsPoint> &points);

/**
 * Merged Prometheus text exposition: families in first-seen order,
 * `# HELP`/`# TYPE` once per family, one sample line (the series' last
 * sample) per point, labelled {point="...",series="..."}. Series names
 * are sanitized to [a-zA-Z0-9_:] and prefixed "cereal_".
 */
void writeProm(std::ostream &os, const std::vector<MetricsPoint> &points);

/** Sanitized Prometheus family name for @p series_name. */
std::string promName(const std::string &series_name);

} // namespace metrics
} // namespace cereal

#endif // CEREAL_METRICS_METRICS_HH
