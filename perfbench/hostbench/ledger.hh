/**
 * @file
 * The host-time benchmark's common run loop and its bookkeeping.
 *
 * Every workload is a closed loop over units: one unit is one call into
 * the simulator's public API, and each starts after the previous one
 * returned. A run of a workload goes through these phases:
 *
 *  1. set-up, repeated kSetupReps times and reported as the median;
 *  2. one warm-up pass over all units, untimed, which runs the full
 *     output checks and records each unit's simulated results;
 *  3. timed passes while the next one fits in the time budget. Each
 *     unit's simulated results must equal the warm-up pass's. run_s
 *     sums, over the units, each unit's median host time. After every
 *     unit the pass also runs the fixed reference loop
 *     (referenceSeconds) a fixed number of times; run_ref sums, over
 *     the units, the median of each unit's host time divided by the
 *     mean time of the reference loops right after it. With tracing
 *     on, every untraced pass is followed by a traced one (one span per
 *     public call), so the two see the same host conditions;
 *  4. with tracing on only: the workload's ledger, which calls each
 *     layer's public functions on their own to split host time by
 *     layer.
 *
 * End-to-end metrics come from the untraced passes. The traced passes
 * against them give the benchmark's own tracing overhead.
 *
 * Why run_ref: on a shared host the speed of the same code drifts by
 * tens of percent over tens of seconds (other tenants' memory traffic
 * and core load), so host seconds of one run differ from the next run's
 * by more than a regression worth catching. The reference loop runs
 * beside each unit and sees the same drift; the ratio keeps the
 * program's cost and drops much of the drift. The loop is the
 * benchmark's own code, so a change to the simulator cannot move it.
 */

#ifndef HOSTBENCH_LEDGER_HH
#define HOSTBENCH_LEDGER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace hostbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** FNV-1a-64 over the simulated numbers a workload produced. */
class Digest
{
  public:
    void addU64(std::uint64_t v);
    /** Hashes the bit pattern: a host-only change must keep it exact. */
    void addF64(double v);
    void addStr(const std::string &s);
    void addBool(bool b) { addU64(b ? 1 : 0); }
    std::uint64_t value() const { return h_; }
    std::string hex() const;

  private:
    void bytes(const void *p, std::size_t n);
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Metrics by name, kept in first-set order. */
class MetricSet
{
  public:
    void set(const std::string &name, double value, const std::string &unit);
    const Metric *find(const std::string &name) const;
    const std::vector<Metric> &all() const { return metrics_; }

  private:
    std::vector<Metric> metrics_;
    std::map<std::string, std::size_t> index_;
};

constexpr std::uint32_t kNoParent = 0xffffffffu;

/** One traced public call. */
struct Span
{
    std::string name;
    /** Seconds since the log was created. */
    double start = 0;
    double end = 0;
    /** Index of the enclosing span, or kNoParent. */
    std::uint32_t parent = kNoParent;
};

/**
 * In-memory span log. A disabled log records nothing, so the untraced
 * phases pay one branch per call. Spans nest by scope: a span's parent
 * is the span open when it began.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled = false);

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    const std::vector<Span> &spans() const { return spans_; }

    /** Summed duration of the spans named @p name, from index @p from. */
    double total(const std::string &name, std::size_t from = 0) const;

    /**
     * Self time per layer: each span's duration minus the part its
     * child spans cover, summed by layer (the name up to its first
     * '.').
     */
    std::map<std::string, double> selfTimeByLayer() const;

    /** The spans as a JSON array of {name, start, end, parent}. */
    void writeJson(std::ostream &os) const;

  private:
    friend class SpanScope;

    std::uint32_t open(std::string name);
    void close(std::uint32_t idx);

    bool enabled_;
    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> stack_;
};

/** RAII span around one public call; a no-op on a disabled log. */
class SpanScope
{
  public:
    SpanScope(SpanLog &log, std::string name);
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog *log_;
    std::uint32_t idx_ = kNoParent;
};

/** Output checks: one attempt per unit (or cross-check), never abort. */
class Checks
{
  public:
    /** Count one attempt; a failed one is reported on stderr. */
    bool record(bool ok, const std::string &what);
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    double failRatio() const;

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Everything a run reports. */
struct RunResult
{
    MetricSet metrics;
    Checks checks;
    /** Digest of every simulated number of the warm-up pass. */
    Digest simDigest;
    SpanLog spans;
};

/**
 * After each unit the timed passes run the reference loop a fixed number
 * of times, set from the warm-up pass so that the loops take about this
 * share of the unit's time (at least one). The count only sets how
 * densely the reference samples the host; run_ref does not depend on it.
 */
constexpr double kReferenceShare = 0.2;

/**
 * Run the fixed reference loop once and return its host seconds (about
 * half a millisecond): dependent loads around a random cycle over 16 MB
 * and one over 256 KB, then an integer hash chain, so it slows with
 * memory contention as well as with core load. The first call also
 * builds the cycles, which stay resident for the rest of the process.
 */
double referenceSeconds();

/** Handed to a workload for each pass over its units. */
struct Pass
{
    /** True for the warm-up pass: run the full output checks. */
    bool warmup = false;
    SpanLog &spans;
    Checks &checks;
    /**
     * Per-unit digests of the warm-up pass, in unit order; later
     * passes compare against them through unitDone().
     */
    std::vector<std::uint64_t> &unitDigests;
    /** Host seconds of each unit of this pass, in unit order. */
    std::vector<double> unitSeconds = {};
    std::size_t unit = 0;
    /**
     * Reference loops to run after each unit, in unit order; none when
     * null (the warm-up pass).
     */
    const std::vector<int> *refLoops = nullptr;
    /** Mean host seconds of one reference loop after each unit. */
    std::vector<double> refSeconds = {};

    /**
     * Run @p body, the unit's public calls and nothing else, as unit
     * @p name: timed, and traced as span "unit.<name>".
     */
    template <class F>
    void
    timed(const std::string &name, F &&body)
    {
        const auto t0 = Clock::now();
        {
            SpanScope s(spans, spans.enabled() ? "unit." + name
                                               : std::string());
            body();
        }
        unitSeconds.push_back(secondsSince(t0));
        if (refLoops && unitSeconds.size() <= refLoops->size()) {
            const int n = (*refLoops)[unitSeconds.size() - 1];
            double ref_s = 0;
            for (int i = 0; i < n; ++i) {
                ref_s += referenceSeconds();
            }
            refSeconds.push_back(ref_s / n);
        }
    }

    /**
     * Close one unit: @p ok is the unit's own check, @p d the digest of
     * its simulated results. Outside the warm-up pass the digest must
     * equal the warm-up's for the same unit.
     */
    void unitDone(const std::string &name, bool ok, const Digest &d);
};

/** A workload the common loop drives. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Build the inputs for @p seed. The first call uses the run's seed
     * and @p keep is true: its inputs feed the passes. Repeats use other
     * seeds so no memo inside the simulator serves them, and discard
     * what they build.
     */
    virtual void setup(std::uint64_t seed, bool keep, SpanLog &spans) = 0;

    /** Run every unit once. */
    virtual void pass(Pass &p) = 0;

    /** Work items per pass (the numerator of units_per_s). */
    virtual std::uint64_t workItemsPerPass() const = 0;

    /**
     * Tracing only: split host time by layer through each layer's own
     * public calls, recording per-layer metrics and cross-checks.
     */
    virtual void ledger(RunResult &r) = 0;
};

/**
 * Set-up repetitions per run; setup_s is their median. The count is
 * fixed so that the memory the repeats leave behind, which peak_rss_mb
 * sees, does not depend on host speed.
 */
constexpr int kSetupReps = 7;

/** Timed rounds per run even when the time budget is spent sooner. */
constexpr int kMinTimedPasses = 3;

/** Reference loops after each unit, from the warm-up pass's unit times. */
std::vector<int> referenceLoopCounts(const std::vector<double> &unitSeconds);

struct RunOptions
{
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

/**
 * Drive @p w through the phases in the file comment. Fills the
 * end-to-end metrics; with tracing also the ledger's and the
 * benchmark's self-time and overhead metrics.
 */
RunResult runWorkload(Workload &w, const RunOptions &opts);

/** Median of @p xs (the mean of the middle two for an even count). */
double median(std::vector<double> xs);

/** Peak resident set size of this process, MB. */
double peakRssMb();

/** Layers self time is reported for (`self.<layer>_s`). */
const std::vector<std::string> &ledgerLayers();

} // namespace hostbench

#endif // HOSTBENCH_LEDGER_HH
