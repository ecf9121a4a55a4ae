#include "hostbench/ledger.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

namespace hostbench {

void
Digest::bytes(const void *p, std::size_t n)
{
    const auto *b = static_cast<const std::uint8_t *>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h_ ^= b[i];
        h_ *= 0x100000001b3ULL;
    }
}

void
Digest::addU64(std::uint64_t v)
{
    bytes(&v, sizeof v);
}

void
Digest::addF64(double v)
{
    std::uint64_t raw = 0;
    std::memcpy(&raw, &v, sizeof raw);
    addU64(raw);
}

void
Digest::addStr(const std::string &s)
{
    addU64(s.size());
    bytes(s.data(), s.size());
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
    return buf;
}

void
MetricSet::set(const std::string &name, double value, const std::string &unit)
{
    auto it = index_.find(name);
    if (it == index_.end()) {
        index_.emplace(name, metrics_.size());
        metrics_.push_back({name, value, unit});
        return;
    }
    metrics_[it->second].value = value;
    metrics_[it->second].unit = unit;
}

const Metric *
MetricSet::find(const std::string &name) const
{
    auto it = index_.find(name);
    return it == index_.end() ? nullptr : &metrics_[it->second];
}

SpanLog::SpanLog(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

std::uint32_t
SpanLog::open(std::string name)
{
    const auto idx = static_cast<std::uint32_t>(spans_.size());
    Span s;
    s.name = std::move(name);
    s.parent = stack_.empty() ? kNoParent : stack_.back();
    s.start = secondsSince(t0_);
    spans_.push_back(std::move(s));
    stack_.push_back(idx);
    return idx;
}

void
SpanLog::close(std::uint32_t idx)
{
    spans_[idx].end = secondsSince(t0_);
    stack_.pop_back();
}

double
SpanLog::total(const std::string &name, std::size_t from) const
{
    double sum = 0;
    for (std::size_t i = from; i < spans_.size(); ++i) {
        if (spans_[i].name == name) {
            sum += spans_[i].end - spans_[i].start;
        }
    }
    return sum;
}

std::map<std::string, double>
SpanLog::selfTimeByLayer() const
{
    std::vector<double> covered(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        if (s.parent != kNoParent) {
            covered[s.parent] += s.end - s.start;
        }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const std::string layer = s.name.substr(0, s.name.find('.'));
        out[layer] += (s.end - s.start) - covered[i];
    }
    return out;
}

void
SpanLog::writeJson(std::ostream &os) const
{
    os << "[\n";
    char buf[64];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << "  {\"name\": \"" << s.name << "\", ";
        std::snprintf(buf, sizeof buf, "\"start\": %.9f, \"end\": %.9f",
                      s.start, s.end);
        os << buf << ", \"parent\": ";
        if (s.parent == kNoParent) {
            os << "null";
        } else {
            os << s.parent;
        }
        os << (i + 1 < spans_.size() ? "},\n" : "}\n");
    }
    os << "]\n";
}

SpanScope::SpanScope(SpanLog &log, std::string name) : log_(&log)
{
    if (log.enabled()) {
        idx_ = log.open(std::move(name));
    }
}

SpanScope::~SpanScope()
{
    if (idx_ != kNoParent) {
        log_->close(idx_);
    }
}

bool
Checks::record(bool ok, const std::string &what)
{
    // Only the first few failures are printed: a broken model would
    // otherwise flood the log once per pass.
    constexpr std::uint64_t kReported = 20;
    ++attempted_;
    if (!ok) {
        if (failed_ < kReported) {
            std::fprintf(stderr, "check failed: %s\n", what.c_str());
        }
        ++failed_;
    }
    return ok;
}

double
Checks::failRatio() const
{
    return attempted_ ? static_cast<double>(failed_) /
                            static_cast<double>(attempted_)
                      : 0.0;
}

void
Pass::unitDone(const std::string &name, bool ok, const Digest &d)
{
    if (warmup) {
        unitDigests.push_back(d.value());
    } else {
        ok = ok && unit < unitDigests.size() &&
             unitDigests[unit] == d.value();
    }
    ++unit;
    checks.record(ok, name);
}

double
median(std::vector<double> xs)
{
    if (xs.empty()) {
        return 0;
    }
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KB
}

const std::vector<std::string> &
ledgerLayers()
{
    static const std::vector<std::string> layers = {
        "unit",    "workloads", "serde", "heap",    "cpu",
        "mem",     "cereal",    "cluster", "load",  "metrics",
        "trace",   "dataflow",  "shuffle",
    };
    return layers;
}

namespace {

/** Keeps the reference loop's hash chain from being optimised away. */
volatile std::uint64_t referenceSink = 0;

/** A random single cycle over @p n slots: next[i] is i's successor. */
std::vector<std::uint32_t>
randomCycle(std::uint32_t n)
{
    std::vector<std::uint32_t> order(n), next(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        order[i] = i;
    }
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t i = n - 1; i > 0; --i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::swap(order[i], order[x % (i + 1)]);
    }
    for (std::uint32_t i = 0; i < n; ++i) {
        next[order[i]] = order[(i + 1) % n];
    }
    return next;
}

} // namespace

double
referenceSeconds()
{
    static const std::vector<std::uint32_t> big = randomCycle(4u << 20);
    static const std::vector<std::uint32_t> small = randomCycle(64u << 10);
    static std::uint32_t at_big = 0, at_small = 0;

    const auto t0 = Clock::now();
    for (int i = 0; i < 1300; ++i) {
        at_big = big[at_big];
    }
    for (int i = 0; i < 28000; ++i) {
        at_small = small[at_small];
    }
    std::uint64_t h = at_big ^ at_small;
    for (int i = 0; i < 20000; ++i) {
        h = h * 6364136223846793005ULL + 1442695040888963407ULL;
        h ^= h >> 13;
    }
    referenceSink = h;
    return secondsSince(t0);
}

std::vector<int>
referenceLoopCounts(const std::vector<double> &unitSeconds)
{
    std::vector<double> loops;
    for (int i = 0; i < 21; ++i) {
        loops.push_back(referenceSeconds());
    }
    const double loop_s = median(loops);
    std::vector<int> counts;
    for (double u : unitSeconds) {
        counts.push_back(std::max(
            1, static_cast<int>(std::lround(kReferenceShare * u / loop_s))));
    }
    return counts;
}

namespace {

/** Sum over units of each unit's median seconds across passes. */
double
sumOfMedians(std::vector<std::vector<double>> &byUnit)
{
    double sum = 0;
    for (auto &times : byUnit) {
        sum += median(std::move(times));
    }
    return sum;
}

/** What the timed passes measured. */
struct Timed
{
    /** run_s of the untraced and of the traced passes. */
    double runS = 0;
    double tracedRunS = 0;
    /** Sum over units of each unit's median time / reference time. */
    double runRef = 0;
    /** Median seconds of one reference loop, over units and passes. */
    double refS = 0;
};

/**
 * Timed passes while the next round is expected to end within @p budget
 * seconds (at least kMinTimedPasses rounds). A round is one untraced
 * pass, followed with @p trace by one traced pass, so drift in the
 * host's speed reaches both alike.
 */
Timed
timedPasses(Workload &w, RunResult &r, std::vector<std::uint64_t> &digests,
            const std::vector<int> &refLoops, double budget, bool trace)
{
    std::vector<std::vector<double>> byUnit[2], inRef;
    std::vector<double> refs;
    int rounds = 0;
    double last = 0;
    const auto start = Clock::now();
    while (rounds < kMinTimedPasses || secondsSince(start) + last < budget) {
        const auto t0 = Clock::now();
        for (int traced = 0; traced <= (trace ? 1 : 0); ++traced) {
            r.spans.setEnabled(traced);
            Pass p{false, r.spans, r.checks, digests};
            p.refLoops = &refLoops;
            w.pass(p);
            if (!traced) {
                inRef.resize(p.unitSeconds.size());
                for (std::size_t u = 0; u < p.unitSeconds.size(); ++u) {
                    inRef[u].push_back(p.unitSeconds[u] / p.refSeconds[u]);
                }
                refs.insert(refs.end(), p.refSeconds.begin(),
                            p.refSeconds.end());
            }
            byUnit[traced].resize(p.unitSeconds.size());
            for (std::size_t u = 0; u < p.unitSeconds.size(); ++u) {
                byUnit[traced][u].push_back(p.unitSeconds[u]);
            }
        }
        last = secondsSince(t0);
        ++rounds;
    }
    return {sumOfMedians(byUnit[0]), sumOfMedians(byUnit[1]),
            sumOfMedians(inRef), median(std::move(refs))};
}

} // namespace

RunResult
runWorkload(Workload &w, const RunOptions &opts)
{
    RunResult r;
    r.spans.setEnabled(opts.trace);
    // Builds the reference loop's cycles before anything is timed.
    referenceSeconds();

    std::vector<double> setup;
    for (int i = 0; i < kSetupReps; ++i) {
        const std::uint64_t seed =
            opts.seed + static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL;
        const auto t0 = Clock::now();
        w.setup(seed, i == 0, r.spans);
        setup.push_back(secondsSince(t0));
    }
    const double setup_s = median(setup);

    std::vector<std::uint64_t> digests;
    r.spans.setEnabled(false);
    Pass warm{true, r.spans, r.checks, digests};
    w.pass(warm);
    for (std::uint64_t d : digests) {
        r.simDigest.addU64(d);
    }

    const Timed t =
        timedPasses(w, r, digests, referenceLoopCounts(warm.unitSeconds),
                    opts.seconds, opts.trace);
    const double run_s = t.runS, traced_s = t.tracedRunS;
    const double items = static_cast<double>(w.workItemsPerPass());

    MetricSet &m = r.metrics;
    m.set("setup_s", setup_s, "s");
    m.set("run_ref", t.runRef, "ref");
    m.set("units_per_ref", items / t.runRef, "1/ref");
    m.set("run_s", run_s, "s");
    m.set("units_per_s", items / run_s, "1/s");
    m.set("ref_ms", t.refS * 1e3, "ms");
    m.set("peak_rss_mb", peakRssMb(), "MB");

    if (opts.trace) {
        r.spans.setEnabled(true);
        w.ledger(r);
        m.set("ledger.untraced_run_s", run_s, "s");
        m.set("ledger.run_s", traced_s, "s");
        m.set("ledger.overhead_x", traced_s / run_s, "x");
        m.set("ledger.spans", static_cast<double>(r.spans.spans().size()),
              "count");
        const auto self = r.spans.selfTimeByLayer();
        for (const std::string &layer : ledgerLayers()) {
            auto it = self.find(layer);
            m.set("self." + layer + "_s", it == self.end() ? 0.0 : it->second,
                  "s");
        }
    }

    m.set("fail_ratio", r.checks.failRatio(), "ratio");
    m.set("pass_ratio", 1.0 - r.checks.failRatio(), "ratio");
    return r;
}

} // namespace hostbench
