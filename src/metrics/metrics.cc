#include "metrics/metrics.hh"

#include <bit>
#include <utility>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace cereal {
namespace metrics {

namespace {

/**
 * Thread-local ambient recorder: each sweep point runs start-to-finish
 * on one pool thread (the trace/JSON slot argument), so per-thread
 * roots keep concurrent points isolated without locks.
 */
thread_local MetricsRecorder *tls_recorder = nullptr;

} // namespace

const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::Gauge: return "gauge";
      case Kind::Rate: return "rate";
      case Kind::Ratio: return "ratio";
    }
    return "?";
}

// ------------------------------------------------------------- Series

Series::Series(std::string name, std::string help, Kind kind,
               std::size_t max_samples, Tick interval)
    : name_(std::move(name)), help_(std::move(help)), kind_(kind),
      next_(interval), interval_(interval), capacity_(max_samples)
{
    panic_if(interval_ == 0, "metrics interval must be >= 1 tick");
    panic_if(capacity_ == 0, "metrics ring capacity must be >= 1");
}

std::vector<Sample>
Series::samples() const
{
    std::vector<Sample> out;
    out.reserve(count_);
    for (const Run &r : runs_) {
        for (std::uint64_t i = 0; i < r.count; ++i) {
            out.push_back({r.first + i * interval_, r.value});
        }
    }
    return out;
}

Sample
Series::last() const
{
    panic_if(count_ == 0, "Series::last() on empty series '%s'",
             name_.c_str());
    const Run &r = runs_.back();
    return {r.first + (r.count - 1) * interval_, r.value};
}

void
Series::append(Tick first, std::uint64_t count, double v)
{
    if (count == 0) {
        return;
    }
    // Merge only a contiguous, bit-identical value, so -0.0 and NaN
    // payloads survive expansion exactly.
    if (!runs_.empty() &&
        runs_.back().first + runs_.back().count * interval_ == first &&
        std::bit_cast<std::uint64_t>(runs_.back().value) ==
            std::bit_cast<std::uint64_t>(v)) {
        runs_.back().count += count;
    } else {
        runs_.push_back({first, count, v});
    }
    std::uint64_t excess = count_ + count > capacity_
                               ? count_ + count - capacity_
                               : 0;
    count_ += count - excess;
    dropped_ += excess;
    while (excess > 0) {
        Run &front = runs_.front();
        if (front.count <= excess) {
            excess -= front.count;
            runs_.pop_front();
        } else {
            front.count -= excess;
            front.first += excess * interval_;
            excess = 0;
        }
    }
}

void
Series::catchUp(Tick now)
{
    if (!live_ || now < next_) {
        return;
    }
    const std::uint64_t k = (now - next_) / interval_ + 1;
    const Tick first = next_;
    next_ += k * interval_;
    // The filler boundaries re-read the same frozen counters: each
    // value is computed with the first boundary's formula over a zero
    // delta, so it is bit-identical to sampling every boundary.
    switch (kind_) {
      case Kind::Gauge:
        if (gauge_) {
            append(first, k, gauge_());
        } else {
            // Boundaries older than the last capacity_ are dropped
            // anyway; a tick gauge is evaluated only where it is kept.
            const std::uint64_t skip = k > capacity_ ? k - capacity_ : 0;
            dropped_ += skip;
            for (Tick at = first + skip * interval_; at != next_;
                 at += interval_) {
                append(at, 1, tickGauge_(at));
            }
        }
        break;
      case Kind::Rate: {
        const double ticks = static_cast<double>(interval_);
        const double cur = num_();
        append(first, 1, (cur - prevNum_) / ticks * scale_);
        append(first + interval_, k - 1, (cur - cur) / ticks * scale_);
        prevNum_ = cur;
        break;
      }
      case Kind::Ratio: {
        const double num = num_();
        const double den = den_();
        auto ratio = [](double dn, double dd) {
            return dd != 0 ? dn / dd : 0.0;
        };
        append(first, 1, ratio(num - prevNum_, den - prevDen_));
        append(first + interval_, k - 1, ratio(num - num, den - den));
        prevNum_ = num;
        prevDen_ = den;
        break;
      }
    }
}

// ----------------------------------------------------- MetricsRecorder

MetricsRecorder::MetricsRecorder(Tick interval, std::size_t max_samples)
    : interval_(interval), maxSamples_(max_samples)
{
    panic_if(interval_ == 0, "metrics interval must be >= 1 tick");
    panic_if(maxSamples_ == 0, "metrics ring capacity must be >= 1");
}

std::string
MetricsRecorder::uniquePrefix(const std::string &prefix)
{
    for (auto &[name, uses] : prefixes_) {
        if (name == prefix) {
            ++uses;
            return prefix + "#" + std::to_string(uses - 1);
        }
    }
    prefixes_.push_back({prefix, 1});
    return prefix;
}

std::size_t
MetricsRecorder::addGauge(std::string name, std::string help, GaugeFn fn)
{
    series_.emplace_back(std::move(name), std::move(help), Kind::Gauge,
                         maxSamples_, interval_);
    series_.back().gauge_ = std::move(fn);
    return series_.size() - 1;
}

std::size_t
MetricsRecorder::addGauge(std::string name, std::string help,
                          TickGaugeFn fn)
{
    series_.emplace_back(std::move(name), std::move(help), Kind::Gauge,
                         maxSamples_, interval_);
    series_.back().tickGauge_ = std::move(fn);
    return series_.size() - 1;
}

std::size_t
MetricsRecorder::addRate(std::string name, std::string help, CounterFn fn,
                         double scale)
{
    series_.emplace_back(std::move(name), std::move(help), Kind::Rate,
                         maxSamples_, interval_);
    auto &s = series_.back();
    s.num_ = std::move(fn);
    s.scale_ = scale;
    s.prevNum_ = s.num_();
    return series_.size() - 1;
}

std::size_t
MetricsRecorder::addRatio(std::string name, std::string help,
                          CounterFn num, CounterFn den)
{
    series_.emplace_back(std::move(name), std::move(help), Kind::Ratio,
                         maxSamples_, interval_);
    auto &s = series_.back();
    s.num_ = std::move(num);
    s.den_ = std::move(den);
    s.prevNum_ = s.num_();
    s.prevDen_ = s.den_();
    return series_.size() - 1;
}

void
MetricsRecorder::detach(const std::vector<std::size_t> &ids)
{
    for (std::size_t id : ids) {
        Series &s = series_[id];
        s.live_ = false;
        s.gauge_ = nullptr;
        s.tickGauge_ = nullptr;
        s.num_ = nullptr;
        s.den_ = nullptr;
    }
}

void
MetricsRecorder::tickSeries(const std::vector<std::size_t> &ids, Tick now)
{
    for (std::size_t id : ids) {
        series_[id].catchUp(now);
    }
}

void
MetricsRecorder::recordHistogram(const std::string &name,
                                 const std::string &help,
                                 const stats::Distribution &d)
{
    HistogramSnapshot h;
    h.name = name;
    h.help = help;
    h.bounds = stats::logBucketBounds();
    h.counts = d.logBucketCounts();
    h.sum = d.sum();
    h.count = d.count();
    histograms_.push_back(std::move(h));
}

void
MetricsRecorder::writeJson(json::Writer &w) const
{
    w.key("metrics");
    w.beginObject();
    w.kv("interval_ticks", interval_);
    w.key("series");
    w.beginArray();
    for (const auto &s : series_) {
        w.beginObject();
        w.kv("name", s.name());
        w.kv("kind", kindName(s.kind()));
        w.kv("help", s.help());
        w.kv("dropped", s.dropped());
        const auto samples = s.samples();
        w.key("ticks");
        w.beginArray();
        for (const auto &sm : samples) {
            w.value(sm.tick);
        }
        w.endArray();
        w.key("values");
        w.beginArray();
        for (const auto &sm : samples) {
            w.value(sm.value);
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.key("histograms");
    w.beginArray();
    for (const auto &h : histograms_) {
        w.beginObject();
        w.kv("name", h.name);
        w.kv("help", h.help);
        w.kv("sum", h.sum);
        w.kv("count", h.count);
        w.key("bounds");
        w.beginArray();
        for (double b : h.bounds) {
            w.value(b);
        }
        w.endArray();
        w.key("cumulative_counts");
        w.beginArray();
        for (auto c : h.counts) {
            w.value(c);
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
MetricsRecorder::writeCsvHeader(std::ostream &os)
{
    os << "point,series,kind,tick,value\n";
}

void
MetricsRecorder::writeCsvRows(std::ostream &os,
                              const std::string &point) const
{
    for (const auto &s : series_) {
        for (const auto &sm : s.samples()) {
            os << point << ',' << s.name() << ',' << kindName(s.kind())
               << ',' << sm.tick << ',' << json::formatDouble(sm.value)
               << '\n';
        }
    }
}

// -------------------------------------------------------------- Group

Group::Group(MetricsRecorder *r, const std::string &prefix) : rec_(r)
{
    if (rec_ != nullptr) {
        prefix_ = rec_->uniquePrefix(prefix);
    }
}

Group::Group(Group &&other) noexcept
    : rec_(other.rec_), prefix_(std::move(other.prefix_)),
      ids_(std::move(other.ids_))
{
    other.rec_ = nullptr;
    other.ids_.clear();
}

Group &
Group::operator=(Group &&other) noexcept
{
    if (this != &other) {
        if (rec_ != nullptr) {
            rec_->detach(ids_);
        }
        rec_ = other.rec_;
        prefix_ = std::move(other.prefix_);
        ids_ = std::move(other.ids_);
        other.rec_ = nullptr;
        other.ids_.clear();
    }
    return *this;
}

Group::~Group()
{
    if (rec_ != nullptr) {
        rec_->detach(ids_);
    }
}

void
Group::gauge(const char *name, const char *help, GaugeFn fn)
{
    if (rec_ == nullptr) {
        return;
    }
    ids_.push_back(
        rec_->addGauge(prefix_ + "." + name, help, std::move(fn)));
}

void
Group::gauge(const char *name, const char *help, TickGaugeFn fn)
{
    if (rec_ == nullptr) {
        return;
    }
    ids_.push_back(
        rec_->addGauge(prefix_ + "." + name, help, std::move(fn)));
}

void
Group::rate(const char *name, const char *help, CounterFn fn, double scale)
{
    if (rec_ == nullptr) {
        return;
    }
    ids_.push_back(
        rec_->addRate(prefix_ + "." + name, help, std::move(fn), scale));
}

void
Group::ratio(const char *name, const char *help, CounterFn num,
             CounterFn den)
{
    if (rec_ == nullptr) {
        return;
    }
    ids_.push_back(rec_->addRatio(prefix_ + "." + name, help,
                                  std::move(num), std::move(den)));
}

void
Group::histogram(const char *name, const char *help,
                 const stats::Distribution &d)
{
    if (rec_ == nullptr) {
        return;
    }
    rec_->recordHistogram(prefix_ + "." + name, help, d);
}

void
Group::tick(Tick now)
{
    if (rec_ == nullptr) {
        return;
    }
    rec_->tickSeries(ids_, now);
}

// ------------------------------------------------------------ ambient

MetricsRecorder *
current()
{
    return tls_recorder;
}

ScopedMetrics::ScopedMetrics(MetricsRecorder &rec) : prev_(tls_recorder)
{
    tls_recorder = &rec;
}

ScopedMetrics::~ScopedMetrics()
{
    tls_recorder = prev_;
}

// -------------------------------------------------- merged exporters

void
writeCsv(std::ostream &os, const std::vector<MetricsPoint> &points)
{
    MetricsRecorder::writeCsvHeader(os);
    for (const auto &p : points) {
        p.recorder->writeCsvRows(os, p.name);
    }
}

std::string
promName(const std::string &series_name)
{
    std::string out = "cereal_";
    for (char c : series_name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        out.push_back(ok ? c : '_');
    }
    return out;
}

void
writeProm(std::ostream &os, const std::vector<MetricsPoint> &points)
{
    // Escape a label value (quote_too) or HELP text per the
    // exposition format.
    auto escape = [](const std::string &s, bool quote_too) {
        std::string out;
        for (char c : s) {
            if (c == '\\' || (quote_too && c == '"')) {
                out.push_back('\\');
                out.push_back(c);
            } else if (c == '\n') {
                out += "\\n";
            } else {
                out.push_back(c);
            }
        }
        return out;
    };
    auto esc = [&](const std::string &s) { return escape(s, true); };
    auto help = [&](const std::string &s) {
        return s.empty() ? std::string("-") : escape(s, false);
    };

    // Group sample lines by family (sanitized name) so each family is
    // one contiguous block after its HELP/TYPE header, as the format
    // requires. Families keep first-seen order for determinism.
    struct Family
    {
        std::string help;
        Kind kind;
        std::vector<std::string> lines;
    };
    std::vector<std::pair<std::string, Family>> families;
    auto family = [&](const std::string &name, const std::string &help,
                      Kind kind) -> Family & {
        for (auto &[n, f] : families) {
            if (n == name) {
                return f;
            }
        }
        families.push_back({name, {help, kind, {}}});
        return families.back().second;
    };

    for (const auto &p : points) {
        for (const auto &s : p.recorder->series()) {
            if (s.sampleCount() == 0) {
                continue; // nothing observed; deterministic skip
            }
            const std::string fam = promName(s.name());
            Family &f = family(fam, s.help(), s.kind());
            const Sample last = s.last();
            f.lines.push_back(
                fam + "{point=\"" + esc(p.name) + "\",series=\"" +
                esc(s.name()) + "\"} " + json::formatDouble(last.value) +
                " " + std::to_string(last.tick));
        }
    }

    for (const auto &[name, f] : families) {
        os << "# HELP " << name << ' ' << help(f.help) << '\n';
        // Rates/ratios are windowed derivations sampled as gauges.
        os << "# TYPE " << name << " gauge\n";
        for (const auto &line : f.lines) {
            os << line << '\n';
        }
    }

    // Histogram snapshots: one exposition-format histogram family per
    // snapshot name, cumulative le buckets plus +Inf/_sum/_count.
    struct HistFamily
    {
        std::string help;
        std::vector<std::string> lines;
    };
    std::vector<std::pair<std::string, HistFamily>> histFams;
    auto histFamily = [&](const std::string &name,
                          const std::string &help) -> HistFamily & {
        for (auto &[n, f] : histFams) {
            if (n == name) {
                return f;
            }
        }
        histFams.push_back({name, {help, {}}});
        return histFams.back().second;
    };
    for (const auto &p : points) {
        for (const auto &h : p.recorder->histograms()) {
            const std::string fam = promName(h.name);
            HistFamily &f = histFamily(fam, h.help);
            const std::string labels =
                "point=\"" + esc(p.name) + "\",series=\"" + esc(h.name) +
                "\"";
            for (std::size_t i = 0; i < h.bounds.size(); ++i) {
                f.lines.push_back(fam + "_bucket{" + labels + ",le=\"" +
                                  json::formatDouble(h.bounds[i]) +
                                  "\"} " + std::to_string(h.counts[i]));
            }
            f.lines.push_back(fam + "_bucket{" + labels + ",le=\"+Inf\"} " +
                              std::to_string(h.count));
            f.lines.push_back(fam + "_sum{" + labels + "} " +
                              json::formatDouble(h.sum));
            f.lines.push_back(fam + "_count{" + labels + "} " +
                              std::to_string(h.count));
        }
    }
    for (const auto &[name, f] : histFams) {
        os << "# HELP " << name << ' ' << help(f.help) << '\n';
        os << "# TYPE " << name << " histogram\n";
        for (const auto &line : f.lines) {
            os << line << '\n';
        }
    }
}

} // namespace metrics
} // namespace cereal
