/**
 * @file
 * Latency distributions: exact order statistics over a sample stream,
 * and the fixed log-spaced bucket ladder every exported histogram uses.
 */

#ifndef CEREAL_SIM_STATS_HH
#define CEREAL_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace cereal {
namespace stats {

/**
 * Percentile summary over a stream of samples.
 *
 * Keeps every sample so exact order statistics are available at dump
 * time (nearest-rank percentiles). Intended for latency populations of
 * at most a few hundred thousand samples; the sort is deferred and
 * cached until the next sample() invalidates it.
 */
class Distribution
{
  public:
    /** exemplarAt() result when no exemplar resolves at that rank. */
    static constexpr std::uint64_t kNoExemplar = 0;

    /** Record one sample. */
    void
    sample(double v)
    {
        samples_.push_back(v);
        sorted_ = false;
        sum_ += v;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }

    /**
     * Record one sample carrying an exemplar id (a request trace id).
     * The id does not perturb the base sample population — quantile()
     * and friends are byte-identical whether or not ids are attached —
     * but exemplarAt() can then resolve a quantile back to the concrete
     * request that produced it.
     */
    void
    sample(double v, std::uint64_t exemplar)
    {
        sample(v);
        if (exemplar != kNoExemplar) {
            exemplars_.emplace_back(v, exemplar);
            exSorted_ = false;
        }
    }

    /** Pre-size the sample store for a known population size. */
    void reserve(std::size_t n) { samples_.reserve(n); }

    /** Forget every sample; min/max re-arm so no stale extreme leaks. */
    void
    reset()
    {
        samples_.clear();
        sorted_ = false;
        sum_ = 0;
        min_ = kNoMin;
        max_ = kNoMax;
    }

    /**
     * Nearest-rank percentile, @p p in [0, 100]. Returns 0 when the
     * distribution is empty.
     */
    double percentile(double p) const { return quantile(p / 100.0); }

    /**
     * Nearest-rank quantile, @p q in [0, 1]: the smallest sample with
     * at least a q fraction of the population at or below it. The
     * extreme tails a serving bench reports (p999 and beyond) need the
     * fractional form — percentile(99.9) loses nothing, but quantile
     * is the primitive. Returns 0 when the distribution is empty.
     */
    double quantile(double q) const;

    /**
     * The exemplar id recorded at the nearest-rank @p q quantile of the
     * exemplar-carrying samples (same rank arithmetic as quantile();
     * value ties break deterministically toward the smaller id).
     * Returns kNoExemplar when no sample carried an id.
     */
    std::uint64_t exemplarAt(double q) const;

    /**
     * Cumulative counts of samples at or below each logBucketBounds()
     * bound (a Prometheus-style histogram; samples above the last
     * bound appear only in count()).
     */
    std::vector<std::uint64_t> logBucketCounts() const;

    double p50() const { return quantile(0.50); }
    double p95() const { return quantile(0.95); }
    double p99() const { return quantile(0.99); }
    /** Tail percentile for serving SLOs; needs n >= 1000 to resolve. */
    double p999() const { return quantile(0.999); }
    double
    mean() const
    {
        return samples_.empty()
                   ? 0
                   : sum_ / static_cast<double>(samples_.size());
    }
    /** Smallest sample (0 while empty, for schema-stable reports). */
    double min() const { return samples_.empty() ? 0 : min_; }
    /** Largest sample (0 while empty, for schema-stable reports). */
    double max() const { return samples_.empty() ? 0 : max_; }
    double sum() const { return sum_; }
    std::uint64_t count() const { return samples_.size(); }

  private:
    // percentile() sorts lazily; logical state is unchanged.
    mutable std::vector<double> samples_;
    mutable bool sorted_ = false;
    mutable std::vector<std::pair<double, std::uint64_t>> exemplars_;
    mutable bool exSorted_ = false;

    static constexpr double kNoMin = std::numeric_limits<double>::infinity();
    static constexpr double kNoMax = -kNoMin;
    double sum_ = 0;
    double min_ = kNoMin;
    double max_ = kNoMax;
};

/**
 * Log-spaced latency bucket upper bounds shared by every exported
 * histogram: {1, 2, 5} x 10^k seconds from 1 microsecond to 50
 * seconds. A fixed global ladder keeps exported histograms comparable
 * across runs, backends, and scales.
 */
const std::vector<double> &logBucketBounds();

} // namespace stats
} // namespace cereal

#endif // CEREAL_SIM_STATS_HH
