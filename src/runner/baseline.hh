/**
 * @file
 * Benchmark baseline comparison engine (the perf-regression gate).
 *
 * Compares a freshly produced `BENCH_<name>.json` document against a
 * committed baseline from tests/baselines/. The policy:
 *
 *  - "schema" and "bench" must match exactly — different schema or
 *    bench means the comparison is meaningless, not a drift.
 *  - Every "config" member must match exactly: a config difference is
 *    a different experiment, and comparing it as a drift would hide
 *    that.
 *  - Points are matched by their "name" member (order-insensitive),
 *    and every numeric leaf inside a point is flattened to a dotted
 *    path ("points.tree-narrow.cereal_speedup") and compared with a
 *    relative tolerance. String leaves (a backend, a dominant
 *    segment) must match exactly. Missing or extra points/leaves fail.
 *  - The "summary" object is flattened and compared the same way.
 *  - Embedded "metrics" subtrees are excluded: time-series samples are
 *    compared byte-exactly by the determinism tests, not with
 *    tolerances (and baselines are recorded without --metrics).
 *
 * Tolerances: a default relative tolerance plus per-metric overrides
 * matched by substring against the dotted path; the longest matching
 * override wins. The relative difference is |fresh - base| divided by
 * max(|base|, 1e-12), so a baseline of exactly 0 requires an exact 0.
 *
 * The engine is pure (strings in, verdict out) so tests can drive it
 * without touching the filesystem; tools/bench_compare is the thin CLI
 * over it.
 */

#ifndef CEREAL_RUNNER_BASELINE_HH
#define CEREAL_RUNNER_BASELINE_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace cereal {
namespace runner {

/** Relative-tolerance policy for compareBenchJson(). */
struct Tolerance
{
    /** Applied to every numeric leaf without a matching override. */
    double defaultRel = 0.05;
    /**
     * (path substring, relative tolerance) overrides. The longest
     * substring that occurs in a leaf's dotted path wins.
     */
    std::vector<std::pair<std::string, double>> overrides;
    /**
     * (path substring, minimum ratio) one-sided floors. A leaf whose
     * dotted path contains the substring (longest match wins) is held
     * to `fresh >= ratio * baseline` *instead of* the symmetric
     * relative tolerance: any improvement passes, and a drop only
     * fails once it crosses the ratio. This is how wall-clock metrics
     * (sim-ticks/sec and friends) are gated — they jitter too much for
     * a 5% band, but a 2x collapse (ratio 0.5) is a real regression.
     * Meaningful for positive throughput-like baselines.
     */
    std::vector<std::pair<std::string, double>> floors;

    /** Tolerance in effect for the leaf at @p path. */
    double relFor(const std::string &path) const;

    /** Floor ratio for the leaf at @p path, or 0 when none applies. */
    double floorFor(const std::string &path) const;
};

/** One comparison failure. */
struct Finding
{
    /** Dotted path of the offending leaf ("" for document issues). */
    std::string path;
    /** Human-readable description of the failure. */
    std::string message;
};

/** Verdict of one document comparison. */
struct CompareResult
{
    /** True when every check passed. */
    bool pass = false;
    /** Set when a document failed to parse or had the wrong shape. */
    std::string error;
    /** Individual failures (empty on pass). */
    std::vector<Finding> findings;
    /** Number and string leaves compared. */
    std::size_t comparedLeaves = 0;

    /** Multi-line report (one line per finding; "OK ..." on pass). */
    std::string report() const;
};

/**
 * Compare fresh bench output @p fresh_text against @p baseline_text
 * (both full `BENCH_*.json` documents) under @p tol.
 */
CompareResult compareBenchJson(const std::string &fresh_text,
                               const std::string &baseline_text,
                               const Tolerance &tol = Tolerance());

} // namespace runner
} // namespace cereal

#endif // CEREAL_RUNNER_BASELINE_HH
