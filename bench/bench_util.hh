/**
 * @file
 * Shared entry point for the figure/table reproduction binaries.
 *
 * Every bench prints a self-describing table: a title line naming the
 * paper figure/table it regenerates, column headers, and the same rows
 * or series the paper reports, followed by the paper's headline
 * numbers for eyeball comparison.
 *
 * Every bench also registers its sweep points with a
 * runner::SweepRunner and parses the one common command line via
 * bench::Options:
 *
 *   bench_<name> [scale] [--threads N] [--json [path]] [--trace <path>]
 *               [--metrics <path> [--metrics-interval N]]
 *
 * --threads N runs the independent sweep points on N worker threads;
 * output (stdout tables, JSON, and traces) is bit-identical to a
 * serial run because every point builds its own simulation context
 * from explicit seeds and results land in registration-order slots.
 * --json writes the schema-stable BENCH_<name>.json document (default
 * path BENCH_<name>.json in the working directory) — the repo's
 * machine-readable perf trajectory. --trace records every point with
 * a per-point trace sink and writes one merged Chrome trace_event
 * document (open in chrome://tracing or https://ui.perfetto.dev) plus
 * a per-component self-time summary on stdout. --metrics samples every
 * instrumented component's time series (see src/metrics) at a fixed
 * tick interval and writes them as CSV (".csv" path) or the Prometheus
 * text exposition format (any other path); the same series are embedded
 * in the --json document. Metrics output is byte-identical across
 * --threads values, like everything else.
 *
 * Unknown flags are fatal: a typoed `--thread 4` silently running
 * serially is exactly the kind of bug a measurement harness must not
 * have.
 */

#ifndef CEREAL_BENCH_BENCH_UTIL_HH
#define CEREAL_BENCH_BENCH_UTIL_HH

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "runner/sweep_runner.hh"
#include "sim/logging.hh"

namespace cereal {
namespace bench {

/** Parsed common command line of a bench binary. */
class Options
{
  public:
    /** Scale divisor: paper-size graphs / scale (bench-specific default). */
    std::uint64_t scale = 64;
    /** Sweep-point worker threads (1 = serial reference behaviour). */
    unsigned threads = 1;
    /** Destination for the JSON document; empty = don't write. */
    std::string jsonPath;
    /** Destination for the Chrome trace; empty = tracing off. */
    std::string tracePath;
    /** Destination for the metrics export; empty = metrics off.
     *  ".csv" selects long-form CSV, anything else Prometheus text. */
    std::string metricsPath;
    /** Metrics sampling interval, ticks (0 = recorder default). */
    Tick metricsInterval = 0;
    /**
     * Head-based request-trace sampling rate in (0, 1] (--trace-sample;
     * default: every request). Shared by the request-trace layer and
     * the per-request Chrome spans; the decision is a pure seeded hash
     * of the trace id, independent of --trace and --metrics — request
     * traces are reported stats, not observability. Note that sampled
     * frames carry the 16-byte trace-context extension on the wire, so
     * changing the rate shifts simulated wire timing slightly (the
     * honest cost of context propagation); baselines are recorded at
     * the default rate.
     */
    double traceSample = 1.0;

    /**
     * Parse the common bench command line. Unknown arguments are
     * fatal; --help prints usage and exits.
     */
    static Options
    parse(int argc, char **argv, std::uint64_t default_scale = 64,
          const char *bench_name = nullptr)
    {
        return parseImpl(argc, argv, default_scale, bench_name, false);
    }

    /**
     * Like parse(), but leaves `--benchmark_*` flags in argv for a
     * downstream parser (the google-benchmark bench); any other
     * unknown flag is still fatal. @p argc is updated in place.
     */
    static Options
    parsePassthrough(int &argc, char **argv,
                     std::uint64_t default_scale = 64,
                     const char *bench_name = nullptr)
    {
        return parseImpl(argc, argv, default_scale, bench_name, true);
    }

  private:
    static bool
    isInteger(const char *s)
    {
        if (*s == '\0') {
            return false;
        }
        for (; *s; ++s) {
            if (!std::isdigit(static_cast<unsigned char>(*s))) {
                return false;
            }
        }
        return true;
    }

    static Options
    parseImpl(int &argc, char **argv, std::uint64_t default_scale,
              const char *bench_name, bool pass_benchmark_flags)
    {
        Options opts;
        opts.scale = default_scale;

        int out = 1;
        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            if (std::strcmp(arg, "--threads") == 0) {
                fatal_if(i + 1 >= argc || !isInteger(argv[i + 1]),
                         "--threads needs a positive integer");
                opts.threads = static_cast<unsigned>(
                    std::strtoul(argv[++i], nullptr, 10));
                fatal_if(opts.threads == 0, "--threads must be >= 1");
            } else if (std::strcmp(arg, "--json") == 0) {
                if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0 &&
                    !isInteger(argv[i + 1])) {
                    opts.jsonPath = argv[++i];
                } else {
                    fatal_if(bench_name == nullptr,
                             "--json with no path needs a bench name default");
                    opts.jsonPath =
                        std::string("BENCH_") + bench_name + ".json";
                }
            } else if (std::strcmp(arg, "--trace") == 0) {
                fatal_if(i + 1 >= argc, "--trace needs an output path");
                opts.tracePath = argv[++i];
            } else if (std::strcmp(arg, "--metrics") == 0) {
                fatal_if(i + 1 >= argc, "--metrics needs an output path");
                opts.metricsPath = argv[++i];
            } else if (std::strcmp(arg, "--metrics-interval") == 0) {
                fatal_if(i + 1 >= argc || !isInteger(argv[i + 1]),
                         "--metrics-interval needs a positive tick count");
                opts.metricsInterval = std::strtoull(argv[++i], nullptr, 10);
                fatal_if(opts.metricsInterval == 0,
                         "--metrics-interval must be >= 1");
            } else if (std::strcmp(arg, "--trace-sample") == 0) {
                fatal_if(i + 1 >= argc,
                         "--trace-sample needs a rate in (0, 1]");
                char *end = nullptr;
                opts.traceSample = std::strtod(argv[++i], &end);
                fatal_if(end == argv[i] || *end != '\0' ||
                             !(opts.traceSample > 0) ||
                             opts.traceSample > 1,
                         "--trace-sample rate must be in (0, 1], got"
                         " '%s'", argv[i]);
            } else if (std::strcmp(arg, "--help") == 0) {
                std::printf("usage: %s [scale] [--threads N] [--json [path]]"
                            " [--trace <path>] [--metrics <path>"
                            " [--metrics-interval N]] [--trace-sample R]\n",
                            argv[0]);
                std::printf("  scale          scale divisor (default %llu)\n",
                            static_cast<unsigned long long>(default_scale));
                std::printf("  --threads N    run sweep points on N workers"
                            " (output identical to serial)\n");
                std::printf("  --json [path]  write BENCH_<name>.json"
                            " (default BENCH_%s.json)\n",
                            bench_name != nullptr ? bench_name : "<name>");
                std::printf("  --trace <path> write a Chrome trace_event"
                            " JSON profile of every point\n");
                std::printf("  --metrics <path>  write sampled time series"
                            " (.csv = CSV, else Prometheus text)\n");
                std::printf("  --metrics-interval N  sampling interval in"
                            " ticks (default 1000000 = 1us)\n");
                std::printf("  --trace-sample R  head-based request-trace"
                            " sampling rate in (0, 1] (default 1)\n");
                std::exit(0);
            } else if (isInteger(arg)) {
                opts.scale = std::strtoull(arg, nullptr, 10);
                fatal_if(opts.scale == 0, "scale divisor must be >= 1");
            } else if (pass_benchmark_flags &&
                       std::strncmp(arg, "--benchmark_", 12) == 0) {
                argv[out++] = argv[i];
            } else {
                fatal("unknown argument '%s' (see --help)", arg);
            }
        }
        argc = out;
        argv[argc] = nullptr;
        return opts;
    }
};

/** Print the bench banner. */
inline void
banner(const char *experiment, const char *claim)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", experiment);
    std::printf("paper: %s\n", claim);
    std::printf("==============================================================\n");
}

/**
 * Execute the sweep under @p opts: enables per-point tracing when
 * --trace was given, then runs on the requested worker count.
 */
inline void
runSweep(runner::SweepRunner &sweep, const Options &opts)
{
    if (!opts.tracePath.empty()) {
        sweep.enableTrace();
    }
    if (!opts.metricsPath.empty()) {
        sweep.enableMetrics(opts.metricsInterval);
    }
    sweep.run(opts.threads);
}

/**
 * Write the outputs --json/--trace asked for. The JSON "config"
 * header carries the scale divisor (plus any @p extra pairs) but
 * never the thread count — N-thread output must be byte-identical to
 * serial output, and the same holds for the trace document.
 */
inline void
writeBenchOutputs(const runner::SweepRunner &sweep, const Options &opts,
                  std::vector<runner::ConfigKv> extra = {})
{
    if (!opts.jsonPath.empty()) {
        std::vector<runner::ConfigKv> config;
        config.push_back({"scale", opts.scale});
        for (auto &kv : extra) {
            config.push_back(std::move(kv));
        }
        auto path = sweep.writeJsonFile(opts.jsonPath, config);
        std::printf("json: %s\n", path.c_str());
    }
    if (!opts.tracePath.empty()) {
        auto path = sweep.writeTraceFile(opts.tracePath);
        sweep.writeTraceSummary(std::cout);
        std::printf("trace: %s\n", path.c_str());
    }
    if (!opts.metricsPath.empty()) {
        auto path = sweep.writeMetricsFile(opts.metricsPath);
        std::printf("metrics: %s\n", path.c_str());
    }
}

} // namespace bench
} // namespace cereal

#endif // CEREAL_BENCH_BENCH_UTIL_HH
