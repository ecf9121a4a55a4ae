/**
 * @file
 * hostbench: runs one workload of the host-time benchmark and prints
 * every metric it measured, with its unit, as one JSON object on the
 * last line of standard output.
 *
 *   hostbench --workload <name> --seed <n> --seconds <s> [--trace 0|1]
 *             [--spans <path>]
 *
 * Workloads: micro-sd, serve-mix, serve-observed, dataflow-jobs.
 * --trace 1 adds the traced passes and the per-layer ledger; --spans
 * writes the traced run's spans there as JSON.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "hostbench/dataflow_jobs.hh"
#include "hostbench/ledger.hh"
#include "hostbench/micro_sd.hh"
#include "hostbench/serve.hh"

using namespace hostbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "hostbench: %s\nusage: hostbench --workload "
                 "<micro-sd|serve-mix|serve-observed|dataflow-jobs> "
                 "--seed <n> --seconds <s> [--trace 0|1] [--spans <path>]\n",
                 why);
    std::exit(2);
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "micro-sd") {
        return makeMicroSd();
    }
    if (name == "serve-mix") {
        return makeServeMix();
    }
    if (name == "serve-observed") {
        return makeServeObserved();
    }
    if (name == "dataflow-jobs") {
        return makeDataflowJobs();
    }
    return nullptr;
}

void
printNumber(double v)
{
    if (std::isnan(v)) {
        std::printf("NaN");
    } else if (std::isinf(v)) {
        std::printf(v > 0 ? "Infinity" : "-Infinity");
    } else {
        std::printf("%.17g", v);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, spans_path;
    RunOptions opts;
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (i + 1 >= argc) {
            usage("every flag takes a value");
        }
        const char *val = argv[++i];
        char *end = nullptr;
        if (std::strcmp(arg, "--workload") == 0) {
            workload = val;
        } else if (std::strcmp(arg, "--seed") == 0) {
            opts.seed = std::strtoull(val, &end, 10);
            have_seed = *val && *end == '\0';
        } else if (std::strcmp(arg, "--seconds") == 0) {
            opts.seconds = std::strtod(val, &end);
            have_seconds = *val && *end == '\0' && opts.seconds > 0;
        } else if (std::strcmp(arg, "--trace") == 0) {
            if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
                usage("--trace takes 0 or 1");
            }
            opts.trace = val[0] == '1';
        } else if (std::strcmp(arg, "--spans") == 0) {
            spans_path = val;
        } else {
            usage("unknown flag");
        }
    }
    if (!have_seed || !have_seconds) {
        usage("--seed and a positive --seconds are required");
    }
    auto w = makeWorkload(workload);
    if (!w) {
        usage("unknown --workload");
    }

    RunResult r = runWorkload(*w, opts);

    if (!spans_path.empty()) {
        std::ofstream os(spans_path);
        r.spans.writeJson(os);
        if (!os) {
            std::fprintf(stderr, "hostbench: cannot write %s\n",
                         spans_path.c_str());
            return 1;
        }
    }

    for (const Metric &m : r.metrics.all()) {
        std::printf("%-28s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("{\"workload\": \"%s\", \"sim_digest\": \"%s\", "
                "\"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                workload.c_str(), r.simDigest.hex().c_str(),
                static_cast<unsigned long long>(r.checks.attempted()),
                static_cast<unsigned long long>(r.checks.failed()));
    const auto &all = r.metrics.all();
    for (std::size_t i = 0; i < all.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": ", i ? ", " : "",
                    all[i].name.c_str());
        printNumber(all[i].value);
        std::printf(", \"unit\": \"%s\"}", all[i].unit.c_str());
    }
    std::printf("}}\n");
    return 0;
}
