/**
 * @file
 * CLI perf-regression gate: diff a fresh `BENCH_<name>.json` against a
 * committed baseline.
 *
 *   bench_compare <fresh.json> <baseline.json>
 *                 [--tolerance X] [--tolerance <path-substr>=Y]
 *                 [--floor <path-substr>=R] ...
 *
 * Exit status 0 when every numeric leaf is within tolerance and every
 * string leaf is unchanged, 1 on any drift / changed / missing / extra
 * leaf, 2 on usage or I/O errors. With CEREAL_UPDATE_BASELINES=1 in
 * the environment the fresh document is copied over the baseline
 * instead of compared (the golden-file regen convention), which is how
 * baselines are recorded in the first place.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "runner/baseline.hh"

namespace {

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        return false;
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    out = ss.str();
    return true;
}

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <fresh.json> <baseline.json>"
                 " [--tolerance X] [--tolerance <path-substr>=Y]...\n"
                 "  --tolerance X             default relative tolerance"
                 " (default 0.05)\n"
                 "  --tolerance substr=Y      override for paths"
                 " containing substr (longest match wins)\n"
                 "  --floor substr=R          one-sided gate for paths"
                 " containing substr: fresh >= R * baseline\n"
                 "                            (improvements always pass;"
                 " replaces the symmetric tolerance)\n"
                 "  CEREAL_UPDATE_BASELINES=1 rewrite the baseline from"
                 " the fresh document\n",
                 argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string fresh_path, base_path;
    cereal::runner::Tolerance tol;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--help") == 0) {
            usage(argv[0]);
            return 0;
        }
        if (std::strcmp(arg, "--tolerance") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--tolerance needs a value\n");
                return 2;
            }
            const std::string spec = argv[++i];
            const auto eq = spec.find('=');
            char *end = nullptr;
            if (eq == std::string::npos) {
                tol.defaultRel = std::strtod(spec.c_str(), &end);
                if (end != spec.c_str() + spec.size() ||
                    tol.defaultRel < 0) {
                    std::fprintf(stderr, "bad tolerance '%s'\n",
                                 spec.c_str());
                    return 2;
                }
            } else {
                const std::string key = spec.substr(0, eq);
                const std::string val = spec.substr(eq + 1);
                const double rel = std::strtod(val.c_str(), &end);
                if (key.empty() || end != val.c_str() + val.size() ||
                    rel < 0) {
                    std::fprintf(stderr, "bad tolerance '%s'\n",
                                 spec.c_str());
                    return 2;
                }
                tol.overrides.emplace_back(key, rel);
            }
            continue;
        }
        if (std::strcmp(arg, "--floor") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--floor needs substr=R\n");
                return 2;
            }
            const std::string spec = argv[++i];
            const auto eq = spec.find('=');
            char *end = nullptr;
            if (eq == std::string::npos) {
                std::fprintf(stderr, "bad floor '%s' (want substr=R)\n",
                             spec.c_str());
                return 2;
            }
            const std::string key = spec.substr(0, eq);
            const std::string val = spec.substr(eq + 1);
            const double ratio = std::strtod(val.c_str(), &end);
            if (key.empty() || end != val.c_str() + val.size() ||
                ratio <= 0) {
                std::fprintf(stderr, "bad floor '%s'\n", spec.c_str());
                return 2;
            }
            tol.floors.emplace_back(key, ratio);
            continue;
        }
        if (arg[0] == '-') {
            std::fprintf(stderr, "unknown flag '%s'\n", arg);
            usage(argv[0]);
            return 2;
        }
        if (fresh_path.empty()) {
            fresh_path = arg;
        } else if (base_path.empty()) {
            base_path = arg;
        } else {
            std::fprintf(stderr, "too many positional arguments\n");
            usage(argv[0]);
            return 2;
        }
    }
    if (fresh_path.empty() || base_path.empty()) {
        usage(argv[0]);
        return 2;
    }

    std::string fresh;
    if (!readFile(fresh_path, fresh)) {
        std::fprintf(stderr, "cannot read %s\n", fresh_path.c_str());
        return 2;
    }

    const char *update = std::getenv("CEREAL_UPDATE_BASELINES");
    if (update != nullptr && std::strcmp(update, "1") == 0) {
        std::ofstream os(base_path, std::ios::binary);
        if (!os) {
            std::fprintf(stderr, "cannot write %s\n", base_path.c_str());
            return 2;
        }
        os << fresh;
        os.flush();
        if (!os) {
            std::fprintf(stderr, "write to %s failed\n",
                         base_path.c_str());
            return 2;
        }
        std::printf("baseline updated: %s\n", base_path.c_str());
        return 0;
    }

    std::string base;
    if (!readFile(base_path, base)) {
        std::fprintf(stderr,
                     "cannot read %s (run with"
                     " CEREAL_UPDATE_BASELINES=1 to record it)\n",
                     base_path.c_str());
        return 2;
    }

    const auto res =
        cereal::runner::compareBenchJson(fresh, base, tol);
    std::fputs(res.report().c_str(), stdout);
    if (!res.error.empty()) {
        return 2;
    }
    return res.pass ? 0 : 1;
}
