/**
 * @file
 * Prometheus text-exposition grammar of bench metrics exports. The
 * files to check are the command-line arguments (the observed bench
 * runs write them):
 *
 *   test_prom_grammar <metrics.prom>...
 *
 * Every sample line must belong to a family declared by a `# TYPE`
 * line: a gauge sample carries the point and series labels, a value
 * and a timestamp; a histogram sample is a `_bucket` (with an `le`
 * label), `_sum` or `_count` line carrying the same labels and a
 * value.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

namespace {

std::vector<std::string> g_files;

TEST(PromExposition, EverySampleLineMatchesItsDeclaredType)
{
    const std::string name = R"(([a-zA-Z_:][a-zA-Z0-9_:]*))";
    const std::string labels = R"(\{point="[^"]*",series="[^"]*")";
    const std::regex gauge("^" + name + labels + R"(\} \S+ \d+$)");
    const std::regex hist("^" + name + "(_bucket" + labels +
                          R"(,le="[^"]+"\}|_sum)" + labels +
                          R"(\}|_count)" + labels + R"(\}) \S+$)");

    ASSERT_FALSE(g_files.empty()) << "usage: test_prom_grammar <file>...";
    for (const auto &path : g_files) {
        std::ifstream is(path);
        ASSERT_TRUE(is) << "cannot read " << path;
        std::map<std::string, std::string> types;
        std::size_t samples = 0;
        std::string line;
        while (std::getline(is, line)) {
            if (line.rfind("# TYPE ", 0) == 0) {
                std::istringstream ss(line.substr(7));
                std::string family, type;
                ss >> family >> type;
                types[family] = type;
            }
            if (line.empty() || line[0] == '#') {
                continue;
            }
            ++samples;
            std::smatch m;
            const bool ok =
                (std::regex_match(line, m, gauge) &&
                 types[m[1].str()] == "gauge") ||
                (std::regex_match(line, m, hist) &&
                 types[m[1].str()] == "histogram");
            EXPECT_TRUE(ok) << path << ": " << line;
        }
        EXPECT_GT(samples, 0u) << path << ": no samples in exposition";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    testing::InitGoogleTest(&argc, argv);
    g_files.assign(argv + 1, argv + argc);
    return RUN_ALL_TESTS();
}
