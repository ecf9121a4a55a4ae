/**
 * @file
 * Pinned golden metrics CSV of one small controlled serving point.
 *
 * The serving front end ticks its metrics groups from an event queue
 * whose clock jumps thousands of 1 us sampling intervals between
 * events, so every series here exercises long catch-ups and ring
 * wrap-around. tests/golden/metrics_fig10_small.csv covers the
 * DRAM/core series, whose clocks advance in small steps.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "cluster/cluster.hh"
#include "cluster/serving.hh"
#include "metrics/metrics.hh"

namespace cereal {
namespace {

using metrics::MetricsRecorder;

/**
 * Regenerate after a deliberate instrumentation/model change with:
 *
 *   CEREAL_UPDATE_GOLDEN=1 ./build/tests/test_metrics_serving
 */
TEST(GoldenMetrics, SmallServingRunMatchesPinnedCsv)
{
    cluster::ClusterConfig cc;
    cc.nodes = 4;
    cc.backend = cluster::Backend::Kryo;
    cc.scale = 1 << 20;
    // Profile outside the recorder so only the serving run is metered.
    cluster::ClusterSim sim(cc);

    // A controlled point near capacity and an open-loop overload whose
    // backlog is still draining when the tail samples are taken.
    cluster::ServingConfig ctl;
    ctl.utilization = 0.95;
    ctl.requestsPerNode = 60;
    ctl.admission.policy = cluster::AdmissionPolicy::Drop;
    ctl.admission.queueBound = 16;
    ctl.flow.enabled = true;
    ctl.flow.window = 4;
    cluster::ServingConfig open;
    open.utilization = 1.5;
    open.requestsPerNode = 60;
    open.admission.policy = cluster::AdmissionPolicy::None;
    open.flow.enabled = false;

    // A small ring keeps the golden short; it still wraps many times.
    MetricsRecorder ctl_rec(MetricsRecorder::kDefaultInterval, 32);
    MetricsRecorder open_rec(MetricsRecorder::kDefaultInterval, 32);
    for (auto [rec, cfg] : {std::pair{&ctl_rec, &ctl},
                            std::pair{&open_rec, &open}}) {
        {
            metrics::ScopedMetrics scope(*rec);
            cluster::runServingFrontend(sim, *cfg);
        }
        ASSERT_FALSE(rec->series().empty());
        for (const auto &s : rec->series()) {
            EXPECT_GT(s.dropped(), 0u) << s.name() << " never wrapped";
        }
    }

    std::ostringstream ss;
    metrics::writeCsv(ss, {{"kryo-ctl-u95", &ctl_rec},
                           {"kryo-open-u150", &open_rec}});
    const std::string doc = ss.str();

    const std::string path =
        std::string(CEREAL_GOLDEN_DIR) + "/metrics_serving_small.csv";
    if (std::getenv("CEREAL_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << doc;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " (generate with CEREAL_UPDATE_GOLDEN=1)";
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(doc, golden.str())
        << "serving metrics drifted from the pinned golden CSV; if the "
           "change is deliberate, regenerate with CEREAL_UPDATE_GOLDEN=1";
}

} // namespace
} // namespace cereal
