/**
 * @file
 * The serving workloads: serve-mix and serve-observed.
 *
 * serve-mix runs the serving front end (runServingFrontend) for all six
 * backends, open loop and tail-drop + credit control, at 50%, 95% and
 * 200% of each backend's capacity, plus the 4x flash-crowd row. One
 * unit is one runServingFrontend call. The event kernel, fabric,
 * admission, flow control and load generation do the work; serde, the
 * core model and the caches run only in set-up, inside the ClusterSim
 * constructor's backend profiling.
 *
 * serve-observed runs a few of those points with the simulator's own
 * MetricsRecorder and ChromeTraceSink installed (request timelines
 * sampled at 1%), and exports both; it is the only workload that
 * exercises the metrics and trace layers.
 */

#ifndef HOSTBENCH_SERVE_HH
#define HOSTBENCH_SERVE_HH

#include <cstdint>
#include <memory>

#include "hostbench/ledger.hh"

namespace hostbench {

struct ServeParams
{
    /** ClusterConfig::scale: divisor of the profiled partition size. */
    std::uint64_t scale = 64;
    /** ServingConfig::requestsPerNode. */
    std::uint64_t requestsPerNode = 300;
};

std::unique_ptr<Workload> makeServeMix(const ServeParams &params = {});
std::unique_ptr<Workload> makeServeObserved(const ServeParams &params = {});

/** Cross-check: the load generator drew every request the run saw. */
bool arrivalsMatch(std::uint64_t arrivals, std::uint64_t requests);

} // namespace hostbench

#endif // HOSTBENCH_SERVE_HH
