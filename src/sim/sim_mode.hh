/**
 * @file
 * Residual fidelity enum.
 *
 * The simulator has one fidelity: observation (trace spans, metrics
 * time series) follows the attached sinks alone. SimMode survives only
 * because perfbench/hostbench/dataflow_jobs.cc:223 (`nodeConfig`) copies
 * `DataflowConfig::mode` into `cluster::NodeConfig::mode`; both members
 * are unread, and the enum has no second value, so it selects nothing.
 * Delete it together with that line.
 */

#ifndef CEREAL_SIM_SIM_MODE_HH
#define CEREAL_SIM_SIM_MODE_HH

namespace cereal {

enum class SimMode { CycleAccurate };

} // namespace cereal

#endif // CEREAL_SIM_SIM_MODE_HH
