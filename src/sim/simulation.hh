/**
 * @file
 * Simulation driver: runs a traffic source against a Network with
 * the paper's warmup / measurement / drain methodology and reports
 * latency and throughput, plus load-sweep and saturation helpers
 * used by the benchmark harness.
 */

#ifndef SNOC_SIM_SIMULATION_HH
#define SNOC_SIM_SIMULATION_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/network.hh"

namespace snoc {

/**
 * A traffic source: called once per cycle; offers packets into the
 * network for the cycle. Return false to indicate the source is
 * exhausted (trace end); synthetic sources always return true.
 */
using TrafficSource = std::function<bool(Network &net, Cycle cycle)>;

/** Result of one simulation run. */
struct SimResult
{
    double avgPacketLatency = 0.0;  //!< cycles, generation -> ejection
    double avgNetworkLatency = 0.0; //!< cycles, injection -> ejection
    double p99PacketLatencyBound = 0.0; //!< mean + 3 stddev proxy
    double avgHops = 0.0;
    double throughput = 0.0;        //!< flits/node/cycle delivered
    double offeredLoad = 0.0;       //!< flits/node/cycle offered
    std::uint64_t packetsDelivered = 0;
    bool stable = true;             //!< delivered kept up with offered
    SimCounters counters;           //!< measurement-window activity
    Cycle cyclesRun = 0;

    bool operator==(const SimResult &) const = default;
};

/** Run configuration. */
struct SimConfig
{
    Cycle warmupCycles = 2000;
    Cycle measureCycles = 10000;
    Cycle drainCycleLimit = 50000;  //!< extra cycles to wait for drain
    bool drain = false;             //!< run until in-flight == 0

    bool operator==(const SimConfig &) const = default;
};

/** Drive `source` against `net` and measure. */
SimResult runSimulation(Network &net, const TrafficSource &source,
                        const SimConfig &cfg);

/**
 * Closed-loop stability override, shared by both run drivers
 * (serial, sharded) so `stable` is mode-invariant. Open-loop
 * instability shows up as source backlog; a closed-loop source never
 * grows backlog — it stalls instead. When the measurement window
 * recorded closed-loop activity, redefine stability as "less than
 * half of all node-cycles were spent with a full window". No-op (and
 * bit-identical behavior) when the window counters show no
 * closed-loop activity.
 */
void applyClosedLoopStability(SimResult &r, double nodes,
                              double cycles);

/** One point of a load sweep. */
struct LoadPoint
{
    double load = 0.0;  //!< offered flits/node/cycle
    SimResult result;
};

/**
 * Sweep injection rates with a synthetic pattern.
 *
 * @param makeNet    network factory (fresh network per load point)
 * @param makeSource source factory for a given load
 * @param loads      offered loads in flits/node/cycle
 * @param cfg        per-run configuration
 * @param stopAtSaturation stop the sweep once a point saturates
 *        (latency > saturationFactor x the first point's latency)
 */
std::vector<LoadPoint> sweepLoads(
    const std::function<Network()> &makeNet,
    const std::function<TrafficSource(double)> &makeSource,
    const std::vector<double> &loads, const SimConfig &cfg,
    bool stopAtSaturation = true, double saturationFactor = 6.0);

/**
 * Estimate saturation throughput: the highest delivered
 * flits/node/cycle over a bisection search of the stable/unstable
 * load boundary (see exp/strategies.hh findSaturation).
 */
double saturationThroughput(
    const std::function<Network()> &makeNet,
    const std::function<TrafficSource(double)> &makeSource,
    const SimConfig &cfg);

} // namespace snoc

#endif // SNOC_SIM_SIMULATION_HH
