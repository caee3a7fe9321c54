/**
 * @file
 * Scenario: a pure-data description of one simulation point.
 *
 * The experiment engine (src/exp/) separates *what* to simulate from
 * *how* it executes. A Scenario names a topology, a router and link
 * configuration, a routing mode, a traffic specification, an offered
 * load and the RNG seeds — everything needed to reconstruct the run
 * bit-for-bit — without holding any live simulation objects. Plans
 * built from Scenarios can therefore be executed serially or on a
 * thread pool with identical results (see ExperimentRunner).
 */

#ifndef SNOC_EXP_SCENARIO_HH
#define SNOC_EXP_SCENARIO_HH

#include <cstdint>
#include <string>

#include "sim/network.hh"
#include "sim/routing.hh"
#include "sim/simulation.hh"
#include "traffic/patterns.hh"
#include "workload/spec.hh"

namespace snoc {

/**
 * What traffic to offer: a synthetic pattern, a trace workload, a
 * closed-loop request/reply generator, or a collective schedule.
 */
struct TrafficSpec
{
    enum class Kind
    {
        Synthetic,  //!< Bernoulli source driving a PatternKind
        Workload,   //!< PARSEC/SPLASH-like trace replay by name
        ClosedLoop, //!< MSHR-window request/reply chains
        Collective, //!< broadcast / barrier / all-to-all rounds
    };

    Kind kind = Kind::Synthetic;

    // Synthetic traffic; `pattern` also draws closed-loop request
    // destinations (and dirty-owner forwards).
    PatternKind pattern = PatternKind::Random;
    int packetSizeFlits = 6; //!< Section 5.1's synthetic packet size

    // Trace workloads (see parsecSplashWorkloads()).
    std::string workload;       //!< profile name, e.g. "radix"
    Cycle workloadCycles = 5000; //!< trace duration

    // Closed-loop / collective specs (see src/workload/spec.hh).
    ClosedLoopSpec closedLoop;
    CollectiveSpec collective;

    static TrafficSpec
    synthetic(PatternKind p)
    {
        TrafficSpec t;
        t.pattern = p;
        return t;
    }

    static TrafficSpec
    trace(std::string name, Cycle cycles)
    {
        TrafficSpec t;
        t.kind = Kind::Workload;
        t.workload = std::move(name);
        t.workloadCycles = cycles;
        return t;
    }

    static TrafficSpec
    closedLoopOn(PatternKind p, const ClosedLoopSpec &spec = {})
    {
        TrafficSpec t;
        t.kind = Kind::ClosedLoop;
        t.pattern = p;
        t.closedLoop = spec;
        return t;
    }

    static TrafficSpec
    collectiveOf(const CollectiveSpec &spec)
    {
        TrafficSpec t;
        t.kind = Kind::Collective;
        t.collective = spec;
        return t;
    }

    bool operator==(const TrafficSpec &) const = default;
};

/**
 * Energy evaluation spec: when enabled, the ExperimentRunner feeds
 * each point's measurement-window counters through the analytical
 * PowerModel (power/power_model.hh) and attaches power / EDP /
 * throughput-per-watt to the result. Purely an evaluation axis: it
 * never changes the simulation itself, so enabling it keeps every
 * SimResult bit-identical.
 */
struct EnergySpec
{
    bool enabled = false;
    std::string tech = "45nm"; //!< corner, see techCornerNames()
    int flitBits = 128;        //!< link width (Section 5.1)

    static EnergySpec
    corner(std::string techName, int bits = 128)
    {
        EnergySpec e;
        e.enabled = true;
        e.tech = std::move(techName);
        e.flitBits = bits;
        return e;
    }

    bool operator==(const EnergySpec &) const = default;
};

/** One fully-specified simulation point, as data. */
struct Scenario
{
    std::string label;      //!< optional; describe() derives one
    std::string topology;   //!< Table-4 id, resolved via TopologyCache
    std::string routerConfig = "EB-Var";
    LinkConfig link;        //!< hopsPerCycle = 1 disables SMART
    RoutingMode routing = RoutingMode::Minimal;
    TrafficSpec traffic;
    double load = 0.1;      //!< offered flits/node/cycle (synthetic)
    std::uint64_t seed = 42;       //!< traffic source seed
    std::uint64_t routingSeed = 7; //!< adaptive-routing tie-break seed
    SimConfig sim;          //!< warmup / measurement windows
    FaultPlan faults;       //!< timed link/router failures; an
                            //!< inactive (default) plan keeps the run
                            //!< bit-identical to the fault-free path
    EnergySpec energy;      //!< post-run power/EDP evaluation; never
                            //!< affects the simulation itself

    bool operator==(const Scenario &) const = default;

    /**
     * label, or a derived
     * "topo/router/routing/traffic@load[+faults][+tech]" when the
     * label is empty. Every axis that changes the result row is part
     * of the derived label (routing mode, fault-plan presence, the
     * energy corner), so distinct points never collide — e.g. the
     * same point evaluated at two technology corners; this is the
     * single labeling path used by the report renderer, the sinks
     * and the CLI.
     */
    std::string describe() const;
};

/** Convenience builder for the common synthetic case. */
Scenario makeSyntheticScenario(const std::string &topology,
                               const std::string &routerConfig,
                               PatternKind pattern, double load,
                               int hopsPerCycle = 1,
                               RoutingMode routing =
                                   RoutingMode::Minimal,
                               const SimConfig &sim = {});

/**
 * Convenience builder for trace-workload scenarios. The default
 * seed matches runWorkload()'s legacy default (99) so engine runs
 * reproduce direct runWorkload() calls bit for bit.
 */
Scenario makeTraceScenario(const std::string &topology,
                           const std::string &workload, Cycle cycles,
                           std::uint64_t seed = 99);

/** Convenience builder for closed-loop request/reply scenarios. */
Scenario makeClosedLoopScenario(const std::string &topology,
                                const std::string &routerConfig,
                                PatternKind pattern,
                                const ClosedLoopSpec &spec = {},
                                RoutingMode routing =
                                    RoutingMode::Minimal,
                                const SimConfig &sim = {});

/** Convenience builder for collective-schedule scenarios. */
Scenario makeCollectiveScenario(const std::string &topology,
                                const std::string &routerConfig,
                                const CollectiveSpec &spec,
                                RoutingMode routing =
                                    RoutingMode::Minimal,
                                const SimConfig &sim = {});

/**
 * Interpret a sweep/saturation x-value for this scenario. Open-loop
 * scenarios sweep the offered load; closed-loop scenarios sweep the
 * axis named by closedLoop.sweepAxis (issue probability, clamped to
 * [0, 1], or window depth, rounded to an integer >= 1). The single
 * shared mapping keeps runJob's evaluation and the recorded sweep
 * rows in exact agreement.
 */
void applySweepValue(Scenario &s, double x);

} // namespace snoc

#endif // SNOC_EXP_SCENARIO_HH
