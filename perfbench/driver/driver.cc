/**
 * @file
 * Outside-in driver for the campaign benchmark (perfbench/run.py).
 *
 * It links the simulator library and calls only its public entry
 * points, so it can time each layer without any change to src/:
 *
 *   perfbench_driver setup <plan.json> <repeats>
 *       Time plan parsing, every distinct topology build and every
 *       point's Network construction, `repeats` times over a cleared
 *       TopologyCache, after two untimed warm-up passes (a fresh
 *       process's first two passes read up to three times slower
 *       than the rest). Prints one JSON object.
 *
 *   perfbench_driver run <plan.json> traced|plain <outdir>
 *       Execute the plan serially and unbatched, job by job, with the
 *       same strategies ExperimentRunner uses. `plain` evaluates each
 *       point with ExperimentRunner::runScenario (the reference);
 *       `traced` rebuilds the same steps from the public layers and
 *       records a span around each call. Both write report.json (the
 *       JSON sink output `snoc run --format json` must equal) and
 *       results.jsonl (every SimResult, serialized in full). `traced`
 *       also writes spans.json once at exit and prints the per-layer
 *       metrics. Prints one JSON object.
 *
 * Spans carry a name, start, end, parent and point id. The traffic
 * source is called once per cycle, far too often for a span per call;
 * its time is summed per simulation phase and recorded as one
 * coalesced child span of that phase, starting at the phase start.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"
#include "exp/journal.hh"
#include "exp/plan_io.hh"
#include "exp/report.hh"
#include "exp/result_sink.hh"
#include "exp/result_store.hh"
#include "exp/runner.hh"
#include "exp/serialize.hh"
#include "graph/shortest_paths.hh"
#include "sim/router_config.hh"
#include "sim/simulation.hh"
#include "topo/topology_cache.hh"
#include "trace/trace.hh"
#include "trace/workloads.hh"
#include "traffic/patterns.hh"
#include "traffic/synthetic.hh"
#include "workload/closed_loop.hh"
#include "workload/collective.hh"

namespace {

using namespace snoc;
using Clock = std::chrono::steady_clock;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

struct Span
{
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1; //!< index into the span list, -1 for a root
    int point = -1;  //!< evaluation point id, -1 outside any point
};

/** In-memory span list; written once, when the run ends. */
class Tracer
{
  public:
    int
    open(const std::string &name, int point = -1)
    {
        Span s;
        s.name = name;
        s.start = nowNs();
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.point = point >= 0 ? point
                             : (s.parent >= 0 ? spans_[s.parent].point
                                              : -1);
        spans_.push_back(std::move(s));
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int id)
    {
        spans_[id].end = nowNs();
        stack_.pop_back();
    }

    /** A span whose interval is known after the fact. */
    int
    add(const std::string &name, std::int64_t start, std::int64_t end,
        int parent)
    {
        Span s;
        s.name = name;
        s.start = start;
        s.end = end;
        s.parent = parent;
        s.point = parent >= 0 ? spans_[parent].point : -1;
        spans_.push_back(std::move(s));
        return static_cast<int>(spans_.size()) - 1;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** The innermost open span, -1 when none is open. */
    int current() const { return stack_.empty() ? -1 : stack_.back(); }

    /** Duration minus the durations of direct children, per span. */
    std::vector<std::int64_t>
    selfTimes() const
    {
        std::vector<std::int64_t> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].end - spans_[i].start;
        for (const Span &s : spans_)
            if (s.parent >= 0)
                self[s.parent] -= s.end - s.start;
        return self;
    }

    void
    write(const std::string &path) const
    {
        JsonValue arr = JsonValue::array();
        for (const Span &s : spans_) {
            JsonValue o = JsonValue::object();
            o.set("name", JsonValue::string(s.name));
            o.set("start_ns", JsonValue::number(s.start));
            o.set("end_ns", JsonValue::number(s.end));
            o.set("parent", JsonValue::number(s.parent));
            o.set("point", JsonValue::number(s.point));
            arr.push(std::move(o));
        }
        std::ofstream f(path);
        f << arr.dump(-1) << "\n";
        if (!f)
            fatal("cannot write spans to '", path, "'");
    }

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span over a scope. */
class Scoped
{
  public:
    Scoped(Tracer *t, const std::string &name, int point = -1)
        : t_(t), id_(t ? t->open(name, point) : -1)
    {
    }
    ~Scoped()
    {
        if (t_)
            t_->close(id_);
    }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    Tracer *t_;
    int id_;
};

/** What the traced evaluator learns about one point. */
struct PointInfo
{
    enum class Kind
    {
        Synthetic,
        Workload, //!< closed-loop or collective source
        Trace,    //!< runWorkload
    };
    Kind kind = Kind::Synthetic;
    double load = 0.0;
    std::uint64_t routerCycles = 0;
    std::uint64_t nodeCalls = 0; //!< nodes x source calls
    std::uint64_t nodeCycles = 0; //!< nodes x cycles stepped
    std::uint64_t activeSum = 0;  //!< sum of lastActiveRouters()
    std::uint64_t routerSamples = 0; //!< routers x samples taken
    SimCounters total;             //!< whole-run counters
};

/** The source a scenario asks for (mirrors the runner's choice). */
TrafficSource
makeSource(const Scenario &s, const NocTopology &topo)
{
    switch (s.traffic.kind) {
      case TrafficSpec::Kind::ClosedLoop: {
        auto pattern = std::shared_ptr<TrafficPattern>(
            makeTrafficPattern(s.traffic.pattern, topo));
        return makeClosedLoopSource(std::move(pattern),
                                    s.traffic.closedLoop, s.seed)
            .source;
      }
      case TrafficSpec::Kind::Collective:
        return makeCollectiveSource(s.traffic.collective).source;
      case TrafficSpec::Kind::Workload:
        fatal("trace workloads have no TrafficSource");
      case TrafficSpec::Kind::Synthetic:
        break;
    }
    auto pattern = std::shared_ptr<TrafficPattern>(
        makeTrafficPattern(s.traffic.pattern, topo));
    SyntheticConfig sc;
    sc.load = s.load;
    sc.packetSizeFlits = s.traffic.packetSizeFlits;
    sc.seed = s.seed;
    return makeSyntheticSource(std::move(pattern), sc);
}

/** Traced evaluation of one scenario through the public layers. */
SimResult
evalTraced(const Scenario &s, Tracer &tr, int pointId,
           std::vector<PointInfo> &infos)
{
    Scoped point(&tr, "point", pointId);
    PointInfo info;

    TopologyCache &cache = TopologyCache::instance();
    const NocTopology *topo = nullptr;
    {
        std::size_t missesBefore = cache.misses();
        std::int64_t t0 = nowNs();
        topo = &cache.get(s.topology);
        bool built = cache.misses() != missesBefore;
        tr.add(built ? "topo.build" : "topo.get", t0, nowNs(),
               tr.current());
        if (built) {
            // A fresh topology: time the all-pairs table every
            // routing function builds from it, once per id.
            Scoped sp(&tr, "graph.shortest_paths");
            ShortestPaths paths(topo->routers());
            (void)paths;
        }
    }
    const int routers = topo->numRouters();
    const int nodes = topo->numNodes();

    std::unique_ptr<Network> net;
    {
        Scoped b(&tr, "sim.network_build");
        net = std::make_unique<Network>(
            *topo, RouterConfig::named(s.routerConfig), s.link,
            s.routing, s.routingSeed, s.faults);
    }

    SimResult r;
    if (s.traffic.kind == TrafficSpec::Kind::Workload) {
        info.kind = PointInfo::Kind::Trace;
        Scoped run(&tr, "trace.run");
        r = runWorkload(*net, workloadByName(s.traffic.workload),
                        s.traffic.workloadCycles, s.seed);
    } else {
        bool synthetic = s.traffic.kind == TrafficSpec::Kind::Synthetic;
        info.kind = synthetic ? PointInfo::Kind::Synthetic
                              : PointInfo::Kind::Workload;
        info.load = s.load;
        const char *srcName =
            synthetic ? "traffic.source" : "workload.source";
        TrafficSource inner;
        {
            Scoped mk(&tr, synthetic ? "traffic.make_source"
                                     : "workload.make_source");
            inner = makeSource(s, *topo);
        }

        // Per-phase accounting: phase p of the cycle a source call
        // belongs to; the gap between two calls is the step of the
        // earlier call's cycle.
        const Cycle w = s.sim.warmupCycles;
        const Cycle m = s.sim.measureCycles;
        std::int64_t phaseStart[3] = {-1, -1, -1};
        std::int64_t srcNs[3] = {0, 0, 0};
        std::uint64_t calls = 0;
        TrafficSource wrapped = [&](Network &n, Cycle cycle) {
            std::int64_t t0 = nowNs();
            if (calls > 0)
                info.activeSum += n.lastActiveRouters();
            int p = cycle < w ? 0 : (cycle < w + m ? 1 : 2);
            if (phaseStart[p] < 0)
                phaseStart[p] = t0;
            bool alive = inner(n, cycle);
            std::int64_t t1 = nowNs();
            srcNs[p] += t1 - t0;
            ++calls;
            return alive;
        };

        std::int64_t runStart = nowNs();
        r = runSimulation(*net, wrapped, s.sim);
        std::int64_t runEnd = nowNs();
        int runId = tr.add("sim.run", runStart, runEnd, tr.current());
        if (calls > 0)
            info.activeSum += net->lastActiveRouters();
        info.routerSamples =
            static_cast<std::uint64_t>(routers) * calls;
        info.nodeCalls = static_cast<std::uint64_t>(nodes) * calls;

        static const char *const kPhase[3] = {"sim.warmup",
                                              "sim.measure",
                                              "sim.drain"};
        for (int p = 0; p < 3; ++p) {
            if (phaseStart[p] < 0)
                continue;
            std::int64_t start = p == 0 ? runStart : phaseStart[p];
            std::int64_t end = runEnd;
            for (int q = p + 1; q < 3; ++q)
                if (phaseStart[q] >= 0) {
                    end = phaseStart[q];
                    break;
                }
            int ph = tr.add(kPhase[p], start, end, runId);
            tr.add(srcName, start, start + srcNs[p], ph);
        }
    }

    info.routerCycles = static_cast<std::uint64_t>(routers) * net->now();
    info.nodeCycles = static_cast<std::uint64_t>(nodes) * net->now();
    info.total = net->counters();
    infos.push_back(info);
    return r;
}

using Evaluator = std::function<SimResult(const Scenario &)>;

/** One job, serially, with the runner's strategies. */
JobResult
runJob(const Job &job, const Evaluator &eval)
{
    JobResult out;
    out.kind = job.kind;
    auto evalInto = [&](const Scenario &s) -> const SimResult & {
        ScenarioResult p;
        p.scenario = s;
        p.sim = eval(s);
        out.points.push_back(std::move(p));
        return out.points.back().sim;
    };
    auto evalAt = [&](double x) -> SimResult {
        Scenario point = job.scenario;
        applySweepValue(point, x);
        return evalInto(point);
    };
    switch (job.kind) {
    case Job::Kind::Single:
        evalInto(job.scenario);
        break;
    case Job::Kind::Sweep:
        if (!job.stopAtSaturation) {
            for (double x : job.loads)
                evalAt(x);
        } else {
            runLoadSweep(evalAt, job.loads, true, job.saturationFactor);
        }
        break;
    case Job::Kind::Saturation: {
        SaturationResult sat = findSaturation(evalAt, job.saturation);
        out.saturationLoad = sat.saturationLoad;
        out.bestThroughput = sat.bestThroughput;
        break;
    }
    }
    return out;
}

double
ms(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

double
sec(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e9;
}

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream f(path, std::ios::binary);
    f << text;
    if (!f)
        fatal("cannot write '", path, "'");
}

/** Every scenario a plan can evaluate, for set-up timing. */
std::vector<Scenario>
plannedPoints(const ExperimentPlan &plan)
{
    std::vector<Scenario> pts;
    for (const Job &job : plan.jobs) {
        if (job.kind == Job::Kind::Sweep) {
            for (double x : job.loads) {
                Scenario s = job.scenario;
                applySweepValue(s, x);
                pts.push_back(std::move(s));
            }
        } else {
            pts.push_back(job.scenario);
        }
    }
    return pts;
}

int
cmdSetup(const std::string &planPath, int repeats)
{
    JsonValue samples = JsonValue::array();
    std::size_t points = 0;
    const int warmups = 2;
    for (int rep = -warmups; rep < repeats; ++rep) {
        TopologyCache::instance().clear();
        std::int64_t t0 = nowNs();
        ExperimentPlan plan = loadPlanFile(planPath);
        std::vector<Scenario> pts = plannedPoints(plan);
        for (const Scenario &s : pts) {
            const NocTopology &topo =
                TopologyCache::instance().get(s.topology);
            Network net(topo, RouterConfig::named(s.routerConfig),
                        s.link, s.routing, s.routingSeed, s.faults);
        }
        if (rep >= 0)
            samples.push(JsonValue::number(sec(nowNs() - t0)));
        points = pts.size();
    }
    JsonValue out = JsonValue::object();
    out.set("setup_s", std::move(samples));
    out.set("points",
            JsonValue::number(static_cast<std::uint64_t>(points)));
    std::cout << out.dump(-1) << "\n";
    return 0;
}

int
cmdRun(const std::string &planPath, bool traced,
       const std::string &outDir)
{
    std::filesystem::create_directories(outDir);
    TopologyCache::instance().clear();
    Tracer tr;
    std::vector<PointInfo> infos;
    std::int64_t t0 = nowNs();

    ExperimentPlan plan;
    {
        Scoped parse(traced ? &tr : nullptr, "exp.plan_parse");
        plan = loadPlanFile(planPath);
    }

    int nextPoint = 0;
    Evaluator eval;
    if (traced)
        eval = [&](const Scenario &s) {
            return evalTraced(s, tr, nextPoint++, infos);
        };
    else
        eval = [](const Scenario &s) {
            return ExperimentRunner::runScenario(s);
        };

    std::vector<JobResult> results;
    for (const Job &job : plan.jobs) {
        Scoped j(traced ? &tr : nullptr, "exp.job");
        results.push_back(runJob(job, eval));
    }
    for (JobResult &job : results)
        for (ScenarioResult &p : job.points) {
            Scoped e(traced && p.scenario.energy.enabled ? &tr
                                                         : nullptr,
                     "power.energy_eval");
            p.energy = evaluateEnergy(p.scenario, p.sim);
        }

    std::ostringstream report;
    {
        Scoped rr(traced ? &tr : nullptr, "exp.report_render");
        std::unique_ptr<ResultSink> sink = makeResultSink("json", report);
        renderPlanReport(plan, results, *sink);
    }
    std::int64_t wallNs = nowNs() - t0;

    std::string lines;
    JsonValue pointsPerJob = JsonValue::array();
    for (const JobResult &job : results) {
        pointsPerJob.push(JsonValue::number(
            static_cast<std::uint64_t>(job.points.size())));
        for (const ScenarioResult &p : job.points)
            lines += toJson(p.sim).dump(-1) + "\n";
    }
    writeFile(outDir + "/report.json", report.str());
    writeFile(outDir + "/results.jsonl", lines);

    JsonValue out = JsonValue::object();
    out.set("wall_s", JsonValue::number(sec(wallNs)));
    out.set("points_per_job", std::move(pointsPerJob));

    if (!traced) {
        std::cout << out.dump(-1) << "\n";
        return 0;
    }

    // Campaign I/O layers, timed on this run's results: the journal
    // append (with its fsync) per job, and the result store's
    // put/lookup per point on a scratch root under outDir.
    std::size_t nPoints = 0;
    bool storeExact = true;
    {
        std::string jpath = outDir + "/journal.jsonl";
        ResultJournal::remove(jpath);
        ResultJournal journal(jpath, planHash(plan));
        for (std::size_t i = 0; i < results.size(); ++i) {
            Scoped a(&tr, "exp.journal_append");
            journal.append(i, results[i]);
        }
    }
    ResultJournal::remove(outDir + "/journal.jsonl");
    {
        std::string root = outDir + "/store";
        std::filesystem::remove_all(root);
        ResultStore store(root);
        for (const JobResult &job : results)
            for (const ScenarioResult &p : job.points) {
                std::string key = resultKey(p.scenario);
                {
                    Scoped put(&tr, "exp.store_put");
                    store.put(key, p.scenario, p.sim);
                }
                std::optional<SimResult> hit;
                {
                    Scoped get(&tr, "exp.store_lookup");
                    hit = store.lookup(key);
                }
                storeExact = storeExact && hit && *hit == p.sim;
                ++nPoints;
            }
        std::filesystem::remove_all(root);
    }

    // Aggregate spans by name: total duration and total self time.
    std::vector<std::int64_t> self = tr.selfTimes();
    auto dur = [&](const std::string &name) {
        std::int64_t ns = 0;
        for (const Span &s : tr.spans())
            if (s.name == name)
                ns += s.end - s.start;
        return ns;
    };
    auto selfOf = [&](const std::string &name) {
        std::int64_t ns = 0;
        for (std::size_t i = 0; i < tr.spans().size(); ++i)
            if (tr.spans()[i].name == name)
                ns += self[i];
        return ns;
    };

    // Step self time per point, for the per-regime rates.
    std::vector<std::int64_t> stepNs(infos.size(), 0);
    for (std::size_t i = 0; i < tr.spans().size(); ++i) {
        const Span &s = tr.spans()[i];
        if (s.point >= 0 && (s.name == "sim.warmup" ||
                             s.name == "sim.measure" ||
                             s.name == "sim.drain"))
            stepNs[s.point] += self[i];
    }
    std::int64_t stepAll = 0, stepSparse = 0, stepDense = 0;
    std::uint64_t rcAll = 0, rcSparse = 0, rcDense = 0, rcTrace = 0;
    std::uint64_t activeSum = 0, routerSamples = 0, nodeCalls = 0;
    std::uint64_t wlNodeCycles = 0;
    SimCounters total, wlTotal;
    for (std::size_t i = 0; i < infos.size(); ++i) {
        const PointInfo &pi = infos[i];
        total += pi.total;
        if (pi.kind == PointInfo::Kind::Trace) {
            rcTrace += pi.routerCycles;
            continue;
        }
        stepAll += stepNs[i];
        rcAll += pi.routerCycles;
        activeSum += pi.activeSum;
        routerSamples += pi.routerSamples;
        if (pi.kind == PointInfo::Kind::Workload) {
            wlTotal += pi.total;
            wlNodeCycles += pi.nodeCycles;
            continue;
        }
        nodeCalls += pi.nodeCalls;
        if (pi.load <= 0.02) {
            stepSparse += stepNs[i];
            rcSparse += pi.routerCycles;
        }
        if (pi.load >= 0.3) {
            stepDense += stepNs[i];
            rcDense += pi.routerCycles;
        }
    }
    std::uint64_t routerCycles = rcAll + rcTrace;

    // Exact counters: integers that must repeat bit for bit.
    JsonValue counters = JsonValue::object();
    auto count = [&](const char *name, std::uint64_t v) {
        counters.set(name, JsonValue::number(v));
    };
    count("sim.router_cycles", routerCycles);
    count("sim.link_flit_hops", total.linkFlitHops);
    count("sim.flits_delivered", total.flitsDelivered);
    count("sim.fault_events", total.faultEvents);
    count("sim.packets_dropped", total.packetsDropped);
    count("workload.requests_issued", wlTotal.clRequestsIssued);
    count("exp.points", nPoints);

    JsonValue metrics = JsonValue::object();
    auto put = [&](const char *name, double v, const char *unit) {
        JsonValue m = JsonValue::object();
        m.set("value", JsonValue::number(v));
        m.set("unit", JsonValue::string(unit));
        metrics.set(name, std::move(m));
    };
    double jobs = static_cast<double>(std::max<std::size_t>(
        1, results.size()));
    double pts = static_cast<double>(std::max<std::size_t>(1, nPoints));
    put("exp.plan_parse_ms", ms(dur("exp.plan_parse")), "ms");
    put("exp.journal_append_ms", ms(dur("exp.journal_append")) / jobs,
        "ms");
    put("exp.store_put_ms", ms(dur("exp.store_put")) / pts, "ms");
    put("exp.store_lookup_ms", ms(dur("exp.store_lookup")) / pts, "ms");
    put("exp.report_render_ms", ms(dur("exp.report_render")), "ms");
    put("topo.build_ms", ms(dur("topo.build")), "ms");
    put("graph.shortest_paths_ms", ms(dur("graph.shortest_paths")),
        "ms");
    put("sim.network_build_ms", ms(dur("sim.network_build")), "ms");
    put("sim.step_warmup_s", sec(selfOf("sim.warmup")), "s");
    put("sim.step_measure_s", sec(selfOf("sim.measure")), "s");
    put("sim.step_drain_s", sec(selfOf("sim.drain")), "s");
    put("sim.ns_per_router_cycle", ratio(stepAll, rcAll), "ns");
    put("sim.sparse.ns_per_router_cycle", ratio(stepSparse, rcSparse), "ns");
    put("sim.dense.ns_per_router_cycle", ratio(stepDense, rcDense), "ns");
    put("sim.active_router_share", ratio(activeSum, routerSamples), "ratio");
    put("traffic.source_s", sec(dur("traffic.source")), "s");
    put("traffic.ns_per_node_cycle",
        ratio(dur("traffic.source"), nodeCalls), "ns");
    put("workload.source_s", sec(dur("workload.source")), "s");
    put("workload.stall_share",
        ratio(wlTotal.clStallNodeCycles, wlNodeCycles), "ratio");
    put("trace.run_s", sec(dur("trace.run")), "s");
    put("trace.ns_per_router_cycle", ratio(dur("trace.run"), rcTrace), "ns");
    put("power.energy_eval_ms", ms(dur("power.energy_eval")), "ms");

    out.set("metrics", std::move(metrics));
    out.set("counters", std::move(counters));
    out.set("store_exact", JsonValue::boolean(storeExact));
    out.set("spans", JsonValue::number(static_cast<std::uint64_t>(
                         tr.spans().size())));
    tr.write(outDir + "/spans.json");
    std::cout << out.dump(-1) << "\n";
    return 0;
}

int
usage()
{
    std::cerr << "usage: perfbench_driver setup <plan> <repeats>\n"
                 "       perfbench_driver run <plan> traced|plain "
                 "<outdir>\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    try {
        if (args.size() == 3 && args[0] == "setup") {
            int repeats = std::atoi(args[2].c_str());
            if (repeats < 1)
                return usage();
            return cmdSetup(args[1], repeats);
        }
        if (args.size() == 4 && args[0] == "run" &&
            (args[2] == "traced" || args[2] == "plain"))
            return cmdRun(args[1], args[2] == "traced", args[3]);
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return usage();
}
