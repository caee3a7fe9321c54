/**
 * @file
 * Tests for process-isolated execution, the per-job watchdog, and
 * retry/failure-policy handling. Failure injection uses the
 * SNOC_EXP_TEST_HOOK scenario labels (__test_crash__ aborts inside
 * the evaluation, __test_hang__ never returns, __test_fail__ throws
 * FatalError), so a "segfaulting simulator" is deterministic: the
 * crash happens exactly where a real one would — inside
 * runScenario, in the forked child when isolation is on.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/env.hh"
#include "common/log.hh"
#include "exp/runner.hh"
#include "exp/scenario.hh"

namespace snoc {
namespace {

Scenario
tinyScenario(double load = 0.05)
{
    SimConfig sim;
    sim.warmupCycles = 100;
    sim.measureCycles = 300;
    return makeSyntheticScenario("sn_54", "EB-Var",
                                 PatternKind::Random, load, 1,
                                 RoutingMode::Minimal, sim);
}

Scenario
hookScenario(const char *label)
{
    Scenario s = tinyScenario();
    s.label = label;
    return s;
}

struct HookEnv
{
    HookEnv() { ::setenv(kEnvExpTestHook, "1", 1); }
    ~HookEnv() { ::unsetenv(kEnvExpTestHook); }
};

RunnerOptions
isolatedOpts()
{
    RunnerOptions opts;
    opts.threads = 1;
    opts.isolate = 1;
    opts.onFailure = FailurePolicy::Record;
    return opts;
}

TEST(Isolation, ForkedResultsAreBitwiseIdenticalToInProcess)
{
    ExperimentPlan plan;
    plan.add(tinyScenario(0.03));
    plan.addSweep(tinyScenario(), {0.02, 0.05}, false);

    RunnerOptions inProc;
    inProc.threads = 1;
    std::vector<JobResult> a = ExperimentRunner(inProc).run(plan);

    RunnerOptions forked = inProc;
    forked.isolate = 1;
    std::vector<JobResult> b = ExperimentRunner(forked).run(plan);

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].points.size(), b[i].points.size());
        for (std::size_t p = 0; p < a[i].points.size(); ++p)
            EXPECT_TRUE(a[i].points[p].sim == b[i].points[p].sim)
                << "job " << i << " point " << p;
    }
}

TEST(Isolation, CrashIsContainedToOneFailedRow)
{
    HookEnv hook;
    ExperimentPlan plan;
    plan.add(tinyScenario(0.03));
    plan.add(hookScenario("__test_crash__"));
    plan.add(tinyScenario(0.05));

    std::vector<JobResult> results =
        ExperimentRunner(isolatedOpts()).run(plan);

    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].status, JobStatus::Ok);
    EXPECT_EQ(results[2].status, JobStatus::Ok);

    ASSERT_EQ(results[1].status, JobStatus::Failed);
    ASSERT_EQ(results[1].points.size(), 1u);
    EXPECT_FALSE(results[1].points[0].ok);
    EXPECT_NE(results[1].points[0].error.find("signal"),
              std::string::npos)
        << results[1].points[0].error;
    // The crash-labeled scenario rides along in the failed row so
    // reports can still render it.
    EXPECT_EQ(results[1].points[0].scenario.label, "__test_crash__");
    // And the neighbors are real results, untouched by the crash.
    EXPECT_GT(results[0].points[0].sim.packetsDelivered, 0u);
    EXPECT_GT(results[2].points[0].sim.packetsDelivered, 0u);
}

TEST(Isolation, ThrownErrorsCrossThePipeVerbatim)
{
    HookEnv hook;
    ExperimentPlan plan;
    plan.add(hookScenario("__test_fail__"));

    std::vector<JobResult> results =
        ExperimentRunner(isolatedOpts()).run(plan);
    ASSERT_EQ(results[0].status, JobStatus::Failed);
    EXPECT_NE(results[0].error.find("test hook: synthetic failure"),
              std::string::npos)
        << results[0].error;
}

TEST(Isolation, WatchdogKillsHungJobs)
{
    HookEnv hook;
    ExperimentPlan plan;
    plan.add(hookScenario("__test_hang__"));
    plan.add(tinyScenario(0.04));

    RunnerOptions opts = isolatedOpts();
    opts.jobTimeoutMs = 500;
    std::vector<JobResult> results =
        ExperimentRunner(opts).run(plan);

    ASSERT_EQ(results[0].status, JobStatus::Failed);
    EXPECT_NE(results[0].error.find("timed out"), std::string::npos)
        << results[0].error;
    EXPECT_EQ(results[1].status, JobStatus::Ok);
}

TEST(Isolation, TimeoutImpliesFork)
{
    RunnerOptions opts;
    opts.threads = 1;
    opts.jobTimeoutMs = 250;
    ExperimentRunner r(opts);
    EXPECT_TRUE(r.isolated());
    EXPECT_EQ(r.jobTimeoutMs(), 250);
}

TEST(Isolation, RetriesAreBoundedAndCounted)
{
    HookEnv hook;
    ExperimentPlan plan;
    plan.add(hookScenario("__test_crash__"));

    RunnerOptions opts = isolatedOpts();
    opts.retries = 2;
    std::vector<JobResult> results =
        ExperimentRunner(opts).run(plan);

    ASSERT_EQ(results[0].status, JobStatus::Failed);
    EXPECT_EQ(results[0].retries, 2); // 1 attempt + 2 retries
    EXPECT_EQ(results[0].cacheMisses, 1);
}

TEST(Isolation, AbortPolicyStillThrowsFromForkedWorkers)
{
    HookEnv hook;
    ExperimentPlan plan;
    plan.add(hookScenario("__test_fail__"));

    RunnerOptions opts = isolatedOpts();
    opts.onFailure = FailurePolicy::Abort;
    EXPECT_THROW(ExperimentRunner(opts).run(plan), FatalError);
}

TEST(Isolation, RecordPolicyWorksInProcessToo)
{
    // Thrown (non-crash) failures don't need a child process to be
    // recordable; the fork is only mandatory for crashes and hangs.
    HookEnv hook;
    ExperimentPlan plan;
    plan.add(hookScenario("__test_fail__"));
    plan.add(tinyScenario(0.04));

    RunnerOptions opts;
    opts.threads = 1;
    opts.onFailure = FailurePolicy::Record;
    std::vector<JobResult> results =
        ExperimentRunner(opts).run(plan);

    ASSERT_EQ(results[0].status, JobStatus::Failed);
    EXPECT_EQ(results[1].status, JobStatus::Ok);
}

TEST(Isolation, FailedSweepKeepsItsCompletedPrefix)
{
    HookEnv hook;
    // A stopping sweep whose base scenario is the throw hook: every
    // point fails, but each evaluated load records a row and the
    // sweep stops at the first failure.
    ExperimentPlan plan;
    Scenario bad = hookScenario("__test_fail__");
    plan.addSweep(bad, {0.02, 0.04, 0.06}, true);

    RunnerOptions opts;
    opts.threads = 1;
    opts.onFailure = FailurePolicy::Record;
    std::vector<JobResult> results =
        ExperimentRunner(opts).run(plan);

    ASSERT_EQ(results[0].status, JobStatus::Failed);
    ASSERT_EQ(results[0].points.size(), 1u); // stopped at first
    EXPECT_FALSE(results[0].points[0].ok);
}

TEST(Isolation, NonStoppingSweepContinuesPastFailures)
{
    HookEnv hook;
    ExperimentPlan plan;
    Scenario bad = hookScenario("__test_fail__");
    plan.addSweep(bad, {0.02, 0.04}, false);

    RunnerOptions opts;
    opts.threads = 1;
    opts.onFailure = FailurePolicy::Record;
    std::vector<JobResult> results =
        ExperimentRunner(opts).run(plan);

    ASSERT_EQ(results[0].points.size(), 2u); // both loads recorded
    EXPECT_FALSE(results[0].points[0].ok);
    EXPECT_FALSE(results[0].points[1].ok);
}

} // namespace
} // namespace snoc
