#!/usr/bin/env python3
"""Campaign benchmark for the `snoc` simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The first run builds the
library, the `snoc` CLI and the outside-in driver (perfbench/driver)
into .bench_build/ with CMake, Release.

--trace 0 measures end to end: `snoc run <plan> --threads 2 --format
json` on the workload's seeded plan, repeated in fresh directories
under .bench_build/ for S seconds with every SNOC_* variable unset, so
defaults are measured as shipped. Set-up time comes from the driver,
repeated over a cleared topology cache.

--trace 1 measures per layer: the driver's traced serial run, the
same driver untraced (ExperimentRunner::runScenario) and `snoc run`
(for the manifest's per-job wall times), interleaved for S seconds.

Either way the gate compares `snoc run` stdout byte for byte with the
driver's serial report of the same plan, and every traced SimResult
with the untraced one. A failed or differing job counts as failed; the
run then exits 1 after printing its result. The last stdout line is
the JSON result; the lines before it carry the host stamp and, with
--trace 1, the per-layer detail (metrics a workload may not exercise).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402

BUILD = ".bench_build"
THREADS = 2
SETUP_REPEATS = 3
MIN_E2E_REPS = 5

# Per-layer metrics printed on the detail line, not in the result:
# each reads exactly zero on a workload that does not exercise its
# layer (no drain phase, no load <= 0.02 or >= 0.3, no closed-loop or
# trace traffic, no energy spec).
DETAIL_METRICS = [
    "sim.step_drain_s", "sim.sparse.ns_per_router_cycle",
    "sim.dense.ns_per_router_cycle", "workload.source_s", "trace.run_s",
    "trace.ns_per_router_cycle", "power.energy_eval_ms",
]


class BenchError(Exception):
    pass


def scrubbed_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("SNOC_")}


def build(root):
    """Configure once, then bring the three targets up to date."""
    bdir = os.path.join(root, BUILD)
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    cmds = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", os.path.join(root, "perfbench", "driver"),
                     "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    cmds.append(["cmake", "--build", bdir, "-j", jobs,
                 "--target", "snoc_cli", "perfbench_driver"])
    with open(log, "w") as out:
        for cmd in cmds:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=scrubbed_env()).returncode != 0:
                with open(log) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError(f"build failed: {' '.join(cmd)}")
    return (os.path.join(bdir, "snoc", "snoc"),
            os.path.join(bdir, "perfbench_driver"))


def stamp(root, snoc):
    """Host and build identity; result sets with different stamps
    must not be compared (see perfbench/spread.py)."""
    cache = {}
    with open(os.path.join(root, BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    compiler = subprocess.run([cxx, "--version"], capture_output=True,
                              text=True).stdout.split("\n", 1)[0]
    # Read at run time: the binary's own stamp is fixed when the build
    # directory is configured, and goes stale after a checkout.
    describe = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--tags"], cwd=root,
        capture_output=True, text=True).stdout.strip()
    knobs = subprocess.run([snoc, "list", "knobs", "--markdown"],
                           capture_output=True, text=True,
                           env=scrubbed_env()).stdout
    names = [line.split("`")[1] for line in knobs.split("\n")
             if line.startswith("| `")]
    return {
        "nproc": os.cpu_count(),
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "git_describe": describe or "unknown",
        "threads": THREADS,
        "snoc_knobs_unset": names,
        "snoc_knobs_scrubbed": sorted(k for k in os.environ
                                      if k.startswith("SNOC_")),
    }


def run_json(cmd):
    r = subprocess.run(cmd, capture_output=True, text=True,
                       env=scrubbed_env())
    if r.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {r.returncode}: "
                         f"{r.stderr.strip()[-2000:]}")
    return json.loads(r.stdout.strip().split("\n")[-1])


def read(path, mode="rb"):
    with open(path, mode) as f:
        return f.read()


def run_snoc(snoc, plan, directory):
    """One end-to-end `snoc run` in a fresh directory."""
    os.makedirs(directory)
    out_path = os.path.join(directory, "stdout.json")
    with open(out_path, "wb") as out, \
            open(os.path.join(directory, "stderr.txt"), "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(
            [snoc, "run", plan, "--threads", str(THREADS),
             "--format", "json"],
            cwd=directory, env=scrubbed_env(), stdout=out, stderr=err)
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
    manifest = {}
    mpath = os.path.join(directory, "snoc_manifest.json")
    if os.path.exists(mpath):
        manifest = json.loads(read(mpath, "r"))
    return {
        "exit": p.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "max_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB
        "stdout": read(out_path),
        "manifest": manifest,
    }


def failed_jobs(e2e, reference, points_per_job):
    """Jobs that ended status=failed or whose report rows differ."""
    jobs = len(points_per_job)
    if e2e["exit"] not in (0, 3) or not e2e["manifest"]:
        return set(range(jobs))
    bad = {s["job"] for s in e2e["manifest"].get("jobStats", [])
           if s.get("status") != "ok"}
    if e2e["stdout"] == reference:
        return bad
    got = e2e["stdout"].split(b"\n")
    want = reference.split(b"\n")
    if len(got) != len(want):
        return set(range(jobs))
    # Rows of the first table sit on lines 2.., one point per line.
    row_job = [j for j, n in enumerate(points_per_job) for _ in range(n)]
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            k = i - 2
            if 0 <= k < len(row_job):
                bad.add(row_job[k])
            else:
                return set(range(jobs))
    return bad


def metric(value, unit):
    return {"value": value, "unit": unit}


def median(xs):
    return statistics.median(xs)


def end_to_end(snoc, driver, plan, work, seconds):
    ref = run_json([driver, "run", plan, "traced",
                    os.path.join(work, "reference")])
    reference = read(os.path.join(work, "reference", "report.json"))
    ppj = ref["points_per_job"]
    correct = ref["store_exact"]

    # Host speed drifts over seconds, so set-up samples are spread
    # over the whole window, between the timed `snoc run`s. Each driver
    # process warms up before it times set-up. The first `snoc run`
    # pays for faulting in fresh memory and reads well above the rest;
    # it is checked, not timed.
    runs, setup, failed = [], [], 0
    start = time.perf_counter()
    while len(runs) <= MIN_E2E_REPS or time.perf_counter() - start < seconds:
        setup += run_json([driver, "setup", plan,
                           str(SETUP_REPEATS)])["setup_s"]
        e2e = run_snoc(snoc, plan,
                       os.path.join(work, f"e2e-{len(runs)}"))
        failed += len(failed_jobs(e2e, reference, ppj))
        runs.append(e2e)
    attempted = len(ppj) * len(runs)
    runs = runs[1:]
    wall = median([r["wall_s"] for r in runs])
    metrics = {
        "wall_s": metric(wall, "s"),
        "cpu_s": metric(median([r["cpu_s"] for r in runs]), "s"),
        "setup_s": metric(median(setup), "s"),
        "max_rss_mb": metric(median([r["max_rss_mb"] for r in runs]), "MiB"),
        "router_cycles_per_s": metric(
            ref["counters"]["sim.router_cycles"] / wall, "1/s"),
    }
    detail = {"wall_s_samples": [r["wall_s"] for r in runs],
              "setup_s_samples": setup}
    return correct, attempted, failed, metrics, detail


def job_stats(e2e):
    """Scheduling figures of one `snoc run`, from its manifest."""
    walls = [s["wallMs"] for s in e2e["manifest"].get("jobStats", [])]
    walls = walls or [0.0]
    return {
        "exp.job_wall_ms.p50": metric(median(walls), "ms"),
        "exp.job_wall_ms.max": metric(max(walls), "ms"),
        "exp.critical_path_share": metric(
            max(walls) / 1000.0 / e2e["wall_s"], "ratio"),
        "exp.worker_busy_share": metric(
            sum(walls) / 1000.0 / (THREADS * e2e["wall_s"]), "ratio"),
    }


def per_layer(snoc, driver, plan, work, seconds):
    # Each round runs `snoc run`, then the traced and the untraced
    # driver pass, in alternating order. The first `snoc run` is
    # checked but not timed, as in end_to_end; at least two rounds run,
    # so the exact counters are always compared across traced passes.
    e2es, traced, plain = [], [], []
    start = time.perf_counter()
    while (len(traced) < 2
           or time.perf_counter() - start < seconds):
        e2es.append(run_snoc(snoc, plan,
                             os.path.join(work, f"e2e-{len(e2es)}")))
        order = ["traced", "plain"]
        if len(traced) % 2:
            order.reverse()
        for mode in order:
            out = os.path.join(work, f"{mode}-{len(traced)}")
            res = run_json([driver, "run", plan, mode, out])
            res["report"] = read(os.path.join(out, "report.json"))
            res["results"] = read(os.path.join(out, "results.jsonl"))
            (traced if mode == "traced" else plain).append(res)

    first = traced[0]
    ppj = first["points_per_job"]
    failed = sum(len(failed_jobs(e, first["report"], ppj)) for e in e2es)
    correct = all(
        t["report"] == first["report"]
        and t["results"] == p["results"] == first["results"]
        and t["counters"] == first["counters"]
        and t["store_exact"]
        for t, p in zip(traced, plain))

    layer = {}
    for name in first["metrics"]:
        layer[name] = metric(
            median([t["metrics"][name]["value"] for t in traced]),
            first["metrics"][name]["unit"])
    for name, value in first["counters"].items():
        layer[name] = metric(value, "count")
    stats = [job_stats(e) for e in e2es[1:]]
    for name in stats[0]:
        layer[name] = metric(median([st[name]["value"] for st in stats]),
                             stats[0][name]["unit"])
    traced_wall = median([t["wall_s"] for t in traced])
    layer["bench.traced_wall_s"] = metric(traced_wall, "s")
    layer["bench.tracing_overhead_share"] = metric(
        traced_wall / median([p["wall_s"] for p in plain]) - 1.0, "ratio")
    return correct, len(ppj) * len(e2es), failed, layer, {
        "rounds": len(traced)}


def load_spec():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def run(root, name, seed, seconds, trace, work):
    snoc, driver = build(root)
    print("perfbench stamp: " + json.dumps(stamp(root, snoc)), flush=True)
    shutil.rmtree(work, ignore_errors=True)
    plan = os.path.abspath(workloads.write_plan(name, seed, root, work))
    if trace:
        result = per_layer(snoc, driver, plan, work, seconds)
    else:
        result = end_to_end(snoc, driver, plan, work, seconds)
    correct, attempted, failed, metrics, detail = result
    return {"correct": bool(correct and failed == 0),
            "attempted": attempted, "failed": failed,
            "metrics": metrics}, detail


def self_test(root):
    """Fast mode on a tiny plan: every metric by name and unit, and
    exact counters that repeat across traced runs."""
    spec = load_spec()
    problems = []
    work = os.path.join(root, BUILD, "runs", "self-test")
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        out, _ = run(root, "self-test", 1, 1, trace, work)
        if not out["correct"] or out["failed"]:
            problems.append(f"trace {trace}: correctness gate failed")
        for m in listed:
            got = out["metrics"].get(m["name"])
            if not got or got["unit"] != m["unit"]:
                problems.append(f"trace {trace}: {m['name']} missing "
                                f"or not in {m['unit']}")
        if trace:
            for name in DETAIL_METRICS:
                if name not in out["metrics"]:
                    problems.append(f"detail metric {name} missing")
    shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print("self-test: " + p)
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(
        w for w in workloads.WORKLOADS if w != "self-test"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    default=load_spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    if not (os.path.exists(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))
            and os.path.isdir(os.path.join(root, "plans"))):
        print("perfbench: run from the root of a source checkout "
              "(CMakeLists.txt, src/ and plans/ not found)",
              file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test(root)
        if not args.workload:
            ap.error("--workload is required")
        work = os.path.join(root, BUILD, "runs",
                            f"{args.workload}-s{args.seed}-t{args.trace}")
        out, detail = run(root, args.workload, args.seed, args.seconds,
                          args.trace, work)
        shutil.rmtree(work, ignore_errors=True)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    if args.trace:
        listed = {m["name"] for m in load_spec()["per_layer"]}
        detail.update({k: v for k, v in out["metrics"].items()
                       if k not in listed})
        out["metrics"] = {k: v for k, v in out["metrics"].items()
                          if k in listed}
    print("perfbench detail: " + json.dumps(detail))
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
