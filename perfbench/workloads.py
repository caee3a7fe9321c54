"""Seeded benchmark workloads, each derived from committed plans.

A workload takes jobs from one or more files under plans/ (which stay
unedited), trims them to fit one benchmark run while keeping the
property it was chosen for, and overwrites every seed with values
drawn from the workload seed. `write_plan` puts the derived plan in
its own directory, headed by a comment saying why the workload exists.
"""

import json
import os
import random
import textwrap

WORKLOADS = {
    "fig12-sweep": (
        "plans/fig12.json: 24 load sweeps on N=192-200 networks, SMART "
        "H=9, loads 0.008-0.4. Jobs cost about the same and every point "
        "is lane-batchable, so the step loop and exp batching do the "
        "work; no faults, no energy."
    ),
    "table5-ramp": (
        "plans/table5.json: energy-enabled RND ramps at loads 0.1-0.9, "
        "the dense regime where almost every router is active. The "
        "biggest jobs (fbf8, sn_subgr_1296) come last in plan order, so "
        "wall time shows scheduling and per-job sharding, and set-up is "
        "dominated by the largest graphs."
    ),
    "resilience-faults": (
        "plans/resilience.json: 72 short jobs on sn_54/cm4/t2d4, "
        "minimal and ugal-l routing, 0-20% of links failed at the end "
        "of warmup, loads 0.02-0.16. The sparse regime, where the "
        "active-router scan dominates, plus per-job exp overhead "
        "(journal fsync, report rows, fault purge and reroute)."
    ),
    "traces-closed-loop": (
        "plans/fig18.json PARSEC/SPLASH trace points plus mosi_64, "
        "closed_vs_open and collective: the only workload where the "
        "trace and workload layers run. It never uses lane batching or "
        "sharding, so a batching or sharding change should show no "
        "change here."
    ),
    "self-test": (
        "run.py --self-test: one tiny job per layer family, to check "
        "that every metric is emitted and exact counters repeat."
    ),
}


def _read_plan(root, rel):
    with open(os.path.join(root, rel)) as f:
        text = f.read()
    body = "\n".join(
        line for line in text.split("\n") if not line.lstrip().startswith("//")
    )
    return json.loads(body)


def _scale_sim(scenario, divisor):
    """Shrink the warmup/measure windows (defaults 2000/10000)."""
    sim = scenario.setdefault("sim", {})
    sim["warmupCycles"] = sim.get("warmupCycles", 2000) // divisor
    sim["measureCycles"] = sim.get("measureCycles", 10000) // divisor
    faults = scenario.get("faults")
    if faults and "randomFailAt" in faults:
        faults["randomFailAt"] //= divisor


def _fig12(root):
    jobs = _read_plan(root, "plans/fig12.json")["jobs"]
    for job in jobs:
        _scale_sim(job["scenario"], 16)
    return jobs


def _table5(root):
    # Keep the small/mid ramps that open the plan and the big graphs
    # that close it; every ramp keeps all four loads (0.6/0.9 too).
    keep = ["t2d4", "sn_subgr_200", "pfbf9", "fbf8", "sn_subgr_1296"]
    jobs = [
        j
        for j in _read_plan(root, "plans/table5.json")["jobs"]
        if j["scenario"]["topology"] in keep
    ]
    for job in jobs:
        _scale_sim(job["scenario"], 8)
    return jobs


def _resilience(root):
    jobs = _read_plan(root, "plans/resilience.json")["jobs"]
    for job in jobs:
        _scale_sim(job["scenario"], 8)
    return jobs


def _traces(root):
    # Two topologies per trace keep every PARSEC/SPLASH profile.
    fig18 = [
        j
        for j in _read_plan(root, "plans/fig18.json")["jobs"]
        if j["scenario"]["topology"] in ("cm3", "sn_subgr_200")
    ]
    for job in fig18:
        job["scenario"]["traffic"]["workloadCycles"] = 2000
    jobs = fig18
    for rel in ("plans/mosi_64.json", "plans/closed_vs_open.json",
                "plans/collective.json"):
        jobs += _read_plan(root, rel)["jobs"]
    return jobs


def _self_test(root):
    # One small job per layer family, for run.py --self-test: a sparse
    # and a dense synthetic load, energy, faults, a trace, closed-loop
    # and open-loop, and a collective.
    fig12 = _read_plan(root, "plans/fig12.json")["jobs"][0]
    fig12["sweep"]["loads"] = [0.008, 0.4]
    table5 = _read_plan(root, "plans/table5.json")["jobs"][0]
    table5["sweep"]["loads"] = [0.3]
    faulty = [j for j in _read_plan(root, "plans/resilience.json")["jobs"]
              if j["scenario"]["faults"].get("randomLinkFraction", 0) > 0]
    trace = _read_plan(root, "plans/fig18.json")["jobs"][0]
    trace["scenario"]["traffic"]["workloadCycles"] = 300
    jobs = [fig12, table5, faulty[0], trace]
    jobs += _read_plan(root, "plans/closed_vs_open.json")["jobs"]
    jobs += _read_plan(root, "plans/collective.json")["jobs"][:1]
    for job in jobs:
        if "workload" not in job["scenario"].get("traffic", {}):
            _scale_sim(job["scenario"], 16)
    return jobs


_JOB_LISTS = {
    "fig12-sweep": _fig12,
    "table5-ramp": _table5,
    "resilience-faults": _resilience,
    "traces-closed-loop": _traces,
    "self-test": _self_test,
}


def derive(name, seed, root):
    """The plan for workload `name` under `seed`, as a dict."""
    jobs = _JOB_LISTS[name](root)
    rng = random.Random(f"{name}:{seed}")
    for job in jobs:
        s = job["scenario"]
        s["seed"] = rng.randrange(1, 2**31)
        s["routingSeed"] = rng.randrange(1, 2**31)
        faults = s.get("faults")
        if faults and faults.get("randomLinkFraction", 0) > 0:
            faults["faultSeed"] = rng.randrange(1, 2**31)
    return {"name": f"perfbench {name} seed {seed}", "jobs": jobs}


def write_plan(name, seed, root, directory):
    """Write the derived plan into `directory`; returns its path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "plan.json")
    header = [f"// perfbench workload {name}, seed {seed}.", "//"]
    header += ["// " + line for line in textwrap.wrap(WORKLOADS[name], 68)]
    with open(path, "w") as f:
        f.write("\n".join(header) + "\n")
        json.dump(derive(name, seed, root), f, indent=1)
        f.write("\n")
    return path
