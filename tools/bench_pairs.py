"""Alternated parent/change pairs of the benchmark, written as BENCH_<N>.json.

    python3 tools/bench_pairs.py PARENT_TREE --pr N

PARENT_TREE is a checkout of the parent commit (``git clone`` or
``git archive``); the change is the checkout this script belongs to.  For
every workload in BENCHMARK.json, pair i = 1..10 runs
``perfbench/run.py --workload W --seed 100 N + i`` once in each tree, the
parent first when the seed is odd, for the ``run_seconds`` of BENCHMARK.json.
Then one traced run (``--trace 1``) per tree and per seed 11 and 12 gives the
per-layer metrics.  Nothing else should run on the machine meanwhile.

The output, ``BENCH_<N>.json`` at the root of the change, has the layout of
the earlier BENCH files: ``machine``, ``parent_commit``, ``command``,
``order``, then ``end_to_end`` (per workload: the seeds; per metric the runs
of each side, their quartiles, the ratio of the medians, the number of
pairs the change won, by the metric's direction in BENCHMARK.json, and the
verdict: |change median - parent median|, the parent's quartile spread
q3 - q1, ``gain`` (won at least nine tenths of the pairs, and the medians
differ in the better direction by more than that spread) and
``worse_beyond_bound`` (the change's median worse than the parent's by more
than the metric's bound in BENCHMARK.json, a share of the parent's median);
``correct``; ``failed_over_attempted``) and ``layers`` (per workload: the
traced seeds and, per metric, the values of each side in seed order).  The
file is rewritten after every run, so an interrupted session keeps what
it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

CHANGE = Path(__file__).resolve().parent.parent
PAIRS = 10
TRACE_SEEDS = (11, 12)


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one ``perfbench/run.py`` run in ``tree``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(cmd[1:])}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:  # a partial record after the first pair
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def summary(parent: list[dict], change: list[dict], specs: dict) -> dict:
    """The end-to-end record of one workload from its paired results, with
    ``specs`` the end-to-end metrics of BENCHMARK.json by name."""
    metrics = {}
    for name, spec in specs.items():
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        sign = 1.0 if spec["better"] == "higher" else -1.0
        won = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        gain = sign * (statistics.median(c) - statistics.median(p))  # > 0: the change is better
        parent_q = quartiles(p)
        spread = parent_q["q3"] - parent_q["q1"]
        metrics[name] = {
            "unit": parent[0]["metrics"][name]["unit"],
            "parent_runs": p,
            "change_runs": c,
            "parent": parent_q,
            "change": quartiles(c),
            "change_over_parent_median": statistics.median(c) / statistics.median(p),
            "pairs_change_better": won,
            "pairs": len(p),
            "median_gap": abs(gain),
            "parent_quartile_spread": spread,
            "gain": won >= 0.9 * len(p) and gain > spread,
            "worse_beyond_bound": -gain > spec["bound"] * statistics.median(p),
        }
    return {
        "metrics": metrics,
        "correct": {"parent": all(r["correct"] for r in parent), "change": all(r["correct"] for r in change)},
        "failed_over_attempted": {side: [f"{r['failed']}/{r['attempted']}" for r in runs]
                                  for side, runs in (("parent", parent), ("change", change))},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_tree", type=Path)
    p.add_argument("--pr", type=int, required=True)
    args = p.parse_args(argv)
    parent_tree = args.parent_tree.resolve()
    bench = json.loads((CHANGE / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    head = subprocess.run(["git", "-C", str(parent_tree), "rev-parse", "HEAD"], capture_output=True, text=True)
    out = {
        "machine": machine(),
        "parent_commit": head.stdout.strip() if head.returncode == 0 else None,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} [--trace 1]",
        "order": "pairs alternate which side runs first (odd seed: parent first)",
        "end_to_end": {},
        "layers": {},
    }
    path = CHANGE / f"BENCH_{args.pr}.json"

    def write():
        path.write_text(json.dumps(out, indent=1) + "\n")

    seeds = [100 * args.pr + i for i in range(1, PAIRS + 1)]
    for w in workloads:
        runs = {"parent": [], "change": []}
        for seed in seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                runs[side].append(run(parent_tree if side == "parent" else CHANGE, w, seed, seconds, 0))
            print(f"{w} seed {seed}: items_per_s parent {runs['parent'][-1]['metrics']['items_per_s']['value']:.4g}"
                  f" change {runs['change'][-1]['metrics']['items_per_s']['value']:.4g}", file=sys.stderr)
            out["end_to_end"][w] = {"seeds": seeds[:len(runs["parent"])],
                                    **summary(runs["parent"], runs["change"], specs)}
            write()
    for w in workloads:
        traced = {"parent": [], "change": []}
        for seed in TRACE_SEEDS:
            for side in ("parent", "change"):
                traced[side].append(run(parent_tree if side == "parent" else CHANGE, w, seed, seconds, 1))
        out["layers"][w] = {
            "seed": list(TRACE_SEEDS),
            "metrics": {name: {"unit": m["unit"],
                               "parent": [r["metrics"][name]["value"] for r in traced["parent"]],
                               "change": [r["metrics"][name]["value"] for r in traced["change"]]}
                        for name, m in traced["parent"][0]["metrics"].items()},
        }
        write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
