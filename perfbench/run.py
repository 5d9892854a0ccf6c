"""cubasquare benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload rules --seed 1 --seconds 20 --trace 0

Workloads: rules, lebesgue, interp-eval, discovery (see README.md).  The
workload runs in a fresh child process with BLAS threads pinned to the
number of usable cores.  Before it, SETUP_PROBES more children only import
cubasquare and build the CLI parser; ``setup_s`` is the median set-up time
of all of them.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  Exit 0 on a complete
run (even with ``correct`` false), 1 when the workload could not run,
2 when cubasquare's sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
DEADLINE_S = 170  # every child is stopped by then
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    env.update({k: threads for k in BLAS_VARS})
    env.pop("PYTHONPATH", None)
    return env


def spawn(args, env, deadline) -> str:
    """Run workloads.py with args; its standard output, or raise on failure
    or when it is still running at the monotonic time ``deadline``."""
    cmd = [sys.executable, str(HERE / "workloads.py"), *args, "--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)}: exit {proc.returncode}")
    return out


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("rules", "lebesgue", "interp-eval", "discovery"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "cubasquare" / "__init__.py").is_file():
        print(f"error: no cubasquare sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = [last_json(spawn(["--setup-only"], env, deadline))["setup_s"]
                 for _ in range(SETUP_PROBES)]
        result = last_json(spawn(
            ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work-dir", str(work)],
            env, deadline,
        ))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run still uses it
        except OSError:
            pass
    if not args.trace:
        setup.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
