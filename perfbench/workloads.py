"""One benchmark workload, run in this process as one closed-loop caller.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 \
        --work-dir DIR --t0 T

``perfbench/run.py`` starts this in a fresh child.  The child imports
cubasquare from the checkout's ``src``, builds the CLI parser and notes the
set-up time since ``--t0`` (a ``time.monotonic`` reading taken by the parent
before the spawn).  It then runs whole rounds of the workload until the
next round would end after ``--seconds``, checks every output against
``checks.py`` and prints one JSON line.  With ``--trace 1`` rounds alternate
untraced and traced (at least one of each), one more round measures memory
peaks, and the line holds the per-layer metrics.  With ``--setup-only`` it
prints the set-up time and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    from cubasquare import cli

    where = Path(cli.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"cubasquare imported from {where}, not from {ROOT / 'src'}")
    cli._parser()
    return cli


# ---------------------------------------------------------------------------
# workload make-up

# (family, n, degree, node count), as in the paper
RULES = [
    ("mint", 64, 127, 2112),
    ("nearmint", 63, 125, 2048),
    ("gaussu", 64, 126, 2080),
    ("padua", 48, 95, 1225),
    ("gencheb", 48, 95, 1200),
]

# (family, n-list); node counts as in the paper.
LEBESGUE = [("mint", (16, 32, 64)), ("padua", (32,))]
LEBESGUE_R = 256
PADUA_SUBGRID = 86  # cos(k pi/85) is cos(3k pi/255): nested in the R = 256 grid
NODE_COUNT = {
    "mint": lambda n: n * (n + 1) // 2 + n // 2,
    "padua": lambda n: (n + 1) * (n + 2) // 2,
}

# (family, n, polynomial degree the interpolant reproduces)
INTERP = [("cheb1", 32, 31), ("gencheb", 24, 23), ("padua", 32, 32)]
INTERP_BATCHES = 200
INTERP_BATCH = 256
INTERP_TOL = 1e-9

# (mode, n, starts per search).  Each search runs DISCOVERY_SPLIT times per
# round, a few seconds per mode here; the median search time of each mode
# is then robust to the few starts that converge early.
DISCOVERY = [("odd", 5, 1), ("odd", 7, 1), ("even", 5, 10), ("even", 6, 10)]
DISCOVERY_SPLIT = 8


# The vCPUs of the reference machine change speed by up to 1.6x within
# seconds and between processes (a fixed Python loop takes 0.21 s to 0.34 s;
# process time equals wall time, so this is not preemption).  Each
# operation's time is therefore scaled by REF_S / (time of a fixed reference
# kernel run next to it): its time at the reference speed.  Over eight 8 s
# processes this narrowed the range of the mean Interpolant.__call__ time
# from +-16% to +-3%.  An operation longer than LONG_OP_S spans several speed
# phases and averages them itself; a factor sampled at its ends only adds
# noise (lebesgue's 12 s operation: +-8% unscaled, +-20% scaled), so its
# time is kept as measured.  REF_S is the kernel's typical time, so factors
# average about 1 and the two kinds of time agree on average.
REF_S = 0.0027
REF_EVERY_S = 0.05
LONG_OP_S = 2.0


class Speed:
    """Reference kernel (interpreter loop, small GEMMs, vector math), timed
    at most every REF_EVERY_S; ``factor`` is REF_S over its time."""

    def __init__(self, np):
        self.np = np
        self.a = np.random.default_rng(0).standard_normal((100, 100))
        self.v = np.arange(30_000.0)
        self.taken = -math.inf
        self.factor = 1.0

    def _kernel(self) -> float:
        t = time.perf_counter()
        s = 0
        for i in range(20_000):
            s += i * i
        for _ in range(3):
            self.a @ self.a
        self.np.sin(self.v).sum()
        return time.perf_counter() - t

    def current(self) -> float:
        if time.perf_counter() - self.taken > REF_EVERY_S:
            self.factor = REF_S / statistics.median(self._kernel() for _ in range(3))
            self.taken = time.perf_counter()
        return self.factor


class Round:
    """Tally of one round: work items, program time, operations and problems."""

    def __init__(self):
        self.items = 0
        self.times = defaultdict(list)  # operation kind -> times at the reference speed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, message: str):
        if not ok:
            self.problems.append(message)


class Context:
    def __init__(self, cli, seed: int, work: Path):
        # imported here, after the set-up time is taken
        import numpy as np

        import checks

        self.cli_mod = cli
        self.seed = seed
        self.work = work
        self.np = np
        self.checks = checks
        self._padua_bound = {}
        self.speed = Speed(np)

    def timed(self, rnd: Round, kind: str, fn, *args):
        """fn(*args), its time at the reference speed recorded under kind; an
        operation longer than REF_EVERY_S is scaled by the mean of the
        speed factors before and after it, one longer than LONG_OP_S not at
        all."""
        factor = self.speed.current()
        t = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t
        if dt > LONG_OP_S:
            factor = 1.0
        elif dt > REF_EVERY_S:
            factor = 0.5 * (factor + self.speed.current())
        rnd.times[kind].append(dt * factor)
        return out

    def cli(self, rnd: Round, argv) -> tuple[int, str]:
        """One timed CLI operation, of the kind named by its first three
        arguments; returns exit code and standard output."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            argv = [str(a) for a in argv]
            rc = self.timed(rnd, " ".join(argv[:3]), self.cli_mod.main, argv)
        rnd.attempted += 1
        rnd.check(rc in (0, 1), f"{' '.join(map(str, argv))}: exit {rc}: {err.getvalue().strip()}")
        return rc, out.getvalue()

    def rng(self, *key):
        return self.np.random.default_rng([self.seed, *key])


def rules_round(ctx: Context, r: int) -> Round:
    rnd, checks = Round(), ctx.checks
    for fam, n, degree, count in RULES:
        path = ctx.work / f"{fam}{n}.json"
        rc, _ = ctx.cli(rnd, ["rule", fam, n, "--out", path])
        rnd.check(rc == 0, f"rule {fam} {n}: exit {rc}")
        rnd.items += count
        with open(path) as fh:
            record = json.load(fh)
        for p in checks.rule_problems(checks.rule_from_dict(record), degree, degree, count):
            rnd.problems.append(f"rule {fam} {n}: {p}")
        rc, out = ctx.cli(rnd, ["verify", path])
        rnd.check(rc == 0 and out.startswith("PASS"), f"verify {fam} {n}: exit {rc}: {out.strip()}")
        # the independent checker fails the rule one degree up (rule_problems
        # above), so verify must exit 1 on this copy
        record["degree"] = degree + 1
        over = ctx.work / f"{fam}{n}_over.json"
        with open(over, "w") as fh:
            json.dump(record, fh)
        rc, out = ctx.cli(rnd, ["verify", over])
        if rc == 0:
            rnd.failed += 1
        else:
            rnd.check(rc == 1 and out.startswith("FAIL"), f"verify {fam} {n} at {degree + 1}: {out.strip()}")
    return rnd


def lebesgue_round(ctx: Context, r: int) -> Round:
    rnd, checks = Round(), ctx.checks
    for fam, n_list in LEBESGUE:
        rc, out = ctx.cli(rnd, ["lebesgue", fam, "--n-list", ",".join(map(str, n_list))])
        lines = out.strip().splitlines()
        rnd.check(rc == 0 and lines[:1] == ["n,lebesgue,per_log2,resolution"], f"lebesgue {fam}: {out[:200]}")
        rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
        rnd.check([int(row["n"]) for row in rows] == list(n_list), f"lebesgue {fam}: rows {rows}")
        for row in rows:
            n, lam = int(row["n"]), float(row["lebesgue"])
            rnd.items += NODE_COUNT[fam](n) * LEBESGUE_R**2
            tag = f"lebesgue {fam} n={n}: {lam}"
            rnd.check(int(row["resolution"]) == LEBESGUE_R, f"{tag}: resolution {row['resolution']}")
            rnd.check(lam >= 1.0, f"{tag} < 1")
            rnd.check(0.1 <= lam / math.log(n) ** 2 <= 10.0, f"{tag}: outside [0.1, 10] (log n)^2")
            rnd.check(abs(float(row["per_log2"]) - lam / math.log(n) ** 2) <= 1e-9 * lam,
                      f"{tag}: per_log2 {row['per_log2']}")
            if fam == "padua":
                if n not in ctx._padua_bound:
                    grid = checks.lobatto_grid(PADUA_SUBGRID)
                    ctx._padua_bound[n] = checks.padua_lebesgue_closed_form(n, grid)
                bound = ctx._padua_bound[n]
                rnd.check(lam >= bound * (1.0 - 1e-10), f"{tag} below the closed form {bound} on R'=86")
    return rnd


def interp_round(ctx: Context, r: int) -> Round:
    from cubasquare import interp, nodes

    np, rnd = ctx.np, Round()
    cheb = np.polynomial.chebyshev
    for k, (fam, n, deg) in enumerate(INTERP):
        rng = ctx.rng(r, k)
        C = np.zeros((deg + 1, deg + 1))
        mask = np.add.outer(np.arange(deg + 1), np.arange(deg + 1)) <= deg
        C[mask] = rng.standard_normal(int(mask.sum()))
        pts = rng.uniform(-1.0, 1.0, (INTERP_BATCHES, INTERP_BATCH, 2))
        rnd.attempted += 1
        if fam == "padua":
            z = nodes.padua_points(n).points
            I = interp.interpolate_padua(n, cheb.chebval2d(z[:, 0], z[:, 1], C))
        else:
            ns, spec, w, _ = interp.family_rule(fam, n)
            z = ns.points
            I = interp.interpolate_kernel(ns, spec, w, cheb.chebval2d(z[:, 0], z[:, 1], C))
        for b in range(INTERP_BATCHES):
            x, y = pts[b, :, 0], pts[b, :, 1]
            got = ctx.timed(rnd, f"call {fam}", I, x, y)
            rnd.attempted += 1
            rnd.items += INTERP_BATCH
            want = cheb.chebval2d(x, y, C)
            err = float(np.abs(got - want).max() / np.abs(want).max())
            rnd.check(err <= INTERP_TOL, f"interp {fam} n={n} batch {b}: relative error {err:.2e}")
    return rnd


def discovery_round(ctx: Context, r: int) -> Round:
    rnd, checks, np = Round(), ctx.checks, ctx.np
    searches = [(mode, n, starts) for mode, n, starts in DISCOVERY for _ in range(DISCOVERY_SPLIT)]
    even5_found = 0
    for k, (mode, n, starts) in enumerate(searches):
        rng_seed = int(ctx.rng(r, k).integers(2**31))
        rc, out = ctx.cli(rnd, ["discover", mode, n, "--seeds", starts, "--rng", rng_seed])
        rnd.items += starts
        tag = f"discover {mode} {n} --seeds {starts} --rng {rng_seed}"
        try:
            rep = json.loads(out)
        except json.JSONDecodeError:
            rnd.problems.append(f"{tag}: exit {rc}, no JSON report")
            continue
        sols = [np.array([float(v) for v in h]) for h in rep["solutions"]]
        rules = [checks.rule_from_dict(d) for d in rep["rules"]]
        rnd.check(len(rules) == len(sols), f"{tag}: {len(sols)} solutions but {len(rules)} rules")
        if (mode, n) in (("odd", 7), ("even", 6)):
            # the paper's negative results: no such rule exists
            rnd.check(not sols and rep["status"] == "not-found", f"{tag}: found {len(sols)} solutions")
            continue
        if mode == "even":
            even5_found += len(sols)
        for h in sols:
            probs = checks.odd_solution_problems(n, h) if mode == "odd" else checks.even_solution_problems(n, h)
            rnd.problems += [f"{tag}: {p}" for p in probs]
            if mode == "odd":
                dist = checks.odd_orbit_distance(h, checks.PAPER_H5)
                rnd.check(dist <= 1e-9 * np.abs(checks.PAPER_H5).max(), f"{tag}: {dist:.2e} from the paper's H5")
        for rule in rules:
            rnd.check(rule["weight"] == "const", f"{tag}: weight {rule['weight']}")
            degree, count = (9, 17) if mode == "odd" else (8, 15)
            rnd.problems += [f"{tag}: {p}" for p in checks.rule_problems(rule, degree, degree, count)]
            if mode == "even":
                outside = int((np.abs(rule["nodes"]).max(axis=1) > 1.0).sum())
                rnd.check(outside == 1, f"{tag}: {outside} nodes outside the square, expected 1")
    rnd.check(even5_found > 0, f"round {r}: no even 5 solution from {DISCOVERY_SPLIT} searches")
    return rnd


WORKLOADS = {
    "rules": rules_round,
    "lebesgue": lebesgue_round,
    "interp-eval": interp_round,
    "discovery": discovery_round,
}


def self_test(ctx: Context) -> list[str]:
    """The checkers' self-test on small rules that cubasquare writes."""
    cases = [("mint", 8, 15), ("nearmint", 7, 13), ("gaussu", 8, 14), ("padua", 8, 15), ("gencheb", 8, 15)]
    rules = []
    with contextlib.redirect_stdout(io.StringIO()):
        for fam, n, true_deg in cases:
            path = ctx.work / f"selftest_{fam}{n}.json"
            if ctx.cli_mod.main(["rule", fam, str(n), "--out", str(path)]) != 0:
                return [f"self-test: cubasquare rule {fam} {n} failed"]
            rec = ctx.checks.load_rule(str(path))
            rules.append((rec["weight"], rec["nodes"], rec["lambdas"], true_deg))
    return ctx.checks.self_test(rules)


def run(args, setup_s: float, cli) -> dict:
    import resource

    ctx = Context(cli, args.seed, Path(args.work_dir))
    problems = self_test(ctx)
    tracers = {}
    if args.trace:
        from spans import Tracer

        tracers = {"traced": Tracer(), "memory": Tracer(memory=True)}
    round_fn = WORKLOADS[args.workload]
    done = []  # (mode, Round, wall seconds)

    def play(mode):
        tracer = tracers.get(mode)
        t = time.perf_counter()
        if tracer:
            tracer.install()
        try:
            rnd = round_fn(ctx, len(done))
        finally:
            if tracer:
                tracer.uninstall()
        done.append((mode, rnd, time.perf_counter() - t))

    start = time.perf_counter()
    while True:
        play("traced" if args.trace and len(done) % 2 else "plain")
        typical = statistics.median(w for _, _, w in done)
        if time.perf_counter() - start + typical > args.seconds and len(done) > args.trace:
            break
    if args.trace:
        play("memory")
    for _, rnd, _ in done:
        problems += rnd.problems
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)

    def rate(rounds):
        """Items of a round over the round's time, each operation taken at the
        median time of its kind over these rounds (every round runs the
        same operations)."""
        times = defaultdict(list)
        for rnd in rounds:
            for kind, ts in rnd.times.items():
                times[kind] += ts
        per_round = sum(len(ts) * statistics.median(times[kind]) for kind, ts in rounds[0].times.items())
        return rounds[0].items / per_round

    plain = [rnd for mode, rnd, _ in done if mode == "plain"]
    if not args.trace:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "items_per_s": {"value": rate(plain), "unit": "items/s"},
        }
    else:
        traced_rounds = [rnd for mode, rnd, _ in done if mode == "traced"]
        metrics = tracers["traced"].metrics(len(traced_rounds), tracers["memory"])
        overhead = 100.0 * (rate(plain) / rate(traced_rounds) - 1.0)
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    return {
        "correct": not problems,
        "attempted": sum(rnd.attempted for _, rnd, _ in done),
        "failed": sum(rnd.failed for _, rnd, _ in done),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir")
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    cli = _import_cli()
    setup_s = time.monotonic() - args.t0
    import numpy as np

    setup_s *= Speed(np).current()  # at the reference speed, sampled right after
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if not args.workload or not args.work_dir:
        p.error("--workload and --work-dir are required")
    print(json.dumps(run(args, setup_s, cli)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
