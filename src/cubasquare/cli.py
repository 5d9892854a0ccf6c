"""Command-line front end.

Subcommands: nodes, rule, verify, interp, lebesgue, discover.
Exit codes: 0 success / verification pass, 1 verification failure,
2 usage or parse errors.  Every command is deterministic given its
flags and random seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from ._svg import nodes_svg
from .cubature import (
    CubatureError,
    exactness_check,
    rule_from_json,
    rule_to_dict,
    rule_to_json,
    weights_from_vandermonde,
)
from .interp import _family_parts, convergence_report, family_rule, lebesgue_constant
from .nodes import NodeSet, lissajous_curve_point
from .weights import constant

__all__ = ["main"]

# per family: its kernel family (``interp.family_rule``), its smallest n, and the parity n must have
_FAMILIES = {"gaussu": ("cheb2", 1, None), "mint": ("cheb1", 2, 0), "nearmint": ("cheb1", 3, 1),
             "padua": ("padua", 1, None), "gencheb": ("gencheb", 2, None)}

_TEST_FUNCTIONS = {
    "exp_xy": lambda x, y: np.exp(x + y),
    "runge": lambda x, y: 1.0 / (1.0 + 5.0 * (x * x + y * y)),
    "abs_x": lambda x, y: np.abs(x),
}


class UsageError(Exception):
    pass


def _gencheb_shape(args):
    """--alpha/--beta shape only the gencheb weight (default 1/2 each)."""
    if args.family != "gencheb" and (args.alpha, args.beta) != (None, None):
        raise UsageError(f"--alpha and --beta apply only to the gencheb family, not {args.family!r}")
    args.alpha = 0.5 if args.alpha is None else args.alpha
    args.beta = 0.5 if args.beta is None else args.beta


def _kernel_family(family: str, n: int) -> str:
    """The kernel family of ``family`` at n, once n is checked: each family
    from its smallest n, mint for even n only, nearmint for odd n only."""
    kernel, smallest, parity = _FAMILIES[family]
    if n < smallest:
        raise UsageError(f"family {family!r} needs n >= {smallest}, not n = {n}")
    if parity is not None and n % 2 != parity:
        raise UsageError(f"family {family!r} needs {('even', 'odd')[parity]} n")
    return kernel


def _table_family(args) -> tuple[str, list[int]]:
    """interp/lebesgue kernel family and --n-list, each n checked by ``_kernel_family``;
    the default list is odd for nearmint and even otherwise."""
    default = "5,9,17" if args.family == "nearmint" else "4,8,16"
    text = default if args.n_list is None else args.n_list
    try:
        n_list = [int(s) for s in text.split(",")]
    except ValueError:
        raise UsageError(f"--n-list takes comma-separated integers, not {text!r}") from None
    for n in n_list:
        kernel = _kernel_family(args.family, n)
    return kernel, n_list


def _write_out(text: str, path: str | None):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_nodes(args) -> int:
    if args.curve and (args.family != "padua" or not args.svg):
        raise UsageError("--curve draws the Padua generating curve: it needs family 'padua' and --svg")
    ns = _family_parts(_kernel_family(args.family, args.n), args.n, args.alpha, args.beta)[1]
    _write_out(ns.to_json(), args.out)
    if args.svg:
        curve = None
        if args.curve:
            curve = lissajous_curve_point(ns.n, np.linspace(0.0, 2.0 * np.pi, 4000))
        _write_out(nodes_svg(ns.points, curve=curve, title=f"{ns.family} n={ns.n}"), args.svg)
    return 0


def cmd_rule(args) -> int:
    rule = family_rule(_kernel_family(args.family, args.n), args.n, args.alpha, args.beta)[3]
    _write_out(rule_to_json(rule), args.out)
    return 0 if rule.oracle_report.passed else 1


def cmd_verify(args) -> int:
    try:
        with open(args.rulefile) as fh:
            rule = rule_from_json(fh.read())
    except (OSError, ValueError, KeyError, json.JSONDecodeError, CubatureError) as exc:
        print(f"error: cannot load rule file: {exc}", file=sys.stderr)
        return 2
    report = exactness_check(rule)
    status = "PASS" if report.passed else "FAIL"
    line = (
        f"{status} degree={report.declared_degree} max_rel_error={report.max_rel_error:.3e} "
        f"first_failure_degree={report.first_failure_degree}"
    )
    if not report.passed:
        line += f" residual={report.residuals[report.first_failure_degree]:.3e}"
    print(line)
    return 0 if report.passed else 1


def cmd_interp(args) -> int:
    f = _TEST_FUNCTIONS[args.function]
    fam, n_list = _table_family(args)
    if args.resolution is not None and (args.norm == "L2" or args.resolution < 2):
        raise UsageError("--resolution, at least 2, sets the grid of --norm sup; --norm L2 reads no grid")
    rows = convergence_report(fam, f, n_list, norm=args.norm, grid_resolution=args.resolution or 101,
                              alpha=args.alpha, beta=args.beta)
    if args.format == "json":
        _write_out(json.dumps([{"n": n, "error": e} for n, e in rows], indent=2), args.out)
    else:
        lines = ["n,error"] + [f"{n},{e:.17g}" for n, e in rows]
        _write_out("\n".join(lines), args.out)
    return 0


def cmd_lebesgue(args) -> int:
    fam, n_list = _table_family(args)
    res = args.resolution
    if res < 64:
        raise UsageError("--resolution must be at least 64")
    rows = []
    for n in n_list:
        lam = lebesgue_constant(fam, n, grid_resolution=res, alpha=args.alpha, beta=args.beta)
        row = {
            "n": n,
            "lebesgue": lam,
            "per_log2": lam / math.log(n) ** 2 if n > 1 else float("nan"),
            "resolution": res,
        }
        if fam == "gencheb":
            row["per_power"] = lam / n ** (2 * max(args.alpha, args.beta) + 1)
        rows.append(row)
    if args.format == "json":  # per_log2 is undefined at n = 1: null, as JSON has no NaN
        rows = [{k: None if isinstance(v, float) and math.isnan(v) else v for k, v in r.items()} for r in rows]
        _write_out(json.dumps(rows, indent=2), args.out)
    else:
        cols = list(rows[0].keys())
        lines = [",".join(cols)] + [
            ",".join(format(r[c], ".12g") if isinstance(r[c], float) else str(r[c]) for c in cols)
            for r in rows
        ]
        _write_out("\n".join(lines), args.out)
    return 0


def _discover_peak(mode: str, n: int) -> int:  # bytes at the peak of building discover's Q: 2.65 Q, high from n = 40
    cols = n + (mode == "odd")  # Q holds cols (cols - 1) / 2 x (n + cols)^2 doubles
    return int(2.65 * 8 * (cols * (cols - 1) // 2) * (n + cols) ** 2)


def cmd_discover(args) -> int:
    n, mode = args.n, args.mode
    if n < 2:
        raise UsageError(f"discover needs n >= 2, not n = {n}")
    if (peak := _discover_peak(mode, n)) > 2**30:
        raise UsageError(f"discover {mode} {n} would peak at {peak} bytes building its quadratic form, over 1 GiB")
    if args.seeds < 1:
        raise UsageError("--seeds must be at least 1")
    if args.rng < 0:
        raise UsageError("--rng must be non-negative")
    from . import discover as dsc  # imported here: scipy.optimize is slow to load
    report: dict = {"mode": mode, "n": n, "seeds": args.seeds, "rng_seed": args.rng}
    if mode == "even":
        sols = dsc.solve_even_system(n, seeds=args.seeds, rng_seed=args.rng)
        degree, ref = 2 * n - 2, dsc.KNOWN_EVEN_HANKEL.get(n)
    else:
        search = dsc.odd_system_search(n, seeds=args.seeds, rng_seed=args.rng)
        sols, degree, ref = search.verified, 2 * n - 1, dsc.KNOWN_ODD_HANKEL.get(n)
    report["solutions"] = [[format(v, ".17g") for v in s.h] for s in sols]
    if mode == "odd":
        report["algebraic_only"] = [[format(v, ".17g") for v in s.h] for s in search.algebraic_only]
        report["stalled_fits"] = search.stalled
    if ref is not None:
        entry = {"reference_residual": float(np.abs(ref.residual()).max())}
        if sols:
            entry["best_distance"] = min(dsc.align_to_reference(s, ref)[1] for s in sols)
        report["reference_match"] = entry
    rules = []
    for idx, s in enumerate(sols):
        try:
            pts = dsc.common_zeros(s)
        except dsc.CommonZeroError:
            continue
        ns = NodeSet(points=pts, family=f"discovered_{mode}", n=n, expected_count=len(pts),
                     provenance=f"{mode}-system solution {idx}")
        rule = weights_from_vandermonde(ns, constant(), degree)
        rule.oracle_report = exactness_check(rule)
        rules.append((idx, rule))
    report["status"] = "found" if sols else "not-found"
    if not sols:
        report["note"] = "no solution found with these seeds; nonexistence is not established"
    report["rules"] = [rule_to_dict(rule) for _, rule in rules]
    if args.out_dir and rules:
        os.makedirs(args.out_dir, exist_ok=True)
        for idx, rule in rules:
            with open(os.path.join(args.out_dir, f"{args.mode}_n{n}_sol{idx}.json"), "w") as fh:
                fh.write(rule_to_json(rule))
    _write_out(json.dumps(report, indent=2), args.out)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing reads it without changing it."""
    p = argparse.ArgumentParser(prog="cubasquare",
                                description="cubature rules and interpolation nodes on the square")
    sub = p.add_subparsers(dest="command", required=True)

    def add_family(q, with_n=True):
        q.add_argument("family", choices=_FAMILIES)
        if with_n:
            q.add_argument("n", type=int)
        q.add_argument("--alpha", type=float, default=None)
        q.add_argument("--beta", type=float, default=None)

    def add_table(q, resolution):
        q.add_argument("--n-list", default=None)
        q.add_argument("--resolution", type=int, default=resolution)
        q.add_argument("--format", choices=("json", "csv"), default="csv")
        q.add_argument("--out", default=None)

    q = sub.add_parser("nodes", help="generate a node family as JSON (optionally SVG)")
    add_family(q)
    q.add_argument("--out", default=None)
    q.add_argument("--svg", default=None)
    q.add_argument("--curve", action="store_true")
    q.set_defaults(fn=cmd_nodes)

    q = sub.add_parser("rule", help="build a cubature rule file")
    add_family(q)
    q.add_argument("--out", default=None)
    q.set_defaults(fn=cmd_rule)

    q = sub.add_parser("verify", help="re-verify a rule file against the moment oracle",
                       description="Compare the rule's sums with the T-tensor moments int T_i(x) T_j(y) W through the "
                       "declared degree + 3; PASS (exit 0) if each error through the declared degree is <= 1e-9 of the "
                       "mass.  One process, 2 vCPUs: mint 64 0.2 s and 32 MB peak RSS, mint 512 0.4 s, 90 MB.")
    q.add_argument("rulefile")
    q.set_defaults(fn=cmd_verify)

    q = sub.add_parser("interp", help="interpolation error table",
                       description="Interpolation errors: sup norm on the R x R Chebyshev-Lobatto grid (--resolution "
                       "R, default 101) or L2 in the family weight.  Cardinal columns are read in node blocks of at "
                       "most 16 MB.  One process, 2 vCPUs: mint 128 0.4 s and 57 MB peak RSS, padua 128 0.5 s and 62 "
                       "MB, gencheb 96 0.4 s and 53 MB, mint 256 4.2 s and 88 MB, padua 256 5.9 s and 121 MB.")
    add_family(q, with_n=False)
    add_table(q, resolution=None)
    q.add_argument("--function", choices=sorted(_TEST_FUNCTIONS), default="exp_xy")
    q.add_argument("--norm", choices=("sup", "L2"), default="sup")
    q.set_defaults(fn=cmd_interp)

    q = sub.add_parser("lebesgue", help="Lebesgue constant table",
                       description="Lebesgue constant table on the R x R Chebyshev-Lobatto grid; the verified "
                       "reflections of the node set, and for mint the diagonal swap, keep half, a quarter or "
                       "an eighth of it.  mint, nearmint, padua and gaussu: m + 1 multiply-adds per node and "
                       "grid point kept (m the interpolant's degree), O(n^2 R) memory.  At R = 256 (one "
                       "process, 2 vCPUs): mint 64 0.22 s and 40 MB peak RSS, mint 128 0.58 s and 70 MB, "
                       "padua 64 0.4 s and 44 MB, padua 128 1.2 s and 91 MB.  gencheb forms the dim x N "
                       "cardinal factor: 0.41 s and 87 MB at n = 64, 3.7 s and 608 MB at n = 128.")
    add_family(q, with_n=False)
    add_table(q, resolution=256)
    q.set_defaults(fn=cmd_lebesgue)

    q = sub.add_parser("discover", help="search the Hankel systems for the constant weight",
                       description="Multistart Levenberg-Marquardt search of a Hankel system for the constant weight; "
                       "odd n > 70 or even n > 71, whose quadratic form would peak above 1 GiB to build, is a usage "
                       "error.  2 vCPUs: odd 7 --seeds 200 1.8-3.1 s, 80 MB peak RSS; scipy's import 0.4-0.5 s, 48 MB.")
    q.add_argument("mode", choices=("even", "odd"))
    q.add_argument("n", type=int)
    q.add_argument("--seeds", type=int, default=80)
    q.add_argument("--rng", type=int, default=0)
    q.add_argument("--out", default=None)
    q.add_argument("--out-dir", default=None)
    q.set_defaults(fn=cmd_discover)
    return p


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if hasattr(args, "alpha"):
            _gencheb_shape(args)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, CubatureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
