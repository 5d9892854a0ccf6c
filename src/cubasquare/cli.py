"""Command-line front end.

Subcommands: nodes, rule, verify, interp, lebesgue, discover, plot.
Exit codes: 0 success / verification pass, 1 verification failure,
2 usage or parse errors.  Every command is deterministic given its
flags and random seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import discover as dsc
from ._svg import nodes_svg
from .cubature import (
    CubatureError,
    exactness_check,
    rule_from_json,
    rule_to_dict,
    weights_from_vandermonde,
)
from .interp import convergence_report, family_rule, lebesgue_constant
from .nodes import (
    NodeSet,
    gauss_u_nodes,
    gencheb_nodes,
    lissajous_curve_point,
    min_t_nodes_even,
    near_min_t_nodes_odd,
    padua_points,
)
from .weights import cheb1, parse_weight, weight_string

__all__ = ["main"]

_FAMILIES = ("gaussu", "mint", "nearmint", "padua", "gencheb")

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


def _check_parity(family: str, n: int):
    """mint is built for even n only, nearmint for odd n only."""
    if family == "mint" and n % 2:
        raise UsageError("family 'mint' needs even n")
    if family == "nearmint" and n % 2 == 0:
        raise UsageError("family 'nearmint' needs odd n")


def _build_nodes(family: str, n: int, alpha: float, beta: float) -> NodeSet:
    _check_parity(family, n)
    if family == "gaussu":
        return gauss_u_nodes(n)
    if family == "mint":
        return min_t_nodes_even(n)
    if family == "nearmint":
        return near_min_t_nodes_odd(n)
    if family == "padua":
        return padua_points(n)
    if family == "gencheb":
        return gencheb_nodes(alpha, beta, n)
    raise UsageError(f"unknown family {family!r}; choose from {_FAMILIES}")


def _kernel_family_name(family: str) -> str:
    return {"gaussu": "cheb2", "mint": "cheb1", "nearmint": "cheb1", "gencheb": "gencheb"}[family]


def _table_family(args) -> tuple[str, list[int]]:
    """interp/lebesgue family name and --n-list, each n checked for parity."""
    n_list = [int(s) for s in args.n_list.split(",")]
    for n in n_list:
        _check_parity(args.family, n)
    return (_kernel_family_name(args.family) if args.family != "padua" else "padua"), n_list


def _build_rule(family: str, n: int, alpha: float, beta: float, weight: str | None):
    _check_parity(family, n)
    if family == "padua":
        w = parse_weight(weight) if weight else cheb1()
        nodes = padua_points(n)
        return weights_from_vandermonde(nodes, w, 2 * n - 1)
    _, _, w, rule = family_rule(_kernel_family_name(family), n, alpha, beta)
    if weight and parse_weight(weight) != w:
        raise UsageError(
            f"family {family!r} is tied to weight {weight_string(w)!r}; "
            "--weight can only override the padua family"
        )
    return rule


def _write_out(text: str, path: str | None):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _maybe_svg(ns: NodeSet, svg_path: str | None, with_curve: bool):
    if not svg_path:
        return
    curve = None
    if with_curve and ns.family == "padua":
        t = np.linspace(0.0, 2.0 * np.pi, 4000)
        curve = lissajous_curve_point(ns.n, t)
    _write_out(nodes_svg(ns.points, curve=curve, title=f"{ns.family} n={ns.n}"), svg_path)


def cmd_nodes(args) -> int:
    ns = _build_nodes(args.family, args.n, args.alpha, args.beta)
    _write_out(json.dumps(ns.to_dict(), indent=2), args.out)
    _maybe_svg(ns, args.svg, args.curve)
    return 0


def cmd_rule(args) -> int:
    rule = _build_rule(args.family, args.n, args.alpha, args.beta, args.weight)
    rule.oracle_report = exactness_check(rule)
    _write_out(json.dumps(rule_to_dict(rule), indent=2), args.out)
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
    if args.resolution < 2:
        raise UsageError("--resolution must be at least 2")
    rows = convergence_report(fam, f, n_list, norm=args.norm, grid_resolution=args.resolution,
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
    if args.format == "json":
        _write_out(json.dumps(rows, indent=2), args.out)
    else:
        cols = list(rows[0].keys())
        lines = [",".join(cols)] + [
            ",".join(format(r[c], ".12g") if isinstance(r[c], float) else str(r[c]) for c in cols)
            for r in rows
        ]
        _write_out("\n".join(lines), args.out)
    return 0


def cmd_discover(args) -> int:
    from .weights import constant

    n = args.n
    report: dict = {"mode": args.mode, "n": n, "seeds": args.seeds, "rng_seed": args.rng}
    rules = []
    if args.mode == "even":
        sols = dsc.solve_even_system(n, seeds=args.seeds, rng_seed=args.rng)
        report["solutions"] = [[format(v, ".17g") for v in s.h] for s in sols]
        ref = dsc.KNOWN_EVEN_HANKEL.get(n)
        if ref is not None:
            entry = {"reference_residual": float(np.abs(dsc.even_system_residual(n, ref)).max())}
            if sols:
                entry["best_distance"] = min(
                    dsc.align_to_reference(s.h, ref.h, "even")[1] for s in sols
                )
            report["reference_match"] = entry
        for idx, s in enumerate(sols):
            try:
                pts = dsc.common_zeros(dsc.even_system_polys(n, s), n * (n + 1) // 2)
            except dsc.CommonZeroError:
                continue
            ns = NodeSet(points=pts, family="discovered_even", n=n, expected_count=len(pts),
                         provenance=f"even-system solution {idx}")
            rule = weights_from_vandermonde(ns, constant(), 2 * n - 2)
            rule.oracle_report = exactness_check(rule)
            rules.append((idx, rule))
    else:
        search = dsc.odd_system_search(n, seeds=args.seeds, rng_seed=args.rng)
        report["solutions"] = [[format(v, ".17g") for v in s.hankel.h] for s in search.verified]
        report["algebraic_only"] = [[format(v, ".17g") for v in s.h] for s in search.algebraic_only]
        nmin1 = n * (n + 1) // 2 + n // 2
        for idx, s in enumerate(search.verified):
            try:
                pts = dsc.common_zeros(dsc.orthogonal_polys_from_U(n, s.U), nmin1)
            except dsc.CommonZeroError:
                continue
            ns = NodeSet(points=pts, family="discovered_odd", n=n, expected_count=len(pts),
                         provenance=f"odd-system solution {idx}")
            rule = weights_from_vandermonde(ns, constant(), 2 * n - 1)
            rule.oracle_report = exactness_check(rule)
            rules.append((idx, rule))
        ref = dsc.KNOWN_ODD_HANKEL.get(n)
        if ref is not None:
            entry = {"reference_residual": float(np.abs(dsc.odd_system_residual(n, ref)).max())}
            if search.verified:
                entry["best_distance"] = min(
                    dsc.align_to_reference(s.hankel.h, ref.h, "odd")[1] for s in search.verified
                )
            report["reference_match"] = entry
    if not rules and not report.get("solutions"):
        report["status"] = "not-found"
        report["note"] = "no solution found with these seeds; nonexistence is not established"
    else:
        report["status"] = "found" if report.get("solutions") else "not-found"
    report["rules"] = []
    for idx, rule in rules:
        entry = rule_to_dict(rule)
        report["rules"].append(entry)
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            path = os.path.join(args.out_dir, f"{args.mode}_n{n}_sol{idx}.json")
            with open(path, "w") as fh:
                json.dump(entry, fh, indent=2)
    _write_out(json.dumps(report, indent=2), args.out)
    return 0


def cmd_plot(args) -> int:
    ns = _build_nodes(args.family, args.n, args.alpha, args.beta)
    _maybe_svg(ns, args.svg, args.curve)
    return 0


def _parser() -> argparse.ArgumentParser:
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
        q.add_argument("--n-list", default="4,8,16")
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
    q.add_argument("--weight", default=None)
    q.add_argument("--out", default=None)
    q.set_defaults(fn=cmd_rule)

    q = sub.add_parser("verify", help="re-verify a rule file against the moment oracle")
    q.add_argument("rulefile")
    q.set_defaults(fn=cmd_verify)

    q = sub.add_parser("interp", help="interpolation error table")
    add_family(q, with_n=False)
    add_table(q, resolution=101)
    q.add_argument("--function", choices=sorted(_TEST_FUNCTIONS), default="exp_xy")
    q.add_argument("--norm", choices=("sup", "L2"), default="sup")
    q.set_defaults(fn=cmd_interp)

    q = sub.add_parser("lebesgue", help="Lebesgue constant table")
    add_family(q, with_n=False)
    add_table(q, resolution=256)
    q.set_defaults(fn=cmd_lebesgue)

    q = sub.add_parser("discover", help="search the Hankel systems for the constant weight")
    q.add_argument("mode", choices=("even", "odd"))
    q.add_argument("n", type=int)
    q.add_argument("--seeds", type=int, default=80)
    q.add_argument("--rng", type=int, default=0)
    q.add_argument("--out", default=None)
    q.add_argument("--out-dir", default=None)
    q.set_defaults(fn=cmd_discover)

    q = sub.add_parser("plot", help="render a node family to SVG")
    add_family(q)
    q.add_argument("--svg", required=True)
    q.add_argument("--curve", action="store_true")
    q.set_defaults(fn=cmd_plot)
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
