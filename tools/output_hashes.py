"""md5 of CLI outputs in a parent tree and in this checkout, command by command.

    python3 tools/output_hashes.py PARENT_TREE

PARENT_TREE is a checkout of the parent commit (``git clone`` or
``git archive``); the change is the checkout this script belongs to.  Each
command of ``COMMANDS`` runs once per tree as ``python -m cubasquare.cli``
with ``PYTHONPATH=<tree>/src``, in a temporary directory of its own, under
the environment this script was started with (rule files depend on the BLAS
thread count, so both sides share it).  A ``verify`` reads the rule file that
the same tree's ``rule`` command printed.  Per command the script prints the
md5 of the standard output and the exit code of each side and ``same`` or
``DIFF``; for a ``rule`` command that differs, also the top-level fields of the
two rule files that differ, the fields of ``oracle_report`` that differ, and
the largest move in ``oracle_report.residuals``: absolute among the residuals
at most 1e-9 (exact degrees), relative among the others.  It exits 1 if any
command differs.  Uses the standard library only.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CHANGE = Path(__file__).resolve().parent.parent

RULES = [
    ["mint", "64"],
    ["nearmint", "63"],
    ["gaussu", "64"],
    ["padua", "48"],
    ["gencheb", "48"],
    ["gencheb", "64", "--alpha", "-0.99", "--beta", "20"],
]

# (name, argv, file the standard output is also written to, or None)
COMMANDS = (
    [(f"rule {' '.join(r)}", ["rule", *r], f"rule{i}.json") for i, r in enumerate(RULES)]
    + [(f"verify rule {' '.join(r)}", ["verify", f"rule{i}.json"], None) for i, r in enumerate(RULES)]
    + [(" ".join(argv), argv, None) for argv in (
        # node files go through the writer of rule files' nodes
        ["nodes", "mint", "64"],
        ["nodes", "padua", "48"],
        ["nodes", "gencheb", "48"],
        ["lebesgue", "mint", "--n-list", "16,32,64"],
        ["lebesgue", "padua", "--n-list", "32,33"],
        ["lebesgue", "gencheb", "--n-list", "24,25"],
        ["interp", "mint", "--n-list", "8,16,32"],
        ["interp", "mint", "--n-list", "8,16,32", "--norm", "L2"],
        ["interp", "gencheb", "--n-list", "8,16,24", "--norm", "L2"],
        ["discover", "odd", "3", "--seeds", "20"],
        # searches of the discovery benchmark's kinds: the 12-node odd 4, 15-node
        # even 5 and 17-node odd 5 rules, and the negative results at odd 7 and even 6
        ["discover", "odd", "5", "--seeds", "6", "--rng", "3"],
        ["discover", "odd", "5", "--seeds", "10"],
        ["discover", "odd", "7", "--seeds", "2", "--rng", "1"],
        ["discover", "even", "5", "--seeds", "20", "--rng", "2"],
        ["discover", "even", "6", "--seeds", "10", "--rng", "4"],
        ["discover", "odd", "4", "--seeds", "10", "--rng", "2"],
        ["discover", "even", "3", "--seeds", "10"],
    )]
)


def run_all(tree: Path, work: Path) -> list[tuple[str, int, bytes]]:
    """(md5 of the standard output, exit code, the output itself) of each command
    of COMMANDS, run in ``work``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = []
    for _, argv, save in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "cubasquare.cli", *argv], cwd=work, env=env,
                              capture_output=True)
        if save:
            (work / save).write_bytes(proc.stdout)
        out.append((hashlib.md5(proc.stdout).hexdigest(), proc.returncode, proc.stdout))
    return out


def rule_moves(parent: bytes, change: bytes) -> str:
    """What differs between two rule files: the top-level fields, the fields of
    ``oracle_report`` and the largest moves in its ``residuals``."""
    try:
        a, b = json.loads(parent), json.loads(change)
    except ValueError:
        return "not both rule files"
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return "not both rule files"
    fields = [k for k in {**a, **b} if a.get(k) != b.get(k)]
    ra, rb = (d.get("oracle_report") or {} for d in (a, b))
    report = [k for k in {**ra, **rb} if ra.get(k) != rb.get(k)]
    line = f"fields {', '.join(fields) or 'none'}; oracle_report fields {', '.join(report) or 'none'}"
    pairs = list(zip(ra.get("residuals") or [], rb.get("residuals") or []))
    if pairs and all(isinstance(x, float) and isinstance(y, float) for x, y in pairs):
        exact = max((abs(x - y) for x, y in pairs if x <= 1e-9), default=0.0)
        large = max((abs(x - y) / x for x, y in pairs if x > 1e-9), default=0.0)
        line += f"; largest residual move {exact:.2g} (residuals <= 1e-9), {large:.2g} relative (the others)"
    return line


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent = Path(args[0]).resolve()
    if not (parent / "src" / "cubasquare").is_dir():
        print(f"{parent} holds no src/cubasquare", file=sys.stderr)
        return 2
    results = {}
    for side, tree in (("parent", parent), ("change", CHANGE)):
        with tempfile.TemporaryDirectory(prefix=f"output_hashes_{side}_") as work:
            results[side] = run_all(tree, Path(work))
    differ = 0
    for (name, argv, _), (hp, cp, op), (hc, cc, oc) in zip(COMMANDS, results["parent"], results["change"]):
        same = (hp, cp) == (hc, cc)
        differ += not same
        print(f"{'same' if same else 'DIFF'}  parent {hp} exit {cp}  change {hc} exit {cc}  {name}")
        if not same and argv[0] == "rule":
            print(f"      {rule_moves(op, oc)}")
    print(f"{differ} of {len(COMMANDS)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
