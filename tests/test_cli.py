"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
import textwrap
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from cubasquare.cli import main


def run(args):
    return main(args)


def test_parser_loads_no_scipy():
    # only `discover` needs scipy; importing the CLI and building its parser loads none of it
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; from cubasquare import cli; cli._parser(); "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_only_discover_loads_scipy(tmp_path):
    # nodes, rule (gencheb, through the Gauss-Jacobi rules), verify, interp and
    # lebesgue run on numpy alone; discover then loads scipy in the same process
    src = Path(__file__).resolve().parent.parent / "src"
    code = textwrap.dedent("""
        import json, sys
        from cubasquare.cli import main
        out, rule = sys.argv[1], sys.argv[2]
        runs = [["nodes", "mint", "4", "--out", out], ["rule", "gencheb", "6", "--out", rule], ["verify", rule],
                ["interp", "padua", "--n-list", "4", "--resolution", "11", "--out", out],
                ["lebesgue", "mint", "--n-list", "4", "--resolution", "64", "--out", out]]
        codes = [main(argv) for argv in runs]
        before = [m for m in sys.modules if m.split(".")[0] == "scipy"]
        codes.append(main(["discover", "even", "3", "--seeds", "1", "--out", out]))
        print(json.dumps({"codes": codes, "before": before, "after": "scipy" in sys.modules}))
    """)
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out"), str(tmp_path / "rule.json")],
                          env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout.strip().splitlines()[-1])
    assert got == {"codes": [0] * 6, "before": [], "after": True}


def test_one_parser_serves_every_command(tmp_path, monkeypatch, capsys):
    # the cached parser gives each command the exit code and output of a freshly built one
    from cubasquare import cli

    assert cli._parser() is cli._parser()
    commands = [["rule", "mint", "4", "--out", "rule.json"], ["rule", "mint", "x"], ["verify", "rule.json"],
                ["discover", "even", "3", "--seeds", "2"], ["rule", "gencheb", "5", "--alpha", "0.3"]]

    def session(name):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        out = []
        for argv in commands:
            rc = cli.main(argv)
            out.append((rc, *capsys.readouterr()))
        return out, (tmp_path / name / "rule.json").read_text()

    cached = session("cached")
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli._parser.__wrapped__)
        fresh = session("fresh")
    assert cached == fresh
    assert [rc for rc, *_ in cached[0]] == [0, 2, 0, 0, 0]
    assert "invalid int value" in cached[0][1][2]


# each subcommand accepts only the flags it reads; --alpha/--beta only for gencheb.
# `plot` is gone (`nodes --svg` draws the same SVG): its old command lines exit 2
FLAG_VALUES = {"--gamma": "0.5", "--weight": "cheb1", "--format": "json", "--resolution": "65",
               "--out": "unused.json", "--alpha": "0.3", "--beta": "-0.7"}
REMOVED_FLAGS = [
    (base, flag)
    for base, flags in [
        (["nodes", "mint", "4"], ["--gamma", "--weight", "--format", "--resolution", "--alpha", "--beta"]),
        (["rule", "mint", "4"], ["--gamma", "--weight", "--format", "--resolution", "--alpha", "--beta"]),
        (["interp", "mint"], ["--gamma", "--weight", "--alpha", "--beta"]),
        (["lebesgue", "mint"], ["--gamma", "--weight", "--alpha", "--beta"]),
        (["plot", "mint", "4", "--svg", "unused.svg"],
         ["--gamma", "--out", "--weight", "--format", "--resolution", "--alpha", "--beta"]),
    ]
    for flag in flags
]


@pytest.mark.parametrize("base,flag", REMOVED_FLAGS, ids=[f"{b[0]}{f}" for b, f in REMOVED_FLAGS])
def test_unread_flag_is_rejected(base, flag, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(base + [flag, FLAG_VALUES[flag]]) == 2
    assert not list(tmp_path.iterdir())


class TestNodesCommand:
    def test_padua_with_svg_and_curve(self, tmp_path):
        out = tmp_path / "nodes.json"
        svg = tmp_path / "nodes.svg"
        assert run(["nodes", "padua", "11", "--out", str(out), "--svg", str(svg), "--curve"]) == 0
        d = json.loads(out.read_text())
        assert d["count"] == 78
        root = ET.parse(svg).getroot()  # valid XML
        circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
        assert len(circles) == 78
        assert root.findall(".//{http://www.w3.org/2000/svg}polyline")

    def test_mint_180(self, tmp_path):
        out = tmp_path / "mint.json"
        assert run(["nodes", "mint", "18", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["count"] == 180

    def test_gencheb_144(self, tmp_path):
        out = tmp_path / "g.json"
        assert run(["nodes", "gencheb", "16", "--alpha", "0.5", "--beta", "0.5", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["count"] == 144

    def test_parity_usage_error(self):
        assert run(["nodes", "mint", "7"]) == 2

    def test_unknown_family_exit_2(self):
        assert run(["nodes", "hexagon", "4"]) == 2

    @pytest.mark.parametrize("argv", [["gaussu", "9"], ["mint", "10"], ["nearmint", "11"], ["padua", "7"],
                                      ["gencheb", "8"], ["gencheb", "9", "--alpha", "0.3", "--beta", "-0.2"]],
                             ids=lambda a: "-".join(a))
    def test_file_is_the_stdlib_json_text(self, argv, tmp_path, capsys):
        # the one-pass writer gives the text json.dumps writes for the node file's fields
        from cubasquare.cli import _family_parts, _kernel_family

        out = tmp_path / "nodes.json"
        assert run(["nodes", *argv, "--out", str(out)]) == 0
        alpha, beta = (0.3, -0.2) if "--alpha" in argv else (0.5, 0.5)
        ns = _family_parts(_kernel_family(argv[0], int(argv[1])), int(argv[1]), alpha, beta)[1]
        want = {"family": ns.family, "n": ns.n, "count": len(ns),
                "points": [[format(x, ".17g"), format(y, ".17g")] for x, y in ns.points],
                "provenance": ns.provenance}
        if argv[0] == "gencheb":
            want.update(alpha=alpha, beta=beta)
        assert out.read_text() == json.dumps(want, indent=2)
        assert run(["nodes", *argv]) == 0
        assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"


@pytest.mark.parametrize("args", [["rule", "mint", "15"], ["rule", "nearmint", "4"],
                                  ["interp", "mint", "--n-list", "15"], ["interp", "nearmint", "--n-list", "4"],
                                  ["lebesgue", "mint", "--n-list", "16,15"],
                                  ["lebesgue", "nearmint", "--n-list", "4"]],
                         ids=lambda a: "-".join(a))
def test_parity_checked_by_every_command(args, tmp_path, capsys):
    out = tmp_path / "out.txt"
    assert run(args + ["--out", str(out)]) == 2
    assert "needs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [["lebesgue", "mint", "--n-list", "4,x"], ["interp", "mint", "--n-list", "4,,8"]],
                         ids=["lebesgue-letter", "interp-empty"])
def test_malformed_n_list_is_a_usage_error(args, tmp_path, capsys):
    out = tmp_path / "out.txt"
    assert run(args + ["--out", str(out)]) == 2
    assert "usage error: --n-list" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args,flag", [
    (["discover", "odd", "3", "--seeds", "-1"], "--seeds"),
    (["discover", "odd", "3", "--rng", "-1"], "--rng"),
    (["interp", "mint", "--n-list", ""], "--n-list"),
    (["lebesgue", "mint", "--n-list", ""], "--n-list"),
], ids=["seeds-negative", "rng-negative", "interp-n-list-empty", "lebesgue-n-list-empty"])
def test_unusable_input_is_a_usage_error(args, flag, tmp_path, capsys):
    # no search runs with no starts or a negative seed, and no table falls back to the default list
    out = tmp_path / "out.txt"
    assert run(args + ["--out", str(out)]) == 2
    assert f"usage error: {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [["nodes", "gencheb", "8"], ["rule", "gencheb", "8"],
                                  ["interp", "gencheb", "--n-list", "8"],
                                  ["lebesgue", "gencheb", "--n-list", "8"]],
                         ids=["nodes", "rule", "interp", "lebesgue"])
def test_gencheb_parameters_outside_the_oracle(args, tmp_path):
    # every alpha, beta > -1, not only the half-integers, builds nodes, rules,
    # interpolants and Lebesgue tables; the rule file passes verify
    out = tmp_path / "out.txt"
    assert run(args + ["--alpha", "0.3", "--beta", "-0.2", "--out", str(out)]) == 0
    if args[0] == "rule":
        assert run(["verify", str(out)]) == 0


def test_gencheb_parameters_past_the_gamma_range(tmp_path):
    # alpha + beta = 200 puts Gamma(alpha + beta + 2) past the float range;
    # the Jacobi mass then comes through lgamma, and the rule builds and verifies
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys; from cubasquare.cli import main; sys.exit(main(sys.argv[1:]))"
    out = tmp_path / "rule.json"
    for argv in (["rule", "gencheb", "16", "--alpha", "100", "--beta", "100", "--out", str(out)],
                 ["verify", str(out)]):
        done = subprocess.run([sys.executable, "-c", code, *argv], env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr


@pytest.mark.parametrize("command", ["nodes", "rule"])
def test_gencheb_parameters_below_the_weight_range(command, tmp_path):
    # nodes and rule pick the family's parts in one place: alpha <= -1 is the
    # weight's one error line, exit 1, and nothing is written
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys; from cubasquare.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = [command, "gencheb", "8", "--alpha", "-1.5", "--out", str(tmp_path / "out.json")]
    done = subprocess.run([sys.executable, "-c", code, *argv], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr == "error: gencheb weight needs alpha, beta > -1\n"
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("alpha, mass", [("1100", "Jacobi"), ("1000", "gencheb")])
def test_gencheb_mass_past_the_float_range(alpha, mass, tmp_path):
    # the Jacobi mass 2^1101 / 1101 is past the float range; at alpha = 1000 it
    # is 2.1e298, but the gencheb mass, its square, is not: one error line names
    # alpha and beta, before any overflowing product
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys; from cubasquare.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = ["rule", "gencheb", "16", "--alpha", alpha, "--beta", "0", "--out", str(tmp_path / "rule.json")]
    done = subprocess.run([sys.executable, "-c", code, *argv], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr == f"error: the {mass} mass at alpha = {alpha}.0, beta = 0.0 is past the float range\n"
    assert "Traceback" not in done.stderr and "RuntimeWarning" not in done.stderr
    assert not (tmp_path / "rule.json").exists()


@pytest.mark.parametrize("args", [["nodes", "mint", "4", "--curve"], ["nodes", "padua", "4", "--curve"],
                                  ["nodes", "mint", "4", "--svg", "unused.svg", "--curve"]],
                         ids=["mint", "padua-without-svg", "mint-with-svg"])
def test_curve_needs_padua_and_svg(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(args) == 2
    assert "--curve" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


class TestRuleAndVerify:
    def test_rule_then_verify(self, tmp_path):
        rf = tmp_path / "rule.json"
        assert run(["rule", "mint", "8", "--out", str(rf)]) == 0
        assert run(["verify", str(rf)]) == 0

    def test_perturbed_rule_fails(self, tmp_path):
        rf = tmp_path / "rule.json"
        run(["rule", "nearmint", "5", "--out", str(rf)])
        d = json.loads(rf.read_text())
        d["lambdas"][0] = format(float(d["lambdas"][0]) + 1e-3, ".17g")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        assert run(["verify", str(bad)]) == 1

    def test_over_declared_rule_fails(self, tmp_path, capsys):
        rf = tmp_path / "rule.json"
        assert run(["rule", "mint", "16", "--out", str(rf)]) == 0
        d = json.loads(rf.read_text())
        d["degree"] = 32
        over = tmp_path / "over.json"
        over.write_text(json.dumps(d))
        capsys.readouterr()
        assert run(["verify", str(over)]) == 1
        assert capsys.readouterr().out.startswith(
            "FAIL degree=32 max_rel_error=1.000e+00 first_failure_degree=32 residual=1.000e+00")

    def test_empty_file_exit_2(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        assert run(["verify", str(empty)]) == 2

    def test_padua_rule(self, tmp_path):
        rf = tmp_path / "padua.json"
        assert run(["rule", "padua", "6", "--out", str(rf)]) == 0
        d = json.loads(rf.read_text())
        assert d["degree"] == 11
        assert d["oracle_report"]["passed"]

    @pytest.mark.parametrize("edit", ["node-not-a-pair", "null-weight", "null-coordinate"])
    def test_malformed_arrays_exit_2(self, edit, tmp_path, capsys):
        # wrong JSON types in the arrays are a load error, not a traceback
        rf = tmp_path / "rule.json"
        assert run(["rule", "padua", "8", "--out", str(rf)]) == 0
        d = json.loads(rf.read_text())
        if edit == "node-not-a-pair":
            d["nodes"][0] = 1.5
        elif edit == "null-weight":
            d["lambdas"][3] = None
        else:
            d["nodes"][2][1] = None
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        capsys.readouterr()
        assert run(["verify", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot load rule file: ")


    @pytest.mark.parametrize("edit", ["nan-coordinate", "inf-weight", "negative-degree"])
    def test_unusable_values_exit_2(self, edit, tmp_path, capsys):
        # a non-finite coordinate or weight, or a negative degree, is a load
        # error: nothing is graded and no numpy warning is printed
        rf = tmp_path / "rule.json"
        assert run(["rule", "mint", "8", "--out", str(rf)]) == 0
        d = json.loads(rf.read_text())
        if edit == "nan-coordinate":
            d["nodes"][1][0] = "nan"
        elif edit == "inf-weight":
            d["lambdas"][2] = "inf"
        else:
            d["degree"] = -1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["verify", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot load rule file: ")

    @pytest.mark.parametrize("field,value", [("degree", None), ("n", None), ("weight", 5),
                                             ("degree", 15.5), ("degree", True)])
    def test_wrong_scalar_type_exit_2(self, field, value, tmp_path, capsys):
        # degree and n are JSON integers and the weight a string; anything else is
        # a load error, not a traceback, a truncation or a bool read as 1
        rf = tmp_path / "rule.json"
        assert run(["rule", "padua", "8", "--out", str(rf)]) == 0
        d = json.loads(rf.read_text())
        d[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        capsys.readouterr()
        assert run(["verify", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot load rule file: ")

def outputs_by_blas_threads(commands):
    """The standard output of the CLI ``commands`` (argument strings), all run in
    one child interpreter under one BLAS thread and in another under two."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys; from cubasquare.cli import main; sys.exit(max([main(a.split()) for a in sys.argv[1:]]))"
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", code, *commands], env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    return outs


class TestTables:
    def test_lebesgue_json_independent_of_blas_threads(self):
        # both Lebesgue routes and all four grid folds: the same bytes
        outs = outputs_by_blas_threads([f"lebesgue {args} --format json" for args in (
            "mint --n-list 16,32,64", "padua --n-list 32", "gaussu --n-list 20", "gencheb --n-list 24")])
        assert outs[0].count('"lebesgue"') == 6
        assert outs[0] == outs[1]

    def test_rule_files_independent_of_blas_threads(self):
        # four of the benchmark's rule files, whose oracle sums run on the grid of
        # distinct coordinates: the same bytes (gaussu 64 still differs, in one
        # residual past the declared degree, by the thread split of a GEMM)
        outs = outputs_by_blas_threads(["rule mint 64", "rule nearmint 63", "rule padua 48", "rule gencheb 48"])
        assert outs[0].count('"oracle_report"') == 4
        assert outs[0] == outs[1]

    def test_lebesgue_csv(self, tmp_path, capsys):
        out = tmp_path / "leb.csv"
        assert run(["lebesgue", "mint", "--n-list", "4,8", "--resolution", "65", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("n,lebesgue,per_log2")
        assert len(lines) == 3

    @pytest.mark.parametrize("command", ["interp", "lebesgue"])
    def test_nearmint_default_n_list_is_odd(self, command, capsys):
        assert run([command, "nearmint"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["5", "9", "17"]

    @pytest.mark.parametrize("command,resolution", [("lebesgue", "0"), ("lebesgue", "10"), ("lebesgue", "63"),
                                                    ("interp", "0"), ("interp", "1")])
    def test_resolution_below_floor_rejected(self, command, resolution, tmp_path):
        out = tmp_path / "table.csv"
        assert run([command, "mint", "--n-list", "4", "--resolution", resolution, "--out", str(out)]) == 2
        assert not out.exists()

    def test_resolution_with_l2_rejected(self, tmp_path):
        # --norm L2 integrates with the weight's tensor oracle and reads no grid
        out = tmp_path / "table.csv"
        assert run(["interp", "mint", "--n-list", "4", "--norm", "L2", "--resolution", "101", "--out", str(out)]) == 2
        assert not out.exists()

    def test_interp_resolution_defaults_to_101(self, capsys):
        base = ["interp", "mint", "--n-list", "4,8", "--function", "runge"]
        assert run(base) == 0
        default = capsys.readouterr().out
        assert run(base + ["--resolution", "101"]) == 0
        assert capsys.readouterr().out == default
        assert run(base + ["--resolution", "50"]) == 0
        assert capsys.readouterr().out != default

    def test_lebesgue_json_is_strict_json_at_n_1(self, tmp_path):
        # per_log2 is undefined at n = 1; the file holds null there, not a bare NaN
        out = tmp_path / "leb.json"
        assert run(["lebesgue", "padua", "--n-list", "1,2", "--resolution", "64", "--format", "json",
                    "--out", str(out)]) == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        rows = json.loads(out.read_text(), parse_constant=reject)
        assert [r["per_log2"] is None for r in rows] == [True, False]

    def test_interp_json(self, tmp_path):
        out = tmp_path / "conv.json"
        assert run(["interp", "mint", "--n-list", "4,8", "--function", "exp_xy",
                    "--format", "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert rows[1]["error"] < rows[0]["error"]


# an n below a family's smallest (below 2 for discover) is a usage error
# that names n, and nothing is written
@pytest.mark.parametrize("command,message", [
    ("discover odd 1", "discover needs n >= 2, not n = 1"),
    ("nodes gaussu 0", "family 'gaussu' needs n >= 1, not n = 0"),
    ("rule padua 0", "family 'padua' needs n >= 1, not n = 0"),
    ("rule gencheb 1", "family 'gencheb' needs n >= 2, not n = 1"),
    ("nodes nearmint 1", "family 'nearmint' needs n >= 3, not n = 1"),
    ("interp mint --n-list 0", "family 'mint' needs n >= 2, not n = 0"),
    ("lebesgue padua --n-list 4,0", "family 'padua' needs n >= 1, not n = 0"),
])
def test_n_below_smallest_is_usage_error(command, message, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(command.split() + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


class TestDiscover:
    def test_odd_n3_pipeline(self, tmp_path):
        out = tmp_path / "report.json"
        outdir = tmp_path / "rules"
        assert run(["discover", "odd", "3", "--seeds", "10", "--rng", "1",
                    "--out", str(out), "--out-dir", str(outdir)]) == 0
        rep = json.loads(out.read_text())
        assert rep["status"] == "found"
        assert rep["rules"], "expected at least one verified rule"
        r0 = rep["rules"][0]
        assert r0["degree"] == 5 and len(r0["nodes"]) == 7
        assert r0["oracle_report"]["passed"]
        assert list(outdir.glob("odd_n3_*.json"))

    def test_odd_report_counts_stalled_fits(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["discover", "odd", "7", "--seeds", "2", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["status"] == "not-found" and rep["stalled_fits"] == 2
        assert run(["discover", "even", "5", "--seeds", "2", "--out", str(out)]) == 0
        assert "stalled_fits" not in json.loads(out.read_text())

    def test_n_past_the_memory_bound_is_refused_unbuilt(self, tmp_path, capsys, monkeypatch):
        # odd 120's quadratic form, 3.37e9 bytes of Q and 2.65 times that to
        # build, would exhaust the memory: a usage error before any allocation
        import tracemalloc

        out = tmp_path / "report.json"
        tracemalloc.start()
        try:
            assert run(["discover", "odd", "120", "--out", str(out)]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20 and not out.exists()
        err = capsys.readouterr().err
        assert err == ("usage error: discover odd 120 would peak at 8939362872 bytes building its "
                       "quadratic form, over 1 GiB\n")
        assert run(["discover", "odd", "71"]) == 2 and run(["discover", "even", "72"]) == 2
        # the largest n of each mode passes the bound and reaches the search
        from cubasquare import discover

        def reached(n, *args, **kwargs):
            raise LookupError(n)

        monkeypatch.setattr(discover, "odd_system_search", reached)
        monkeypatch.setattr(discover, "solve_even_system", reached)
        for mode, n in (("odd", 70), ("even", 71)):
            with pytest.raises(LookupError):
                run(["discover", mode, str(n)])

    @pytest.mark.parametrize("mode", ["even", "odd"])
    def test_memory_bound_reads_the_built_quadratic_form(self, mode):
        # the guard's Q shape is the one _HankelSystem builds
        from cubasquare.cli import _discover_peak
        from cubasquare.discover import _HankelSystem

        for n in (2, 3, 6, 11):
            assert _discover_peak(mode, n) == pytest.approx(2.65 * _HankelSystem(mode, n).Q.nbytes, abs=1)

    def test_even_n6_not_found(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["discover", "even", "6", "--seeds", "25", "--rng", "0", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["status"] == "not-found"
        assert "nonexistence" in rep["note"]

    def test_even_n3_one_rule_per_solution(self, tmp_path):
        # common zeros outside [-1.3, 1.3]^2 still give a rule for every solution
        out, outdir = tmp_path / "report.json", tmp_path / "rules"
        assert run(["discover", "even", "3", "--seeds", "2", "--out", str(out), "--out-dir", str(outdir)]) == 0
        rep = json.loads(out.read_text())
        assert rep["status"] == "found"
        assert len(rep["rules"]) == len(rep["solutions"]) == 4
        files = sorted(outdir.glob("even_n3_sol*.json"))
        assert len(files) == 4
        assert all(run(["verify", str(f)]) == 0 for f in files)
