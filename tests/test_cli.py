"""End-to-end tests of the command-line interface."""

import json
import xml.etree.ElementTree as ET

import pytest

from cubasquare.cli import main


def run(args):
    return main(args)


# each subcommand accepts only the flags it reads; --alpha/--beta only for gencheb
FLAG_VALUES = {"--gamma": "0.5", "--weight": "cheb1", "--format": "json", "--resolution": "65",
               "--out": "unused.json", "--alpha": "0.3", "--beta": "-0.7"}
REMOVED_FLAGS = [
    (base, flag)
    for base, flags in [
        (["nodes", "mint", "4"], ["--gamma", "--weight", "--format", "--resolution", "--alpha", "--beta"]),
        (["rule", "mint", "4"], ["--gamma", "--format", "--resolution", "--alpha", "--beta"]),
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


class TestTables:
    def test_lebesgue_csv(self, tmp_path, capsys):
        out = tmp_path / "leb.csv"
        assert run(["lebesgue", "mint", "--n-list", "4,8", "--resolution", "65", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("n,lebesgue,per_log2")
        assert len(lines) == 3

    @pytest.mark.parametrize("command,resolution", [("lebesgue", "0"), ("lebesgue", "10"), ("lebesgue", "63"),
                                                    ("interp", "0"), ("interp", "1")])
    def test_resolution_below_floor_rejected(self, command, resolution, tmp_path):
        out = tmp_path / "table.csv"
        assert run([command, "mint", "--n-list", "4", "--resolution", resolution, "--out", str(out)]) == 2
        assert not out.exists()

    def test_interp_json(self, tmp_path):
        out = tmp_path / "conv.json"
        assert run(["interp", "mint", "--n-list", "4,8", "--function", "exp_xy",
                    "--format", "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert rows[1]["error"] < rows[0]["error"]


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

    def test_even_n6_not_found(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["discover", "even", "6", "--seeds", "25", "--rng", "0", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["status"] == "not-found"
        assert "nonexistence" in rep["note"]
