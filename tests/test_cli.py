"""End-to-end tests for the command line interface.

Every test drives ``fibercurve.cli.main`` in-process with a config file
written to a temp directory, then inspects exit codes, console output,
and the artifact files.
"""

import contextlib
import csv
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import fibercurve.cli as cli
import fibercurve.nehari_minmax as nm
from conftest import count_multistart_purposes
from fibercurve.cli import main

BASE_PROBLEM = {
    "kind": "dirichlet",
    "dimension": 1,
    "n_interior": 15,
    "p": 2.0,
    "alpha": 1.5,
    "beta": 4.0,
    "weights": {"a": "1+x", "b": "cos(2*pi*x)+0.2"},
}
THREE_D_PROBLEM = dict(BASE_PROBLEM, dimension=3, n_interior=[15, 15, 15])
TRUNCATED_PROBLEM = {"kind": "truncated_rn", "n_nodes": 41, "radius": 4.0, "p": 3.0,
                     "weights": {"a": "1", "b": "1"}}

GATING_VERDICTS = (
    "curve_monotone",
    "curve_lipschitz",
    "norm_monotone",
    "k_monotone",
    "pdm_ordering",
    "residuals_certified",
    "limit_magnitude_decreasing",
    "limit_ratio_ok",
    "limit_scaling_bound",
    "limit_scaling_trend",
    "zero_crossing",
)

CSV_HEADER = (
    "branch,k,c,lambda,t_root,residual_grad,energy_defect,converged,flags,starts,merged_starts"
)
# the end of a solve's message where no ray has a plus root
NO_PLUS_START = (
    "could not sample a feasible start (index 0) after 200 attempts; "
    "the last draw: no plus-branch critical scaling on this ray\n"
)


def battery_config(**extra):
    cfg = {
        "problem": json.loads(json.dumps(BASE_PROBLEM)),
        "branches": ["plus", "minus"],
        "ks": [1],
        "c_grid": {"from": -0.5, "to": -0.05, "n": 4},
        "multistart": 8,
        "warm_multistart": 4,
        "seed": 0,
        "limit_schedule": [-0.01, -0.0001],
        "threshold_deltas": [0.05],
    }
    cfg.update(extra)
    return cfg


def solve_config(c=-0.05, **extra):
    cfg = {
        "problem": json.loads(json.dumps(BASE_PROBLEM)),
        "branches": ["plus"],
        "ks": [1],
        "multistart": 8,
        "warm_multistart": 4,
        "seed": 0,
        "c": c,
    }
    cfg.update(extra)
    return cfg


def write_config(directory, cfg, name="cfg.json"):
    path = directory / name
    path.write_text(json.dumps(cfg, indent=2))
    return path


def csv_points(out_dir):
    """The rows of out_dir's curves.csv by curve key, "<branch>_k<k>" as in report.json."""
    points = {}
    for row in csv.DictReader(io.StringIO((out_dir / "curves.csv").read_text())):
        points.setdefault(f"{row['branch']}_k{row['k']}", []).append(row)
    return points


def run_cli(args):
    out_buf = io.StringIO()
    err_buf = io.StringIO()
    with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
        code = main(list(args))
    return code, out_buf.getvalue(), err_buf.getvalue()


@pytest.fixture(scope="module")
def verify_pass(tmp_path_factory):
    # relaxed limit_ratio so the scaling-ratio verdict can pass on this
    # exponent pair (the measured two-decade ratio sits near 0.316)
    work = tmp_path_factory.mktemp("verify_pass")
    cfg = battery_config(tolerances={"limit_ratio": 0.5})
    cfg_path = write_config(work, cfg)
    out_dir = work / "out"
    code, out, err = run_cli(["verify", "--config", str(cfg_path), "--out", str(out_dir)])
    return {"code": code, "out": out, "err": err, "dir": out_dir, "cfg_path": cfg_path}


@pytest.fixture(scope="module")
def verify_default(tmp_path_factory):
    work = tmp_path_factory.mktemp("verify_default")
    cfg_path = write_config(work, battery_config())
    out_dir = work / "out"
    code, out, err = run_cli(["verify", "--config", str(cfg_path), "--out", str(out_dir)])
    return {"code": code, "out": out, "err": err, "dir": out_dir, "cfg_path": cfg_path}


class TestVerify:
    def test_relaxed_ratio_passes(self, verify_pass):
        assert verify_pass["code"] == 0
        for name in GATING_VERDICTS:
            assert "PASS  " + name in verify_pass["out"]
        assert "FAIL" not in verify_pass["out"]

    def test_default_ratio_fails_honestly(self, verify_default):
        # the decay ratio over two decades is about 0.316 for these
        # exponents, so the strict 0.05 default cannot be met
        assert verify_default["code"] == 3
        assert "FAIL  limit_ratio_ok" in verify_default["out"]
        assert "verification failure" in verify_default["out"]

    def test_verdict_lines_in_battery_order(self, verify_default):
        lines = [line.split() for line in verify_default["out"].splitlines()]
        printed = [words[1] for words in lines if words and words[0] in ("PASS", "FAIL")]
        assert printed == list(GATING_VERDICTS)

    def test_other_verdicts_still_pass_at_default(self, verify_default):
        for name in GATING_VERDICTS:
            if name == "limit_ratio_ok":
                continue
            assert "PASS  " + name in verify_default["out"]

    def test_artifact_files_written(self, verify_pass):
        names = sorted(p.name for p in verify_pass["dir"].iterdir())
        assert names == ["config.echo.json", "curves.csv", "diagram.svg", "report.json"]

    def test_rerun_is_byte_identical(self, verify_pass, tmp_path):
        out_dir = tmp_path / "again"
        code, _, _ = run_cli(
            ["verify", "--config", str(verify_pass["cfg_path"]), "--out", str(out_dir), "--quiet"]
        )
        assert code == 0
        for name in ("curves.csv", "diagram.svg", "config.echo.json"):
            assert (out_dir / name).read_bytes() == (verify_pass["dir"] / name).read_bytes()
        first = json.loads((verify_pass["dir"] / "report.json").read_text())
        second = json.loads((out_dir / "report.json").read_text())
        first.pop("timing_seconds")
        second.pop("timing_seconds")
        assert first == second


class TestArtifacts:
    def test_curves_csv_header_and_rows(self, verify_pass):
        text = (verify_pass["dir"] / "curves.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) >= 8
        for row in rows:
            assert row["branch"] in ("plus", "minus")
            assert int(row["k"]) >= 1
            float(row["c"])
            float(row["lambda"])
            assert float(row["t_root"]) > 0.0
            assert row["converged"] in ("True", "False")

    def test_report_structure(self, verify_pass):
        report = json.loads((verify_pass["dir"] / "report.json").read_text())
        for key in ("curves", "thresholds", "verdicts", "timing_seconds"):
            assert key in report
        assert sorted(report["curves"]) == ["minus_k1", "plus_k1"]
        thresholds = report["thresholds"]
        assert thresholds["c_star"] < 0.0 < thresholds["c_star_star"]
        for name in GATING_VERDICTS:
            assert isinstance(report["verdicts"][name], bool)
        assert all(t > 0.0 for t in report["timing_seconds"].values())

    def test_points_count_their_starts(self, verify_pass):
        # a curve's first level draws multistart starts, each later one the
        # warm start and warm_multistart draws; merged descents count in both
        curves = csv_points(verify_pass["dir"])
        points = [p for curve in curves.values() for p in curve]
        for curve in curves.values():
            starts = [int(p["starts"]) for p in curve]
            assert starts == [8] + [5] * (len(starts) - 1)
        assert all(0 <= int(p["merged_starts"]) < int(p["starts"]) for p in points)
        assert sum(int(p["merged_starts"]) for p in points) > 0

    def test_report_restates_no_other_artifact(self, verify_pass, tmp_path):
        # config.echo.json holds the config and curves.csv the points; the
        # report keeps only what no other artifact holds
        report = json.loads((verify_pass["dir"] / "report.json").read_text())
        points = csv_points(verify_pass["dir"])
        assert "config" not in report
        assert sorted(report["curves"]) == sorted(points)
        for curve in report["curves"].values():
            assert sorted(curve) == ["truncation_reason", "verdicts"]
        for row in (row for curve in points.values() for row in curve if row["k"] == "1"):
            assert 0 <= int(row["merged_starts"]) < int(row["starts"])
        # a solve's solution is the coefficient vector of its one curve point
        cfg_path = write_config(tmp_path, solve_config())
        out_dir = tmp_path / "out"
        code, _, err = run_cli(["solve", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 0, err
        report = json.loads((out_dir / "report.json").read_text())
        assert "config" not in report
        assert list(report["solution"]) == ["coefficients"]
        assert len(report["solution"]["coefficients"]) == BASE_PROBLEM["n_interior"]
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["config.echo.json", "curves.csv", "diagram.svg", "report.json"]

    def test_diagram_svg(self, verify_pass):
        svg = (verify_pass["dir"] / "diagram.svg").read_text()
        assert svg.lstrip().startswith("<svg")
        report = json.loads((verify_pass["dir"] / "report.json").read_text())
        assert svg.count("<polyline") == len(report["curves"])
        # dashed guide lines for the two threshold levels
        assert svg.count("stroke-dasharray") == 2

    def test_config_echo_contains_merged_defaults(self, verify_pass):
        echo = json.loads((verify_pass["dir"] / "config.echo.json").read_text())
        assert echo["seed"] == 0
        assert echo["problem"]["weights"]["a"] == "1+x"
        assert echo["tolerances"]["limit_ratio"] == 0.5
        # untouched tolerance entries come back filled with defaults
        assert echo["tolerances"]["residual_grad"] == 1e-6
        assert echo["tolerances"]["energy_defect_rel"] == 1e-8

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg_path = write_config(tmp_path, solve_config())
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            ["solve", "--config", str(cfg_path), "--out", str(out_dir), "--seed", "7", "--quiet"]
        )
        assert code == 0
        echo = json.loads((out_dir / "config.echo.json").read_text())
        assert echo["seed"] == 7


class TestSolve:
    def test_certified_point(self, tmp_path):
        cfg_path = write_config(tmp_path, solve_config(c=-0.05))
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(["solve", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 0
        assert "lambda =" in out
        assert "residual_grad" in out
        point = csv_points(out_dir)["plus_k1"][0]
        assert point["converged"] == "True"
        assert float(point["residual_grad"]) <= 1e-6

    def test_iteration_starved_solve_exits_nonconverged(self, tmp_path):
        cfg = solve_config(c=-0.05, tolerances={"max_iter": 1})
        cfg_path = write_config(tmp_path, cfg)
        code, out, err = run_cli(
            ["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert "did not certify" in out + err

    def test_infeasible_level_exits_nonconverged(self, tmp_path):
        # no plus branch exists at positive energy on this instance
        cfg_path = write_config(tmp_path, solve_config(c=0.1))
        code, _, err = run_cli(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "non-convergence" in err
        # every draw lies in the cone: the message names the missing root
        assert err.endswith(NO_PLUS_START)

    def test_empty_cone_support_restricts_no_start(self, tmp_path):
        # a changes sign from cell to cell on 15 nodes: no node has a > 0 on
        # both its cells, so the cone's node mask is empty, and starts are
        # drawn on every node
        cfg = solve_config(c=-0.05)
        cfg["problem"]["weights"]["a"] = "sin(16*pi*x)+0.1"
        setup = cli.Setup(cli.merge_config(json.loads(json.dumps(cfg))))
        assert not setup.cone.start_support.any()
        cfg_path = write_config(tmp_path, cfg)
        out_dir = tmp_path / "out"
        code, _, err = run_cli(["solve", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 0, err
        report = json.loads((out_dir / "report.json").read_text())
        assert report["verdicts"]["certified"] is True
        (point,) = csv_points(out_dir)["plus_k1"]
        assert float(point["lambda"]) == pytest.approx(43.89875290660286, rel=1e-9)

    def test_subnormal_c_exits_without_traceback(self, tmp_path):
        # c/c_bar underflows to 0 at c = -5e-324, where the plus root of a ray
        # is lost: the kernel reports the ray off the plus branch
        cfg = solve_config(c=-5e-324, multistart=2)
        cfg["problem"].update(n_interior=31, weights={"a": "1", "b": "1"})
        cfg_path = write_config(tmp_path, cfg)
        code, _, err = run_cli(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "Traceback" not in err
        assert err.endswith(NO_PLUS_START)

    def test_solve_requires_c(self, tmp_path):
        cfg = solve_config()
        del cfg["c"]
        cfg_path = write_config(tmp_path, cfg)
        code, _, err = run_cli(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "config error" in err


class TestTraceAndThresholds:
    def test_trace_writes_curves(self, tmp_path):
        cfg_path = write_config(tmp_path, battery_config())
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(["trace", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 0
        assert "curve plus k=1: 4 points" in out
        assert "curve minus k=1: 4 points" in out
        rows = list(csv.DictReader(io.StringIO((out_dir / "curves.csv").read_text())))
        assert len(rows) == 8
        assert (out_dir / "diagram.svg").exists()

    def test_one_value_grid(self, tmp_path):
        # one-point curves get the verdicts of longer ones, and the diagram
        # widens their empty lambda and c ranges
        cfg_path = write_config(tmp_path, battery_config(c_grid={"values": [-0.1]}))
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(["trace", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 0
        assert "curve plus k=1: 1 points" in out
        curves = json.loads((out_dir / "report.json").read_text())["curves"]
        points = csv_points(out_dir)
        for key, curve in curves.items():
            assert len(points[key]) == 1
            assert curve["verdicts"]["lipschitz_worst_ratio"] == 0.0
        assert len(curves) == 2
        svg = (out_dir / "diagram.svg").read_text()
        ticks = re.findall(r'<line x1="([-0-9.]+)" y1="([-0-9.]+)"', svg)
        assert len(set(ticks)) == len(ticks) >= 10

    def test_infeasible_surrogate_truncates_without_traceback(self, tmp_path):
        # Far below c*, the first coefficient sample of the k = 2 surrogate
        # leaves the cone; that curve is truncated and every artifact written.
        cfg = battery_config(ks=[1, 2], c_grid={"values": [-1000, -100]}, n_samples=16)
        cfg["problem"]["n_interior"] = 31
        cfg_path = write_config(tmp_path, cfg)
        out_dir = tmp_path / "out"
        code, out, err = run_cli(["trace", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code in (0, 2)
        assert "Traceback" not in err
        assert "curve plus k=2: 0 points, truncated (stopped at c=-1000.0" in out
        for name in ("report.json", "curves.csv", "diagram.svg", "config.echo.json"):
            assert (out_dir / name).exists()

    def test_thresholds_reports_signs(self, tmp_path):
        cfg_path = write_config(tmp_path, solve_config())
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(["thresholds", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 0
        assert "c_star =" in out
        report = json.loads((out_dir / "report.json").read_text())
        assert report["thresholds"]["c_star"] < 0.0
        assert report["thresholds"]["c_star_star"] > 0.0

    def test_module_entry_point_runs_thresholds(self, tmp_path):
        # python -m fibercurve.cli is the same front end as the console script
        cfg = solve_config(multistart=2)
        cfg["problem"]["n_interior"] = 7
        cfg_path = write_config(tmp_path, cfg)
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "fibercurve.cli", "thresholds", "--config", str(cfg_path),
             "--out", str(tmp_path / "out"), "--quiet"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        thresholds = json.loads((tmp_path / "out" / "report.json").read_text())["thresholds"]
        assert thresholds["c_star"] < 0.0 < thresholds["c_star_star"]

    def test_thresholds_counts_distinct_minimizers(self, tmp_path):
        # p = 3: the zero level's descents end in two basins, where c0 is
        # near 8e8; the repeats merge, so two minimizers are reported
        cfg = solve_config(cone="A_POS")
        cfg["problem"].update(n_interior=63, p=3.0, beta=4.0)
        cfg_path = write_config(tmp_path, cfg)
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(["thresholds", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 0
        assert "c_star_star = 823349754.220809 (2 minimizer(s))" in out
        thresholds = json.loads((out_dir / "report.json").read_text())["thresholds"]
        assert thresholds["n_zero_level_minimizers"] == 2
        assert thresholds["c_star_star"] == 823349754.220809

    def test_report_subcommand_does_not_gate(self, tmp_path):
        # same failing config as the default verify run, but the report
        # command records the verdict without turning it into an exit code
        cfg_path = write_config(tmp_path, battery_config())
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(["report", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["verdicts"]["limit_ratio_ok"] is False

    def test_points_certified_counts_the_points_that_pass(self, tmp_path):
        # no level meets a residual bound of 1e-12: every converged ground
        # point is checked and none passes (13 were counted, as checked)
        cfg = {"problem": json.loads(json.dumps(BASE_PROBLEM)), "ks": [1], "multistart": 2,
               "seed": 1, "tolerances": {"residual_grad": 1e-12}}
        cfg_path = write_config(tmp_path, cfg)
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(["report", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"])
        assert code == 0
        verdicts = json.loads((out_dir / "report.json").read_text())["verdicts"]
        assert verdicts["residuals_certified"] is False
        assert verdicts["n_points_certified"] == 0


class TestZeroLevelSolve:
    def test_report_runs_one_zero_level_multistart(self, tmp_path, monkeypatch):
        # c**, c* and the crossing share one zero-level solve over the B cone;
        # every other multistart of the battery is a ground level
        purposes = count_multistart_purposes(monkeypatch)
        cfg_path = write_config(tmp_path, battery_config())
        code, _, _ = run_cli(
            ["report", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]
        )
        assert code == 0
        ground = {nm._PURPOSE["plus"], nm._PURPOSE["minus"]}
        assert {p: n for p, n in purposes.items() if p not in ground} == {nm._PURPOSE["c0"]: 1}

    def test_failed_crossing_hypothesis_is_reported(self, tmp_path):
        # a > 0 only on (0.15, 0.35): the zero-level minimizer over the B
        # cone leaves the A cone, so the minus level need not change sign at
        # c**; the battery records why instead of crashing.
        # 200 iterations keep the run short; its ground levels then stop
        # unconverged, hence exit 2.
        cfg = battery_config(
            branches=["minus"], multistart=4, warm_multistart=2, tolerances={"max_iter": 200}
        )
        cfg["problem"]["weights"]["a"] = "sin(2*pi*x)-0.8"
        cfg_path = write_config(tmp_path, cfg)
        out_dir = tmp_path / "out"
        code, _, err = run_cli(
            ["report", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"]
        )
        assert code == 2
        assert "Traceback" not in err
        report = json.loads((out_dir / "report.json").read_text())
        assert list(report["zero_crossing"]) == ["hypothesis_error"]
        assert "zero-crossing minimizer 0 leaves" in report["zero_crossing"]["hypothesis_error"]
        assert report["verdicts"]["zero_crossing"] is False

    def test_negative_a_cone_mirrors_the_positive_one(self, tmp_path):
        # a -> -a with cone A_NEG is the same problem: equal thresholds and
        # an equal crossing through c**, with negated levels
        reports, points = {}, {}
        for cone, a in (("A_POS", "1+x"), ("A_NEG", "-(1+x)")):
            cfg = battery_config(cone=cone)
            cfg["problem"]["weights"]["a"] = a
            cfg_path = write_config(tmp_path, cfg, name=f"{cone}.json")
            out_dir = tmp_path / cone
            code, _, err = run_cli(
                ["report", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"]
            )
            assert code == 0, err
            reports[cone] = json.loads((out_dir / "report.json").read_text())
            points[cone] = csv_points(out_dir)["minus_k1"]
        pos, neg = reports["A_POS"], reports["A_NEG"]
        assert neg["thresholds"] == pos["thresholds"]
        assert neg["zero_crossing"] == pos["zero_crossing"]
        assert pos["zero_crossing"]["ok"]
        assert neg["verdicts"]["zero_crossing"] == pos["verdicts"]["zero_crossing"]
        # plus <= minus is compared on sign-adjusted levels, so pdm_ordering
        # and its worst gap mirror too
        assert neg["verdicts"] == pos["verdicts"]
        assert [float(p["lambda"]) for p in points["A_NEG"]] == [
            -float(p["lambda"]) for p in points["A_POS"]
        ]


class TestKernelOverflow:
    def test_overflow_exits_nonconverged_without_traceback(self, tmp_path):
        # beta - eta = 0.01 and a tiny b push t0 = (n/b)**(1/(beta-eta))
        # past the double range inside the zero-level-pair kernel, which the
        # one zero-level solve behind both thresholds reaches first
        cfg = solve_config()
        cfg["problem"].update(beta=2.01, weights={"a": "1+x", "b": "0.001"})
        cfg_path = write_config(tmp_path, cfg)
        code, _, err = run_cli(
            ["thresholds", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert "non-convergence: zero_level_pair overflows the double range at n=" in err
        # the ray data and the exponents that overflowed
        assert ", b=" in err
        assert "eta=2.0, beta=2.01" in err
        assert "Traceback" not in err


class TestConfigErrors:
    def run_expecting_config_error(self, tmp_path, cfg):
        cfg_path = write_config(tmp_path, cfg)
        code, _, err = run_cli(
            ["thresholds", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert err.startswith("config error")
        return err

    def test_unknown_top_level_key(self, tmp_path):
        cfg = battery_config()
        cfg["unknown_top"] = 1
        err = self.run_expecting_config_error(tmp_path, cfg)
        assert "unknown_top" in err

    # the cone margin, the Lipschitz safety factor and the zero-level bound
    # are constants of the code, not config keys
    @pytest.mark.parametrize(
        "key", ["no_such_tol", "cone_margin", "lipschitz_safety", "zero_level_abs"]
    )
    def test_unknown_tolerance_key(self, tmp_path, key):
        cfg = battery_config(tolerances={key: 1.0})
        err = self.run_expecting_config_error(tmp_path, cfg)
        assert f"unknown tolerances key(s): {key}" in err

    def test_missing_problem_section(self, tmp_path):
        cfg = battery_config()
        del cfg["problem"]
        err = self.run_expecting_config_error(tmp_path, cfg)
        assert "problem" in err

    def test_bad_exponent_ordering(self, tmp_path):
        cfg = battery_config()
        cfg["problem"]["alpha"] = 2.5
        err = self.run_expecting_config_error(tmp_path, cfg)
        assert "alpha" in err

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_axis_counts_follow_the_dimension(self, tmp_path, dimension):
        cfg = battery_config(problem=dict(BASE_PROBLEM, dimension=dimension))
        err = self.run_expecting_config_error(tmp_path, cfg)
        assert f"one count per axis of problem.dimension = {dimension}, got 15" in err

    def test_invalid_json_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        code, _, err = run_cli(
            ["thresholds", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert "JSON" in err

    def test_missing_config_file(self, tmp_path):
        code, _, err = run_cli(
            ["thresholds", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)]
        )
        assert code == 1
        assert "config error" in err

    def test_unknown_cone_name(self, tmp_path):
        cfg = battery_config(cone="A_SIDEWAYS")
        self.run_expecting_config_error(tmp_path, cfg)

    @pytest.mark.parametrize(
        "command,cfg",
        [
            ("trace", battery_config(c_grid={"from": -0.5, "to": -0.05, "n": 1})),
            ("trace", battery_config(ks=[])),
            ("trace", battery_config(ks=[0])),
            ("solve", solve_config(k=0)),
            ("trace", battery_config(ks=["a"])),
            ("trace", battery_config(multistart="x")),
            ("trace", battery_config(problem=dict(BASE_PROBLEM, n_interior=[None]))),
            ("solve", solve_config(tolerances={"gtol": "1e-8"})),
            ("solve", solve_config(tolerances={"residual_grad": "1e-6"})),
            # converged records already meet 1e-6, so a looser bound would be ignored
            ("solve", solve_config(tolerances={"residual_grad": 1e-4})),
            ("trace", battery_config(multistart=2.7)),
            ("trace", battery_config(seed=True)),
            ("trace", battery_config(problem=dict(BASE_PROBLEM, bounds=[0, "a"]))),
            ("trace", battery_config(problem=dict(BASE_PROBLEM, bounds=5))),
            ("trace", battery_config(
                problem=dict(BASE_PROBLEM, weights={"a_csv": "nope.csv", "b_csv": "nope.csv"})
            )),
            ("report", battery_config(limit_schedule=[0.01, -0.001])),
            ("report", battery_config(limit_schedule=[-0.01])),
            ("report", battery_config(threshold_deltas=[])),
            ("report", battery_config(threshold_deltas=[1.5])),
            ("solve", solve_config(tolerances={"max_iter": 0})),
            ("solve", solve_config(tolerances={"gtol": -1})),
            ("solve", solve_config(tolerances={"gtol": float("nan")})),
            ("solve", solve_config(tolerances={"curve_noise": -1e-6})),
            ("trace", battery_config(ks=[1, 17])),
            ("solve", solve_config(k=17)),
            # 15 nodes leave the cone support 8 columns, too few for 9 blocks
            ("trace", battery_config(ks=[1, 9])),
            # no key sets what the code works out: each cone draws starts on
            # its node mask, and from/to/n is geometric (values lists others)
            ("trace", battery_config(start_support="cone")),
            ("trace", battery_config(
                c_grid={"from": -0.5, "to": -0.05, "n": 4, "spacing": "geometric"}
            )),
            # the grid rejects a third axis
            ("trace", battery_config(problem=THREE_D_PROBLEM)),
            # every p > 1 runs the exact kernel: there is no smoothing key
            ("trace", battery_config(problem=dict(BASE_PROBLEM, eps_reg=1e-3))),
            # the weight overflows to inf: a config error, not a numpy warning
            ("trace", battery_config(
                problem=dict(BASE_PROBLEM, weights={"a": "exp(1000*x + 1000)", "b": "1"})
            )),
            # json reads NaN and Infinity; no config number may be either
            ("solve", solve_config(c=float("nan"))),
            ("trace", battery_config(c_grid={"values": [-0.5, float("nan")]})),
            ("trace", battery_config(c_grid={"from": float("-inf"), "to": -0.05, "n": 4})),
            ("report", battery_config(limit_schedule=[float("nan"), -0.01, -0.001])),
            # an integer literal beyond the double range where a float is asked for
            ("solve", solve_config(c=10**400)),
            ("report", battery_config(limit_schedule=[-10**400, -0.001])),
        ],
        ids=["c_grid_n_1", "ks_empty", "ks_zero", "solve_k_zero", "ks_not_int",
             "multistart_not_int", "n_interior_null", "gtol_string", "residual_grad_string",
             "residual_grad_above_certificate",
             "multistart_fraction", "seed_bool", "bounds_not_number", "bounds_not_pairs",
             "weight_file_missing", "limit_schedule_positive", "limit_schedule_short",
             "threshold_deltas_empty", "threshold_delta_above_one", "max_iter_zero",
             "gtol_negative", "gtol_nan", "curve_noise_negative", "ks_above_16",
             "solve_k_above_16", "ks_beyond_basis", "start_support_key", "spacing_key",
             "dimension_3", "eps_reg_key", "weight_overflow", "c_nan", "c_grid_value_nan",
             "c_grid_from_inf", "limit_schedule_nan", "c_int_beyond_double",
             "limit_schedule_int_beyond_double"],
    )
    def test_config_errors_exit_cleanly(self, tmp_path, command, cfg):
        cfg_path = write_config(tmp_path, cfg)
        code, _, err = run_cli(
            [command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert "config error" in err
        assert "Traceback" not in err

    def test_out_naming_a_file_is_a_config_error(self, tmp_path):
        out = tmp_path / "out"
        out.write_text("")
        cfg_path = write_config(tmp_path, battery_config())
        code, _, err = run_cli(["thresholds", "--config", str(cfg_path), "--out", str(out)])
        assert code == 1
        assert err.startswith("config error: ") and str(out) in err
        assert out.read_text() == ""

    @pytest.mark.parametrize(
        "dimension,text,message",
        [
            (1, "1.0\nabc\n",
             "bad value in weight file {}: could not convert string to float: 'abc'"),
            (2, "4,5\n" + "1,1,1,1\n" * 4, "weight file {} declares 4x5 cells, grid needs 4x4"),
            (2, "4,4\n" + "1,1,1,1\n" * 3 + "1,1,1\n", "weight file {} has 15 values, expected 16"),
            (2, "4,x\n" + "1,1,1,1\n" * 4,
             "bad value in weight file {}: invalid literal for int() with base 10: 'x'"),
            (2, "4,4\n" + "1,1,1,1\n" * 3 + "1,q,1,1\n",
             "bad value in weight file {}: could not convert string to float: 'q'"),
        ],
        ids=["1d_not_a_number", "2d_header_shape", "2d_value_count", "2d_header_not_a_number",
             "2d_value_not_a_number"],
    )
    def test_weight_file_errors(self, tmp_path, dimension, text, message):
        # the a file is bad, the b file is good; 3 interior nodes per axis make 4x4 cells
        good = "1\n" * 16 if dimension == 1 else "4,4\n" + "1,1,1,1\n" * 4
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        a_path.write_text(text)
        b_path.write_text(good)
        n_interior = 15 if dimension == 1 else [3, 3]
        problem = dict(BASE_PROBLEM, dimension=dimension, n_interior=n_interior,
                       weights={"a_csv": str(a_path), "b_csv": str(b_path)})
        err = self.run_expecting_config_error(tmp_path, battery_config(problem=problem))
        assert err == f"config error: {message.format(a_path)}\n"

    def test_loose_residual_grad_names_the_bound(self, tmp_path):
        cfg_path = write_config(tmp_path, solve_config(tolerances={"residual_grad": 1e-4}))
        code, _, err = run_cli(
            ["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert "tolerances.residual_grad must be at most 1e-06" in err

    def test_removed_gtol_key_names_itself(self, tmp_path):
        # descents stop on the certificate's relative residual, so there is
        # no absolute gradient tolerance to set
        cfg_path = write_config(tmp_path, solve_config(tolerances={"gtol": 1e-8}))
        code, _, err = run_cli(
            ["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert "unknown tolerances key(s): gtol" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "cfg",
        [
            battery_config(ks=[0]),
            battery_config(branches=["plus", "sideways"]),
            battery_config(c_grid={"from": -0.5, "to": -0.05, "n": 1}),
            battery_config(ks=[1, 9]),
            battery_config(problem=THREE_D_PROBLEM),
            battery_config(limit_schedule=[float("-inf"), -0.001]),
            # a repeated branch would be traced twice, and no branch verifies nothing
            battery_config(branches=["plus", "plus"]),
            battery_config(branches=[]),
        ],
        ids=["ks", "branches", "c_grid", "ks_beyond_basis", "dimension_3",
             "limit_schedule_inf", "branches_repeated", "branches_empty"],
    )
    def test_report_checks_the_config_before_any_solve(self, tmp_path, monkeypatch, cfg):
        purposes = count_multistart_purposes(monkeypatch)
        cfg_path = write_config(tmp_path, cfg)
        code, _, err = run_cli(
            ["report", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert err.startswith("config error")
        assert not purposes

    @pytest.mark.parametrize(
        "command,cfg,message",
        [
            ("thresholds", [battery_config()], "config root must be a JSON object"),
            ("thresholds", battery_config(tolerances=[1e-6]), '"tolerances" must be an object'),
            ("thresholds", battery_config(problem=dict(BASE_PROBLEM, kind="neumann")),
             "problem.kind must be dirichlet or truncated_rn, got 'neumann'"),
            ("thresholds", battery_config(problem=dict(BASE_PROBLEM, n_interior=None)),
             "dirichlet problems need problem.n_interior"),
            ("thresholds", battery_config(problem=dict(BASE_PROBLEM, bounds=[[0.0, 0.5, 1.0]])),
             "problem.bounds must hold [lo, hi] pairs, got [[0.0, 0.5, 1.0]]"),
            ("thresholds", battery_config(problem=dict(TRUNCATED_PROBLEM, radius=None)),
             "truncated problems need problem.n_nodes and problem.radius"),
            ("thresholds", battery_config(problem=dict(BASE_PROBLEM, weights={"a": "1+x"})),
             "problem.weights needs either expressions {a, b} or files {a_csv, b_csv}"),
            ("trace", battery_config(c_grid=[-0.5, -0.05]), "c_grid must be an object"),
            ("trace", battery_config(c_grid={"from": -0.5, "to": -0.05}),
             "c_grid needs either values or from/to/n"),
            ("trace", battery_config(c_grid={"values": []}), "c_grid is empty"),
            ("trace", battery_config(c_grid={"values": [-0.5, -0.1, -0.5]}),
             "c_grid values must be distinct"),
            ("trace", battery_config(c_grid=None), "this command needs a c_grid section"),
            ("thresholds",
             battery_config(problem=dict(BASE_PROBLEM, weights={"a": "~x", "b": "1"})),
             "operator Invert not allowed in weight expression"),
            ("thresholds",
             battery_config(problem=dict(BASE_PROBLEM, weights={"a": "sin(x, 2)", "b": "1"})),
             "sin takes exactly one argument"),
        ],
        ids=["root_not_object", "section_not_object", "problem_kind", "n_interior_missing",
             "bounds_not_pairs_of_two", "truncated_radius_missing", "weights_form",
             "c_grid_not_object", "c_grid_incomplete", "c_grid_empty", "c_grid_repeated",
             "trace_without_c_grid", "weight_unary_invert", "weight_call_two_arguments"],
    )
    def test_config_error_messages(self, tmp_path, command, cfg, message):
        cfg_path = write_config(tmp_path, cfg)
        code, _, err = run_cli(
            [command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert err == f"config error: {message}\n"

    # a key the run would not read is an error, not silently dropped
    @pytest.mark.parametrize(
        "command,cfg,key",
        [
            ("solve", solve_config(problem=dict(BASE_PROBLEM, radius=9.0, n_nodes=None)),
             "problem.radius"),
            ("solve", solve_config(problem=dict(BASE_PROBLEM, n_nodes=7)), "problem.n_nodes"),
            ("solve", solve_config(problem=dict(TRUNCATED_PROBLEM, n_interior=15)),
             "problem.n_interior"),
            ("solve", solve_config(problem=dict(TRUNCATED_PROBLEM, bounds=[0.0, 1.0])),
             "problem.bounds"),
            ("trace", battery_config(c_grid={"values": [-0.5, -0.1], "from": -0.5}), "from"),
            ("trace", battery_config(c_grid={"values": [-0.5, -0.1], "to": -0.05}), "to"),
            ("trace", battery_config(c_grid={"values": [-0.5, -0.1], "n": 4}), "n"),
        ],
        ids=["dirichlet_radius", "dirichlet_n_nodes", "truncated_n_interior",
             "truncated_bounds", "c_grid_values_and_from", "c_grid_values_and_to",
             "c_grid_values_and_n"],
    )
    def test_ignored_key_is_a_config_error(self, tmp_path, monkeypatch, command, cfg, key):
        purposes = count_multistart_purposes(monkeypatch)
        cfg_path = write_config(tmp_path, cfg)
        out_dir = tmp_path / "out"
        code, _, err = run_cli([command, "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 1
        assert err.startswith("config error")
        if key.startswith("problem."):
            assert f"{key} does not apply to {cfg['problem']['kind']} problems" in err
        else:
            assert f"got values and {key}" in err
        assert not purposes
        assert not (out_dir / "config.echo.json").exists()

    @pytest.mark.parametrize("problem", [BASE_PROBLEM, TRUNCATED_PROBLEM],
                             ids=["dirichlet", "truncated"])
    def test_config_echo_runs_as_a_config(self, tmp_path, problem):
        # the echo holds every key, null where unset; fed back it runs the same
        first, second = tmp_path / "first", tmp_path / "second"
        cfg_path = write_config(tmp_path, battery_config(problem=problem, multistart=2))
        code, _, err = run_cli(["thresholds", "--config", str(cfg_path), "--out", str(first)])
        assert code == 0, err
        echo = first / "config.echo.json"
        dirichlet = problem["kind"] == "dirichlet"
        unset = ("n_nodes", "radius") if dirichlet else ("n_interior", "bounds")
        assert all(json.loads(echo.read_text())["problem"][key] is None for key in unset)
        code, _, err = run_cli(["thresholds", "--config", str(echo), "--out", str(second)])
        assert code == 0, err
        assert (second / "config.echo.json").read_text() == echo.read_text()
        reports = [json.loads((d / "report.json").read_text()) for d in (first, second)]
        for report in reports:
            report.pop("timing_seconds")
        assert reports[0] == reports[1]


class TestNonConvergenceExits:
    def test_trace_without_any_level_exits_nonconverged(self, tmp_path):
        # far below c*, the minus branch has no level on any ray
        cfg = battery_config(branches=["minus"], c_grid={"values": [-1e6]})
        cfg_path = write_config(tmp_path, cfg)
        code, out, err = run_cli(
            ["trace", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert "curve minus k=1: 0 points, truncated (stopped at c=-1000000.0" in out
        assert "no curve produced any point" in out
        assert "Traceback" not in err

    def test_verify_aborts_when_ground_levels_do_not_converge(self, tmp_path):
        cfg_path = write_config(tmp_path, battery_config(tolerances={"max_iter": 1}))
        code, out, err = run_cli(
            ["verify", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert "verification aborted: ground levels did not converge" in out
        assert "exit 2: non-convergence" in out
        assert "Traceback" not in err


class TestZeroLimitSchedule:
    @pytest.mark.parametrize("command,expected", [("verify", 3), ("report", 0)])
    def test_schedule_below_c_star_fails_the_limit_verdicts(self, tmp_path, command, expected):
        # c* is about -15 on this instance, so only -0.01 of the schedule
        # lies above it: the zero limit has too few levels, which is a
        # recorded failure and not a crash
        cfg = battery_config(limit_schedule=[-100, -50, -0.01])
        cfg_path = write_config(tmp_path, cfg)
        out_dir = tmp_path / "out"
        code, _, err = run_cli([command, "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == expected, err
        assert "Traceback" not in err
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["config.echo.json", "curves.csv", "diagram.svg", "report.json"]
        report = json.loads((out_dir / "report.json").read_text())
        assert "two usable levels" in report["zero_limit"]["schedule_error"]
        for name in ("limit_magnitude_decreasing", "limit_ratio_ok", "limit_scaling_bound",
                     "limit_scaling_trend"):
            assert report["verdicts"][name] is False

    def test_other_zero_limit_errors_are_not_schedule_errors(self, tmp_path, monkeypatch):
        # a ValueError from the level chain is a defect, not a bad schedule:
        # it must escape instead of being recorded as schedule_error
        def broken_chain(*args, **kwargs):
            raise ValueError("need b > 0")

        monkeypatch.setattr(cli, "limit_check_zero", broken_chain)
        cfg_path = write_config(tmp_path, battery_config())
        with pytest.raises(ValueError, match="need b > 0"):
            run_cli(["report", "--config", str(cfg_path), "--out", str(tmp_path / "out")])


class TestDiagnostics:
    def test_truncation_warnings_reach_stderr(self, tmp_path):
        # constant weights keep half their mass in the outer quarter of the
        # truncated domain, and double it when the radius doubles
        problem = {"kind": "truncated_rn", "n_nodes": 41, "radius": 4.0, "p": 3.0,
                   "weights": {"a": "1", "b": "1"}}
        cfg_path = write_config(tmp_path, solve_config(problem=problem))
        code, _, err = run_cli(
            ["thresholds", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]
        )
        assert code == 0, err
        for name in ("a", "b"):
            assert f"warning: weight {name} carries" in err
            assert f"warning: weight {name} gains 100.0% more absolute mass" in err
        assert "outer quarter of the truncated domain" in err
        assert "it may not be integrable" in err

    def test_dirichlet_battery_prints_no_warning(self, verify_pass):
        assert "warning:" not in verify_pass["err"]
