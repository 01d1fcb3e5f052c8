"""Command-line front end.

Subcommands
-----------
solve       one critical point at a prescribed (c, branch, k)
trace       level curves over a c grid for the configured branches and k's
thresholds  the two threshold constants and the zero-crossing minimizers
verify      full verification battery; nonzero exit when a verdict fails
report      thresholds + curves + verdicts in one artifact bundle (no gating)

All subcommands read a JSON config (--config), write artifacts into --out
(report.json, config.echo.json, and where applicable curves.csv and
diagram.svg), and are deterministic for a fixed config and seed: rerunning
produces byte-identical artifacts except for the "timing_seconds" subtree of
report.json.

Exit codes: 0 success, 1 bad config, 2 non-convergence or infeasibility,
3 verification verdict failure.  Every config entry is checked and typed,
and every config error exits 1, before any solve; numbers must be finite
and integer entries integral.  An entry the run would ignore is an error
too: a problem key of the other kind, or from/to/n beside c_grid values; a
null entry counts as unset, so a config.echo.json runs as a config.

Config sketch (defaults shown in config.echo.json after any run)::

    {
      "problem": {
        "kind": "dirichlet",            // or "truncated_rn"
        "dimension": 1,
        "n_interior": 31,               // 2d: [nx, ny]; truncated: n_nodes
        "bounds": [0.0, 1.0],           // truncated: "radius" instead
        "p": 2.0, "alpha": 1.5, "beta": 4.0,   // any p > 1
        "weights": {"a": "sin(2*pi*x) + 0.3", "b": "cos(2*pi*x) + 0.2"}
                                        // or {"a_csv": "...", "b_csv": "..."}
      },
      "cone": "A_POS",
      "branches": ["plus", "minus"],
      "ks": [1],
      "c_grid": {"from": -0.5, "to": -0.001, "n": 9},  // geometric; or {"values": [...]}
      "c": -0.01, "branch": "plus", "k": 1,   // solve only
      "multistart": 32, "warm_multistart": 8, "n_samples": 64, "seed": 0,
      "limit_schedule": [-0.01, -0.001, -0.0001],
      "threshold_deltas": [0.01, 0.05],   // each in (0, 1)
      "tolerances": {"residual_grad": 1e-6, "energy_defect_rel": 1e-8, "max_iter": 5000,
                     "curve_noise": 1e-6, "limit_ratio": 0.05}
                                        // all > 0 but curve_noise >= 0
    }
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .curve_tracer import (
    extend_minus_past_cstarstar,
    geometric_grid,
    limit_check_zero,
    ordering_check,
    trace_family,
)
from .functional_core import ConeTag
from .model_problems import (
    Grid,
    PLaplacianProblem,
    build_disjoint_basis,
    build_triple,
    cone_node_mask,
    weights_from_csv,
    weights_from_expressions,
)
from .nehari_minmax import (
    _CERTIFY_RTOL,
    _XI_MAX_K,
    InfeasibleLevelError,
    InfeasibleRayError,
    OptimizerParams,
    SphereConstraint,
    compute_c_star,
    compute_c_star_star,
    minimize_c0,
)
from .reporting import build_report, write_curves_csv, write_diagram_svg, write_report_json

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOCONV = 2
EXIT_VERIFY = 3


class ConfigError(Exception):
    pass


DEFAULT_TOLERANCES = {
    # a converged record's residual meets this bound of the certificate
    "residual_grad": _CERTIFY_RTOL,
    "energy_defect_rel": 1e-8,
    "max_iter": 5000,
    "curve_noise": 1e-6,
    "limit_ratio": 0.05,
}

_TOP_DEFAULTS = {
    "problem": None,
    "cone": "A_POS",
    "branches": ["plus", "minus"],
    "ks": [1],
    "c_grid": None,
    "c": None,
    "branch": "plus",
    "k": 1,
    "multistart": 32,
    "warm_multistart": 8,
    "n_samples": 64,
    "seed": 0,
    "limit_schedule": [-1e-2, -1e-3, -1e-4],
    "threshold_deltas": [0.01, 0.05],
    "tolerances": None,
}

_PROBLEM_DEFAULTS = {
    "kind": "dirichlet",
    "dimension": 1,
    "n_interior": None,
    "n_nodes": None,
    "bounds": None,
    "radius": None,
    "p": 2.0,
    "alpha": 1.5,
    "beta": 4.0,
    "weights": None,
}


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def _number(kind, value, name: str):
    """value as kind, int or float: a finite JSON number, and an integral one for int.

    json reads NaN, Infinity and -Infinity as floats; none of them is a number here,
    nor is an integer literal beyond the double range where a float is asked for.
    """
    finite = type(value) is int or type(value) is float and math.isfinite(value)
    integral = type(value) is int or finite and value.is_integer()
    if integral if kind is int else finite:
        try:
            return kind(value)
        except OverflowError:  # an integer literal beyond the double range
            pass
    noun = "an integer" if kind is int else "a finite number"
    raise ConfigError(f"{name} must be {noun}, got {value!r}")


def _typed(value, default, name: str):
    """value with the type of its default, a number or a list; other entries as given."""
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return [_typed(v, default[0], f"{name}[{i}]") for i, v in enumerate(value)]
    if isinstance(default, (int, float)):
        return _number(type(default), value, name)
    return value


def _merge_section(user: dict, defaults: dict, name: str, typed_as=None) -> dict:
    """defaults updated by user, typed like the defaults (typed_as: for null defaults)."""
    unknown = set(user) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown {name} key(s): {', '.join(sorted(unknown))}")
    merged = dict(defaults)
    for key, value in user.items():
        default = defaults[key] if value is None else (typed_as or {}).get(key, defaults[key])
        merged[key] = _typed(value, default, key if name == "config" else f"{name}.{key}")
    return merged


def merge_config(user: dict) -> dict:
    """Defaults + user config, typed and with every choice checked; the echoed
    form.  Setup checks the problem section, c grid and zero-limit schedule."""
    cfg = _merge_section(user, _TOP_DEFAULTS, "config", {"c": 0.0})
    if cfg["problem"] is None:
        raise ConfigError("config needs a \"problem\" section")
    for name, defaults, typed_as in (
        ("problem", _PROBLEM_DEFAULTS, {"radius": 0.0}),
        ("tolerances", DEFAULT_TOLERANCES, None),
    ):
        section = {} if cfg[name] is None else cfg[name]
        if not isinstance(section, dict):
            raise ConfigError(f"\"{name}\" must be an object")
        cfg[name] = _merge_section(section, defaults, name, typed_as)
    cones = [t.name for t in ConeTag]
    if cfg["cone"] not in cones:
        raise ConfigError(f"unknown cone {cfg['cone']!r}; choose from {', '.join(cones)}")
    for branch in [cfg["branch"], *cfg["branches"]]:
        if branch not in ("plus", "minus"):
            raise ConfigError(f"unknown branch {branch!r}")
    # a repeated branch would be traced twice, and no branch verifies nothing
    if not cfg["branches"] or len(set(cfg["branches"])) < len(cfg["branches"]):
        raise ConfigError(f"branches must list distinct branches, got {cfg['branches']!r}")
    # the genus surrogates sample coefficient spheres of at most _XI_MAX_K dimensions
    if not cfg["ks"] or min(cfg["ks"]) < 1 or max(cfg["ks"]) > _XI_MAX_K:
        raise ConfigError(f"ks must list curve indices 1 <= k <= {_XI_MAX_K}, got {cfg['ks']!r}")
    if cfg["k"] > _XI_MAX_K:
        raise ConfigError(f"k must be at most {_XI_MAX_K}, got {cfg['k']}")
    for key, low in (("k", 1), ("multistart", 1), ("warm_multistart", 0), ("n_samples", 1),
                     ("seed", 0)):
        if cfg[key] < low:
            raise ConfigError(f"{key} must be at least {low}, got {cfg[key]}")
    tol = cfg["tolerances"]
    if tol["max_iter"] < 1:
        raise ConfigError(f"tolerances.max_iter must be at least 1, got {tol['max_iter']}")
    for key in ("residual_grad", "energy_defect_rel", "limit_ratio", "curve_noise"):
        value = tol[key]
        if value < 0.0 or (value == 0.0 and key != "curve_noise"):
            need = "at least 0" if key == "curve_noise" else "positive"
            raise ConfigError(f"tolerances.{key} must be {need}, got {value!r}")
    # a record is converged only at a residual within the certificate's bound
    if tol["residual_grad"] > _CERTIFY_RTOL:
        raise ConfigError(
            f"tolerances.residual_grad must be at most {_CERTIFY_RTOL!r}, the bound of a "
            f"converged record, got {tol['residual_grad']!r}"
        )
    deltas = cfg["threshold_deltas"]
    if not deltas or not all(0.0 < d < 1.0 for d in deltas):
        raise ConfigError(f"threshold_deltas must list deltas in (0, 1), got {deltas!r}")
    return cfg


def _axis_counts(pcfg: dict, key: str, dim: int) -> list[int]:
    """pcfg[key] as one node count per axis; a 1D count may be a bare number."""
    value = pcfg[key]
    counts = list(value) if isinstance(value, (list, tuple)) else [value]
    if len(counts) != dim:
        raise ConfigError(
            f"problem.{key} needs one count per axis of problem.dimension = {dim}, "
            f"got {value!r}"
        )
    return [_number(int, n, f"problem.{key}") for n in counts]


def _build_problem(pcfg: dict) -> PLaplacianProblem:
    kind = pcfg["kind"]
    dim = pcfg["dimension"]
    if kind not in ("dirichlet", "truncated_rn"):
        raise ConfigError(f"problem.kind must be dirichlet or truncated_rn, got {kind!r}")
    # a key of the other kind would be ignored; null stands for unset
    for key in ("n_nodes", "radius") if kind == "dirichlet" else ("n_interior", "bounds"):
        if pcfg[key] is not None:
            raise ConfigError(f"problem.{key} does not apply to {kind} problems")

    if kind == "dirichlet":
        if pcfg["n_interior"] is None:
            raise ConfigError("dirichlet problems need problem.n_interior")
        counts = _axis_counts(pcfg, "n_interior", dim)
        bounds = pcfg["bounds"]
        if bounds is None:
            bounds = [[0.0, 1.0]] * dim
        elif isinstance(bounds, list) and bounds and not isinstance(bounds[0], list):
            bounds = [bounds]  # one axis, written as a bare pair
        bounds = _typed(bounds, [[0.0]], "problem.bounds")
        if any(len(b) != 2 for b in bounds):
            raise ConfigError(f"problem.bounds must hold [lo, hi] pairs, got {bounds!r}")
        grid = Grid(tuple(tuple(b) for b in bounds), tuple(n + 2 for n in counts))
    else:
        if pcfg["n_nodes"] is None or pcfg["radius"] is None:
            raise ConfigError("truncated problems need problem.n_nodes and problem.radius")
        r = pcfg["radius"]
        counts = _axis_counts(pcfg, "n_nodes", dim)
        grid = Grid(((-r, r),) * dim, tuple(counts), dirichlet=False)

    wcfg = pcfg["weights"]
    if not isinstance(wcfg, dict) or set(wcfg) not in ({"a", "b"}, {"a_csv", "b_csv"}):
        raise ConfigError(
            "problem.weights needs either expressions {a, b} or files {a_csv, b_csv}"
        )
    if "a" in wcfg:
        weights = weights_from_expressions(grid, str(wcfg["a"]), str(wcfg["b"]))
    else:
        try:
            weights = weights_from_csv(grid, str(wcfg["a_csv"]), str(wcfg["b_csv"]))
        except OSError as exc:
            raise ConfigError(f"cannot read weight file: {exc}") from None
    return PLaplacianProblem(grid, weights, pcfg["p"], pcfg["alpha"], pcfg["beta"])


class Setup:
    """Problem, triple, c grid and the cone constraints shared by the
    subcommands; building it checks the problem section, c grid and
    zero-limit schedule."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.c_values = _c_grid(cfg["c_grid"])
        if len(cfg["limit_schedule"]) < 2 or max(cfg["limit_schedule"]) >= 0.0:
            raise ConfigError("limit_schedule needs at least two levels, all negative")
        self.problem = _build_problem(cfg["problem"])
        self.triple = build_triple(self.problem)
        tol = cfg["tolerances"]
        self.params = OptimizerParams(max_iter=tol["max_iter"])
        # the configured cone and its B > 0 part, each drawing starts on its node mask
        tag = ConeTag[cfg["cone"]]
        self.cone, self.cone_both = (
            SphereConstraint(self.triple, tag=t, start_support=cone_node_mask(self.problem, t))
            for t in (tag, tag.b_positive)
        )

    def constraint_for_branch(self, branch: str) -> SphereConstraint:
        # minus-branch levels only exist where the convex term is positive
        return self.cone_both if branch == "minus" else self.cone

    def basis(self, k_max: int):
        """The disjoint surrogate basis for curves up to k_max; None at k_max = 1."""
        if k_max == 1:
            return None
        try:
            return build_disjoint_basis(self.problem, self.cone_both.tag, k_max)
        except ValueError as exc:
            raise ConfigError(f"no surrogate basis for k = {k_max}: {exc}") from None


def _c_grid(gcfg) -> list[float] | None:
    """The c_grid section as sorted distinct values; None when there is none."""
    if gcfg is None:
        return None
    if not isinstance(gcfg, dict):
        raise ConfigError("c_grid must be an object")
    grid = _merge_section(
        gcfg, dict.fromkeys(("values", "from", "to", "n")), "c_grid",
        {"values": [0.0], "from": 0.0, "to": 0.0, "n": 0},
    )
    span = (grid["from"], grid["to"], grid["n"])
    if grid["values"] is not None:
        given = [key for key, v in zip(("from", "to", "n"), span) if v is not None]
        if given:
            raise ConfigError(f"c_grid takes values or from/to/n, got values and {'/'.join(given)}")
        values = grid["values"]
    elif None in span:
        raise ConfigError("c_grid needs either values or from/to/n")
    else:
        values = geometric_grid(*span)
    values = sorted(float(v) for v in values)
    if not values:
        raise ConfigError("c_grid is empty")
    if any(v1 <= v0 for v0, v1 in zip(values, values[1:])):
        raise ConfigError("c_grid values must be distinct")
    return values


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def _write_echo(out_dir: str, cfg: dict) -> None:
    with open(os.path.join(out_dir, "config.echo.json"), "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _trace(setup: Setup, branch: str, c_values, ks, basis):
    """trace_family on the branch's constraint with the config's solver settings."""
    cfg = setup.cfg
    return trace_family(
        setup.constraint_for_branch(branch), c_values, branch, ks=ks, basis=basis,
        multistart=cfg["multistart"], warm_multistart=cfg["warm_multistart"],
        seed=cfg["seed"], params=setup.params, noise=cfg["tolerances"]["curve_noise"],
        n_samples=cfg["n_samples"],
    )


def _trace_branches(setup: Setup, basis, plus_grid, minus_grid, log=None):
    """Trace every configured (branch, k) on its branch's grid with basis,
    setup.basis(max(ks)).

    Returns (families by branch, curves in branch-then-k order, ground_ok),
    where ground_ok is False once a k = 1 point did not converge.  log, when
    given, receives one line per curve.
    """
    ks = sorted(set(setup.cfg["ks"]))
    fams = {}
    curves = []
    ground_ok = True
    for branch in setup.cfg["branches"]:
        grid = plus_grid if branch == "plus" else minus_grid
        fams[branch] = fam = _trace(setup, branch, grid, ks, basis)
        for k in ks:
            curve = fam[k]
            curves.append(curve)
            if k == 1 and any(not p.converged for p in curve.points):
                ground_ok = False
            if log is not None:
                log(
                    f"curve {branch} k={k}: {len(curve.points)} points"
                    + (f", truncated ({curve.truncation_reason})"
                       if curve.truncation_reason else "")
                )
    return fams, curves, ground_ok


def _certified(record, tol: dict) -> bool:
    """Converged, with residual and energy defect within the tolerances."""
    return (
        record.converged
        and record.residual_grad <= tol["residual_grad"]
        and record.energy_defect <= tol["energy_defect_rel"] * (1.0 + abs(record.c))
    )


def _certify_points(curves, tol) -> tuple[bool, int]:
    """Residual and defect certification over converged ground (k = 1)
    points: whether all of them pass, and how many do."""
    checked = [p for curve in curves for p in curve.points if p.k == 1 and p.converged]
    passed = sum(_certified(p, tol) for p in checked)
    return passed == len(checked), passed


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(setup: Setup, out_dir: str, quiet: bool) -> int:
    cfg = setup.cfg
    if cfg["c"] is None:
        raise ConfigError("solve needs a top-level \"c\" value")
    c, branch, k = cfg["c"], cfg["branch"], cfg["k"]
    basis = setup.basis(k)
    t0 = time.perf_counter()
    curves = [_trace(setup, branch, [c], (k,), basis)[k]]
    elapsed = time.perf_counter() - t0
    if not curves[0].points:
        raise InfeasibleLevelError(
            f"no {branch}-branch level at c={c!r}: {curves[0].truncation_reason}"
        )
    point = curves[0].points[0]
    certified = _certified(point, cfg["tolerances"])
    report = build_report(
        cfg,
        curves=curves,
        verdicts={"certified": certified},
        extras={
            "solution": {
                "branch": branch,
                "k": k,
                "c": c,
                "lambda": point.lam,
                "t_root": point.t_root,
                "u_norm": point.u_norm,
                "residual_grad": point.residual_grad,
                "energy_defect": point.energy_defect,
                "converged": point.converged,
                "coefficients": point.coefficients,
            }
        },
        timing_seconds={"total": elapsed},
    )
    write_report_json(os.path.join(out_dir, "report.json"), report)
    write_curves_csv(os.path.join(out_dir, "curves.csv"), curves)
    _say(quiet, f"lambda = {point.lam!r} at c={c!r} ({branch}, k={k})")
    _say(quiet, f"residual_grad = {point.residual_grad:.3e}, "
                f"energy_defect = {point.energy_defect:.3e}")
    if k == 1 and not certified:
        _say(quiet, "solve did not certify: residual or defect above tolerance")
        return EXIT_NOCONV
    return EXIT_OK


def cmd_trace(setup: Setup, out_dir: str, quiet: bool) -> int:
    if setup.c_values is None:
        raise ConfigError("this command needs a c_grid section")
    basis = setup.basis(max(setup.cfg["ks"]))
    t0 = time.perf_counter()
    _, curves, ground_ok = _trace_branches(
        setup, basis, setup.c_values, setup.c_values, log=lambda line: _say(quiet, line)
    )
    elapsed = time.perf_counter() - t0
    report = build_report(setup.cfg, curves=curves, timing_seconds={"total": elapsed})
    write_report_json(os.path.join(out_dir, "report.json"), report)
    write_curves_csv(os.path.join(out_dir, "curves.csv"), curves)
    write_diagram_svg(os.path.join(out_dir, "diagram.svg"), curves)
    if not any(curve.points for curve in curves):
        _say(quiet, "no curve produced any point")
        return EXIT_NOCONV
    return EXIT_OK if ground_ok else EXIT_NOCONV


def _thresholds(setup: Setup):
    """(c_star, c_star_star, c** minimizers, zero_level) on the cone with B > 0.

    zero_level = (c0, minimizers) is the one zero-level solve over the B > 0
    cone alone; c** comes from it, c* from c**, and the crossing reuses it.
    """
    cfg = setup.cfg
    constraint = setup.cone_both
    opts = dict(multistart=cfg["multistart"], seed=cfg["seed"], params=setup.params)
    zero_level = minimize_c0(constraint, **opts)
    c2, minimizers = compute_c_star_star(constraint, zero_level=zero_level, **opts)
    c_star = compute_c_star(constraint, c_star_star=c2)
    return c_star, c2, minimizers, zero_level


def cmd_thresholds(setup: Setup, out_dir: str, quiet: bool) -> int:
    t0 = time.perf_counter()
    c_star, c2, minimizers, _ = _thresholds(setup)
    elapsed = time.perf_counter() - t0
    thresholds = {
        "c_star": c_star,
        "c_star_star": c2,
        "n_zero_level_minimizers": len(minimizers),
        "ordered": bool(c_star < 0.0 < c2),
    }
    report = build_report(setup.cfg, thresholds=thresholds, timing_seconds={"total": elapsed})
    write_report_json(os.path.join(out_dir, "report.json"), report)
    _say(quiet, f"c_star = {c_star!r}")
    _say(quiet, f"c_star_star = {c2!r} ({len(minimizers)} minimizer(s))")
    return EXIT_OK


def _derived_grids(c_star: float, c2: float):
    """Default verification grids spanning (c_star, 0) and through c_star_star."""
    common = list(np.linspace(0.5 * c_star, 0.05 * c_star, 5))
    minus_extra = list(np.linspace(0.3 * c2, 0.9 * c2, 3))
    return common, sorted(common + minus_extra)


def _run_battery(setup: Setup, quiet: bool):
    """Shared by verify and report: thresholds, curves, and all verdicts."""
    cfg = setup.cfg
    tol = cfg["tolerances"]
    timing: dict[str, float] = {}
    basis = setup.basis(max(cfg["ks"]))

    t0 = time.perf_counter()
    c_star, c2, minimizers, zero_level = _thresholds(setup)
    timing["thresholds"] = time.perf_counter() - t0
    _say(quiet, f"c_star = {c_star!r}, c_star_star = {c2!r}")

    if setup.c_values is not None:
        plus_grid = minus_grid = setup.c_values
    else:
        plus_grid, minus_grid = _derived_grids(c_star, c2)

    t0 = time.perf_counter()
    fams, curves, ground_ok = _trace_branches(
        setup, basis, [c for c in plus_grid if c > c_star], [c for c in minus_grid if c > c_star]
    )
    timing["curves"] = time.perf_counter() - t0

    verdicts: dict[str, object] = {"thresholds_ordered": bool(c_star < 0.0 < c2)}
    verdicts["curve_monotone"] = all(c.verdicts["monotone_decreasing"] for c in curves)
    verdicts["curve_lipschitz"] = all(c.verdicts["lipschitz_ok"] for c in curves)
    verdicts["norm_monotone"] = all(c.verdicts["norm_monotone"] for c in curves)
    verdicts["k_monotone"] = all(c.verdicts.get("k_monotone", True) for c in curves)

    if "plus" in fams and "minus" in fams:
        ordering = ordering_check(fams["plus"][1], fams["minus"][1], noise=tol["curve_noise"])
        verdicts["pdm_ordering"] = ordering["ok"]
        verdicts["pdm_worst_gap"] = ordering["worst_gap"]
    certified, n_certified = _certify_points(curves, tol)
    verdicts["residuals_certified"] = certified
    verdicts["n_points_certified"] = n_certified

    extras: dict[str, object] = {}
    if "plus" in cfg["branches"]:
        t0 = time.perf_counter()
        usable = [c for c in cfg["limit_schedule"] if c > c_star]
        if len(usable) < 2:  # Setup checked the rest
            limit = {"schedule_error": f"need two usable levels above c* = {c_star!r}"}
        else:
            limit = limit_check_zero(
                setup.constraint_for_branch("plus"),
                schedule=usable,
                tol_limit=tol["limit_ratio"],
                seed=cfg["seed"],
                multistart=cfg["multistart"],
                params=setup.params,
            )
        timing["zero_limit"] = time.perf_counter() - t0
        extras["zero_limit"] = limit
        verdicts["limit_magnitude_decreasing"] = bool(limit.get("magnitude_decreasing"))
        verdicts["limit_ratio_ok"] = bool(limit.get("limit_ok"))
        verdicts["limit_scaling_bound"] = bool(limit.get("bound_ok"))
        verdicts["limit_scaling_trend"] = bool(limit.get("trend_ok"))

    if "minus" in cfg["branches"]:
        t0 = time.perf_counter()
        try:
            crossing = extend_minus_past_cstarstar(
                setup.constraint_for_branch("minus"),
                deltas=cfg["threshold_deltas"],
                multistart=cfg["multistart"],
                warm_multistart=cfg["warm_multistart"],
                seed=cfg["seed"],
                params=setup.params,
                noise=tol["curve_noise"],
                zero_level=zero_level,
            )
            extras["zero_crossing"] = {
                key: crossing[key]
                for key in (
                    "c_star_star", "minimizer_a_margins", "positive_before",
                    "zero_at_threshold", "negative_after", "ok",
                )
            }
            verdicts["zero_crossing"] = crossing["ok"]
        except ValueError as exc:
            # the continuation hypothesis failed on this instance; report, don't crash
            extras["zero_crossing"] = {"hypothesis_error": str(exc)}
            verdicts["zero_crossing"] = False
        timing["zero_crossing"] = time.perf_counter() - t0

    thresholds = {
        "c_star": c_star,
        "c_star_star": c2,
        "n_zero_level_minimizers": len(minimizers),
    }
    return curves, thresholds, verdicts, extras, timing, ground_ok


def _print_verdicts(verdicts: dict, quiet: bool) -> bool:
    """Print and gate the bool verdicts in the order the battery recorded them."""
    gating = {name: ok for name, ok in verdicts.items() if isinstance(ok, bool)}
    for name, ok in gating.items():
        _say(quiet, f"{'PASS' if ok else 'FAIL'}  {name}")
    return all(gating.values())


def _battery_command(setup: Setup, out_dir: str, quiet: bool, gate: bool) -> int:
    """verify (gate=True) and report (gate=False): the same battery and artifacts.

    Only verify turns a failed verdict into exit 3; both exit 2 when a
    ground level did not converge.
    """
    curves, thresholds, verdicts, extras, timing, ground_ok = _run_battery(setup, quiet)
    all_ok = _print_verdicts(verdicts, quiet)
    verdicts["all_ok"] = all_ok
    report = build_report(
        setup.cfg, curves=curves, thresholds=thresholds, verdicts=verdicts,
        extras=extras, timing_seconds=timing,
    )
    write_report_json(os.path.join(out_dir, "report.json"), report)
    write_curves_csv(os.path.join(out_dir, "curves.csv"), curves)
    write_diagram_svg(
        os.path.join(out_dir, "diagram.svg"), curves,
        c_star=thresholds["c_star"], c_star_star=thresholds["c_star_star"],
    )
    if not ground_ok:
        if gate:
            _say(quiet, "verification aborted: ground levels did not converge")
        return EXIT_NOCONV
    return EXIT_VERIFY if gate and not all_ok else EXIT_OK


def cmd_verify(setup: Setup, out_dir: str, quiet: bool) -> int:
    return _battery_command(setup, out_dir, quiet, gate=True)


def cmd_report(setup: Setup, out_dir: str, quiet: bool) -> int:
    return _battery_command(setup, out_dir, quiet, gate=False)


_COMMANDS = {
    "solve": cmd_solve,
    "trace": cmd_trace,
    "thresholds": cmd_thresholds,
    "verify": cmd_verify,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fibercurve",
        description="level curves of concave-convex variational problems "
        "with a prescribed energy value",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON config path")
    common.add_argument("--out", default=".", help="output directory (default .)")
    common.add_argument("--seed", type=int, default=None, help="override config seed")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "one critical point at a prescribed value"),
        ("trace", "level curves over a grid of prescribed values"),
        ("thresholds", "the two threshold constants"),
        ("verify", "verification battery (exit 3 on failed verdicts)"),
        ("report", "full artifact bundle without verdict gating"),
    ):
        sub.add_parser(name, parents=[common], help=help_text)
    args = parser.parse_args(argv)

    try:
        user = _load_config(args.config)
        if args.seed is not None:
            user["seed"] = args.seed
        cfg = merge_config(user)
        os.makedirs(args.out, exist_ok=True)
        setup = Setup(cfg)
        notes = setup.problem.diagnostics()
        _write_echo(args.out, cfg)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)

    try:
        code = _COMMANDS[args.command](setup, args.out, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleRayError, RuntimeError, OverflowError) as exc:
        # InfeasibleLevelError is a RuntimeError; OverflowError comes from a
        # kernel whose scalings leave the double range on this problem
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    if code != EXIT_OK and not args.quiet:
        label = {EXIT_CONFIG: "config error", EXIT_NOCONV: "non-convergence",
                 EXIT_VERIFY: "verification failure"}[code]
        print(f"exit {code}: {label}")
    return code


if __name__ == "__main__":
    sys.exit(main())
