"""The four benchmark workloads and their output checks.

Each workload has a ``build(seed)`` that returns its state (problems, triples,
constraints, bases, ray batches; this is what ``setup_s`` times) and a
``run(state, out_dir)`` that performs one pass and returns one ``Op`` per
operation.  Library calls go through module attributes (``nm.``, ``ct.``,
``fib.``, ``cli.``) so that the tracer in ``tracing.py`` sees them.

The library's own multistart seed is fixed at 0 in every descent workload:
the reference levels in ``reference.json`` belong to that seed.  The
benchmark seed orders the refine instances and the intersect branches, and
draws the ray batch (all but its c = c_bar row).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass

import numpy as np

from fibercurve import cli
from fibercurve import curve_tracer as ct
from fibercurve import fibering as fib
from fibercurve import model_problems as mp
from fibercurve import nehari_minmax as nm
from fibercurve.functional_core import ConeTag, Exponents

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# CLI defaults: the tolerances a user's certified point is held to.
RESIDUAL_TOL = cli.DEFAULT_TOLERANCES["residual_grad"]
DEFECT_REL_TOL = cli.DEFAULT_TOLERANCES["energy_defect_rel"]
CURVE_NOISE = cli.DEFAULT_TOLERANCES["curve_noise"]
EXP = Exponents(alpha=1.5, eta=2.0, beta=4.0)


@dataclass(frozen=True)
class Op:
    """One operation: ``ok`` unless it failed; ``wrong`` when an output
    disagrees with the reference or the closed form (a correctness error, as
    opposed to a point the program itself flags as uncertified)."""

    name: str
    ok: bool
    reason: str = ""
    wrong: bool = False
    level: tuple[float, float] | None = None  # (c, lambda) of a certified level


def load_reference(workload: str) -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def certified(c: float, residual: float, defect: float, converged: bool) -> bool:
    return (
        bool(converged)
        and residual <= RESIDUAL_TOL
        and defect <= DEFECT_REL_TOL * (1.0 + abs(c))
    )


def close(value: float, ref: float) -> bool:
    return abs(value - ref) <= CURVE_NOISE * (1.0 + abs(ref))


def level_op(name: str, c: float, lam: float, residual: float, defect: float,
             converged: bool, ref: dict | None) -> Op:
    """A certified level op: fails when uncertified, or (wrong) off its reference."""
    if not certified(c, residual, defect, converged):
        return Op(name, False, f"uncertified (converged={converged}, "
                               f"residual={residual:.3g}, defect={defect:.3g})")
    if ref is None:
        return Op(name, False, "no reference value", wrong=True, level=(c, lam))
    if not (close(c, ref["c"]) and close(lam, ref["lambda"])):
        return Op(name, False, f"level ({c!r}, {lam!r}) differs from reference "
                               f"({ref['c']!r}, {ref['lambda']!r})", wrong=True, level=(c, lam))
    return Op(name, True, level=(c, lam))


def record_op(name: str, lam: float, rec, ref: dict | None) -> Op:
    return level_op(name, rec.c, lam, rec.residual_grad, rec.energy_defect, rec.converged, ref)


def seed_order(items: list, seed: int) -> list:
    """The benchmark seed's permutation of ``items``."""
    rng = np.random.default_rng([seed, 7])
    return [items[i] for i in rng.permutation(len(items))]


# ---------------------------------------------------------------------------
# report: `fibercurve report` on one fixed config

REPORT_CONFIG = {
    "problem": {
        "kind": "dirichlet",
        "dimension": 1,
        "n_interior": 31,
        "p": 2.0,
        "alpha": 1.5,
        "beta": 4.0,
        "weights": {"a": "1+x", "b": "cos(2*pi*x)+0.2"},
    },
    "branches": ["plus", "minus"],
    "ks": [1, 2, 3],
    "multistart": 8,
    "warm_multistart": 4,
    "n_samples": 16,
    "seed": 0,
}
REPORT_FILES = ("curves.csv", "diagram.svg", "config.echo.json", "report.json")


def build_report(seed: int) -> dict:
    cfg = cli.merge_config(json.loads(json.dumps(REPORT_CONFIG)))
    return {"cfg": cfg, "setup": cli.Setup(cfg)}


def artifact_digest(out_dir: str) -> str:
    """Digest of the report artifacts with the wall-clock subtree removed."""
    h = hashlib.sha256()
    for name in REPORT_FILES:
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name == "report.json":
            report = json.loads(data)
            report.pop("timing_seconds", None)
            data = json.dumps(report, sort_keys=True).encode()
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def run_report(state: dict, out_dir: str, refs: dict) -> list[Op]:
    out = os.path.join(out_dir, "report")
    # a pass reads only the artifacts it wrote itself
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    cfg_path = os.path.join(out, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(REPORT_CONFIG, fh, sort_keys=True)
    code = cli.main(["report", "--config", cfg_path, "--out", out, "--quiet"])
    missing = [name for name in REPORT_FILES if not os.path.isfile(os.path.join(out, name))]
    state["digest"] = None
    if code == cli.EXIT_NOCONV and missing:
        # the command gave up before writing its artifacts: every point failed
        return [Op(name, False, f"cli exit {code}, no {', '.join(missing)}") for name in refs]
    if code not in (cli.EXIT_OK, cli.EXIT_NOCONV) or missing:
        # 2 only flags uncertified points; anything else is a broken run
        return [Op(name, False, f"cli exit {code}, missing {missing}", wrong=True)
                for name in refs]
    state["digest"] = artifact_digest(out)
    with open(os.path.join(out, "curves.csv"), encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines()
    cols = header.split(",")
    rows = [dict(zip(cols, line.split(","))) for line in lines]
    ops = []
    index = {"plus": 0, "minus": 0}
    for row in rows:
        if row["k"] != "1":
            continue
        name = f"{row['branch']}[{index[row['branch']]}]"
        index[row["branch"]] += 1
        ops.append(level_op(
            name, float(row["c"]), float(row["lambda"]), float(row["residual_grad"]),
            float(row["energy_defect"]), row["converged"] == "True", refs.get(name),
        ))
    for name in sorted(set(refs) - {op.name for op in ops}):
        ops.append(Op(name, False, "row missing from curves.csv", wrong=True))
    return ops


# ---------------------------------------------------------------------------
# refine: cold single plus-branch ground solves on eight grids

REFINE_C = -0.01
REFINE_MULTISTART = 2
_D1 = ("1+x", "cos(2*pi*x)+0.2")
_TRUNC = (4.0, "exp(-x^2)", "exp(-x^2/2)")
_D2 = ("1+x*y", "0.5+sin(pi*x)*sin(pi*y)")
REFINE_INSTANCES = {
    "d1_p2_n63": lambda: mp.dirichlet_problem_1d(63, *_D1, p=2.0),
    "d1_p2_n127": lambda: mp.dirichlet_problem_1d(127, *_D1, p=2.0),
    "d1_p2_n255": lambda: mp.dirichlet_problem_1d(255, *_D1, p=2.0),
    "d1_p3_n127": lambda: mp.dirichlet_problem_1d(127, *_D1, p=3.0),
    "trunc_p3_n41": lambda: mp.truncated_problem_1d(41, *_TRUNC, p=3.0),
    "trunc_p3_n161": lambda: mp.truncated_problem_1d(161, *_TRUNC, p=3.0),
    "d2_p2_16x16": lambda: mp.dirichlet_problem_2d((16, 16), *_D2, p=2.0),
    "d2_p2_32x32": lambda: mp.dirichlet_problem_2d((32, 32), *_D2, p=2.0),
}


def build_refine(seed: int) -> dict:
    cons = {}
    for name in seed_order(sorted(REFINE_INSTANCES), seed):
        triple = mp.build_triple(REFINE_INSTANCES[name]())
        cons[name] = nm.SphereConstraint(triple, tag=ConeTag.A_POS)
    return {"constraints": cons}


def run_refine(state: dict, out_dir: str, refs: dict) -> list[Op]:
    ops = []
    for name, con in state["constraints"].items():
        lam, rec = nm.minimize_ground_level(
            con, REFINE_C, "plus", multistart=REFINE_MULTISTART, seed=0
        )
        ops.append(record_op(name, lam, rec, refs.get(name)))
    return ops


# ---------------------------------------------------------------------------
# intersect: lambda_k(c) = target by bisection, k = 1..3, both branches

INTERSECT_N = 31
INTERSECT_MULTISTART = 8
INTERSECT_SAMPLES = 16
INTERSECT_KS = (1, 2, 3)
_MINUS_W = "0.5*(sin(2*pi*x)-0.5+abs(sin(2*pi*x)-0.5))"


def build_intersect(seed: int) -> dict:
    plus = mp.dirichlet_problem_1d(INTERSECT_N, "sin(2*pi*x)+0.3", "cos(2*pi*x)+0.2")
    minus = mp.dirichlet_problem_1d(INTERSECT_N, _MINUS_W, _MINUS_W)
    tri_plus, tri_minus = mp.build_triple(plus), mp.build_triple(minus)
    branches = {
        "plus": {
            "con": nm.SphereConstraint(tri_plus, tag=ConeTag.A_POS),
            "con_both": nm.SphereConstraint(tri_plus, tag=ConeTag.A_POS_B_POS),
            "basis": mp.build_disjoint_basis(plus, ConeTag.A_POS_B_POS, max(INTERSECT_KS)),
        },
        "minus": {
            "con": nm.SphereConstraint(tri_minus, tag=ConeTag.A_POS_B_POS),
            "basis": mp.build_disjoint_basis(minus, ConeTag.A_POS_B_POS, max(INTERSECT_KS)),
        },
    }
    return {"branches": {b: branches[b] for b in seed_order(["plus", "minus"], seed)}}


def run_intersect(state: dict, out_dir: str, refs: dict) -> list[Op]:
    ms = INTERSECT_MULTISTART
    ops = []
    bisect_iters = 0
    for branch, st in state["branches"].items():
        if branch == "plus":
            c_star = nm.compute_c_star(st["con_both"], multistart=ms, seed=0)
            window = dict(lam_target=10.0, c_lo=-0.5, c_hi=-0.01, c_floor=c_star)
        else:
            c_ss, _ = nm.compute_c_star_star(st["con"], multistart=ms, seed=0)
            lam_ref, _ = nm.minimize_ground_level(st["con"], 0.1 * c_ss, "minus",
                                                  multistart=ms, seed=0)
            window = dict(lam_target=0.5 * lam_ref, c_lo=0.1 * c_ss, c_hi=0.9 * c_ss)
        res = ct.intersect_with_lambda(
            st["con"], branch, ks=INTERSECT_KS, basis=st["basis"],
            n_samples=INTERSECT_SAMPLES, multistart=ms, seed=0, **window,
        )
        points = {p["k"]: p for p in res["points"]}
        skipped = {s["k"]: s["reason"] for s in res["skipped"]}
        for k in INTERSECT_KS:
            name = f"{branch}_k{k}"
            if k not in points:
                ops.append(Op(name, False, f"skipped: {skipped.get(k, '?')}"))
                continue
            p = points[k]
            bisect_iters += p["iterations"]
            if k == 1:
                ops.append(record_op(name, p["lam"], p["record"], refs.get(name)))
            else:
                ops.append(Op(name, True))
    state["bisect_iters"] = bisect_iters
    return ops


# ---------------------------------------------------------------------------
# rays: classify_and_solve + restricted_lambda over every row of the case table

RAYS_PER_PASS = 4096
DEG_RTOL = 1e-14
G_RTOL = 1e-9
# One row of the case table: (label, b kind, c kind, expected case, degenerate).
RAY_ROWS = (
    ("b<=0,c>0", "nonpos", "pos", fib.Case.NO_CRITICAL, False),
    ("b<=0,c=0", "nonpos", "zero", fib.Case.NO_CRITICAL, False),
    ("b<=0,c<0", "nonpos", "neg", fib.Case.UNIQUE_MIN, False),
    ("b->0-,c<0", "tiny_neg", "neg", fib.Case.UNIQUE_MIN, False),
    ("b>0,c>0", "pos", "pos", fib.Case.UNIQUE_MAX, False),
    ("b>0,c=0", "pos", "zero", fib.Case.UNIQUE_MAX, False),
    ("b>0,c_bar<c<0", "pos", "above_bar", fib.Case.TWO_ROOTS, False),
    ("b->0+,c<0", "tiny_pos", "neg", fib.Case.TWO_ROOTS, False),
    ("b>0,c=c_bar", "pos", "at_bar", fib.Case.TWO_ROOTS, True),
    ("b>0,c<c_bar", "pos", "below_bar", fib.Case.NO_CRITICAL, False),
)


def _c_bar(n: float, b: float) -> float:
    """Closed-form collision level of a ray with b > 0."""
    a_, e_, b_ = EXP.alpha, EXP.eta, EXP.beta
    t_bar = ((e_ - a_) * n / ((b_ - a_) * b)) ** (1.0 / (b_ - e_))
    return -(e_ - a_) * (b_ - e_) / (e_ * b_ * a_) * n * t_bar**e_


def build_rays(seed: int) -> dict:
    """A batch cycling through RAY_ROWS; n, a, |b|, |c| span 1e-3..1e3.

    The seed draws every row but ``c = c_bar``, which is the same fixed draw
    for every seed: some of its rays fail (see README), and a fixed draw keeps
    the number that fail a property of the program, not of the seed.
    """
    seeded = np.random.default_rng([seed, 11])
    fixed = np.random.default_rng([0, 13])
    rays = []
    for i in range(RAYS_PER_PASS):
        row = i % len(RAY_ROWS)
        _, b_kind, c_kind, _, _ = RAY_ROWS[row]
        rng = fixed if c_kind == "at_bar" else seeded
        mag = lambda: float(10.0 ** rng.uniform(-3.0, 3.0))  # noqa: E731
        n, a, b = mag(), mag(), mag()
        if b_kind == "nonpos":
            b = -b if rng.random() < 0.75 else 0.0
        elif b_kind.startswith("tiny"):
            b = n * 10.0 ** rng.uniform(-12.0, -9.0) * (-1.0 if b_kind == "tiny_neg" else 1.0)
        if c_kind == "pos":
            c = mag()
        elif c_kind == "zero":
            c = 0.0
        elif c_kind == "neg":
            c = -mag()
        else:
            cb = _c_bar(n, b)
            if c_kind == "above_bar":
                c = cb * rng.uniform(0.01, 0.99)
            elif c_kind == "at_bar":
                c = cb + rng.uniform(-0.5, 0.5) * DEG_RTOL * (1.0 + abs(cb))
            else:
                c = cb * 10.0 ** rng.uniform(0.005, 2.0)
        rays.append((row, n, a, b, c))
    return {"rays": rays}


def _root_ok(n: float, b: float, c: float, t: float, degenerate: bool) -> bool:
    """g(t) = 0 to G_RTOL of its terms; a degenerate double root t_bar only
    promises g(t_bar) = alpha*(c - c_bar), inside the documented band."""
    a_, e_, b_ = EXP.alpha, EXP.eta, EXP.beta
    t1 = (e_ - a_) / e_ * n * t**e_
    t2 = (b_ - a_) / b_ * b * t**b_
    g = t1 - t2 + a_ * c
    band = a_ * DEG_RTOL * (1.0 + abs(_c_bar(n, b))) if degenerate else 0.0
    return t > 0.0 and abs(g) <= G_RTOL * (abs(t1) + abs(t2) + abs(a_ * c)) + band


def run_rays(state: dict, out_dir: str, refs: dict) -> list[Op]:
    ops = []
    for i, (row, n, a, b, c) in enumerate(state["rays"]):
        label, _, _, case, degenerate = RAY_ROWS[row]
        name = f"ray{i}:{label}"
        try:
            ray = fib.RayData(n=n, a=a, b=b, exponents=EXP)
            prof = fib.classify_and_solve(ray, c, deg_rtol=DEG_RTOL)
            roots = [t for t in (prof.t_plus, prof.t_minus) if t is not None]
            for t in roots:
                fib.restricted_lambda(ray, c, t)
        except (ValueError, RuntimeError, ZeroDivisionError, OverflowError) as exc:
            # the program refused the ray: a failed operation, not a wrong answer
            ops.append(Op(name, False, f"{type(exc).__name__}: {exc}"))
            continue
        want_roots = {fib.Case.NO_CRITICAL: 0, fib.Case.UNIQUE_MIN: 1,
                      fib.Case.UNIQUE_MAX: 1, fib.Case.TWO_ROOTS: 2}[case]
        if prof.case is not case or prof.degenerate != degenerate:
            ops.append(Op(name, False, f"case {prof.case.value} (degenerate="
                                       f"{prof.degenerate}), expected {case.value}", wrong=True))
        elif len(roots) != want_roots or not all(_root_ok(n, b, c, t, degenerate) for t in roots):
            ops.append(Op(name, False, f"roots {roots} miss g(t)=0", wrong=True))
        elif case is fib.Case.TWO_ROOTS and not degenerate and not roots[0] < roots[1]:
            ops.append(Op(name, False, f"roots out of order: {roots}", wrong=True))
        else:
            ops.append(Op(name, True))
    return ops


WORKLOADS = {
    "report": (build_report, run_report),
    "refine": (build_refine, run_refine),
    "intersect": (build_intersect, run_intersect),
    "rays": (build_rays, run_rays),
}
