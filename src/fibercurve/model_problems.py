"""Discretized model problems producing functional triples.

Two families are covered, both on uniform grids with forward-difference
gradients per cell and trapezoid-type quadrature (cell value = cell weight
times the mean of the integrand over the cell's corner nodes):

* Dirichlet p-Laplacian on a box: N(u) = sum |grad_h u|^p vol over cells,
  degrees of freedom are the interior nodes, boundary nodes are fixed at 0.
* Truncated whole-space problem on [-L, L]^dim: N(u) = sum (|grad_h u|^p
  + mean |u|^p) vol, every node is a degree of freedom, and the weights are
  expected to decay so the truncation is meaningful (checked, warning only).

Weights a (concave term) and b (convex term) live on cells.  They come from
expression strings evaluated at cell midpoints (grammar: + - * / ^, sin, cos,
exp, abs, constants, variables x and y) or from CSV files (one value per line
in 1D; a "rows,cols" header then row-major rows in 2D).

The flat degree-of-freedom ordering is C order over grid indices (x index
varies slowest in 2D).

One code path serves every dimension: Grid.interior selects the
degree-of-freedom nodes, quadrature and cone node masks loop over cell
corners, and the gradient kernel and the metric share one forward-difference
stencil (per axis, a difference at each cell's lower corner and its transpose
scatter).
Each grid kind has one metric M for sphere descent and one solver.  On 1D
grids M is K_w, the stiffness with cell weights |Du|^(p-2) (plus, on truncated
grids, the lumped mass weighted by |u|^(p-2)), rebuilt at every point
descent asks for at p != 2 and one fixed pair with unit weights at p = 2
(_weighted_metric).  Dirichlet grids solve it by a running sum, truncated
grids by the two Thomas sweeps as running products and cumulative sums.
2D Dirichlet grids keep the p = 2 stiffness at every p, solved by a DST-I
diagonalization applied with orthonormal sine matrices.  2D truncated grids
have no solver, and their triples keep the Euclidean metric, M = I.
"""

from __future__ import annotations

import ast
import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .functional_core import (
    Array, ConeTag, Exponents, FunctionalTriple, _euclidean, _inside_cone, cone_membership,
)
from .nehari_minmax import SphereConstraint, minimize_c0

__all__ = [
    "Grid",
    "PLaplacianProblem",
    "WeightField",
    "build_disjoint_basis",
    "build_triple",
    "cone_node_mask",
    "construct_weight_for_conjecture",
    "dirichlet_problem_1d",
    "dirichlet_problem_2d",
    "eval_weight_expression",
    "truncated_problem_1d",
    "weights_from_csv",
    "weights_from_expressions",
]


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid. n_nodes counts nodes per axis including endpoints.

    dirichlet grids fix the boundary nodes at 0; the others make every node a
    degree of freedom.
    """

    bounds: tuple[tuple[float, float], ...]
    n_nodes: tuple[int, ...]
    dirichlet: bool = True

    def __post_init__(self) -> None:
        if self.dimension not in (1, 2):
            raise ValueError(f"grid dimension must be 1 or 2, got {self.dimension}")
        if len(self.bounds) != self.dimension:
            raise ValueError("bounds and n_nodes must have one entry per axis")
        for (lo, hi), n in zip(self.bounds, self.n_nodes):
            if not (hi > lo):
                raise ValueError(f"empty axis bounds ({lo}, {hi})")
            min_nodes = 5 if self.dirichlet else 3
            if n < min_nodes:
                raise ValueError(
                    f"axis with {n} nodes rejected: need at least 3 interior nodes"
                    if self.dirichlet
                    else f"axis with {n} nodes rejected: need at least {min_nodes} nodes"
                )

    @property
    def dimension(self) -> int:
        return len(self.n_nodes)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple((hi - lo) / (n - 1) for (lo, hi), n in zip(self.bounds, self.n_nodes))

    @property
    def cell_shape(self) -> tuple[int, ...]:
        return tuple(n - 1 for n in self.n_nodes)

    @cached_property
    def dof_shape(self) -> tuple[int, ...]:
        if self.dirichlet:
            return tuple(n - 2 for n in self.n_nodes)
        return self.n_nodes

    @cached_property
    def n_dof(self) -> int:
        return int(np.prod(self.dof_shape))

    @cached_property
    def interior(self) -> tuple[slice, ...]:
        """Index of the degree-of-freedom nodes within the full node array."""
        keep = slice(1, -1) if self.dirichlet else slice(None)
        return (keep,) * self.dimension

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def node_coords(self, axis: int) -> Array:
        lo, hi = self.bounds[axis]
        return np.linspace(lo, hi, self.n_nodes[axis])

    def cell_midpoints(self, axis: int) -> Array:
        x = self.node_coords(axis)
        return 0.5 * (x[:-1] + x[1:])

    def midpoint_mesh(self) -> dict[str, Array]:
        """Cell-midpoint coordinate arrays keyed by variable name, cell-shaped."""
        mids = (self.cell_midpoints(axis) for axis in range(self.dimension))
        return dict(zip(("x", "y"), np.meshgrid(*mids, indexing="ij")))


# ---------------------------------------------------------------------------
# weight expressions and files

_EXPR_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}
_EXPR_CONSTS = {"pi": math.pi, "e": math.e}
_EXPR_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}


def eval_weight_expression(expr: str, coords: dict[str, Array]):
    """Evaluate a weight expression over coordinate arrays.

    Grammar: binary + - * / ^, unary minus, calls to sin/cos/exp/abs, numeric
    constants (not True or False), names pi and e, and the coordinate
    variables present in coords.  Anything else is rejected by name.
    """
    try:
        tree = ast.parse(expr.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse weight expression {expr!r}: {exc}") from None

    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant):
            if type(node.value) in (int, float):  # bool is an int subclass
                return float(node.value)
            raise ValueError(f"non-numeric constant {node.value!r} in weight expression")
        if isinstance(node, ast.Name):
            if node.id in coords:
                return coords[node.id]
            if node.id in _EXPR_CONSTS:
                return _EXPR_CONSTS[node.id]
            raise ValueError(f"unknown name {node.id!r} in weight expression")
        if isinstance(node, ast.BinOp):
            op = _EXPR_BINOPS.get(type(node.op))
            if op is None:
                raise ValueError(
                    f"operator {type(node.op).__name__} not allowed in weight expression"
                )
            return op(walk(node.left), walk(node.right))
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                return np.negative(walk(node.operand))
            if isinstance(node.op, ast.UAdd):
                return walk(node.operand)
            raise ValueError(
                f"operator {type(node.op).__name__} not allowed in weight expression"
            )
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _EXPR_FUNCS:
                raise ValueError("only sin, cos, exp, abs calls allowed in weight expression")
            if len(node.args) != 1 or node.keywords:
                raise ValueError(f"{node.func.id} takes exactly one argument")
            return _EXPR_FUNCS[node.func.id](walk(node.args[0]))
        raise ValueError(f"construct {type(node).__name__} not allowed in weight expression")

    # overflow and division by zero surface as the non-finite check below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        value = walk(tree)
    out = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"weight expression {expr!r} produced non-finite values")
    return out


@dataclass(frozen=True)
class WeightField:
    """Cell values of the concave weight a and convex weight b, plus provenance.

    provenance is a triple (kind, a_source, b_source) with kind "expression",
    "csv" or "array"; expression provenance enables the truncation doubling
    check for whole-space problems.
    """

    a: Array
    b: Array
    provenance: tuple[str, str, str] = ("array", "", "")

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        if self.a.shape != self.b.shape:
            raise ValueError(f"weight shapes differ: {self.a.shape} vs {self.b.shape}")
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.b))):
            raise ValueError("weights must be finite")


def weights_from_expressions(grid: Grid, a_expr: str, b_expr: str) -> WeightField:
    coords = grid.midpoint_mesh()
    a = np.broadcast_to(eval_weight_expression(a_expr, coords), grid.cell_shape).copy()
    b = np.broadcast_to(eval_weight_expression(b_expr, coords), grid.cell_shape).copy()
    return WeightField(a=a, b=b, provenance=("expression", a_expr, b_expr))


def _parse_tokens(path: str, kind: type, tokens: Sequence[str]) -> list:
    """The tokens of weight file path as kind (float or int); a bad one
    raises ValueError naming the file."""
    try:
        return [kind(tok) for tok in tokens]
    except ValueError as exc:
        raise ValueError(f"bad value in weight file {path}: {exc}") from None


def _read_weight_csv(path: str, cell_shape: tuple[int, ...]) -> Array:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(cell_shape) == 1:
        values = np.array(_parse_tokens(path, float, lines))
        if values.shape != cell_shape:
            raise ValueError(
                f"weight file {path} has {values.size} values, grid needs {cell_shape[0]}"
            )
        return values
    header = lines[0].split(",") if lines else []
    if len(header) != 2:
        raise ValueError(f'weight file {path} must start with a "rows,cols" header')
    rows, cols = _parse_tokens(path, int, header)
    if (rows, cols) != cell_shape:
        raise ValueError(
            f"weight file {path} declares {rows}x{cols} cells, grid needs "
            f"{cell_shape[0]}x{cell_shape[1]}"
        )
    flat = _parse_tokens(
        path, float, [tok for ln in lines[1:] for tok in ln.split(",") if tok.strip()]
    )
    if len(flat) != rows * cols:
        raise ValueError(f"weight file {path} has {len(flat)} values, expected {rows * cols}")
    return np.array(flat).reshape(rows, cols)


def weights_from_csv(grid: Grid, a_path: str, b_path: str) -> WeightField:
    a = _read_weight_csv(a_path, grid.cell_shape)
    b = _read_weight_csv(b_path, grid.cell_shape)
    return WeightField(a=a, b=b, provenance=("csv", a_path, b_path))


# ---------------------------------------------------------------------------
# problems


@dataclass(frozen=True)
class PLaplacianProblem:
    """Grid + weights + exponents for one discretized model problem.

    A dirichlet grid makes a Dirichlet problem; any other grid makes a
    truncated whole-space problem, which adds the |u|^p mass term to N and
    needs p > dimension.  eta equals p.  N is exactly p-homogeneous for every
    p > 1, p in (1, 2) included: N(tu) = t^p N(u).
    """

    grid: Grid
    weights: WeightField
    p: float
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        Exponents(self.alpha, self.p, self.beta)  # validates 1 < alpha < p < beta
        if self.weights.a.shape != self.grid.cell_shape:
            raise ValueError(
                f"weights shaped {self.weights.a.shape} do not match grid cells "
                f"{self.grid.cell_shape}"
            )
        if not self.grid.dirichlet and self.p <= self.grid.dimension:
            raise ValueError(
                f"truncated whole-space problems need p > dimension, got "
                f"p={self.p}, dimension={self.grid.dimension}"
            )

    @property
    def exponents(self) -> Exponents:
        return Exponents(self.alpha, self.p, self.beta)

    def diagnostics(self) -> tuple[str, ...]:
        """Warnings about the problem, never errors.

        The truncation checks of a whole-space problem come first, then the
        note when beta reaches the critical embedding exponent (never for
        p >= dimension).
        """
        notes = [] if self.grid.dirichlet else _decay_diagnostics(self)
        d, p = self.grid.dimension, self.p
        p_star = d * p / (d - p) if p < d else math.inf
        if self.beta >= p_star:
            notes.append(
                f"beta={self.beta} is at or above the critical exponent {p_star:.6g}; "
                "the continuum problem may lose compactness"
            )
        return tuple(notes)


def dirichlet_problem_1d(
    n_interior: int,
    a_expr: str,
    b_expr: str,
    p: float = 2.0,
    alpha: float = 1.5,
    beta: float = 4.0,
) -> PLaplacianProblem:
    """Dirichlet problem on [0, 1] with n_interior interior nodes.  A problem
    on another interval is built from Grid, weights_from_expressions and
    PLaplacianProblem."""
    grid = Grid(((0.0, 1.0),), (n_interior + 2,))
    weights = weights_from_expressions(grid, a_expr, b_expr)
    return PLaplacianProblem(grid, weights, p, alpha, beta)


def dirichlet_problem_2d(
    n_interior: tuple[int, int],
    a_expr: str,
    b_expr: str,
    p: float = 2.0,
    alpha: float = 1.5,
    beta: float = 4.0,
) -> PLaplacianProblem:
    """Dirichlet problem on the unit square with n_interior interior nodes
    per axis; another box is built as for dirichlet_problem_1d."""
    grid = Grid(((0.0, 1.0), (0.0, 1.0)), (n_interior[0] + 2, n_interior[1] + 2))
    weights = weights_from_expressions(grid, a_expr, b_expr)
    return PLaplacianProblem(grid, weights, p, alpha, beta)


def truncated_problem_1d(
    n_nodes: int,
    radius: float,
    a_expr: str,
    b_expr: str,
    p: float = 3.0,
    alpha: float = 1.5,
    beta: float = 4.0,
) -> PLaplacianProblem:
    grid = Grid(((-radius, radius),), (n_nodes,), dirichlet=False)
    weights = weights_from_expressions(grid, a_expr, b_expr)
    return PLaplacianProblem(grid, weights, p, alpha, beta)


# ---------------------------------------------------------------------------
# node-weight assembly (trapezoid quadrature)


def _cell_corners(grid: Grid):
    """Node-array slices of each cell's corners, the lower corner first.

    The first axis varies fastest, (lo, lo), (hi, lo), (lo, hi), (hi, hi) in
    2D, which is the order the node weights have always been summed in.
    """
    for corner in itertools.product((slice(None, -1), slice(1, None)), repeat=grid.dimension):
        yield corner[::-1]


def _node_weights_from_cells(grid: Grid, cell_values: Array) -> Array:
    """Scatter cell weights to nodes: each cell spreads evenly to its corners.

    The trapezoid quadrature sum over cells of w_cell * vol * mean_corners(f)
    equals the node sum of (scattered weight) * vol * f(node).
    """
    out = np.zeros(grid.n_nodes)
    share = 0.5**grid.dimension * cell_values
    for corner in _cell_corners(grid):
        out[corner] += share
    return out


def _dof_node_weights(grid: Grid, cell_values: Array) -> Array:
    return _node_weights_from_cells(grid, cell_values)[grid.interior]


def _embed(grid: Grid, u: Array) -> Array:
    """Place a flat DOF vector into the full node array (zero boundary if Dirichlet)."""
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n_dof,):
        raise ValueError(f"expected {grid.n_dof} coefficients, got shape {u.shape}")
    if not grid.dirichlet:
        return u.reshape(grid.n_nodes)
    full = np.zeros(grid.n_nodes)
    full[grid.interior] = u.reshape(grid.dof_shape)
    return full


def _restrict(grid: Grid, full: Array) -> Array:
    return full[grid.interior].ravel()


# ---------------------------------------------------------------------------
# triples


# The kernels below run on vectors of a few dozen entries, where numpy's
# Python-level wrappers cost more than the arithmetic.  np.add.reduce(x,
# axis=None) is the reduction np.sum(x) runs and full[hi] - full[lo] the
# subtraction np.diff(full, axis=i) runs, so the results are the same floats.


def _power_term(grid: Grid, node_w: Array, exponent: float):
    """Quadrature sum node_w * |u|^exponent * vol and its coefficient gradient.

    The gradient's weights node_w * (exponent * vol) are formed once, so a
    gradient call costs four array operations.
    """
    vol = grid.cell_volume
    grad_w = node_w * (exponent * vol)

    def value(u: Array) -> float:
        u = np.asarray(u, dtype=float)
        return float(np.add.reduce(node_w * np.abs(u) ** exponent, axis=None) * vol)

    def grad(u: Array) -> Array:
        u = np.asarray(u, dtype=float)
        return grad_w * np.copysign(np.abs(u) ** (exponent - 1.0), u)

    return value, grad


def _forward_differences(grid: Grid):
    """(differences, scatter, factors) of the per-cell forward-difference stencil.

    differences(full) lists, per axis i, g_i = (u[cell + e_i] - u[cell]) / h_i
    with each cell anchored at its lower corner.  scatter(c, scales) is its
    transpose: each cell's c_i * scales[i] leaves the lower corner and lands
    on corner + e_i.  The node gradient of vol * sum over cells of F(g) is
    scatter(dF/dg, factors), where factors[i] = vol / h_i is exactly 1.0 in
    1D.  The slices are built once, and the per-call loops are plain for
    loops: a comprehension costs one more Python frame per call.
    """
    lo = (slice(None, -1),) * grid.dimension
    his = [lo[:i] + (slice(1, None),) + lo[i + 1 :] for i in range(grid.dimension)]
    axes = list(zip(his, grid.spacing))

    def differences(full: Array) -> list[Array]:
        base = full[lo]
        g = []
        for hi, h in axes:
            g.append((full[hi] - base) / h)
        return g

    def scatter(coeffs: list[Array], scales: list[float]) -> Array:
        out = np.zeros(grid.n_nodes)
        for hi, c, s in zip(his, coeffs, scales):
            c = c * s
            out[lo] -= c
            out[hi] += c
        return out

    return differences, scatter, [grid.cell_volume / h for h in grid.spacing]


def _gradient_part(grid: Grid, p: float):
    """Value and full-node gradient of vol * sum over cells of |g|^p.

    The gradient scatters p |g|^(p-2) g.  For p < 2 the cell weight
    |g|^(p-2) is infinite where g = 0, while the p-gradient |g|^(p-2) g is
    continuous there and equals 0.  Flat cells therefore take the finite
    base 1 instead of 0; m * g is still 0 there, so every p > 1 runs one
    warning-free expression, and for p >= 2 the floats are those of the
    plain power.
    """
    differences, scatter, factors = _forward_differences(grid)
    vol = grid.cell_volume
    scales = [p * f for f in factors]

    def value(full: Array) -> float:
        mag2 = 0.0
        for g in differences(full):
            mag2 = mag2 + g * g
        return float(np.add.reduce(mag2 ** (p / 2.0), axis=None) * vol)

    def grad_full(full: Array) -> Array:
        g = differences(full)
        mag2 = 0.0
        for gi in g:
            mag2 = mag2 + gi * gi
        m = np.where(mag2 > 0.0, mag2, 1.0) ** ((p - 2.0) / 2.0)
        for gi in g:
            gi *= m
        return scatter(g, scales)

    return value, grad_full


def _recurrence(q: Array, w: Array, step: int):
    """u -> z with z_i = q_i z_{i-step} + w_i u_i along z[::step], where
    q > 0 and z = w u at the first entry (q is not read there).

    z = P cumsum(w u / P), with P the running product of q: the
    semiseparable form of a bidiagonal inverse (Meurant, SIAM J. Matrix
    Anal. Appl. 13, 1992).  P restarts at 1 in blocks before it falls below
    1e-150, so w / P stays finite; a block starts on the last entry of the
    one before, which carries z across.
    """
    q, w = q[::step], w[::step].copy()
    blocks, s, e = [], 0, 0
    while e < q.size:
        P = np.multiply.accumulate(np.concatenate([[1.0], q[s + 1 :]]))
        below = np.flatnonzero(P < 1e-150)
        e = s + max(2, below[0]) if below.size else q.size
        w[s + 1 : e] /= P[1 : e - s]
        blocks.append((slice(s, e), P[: e - s]))
        s = e - 1
    w = w[::step]

    def run(u: Array) -> Array:
        z = u * w
        for block, P in blocks:
            segment = z[::step][block]
            np.add.accumulate(segment, out=segment)
            segment *= P
        return z

    return run


def _tridiagonal_solver(diag: Array, off: Array):
    """M^{-1} v for the symmetric tridiagonal M with diagonal diag and off-diagonal off < 0.

    off holds the n - 1 entries M[i, i + 1].  The Thomas pivots are computed
    once.  Both sweeps are recurrences: forward y_i = q_i y_{i-1} + v_i /
    pivot_i with q_i = -off_{i-1} / pivot_i, then backward x_i = q_i x_{i+1}
    + y_i with q_i = -off_i / pivot_i.  For a stiffness with positive cell
    weights plus a nonnegative diagonal, pivot_i >= -off_i, so the backward
    ratios lie in (0, 1] and a forward product from k to i is at most the
    ratio of the cell weights at k and i.
    """
    inverses = []
    append = inverses.append
    ratio = below = 0.0
    for d, o in zip(diag.tolist(), off.tolist() + [0.0]):
        inv = 1.0 / (d - below * ratio)
        append(inv)
        ratio = o * inv
        below = o
    inv_pivot = np.fromiter(inverses, float, diag.size)
    # the first entry of each sweep reads no ratio
    forward = _recurrence(np.concatenate([[1.0], -off * inv_pivot[1:]]), inv_pivot, 1)
    backward = _recurrence(
        np.concatenate([-off * inv_pivot[:-1], [1.0]]), np.ones(diag.size), -1
    )

    def solve(v: Array) -> Array:
        return backward(forward(v))

    return solve


def _dirichlet_2d_metric(grid: Grid):
    """metric_at of a 2D Dirichlet grid: the 5-point stiffness M at every point.

    M is half the Hessian of the p = 2 gradient part, so v^T M v = N(v) at
    p = 2, and it stays the metric at every p.  apply scatters the
    differences themselves through the gradient kernel's stencil: the same
    floats as half the p = 2 kernel, whose factors 2 and 0.5 are exact,
    without its powers.  DST-I diagonalizes M on both axes: S = sqrt(2 /
    (n + 1)) sin(pi j k / (n + 1)) is orthonormal and symmetric on each
    axis, so M^{-1} V = S0 ((S0 V S1) * scale) S1.
    """
    shape = grid.dof_shape
    sines, eig = [], []
    for n, h in zip(shape, grid.spacing):
        k = np.arange(1, n + 1)
        phase = np.outer(k, k) % (2 * (n + 1))  # exact, so every sine argument is in [0, 2 pi)
        sines.append(np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * phase / (n + 1)))
        eig.append(4.0 * np.sin(np.pi * k / (2.0 * (n + 1))) ** 2 / h**2)
    s0, s1 = sines
    scale = 1.0 / (grid.cell_volume * (eig[0][:, None] + eig[1][None, :]))
    differences, scatter, factors = _forward_differences(grid)

    def apply(v: Array) -> Array:
        return _restrict(grid, scatter(differences(_embed(grid, v)), factors))

    def solve(v: Array) -> Array:
        return (s0 @ ((s0 @ np.reshape(v, shape) @ s1) * scale) @ s1).ravel()

    pair = (apply, solve)
    return lambda u: pair  # the same pair at every point: descent applies it once


# Largest-to-smallest ratio of the weights of the p-Laplacian metric
# (_weighted_metric).  At 1000 the 1D Dirichlet p = 4 plus level took 182 to
# 267 iterations at n = 31 to 127, against 12 to 20 at 100 (p = 1.5 did
# better at 1000: 31 iterations against 84 at n = 1023).
_WEIGHT_RATIO = 100.0


def _weighted_metric(grid: Grid, p: float, mass_w: Array | None):
    """metric_at of a 1D grid: u -> (apply, solve) of M(u) = K_w.

    K_w is the stiffness with cell weights |Du|^(p-2), the p-Laplacian's
    own weight (Huang, Li and Liu, J. Sci. Comput. 32, 2007), and on
    truncated grids M(u) adds the lumped mass weighted by |u|^(p-2), so
    v^T M(u) v = N(v) at p = 2.  At p = 2 every weight is 1, and metric_at
    returns one pair at every point, which descent applies once.  At other
    p each set of weights is clipped so that none differs from another of
    the set by more than _WEIGHT_RATIO: for p < 2 the weight of a flat cell
    is infinite, and for p > 2 it is 0.  The floor's ratio to the largest
    magnitude, _WEIGHT_RATIO^(-1/|p-2|), is kept at least the smallest
    normal float, where near p = 2 it would underflow to 0.  A set whose
    magnitudes are all 0 (the slopes of a constant u) gets weight 1.

    On Dirichlet grids M(u) x = v has a closed form.  The flux w_j Dx_j of
    cell j is q0 - S_j, with S_j the sum of v over the nodes left of the
    cell's right end, and the increments (q0 - S_j) r_j with r_j = h / w_j
    sum to 0 over the cells, which fixes q0 = sum S_j r_j / sum r_j; x is
    their running sum, so a rebuild and a solve are a few array operations.
    Truncated grids refactor the tridiagonal M(u) (_tridiagonal_solver).
    """
    h = grid.spacing[0]
    differences, scatter, factors = _forward_differences(grid)
    mass = None if mass_w is None else mass_w * grid.cell_volume

    def pair(w: Array, m: Array | None):
        """(apply, solve) of the stiffness with cell weights w plus diag(m)."""

        def stiffness(v: Array) -> Array:
            return _restrict(grid, scatter([w * differences(_embed(grid, v))[0]], factors))

        if m is None:
            r = h / w
            total = float(np.add.reduce(r))

            def solve(v: Array) -> Array:
                sums = np.concatenate([[0.0], np.add.accumulate(v)])
                q0 = float(sums @ r) / total
                return np.add.accumulate((q0 - sums[:-1]) * r[:-1])

            return stiffness, solve

        off = w * (-1.0 / h)
        diag = m.copy()
        diag[:-1] -= off
        diag[1:] -= off

        def apply(v: Array) -> Array:
            return stiffness(v) + m * v

        return apply, _tridiagonal_solver(diag, off)

    if p == 2.0:
        fixed = pair(np.ones(grid.cell_shape), mass)
        return lambda u: fixed

    floor_ratio = max(_WEIGHT_RATIO ** (-1.0 / abs(p - 2.0)), np.finfo(float).tiny)

    def weights(magnitudes: Array) -> Array:
        top = float(magnitudes.max())
        if top == 0.0:
            return np.ones_like(magnitudes)
        return np.maximum(magnitudes, top * floor_ratio) ** (p - 2.0)

    def metric_at(u: Array):
        w = weights(np.abs(differences(_embed(grid, u))[0]))
        return pair(w, None if mass is None else mass * weights(np.abs(u)))

    return metric_at


def _decay_diagnostics(problem: PLaplacianProblem) -> list[str]:
    """Truncation health checks for whole-space problems; warnings, never errors."""
    notes: list[str] = []
    grid = problem.grid
    for name, cell in (("a", problem.weights.a), ("b", problem.weights.b)):
        total = float(np.sum(np.abs(cell))) * grid.cell_volume
        if total == 0.0:
            continue
        quarter = [max(1, n // 4) for n in cell.shape]
        inner = cell[tuple(slice(q, -q) for q in quarter)]
        tail = total - float(np.sum(np.abs(inner))) * grid.cell_volume
        if tail / total > 0.2:
            notes.append(
                f"weight {name} carries {tail / total:.1%} of its mass in the outer "
                "quarter of the truncated domain; the truncation radius may be too small"
            )
    kind, a_src, b_src = problem.weights.provenance
    if kind == "expression":
        # each axis doubles about its own midpoint
        axes = [(0.5 * (lo + hi), hi - lo) for lo, hi in grid.bounds]
        doubled = Grid(
            tuple((mid - width, mid + width) for mid, width in axes),
            tuple(2 * (n - 1) + 1 for n in grid.n_nodes),
            dirichlet=False,
        )
        # a constant expression spreads over every cell, as on the original grid
        wide = weights_from_expressions(doubled, a_src, b_src)
        for name, cell, wide_cell in (
            ("a", problem.weights.a, wide.a), ("b", problem.weights.b, wide.b)
        ):
            mass = float(np.sum(np.abs(cell))) * grid.cell_volume
            mass2 = float(np.sum(np.abs(wide_cell))) * doubled.cell_volume
            if mass > 0.0 and (mass2 - mass) / mass > 0.01:
                notes.append(
                    f"weight {name} gains {(mass2 - mass) / mass:.1%} more absolute mass when "
                    "the truncation radius doubles; it may not be integrable"
                )
    return notes


def build_triple(problem: PLaplacianProblem) -> FunctionalTriple:
    """Triple of a model problem; N is the p-th power of its W^{1,p} norm.

    On Dirichlet problems that is the gradient seminorm; truncated
    whole-space problems add the |u|^p mass term, which also enters the
    metric.  The metric follows the grid: K_w on 1D grids at every p
    (_weighted_metric), the p = 2 stiffness on 2D Dirichlet grids
    (_dirichlet_2d_metric), and the triple's default Euclidean metric on 2D
    truncated grids.
    """
    grid = problem.grid
    n_value, n_grad_full = _gradient_part(grid, problem.p)
    abar = _dof_node_weights(grid, problem.weights.a).ravel()
    bbar = _dof_node_weights(grid, problem.weights.b).ravel()
    a_value, a_grad = _power_term(grid, abar, problem.alpha)
    b_value, b_grad = _power_term(grid, bbar, problem.beta)

    if grid.dirichlet:
        mass_w = None

        def eval_n(u: Array) -> float:
            return n_value(_embed(grid, u))

        def grad_n(u: Array) -> Array:
            return _restrict(grid, n_grad_full(_embed(grid, u)))

    else:
        mass_w = _dof_node_weights(grid, np.ones(grid.cell_shape)).ravel()
        m_value, m_grad = _power_term(grid, mass_w, problem.p)

        def eval_n(u: Array) -> float:
            return n_value(_embed(grid, u)) + m_value(u)

        def grad_n(u: Array) -> Array:
            return _restrict(grid, n_grad_full(_embed(grid, u))) + m_grad(u)

    if grid.dimension == 1:
        metric_at = _weighted_metric(grid, problem.p, mass_w)
    elif grid.dirichlet:
        metric_at = _dirichlet_2d_metric(grid)
    else:
        # The truncated 2D stencil has no x-differences along the last row of
        # nodes, so its stiffness is not a Kronecker sum and no sine transform
        # diagonalizes it; descent keeps the Euclidean metric there.
        metric_at = _euclidean

    return FunctionalTriple(
        exponents=problem.exponents,
        dim=grid.n_dof,
        eval_N=eval_n,
        eval_A=a_value,
        eval_B=b_value,
        grad_N=grad_n,
        grad_A=a_grad,
        grad_B=b_grad,
        metric_at=metric_at,
    )


# ---------------------------------------------------------------------------
# cone node masks, surrogate bases


def _nodes_with_all_adjacent_cells(grid: Grid, cell_ok: Array) -> Array:
    """Boolean DOF mask of nodes whose every adjacent cell satisfies cell_ok."""
    ok = np.ones(grid.n_nodes, dtype=bool)
    for corner in _cell_corners(grid):
        ok[corner] &= cell_ok
    return ok[grid.interior].ravel()


def cone_node_mask(problem: PLaplacianProblem, tag: ConeTag) -> Array:
    """DOF mask of nodes where any supported vector is guaranteed inside the cone.

    A node qualifies when every adjacent cell has the required strict weight
    signs (a of the tag's sign; b > 0 where the tag demands it), so the
    trapezoid quadrature of any vector supported on qualifying nodes has the
    right signs.
    """
    a_cell = problem.weights.a * tag.a_sign
    ok = a_cell > 0.0
    if tag.needs_b_pos:
        ok = ok & (problem.weights.b > 0.0)
    return _nodes_with_all_adjacent_cells(problem.grid, ok)


def build_disjoint_basis(problem: PLaplacianProblem, tag: ConeTag, k: int) -> Array:
    """k unit vectors with pairwise disjoint node supports inside the cone mask.

    The qualifying nodes are split into k blocks along the first grid axis
    with a one-column gap between consecutive blocks, so any nonzero linear
    combination stays strictly inside the cone (the quadrature decomposes over
    the disjoint supports).  The gap column is what makes N additive: no
    difference quotient of the gradient term spans two blocks, so
    N(sum_i xi_i e_i) = sum_i |xi_i|**p N(e_i), as A and B are by their
    node-wise quadrature.  Genus surrogates rely on this.  Raises when the
    mask cannot host k such blocks.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    mask = cone_node_mask(problem, tag)
    grid = problem.grid
    dof_shape = grid.dof_shape
    mask_grid = mask.reshape(dof_shape)
    axis_has = mask_grid.any(axis=tuple(range(1, grid.dimension)))
    cols = np.flatnonzero(axis_has)
    if cols.size < 2 * k - 1:
        raise ValueError(
            f"cone support spans {cols.size} grid columns; cannot host {k} disjoint blocks"
        )
    # split the support columns into k nearly equal runs, dropping one column between runs
    pieces = np.array_split(cols, k)
    triple = build_triple(problem)
    basis = np.zeros((k, grid.n_dof))
    for i, piece in enumerate(pieces):
        use = piece[:-1] if i < k - 1 and piece.size > 1 else piece
        block = np.zeros(dof_shape, dtype=bool)
        block[use] = True
        sel = block.ravel() & mask
        if not sel.any():
            raise ValueError(f"disjoint block {i} is empty; refine the grid or lower k")
        v = np.zeros(grid.n_dof)
        v[sel] = 1.0
        v /= triple.norm_of(v)
        member, margin = cone_membership(triple, tag, v)
        if not member:
            raise ValueError(
                f"disjoint block {i} failed the cone check (margin {margin!r}); "
                "weights change sign too quickly for this grid"
            )
        basis[i] = v
    return basis


# ---------------------------------------------------------------------------
# conjecture-supporting weight construction


def _bump_values(grid: Grid, center: Sequence[float] | float, radius: float) -> Array:
    """Smooth bump on cells: exp(1 - 1/(1 - r^2)) inside the ball, 0 outside."""
    center = np.ravel(center).astype(float)
    if center.size < grid.dimension:
        raise ValueError(f"bump_center needs {grid.dimension} coordinates, got {center.size}")
    r2 = sum(((x - cx) / radius) ** 2 for x, cx in zip(grid.midpoint_mesh().values(), center))
    out = np.zeros(grid.cell_shape)
    inside = r2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    return out


def construct_weight_for_conjecture(
    problem: PLaplacianProblem,
    bump_center: Sequence[float] | float,
    bump_radius: float,
    multistart: int = 16,
    seed: int = 0,
) -> tuple[WeightField, float]:
    """Concave weight a = b_plus - eps * bump keeping every zero-level minimizer in the A > 0 cone.

    b_plus is the positive part of the problem's convex weight.  The bump must
    sit inside a ball where b_plus vanishes (checked).  The zero-level
    objective and its minimizers depend only on (N, B), so the minimizer set
    is computed once and the largest eps of the schedule top * 0.5**j
    (j = 0, ..., 10, top the largest b_plus), then 0, that keeps every found
    minimizer inside the A_eps > 0 cone (by the one cone rule,
    functional_core._inside_cone) is returned.  Raises when the schedule is
    exhausted, naming the violating minimizer.
    """
    grid = problem.grid
    b_cell = problem.weights.b
    theta = _bump_values(grid, bump_center, bump_radius)
    support = theta > 0.0
    if not support.any():
        raise ValueError("bump support contains no cells; enlarge bump_radius")
    if np.any(b_cell[support] > 0.0):
        raise ValueError(
            "bump support touches cells with b > 0; the construction needs the "
            "positive part of b to vanish on an open ball around the bump"
        )
    b_plus = np.maximum(b_cell, 0.0)
    top = float(np.max(b_plus))
    if top == 0.0:
        raise ValueError("b has no positive part; the construction is empty")
    schedule = [top * 0.5**j for j in range(11)] + [0.0]

    # minimizers of the zero-level objective over the b > 0 cone
    probe = replace(
        problem,
        weights=WeightField(a=b_plus, b=b_cell, provenance=("array", "b_plus", "b")),
    )
    triple = build_triple(probe)
    support_mask = cone_node_mask(probe, ConeTag.A_POS_B_POS)
    _, minimizers = minimize_c0(
        SphereConstraint(triple, start_support=support_mask), multistart=multistart, seed=seed
    )

    # A_eps(u) = A_+(u) - eps * A_bump(u), each part the A quadrature of build_triple
    pos_a, bump_a = (
        _power_term(grid, _dof_node_weights(grid, cell).ravel(), problem.alpha)[0]
        for cell in (b_plus, theta)
    )
    pos_part = [pos_a(u) for u in minimizers]
    bump_part = [bump_a(u) for u in minimizers]

    for eps in schedule:
        if all(_inside_cone(pa - eps * ba) for pa, ba in zip(pos_part, bump_part)):
            a_cell = b_plus - eps * theta
            return (
                WeightField(
                    a=a_cell,
                    b=b_cell,
                    provenance=("array", f"b_plus - {eps!r} * bump", "b"),
                ),
                eps,
            )
    bad = int(np.argmin([pa - schedule[-1] * ba for pa, ba in zip(pos_part, bump_part)]))
    raise ValueError(
        f"eps schedule exhausted: zero-level minimizer #{bad} has "
        f"A = {pos_part[bad] - schedule[-1] * bump_part[bad]!r} at eps={schedule[-1]!r}"
    )
