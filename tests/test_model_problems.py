"""Grid, weights, discretized triples, sign structure, basis construction."""

from dataclasses import replace

import numpy as np
import pytest

from fibercurve.functional_core import ConeTag, cone_membership
from fibercurve.model_problems import (
    Grid,
    PLaplacianProblem,
    WeightField,
    build_disjoint_basis,
    build_triple,
    cone_node_mask,
    construct_weight_for_conjecture,
    dirichlet_problem_1d,
    dirichlet_problem_2d,
    eval_weight_expression,
    truncated_problem_1d,
    weights_from_csv,
    weights_from_expressions,
)
from fibercurve.model_problems import (
    _WEIGHT_RATIO,
    _dof_node_weights,
    _embed,
    _gradient_part,
    _restrict,
)


class TestGrid:
    def test_basic_geometry(self):
        g = Grid(((0.0, 2.0),), (11,))
        assert g.spacing == (0.2,)
        assert g.cell_shape == (10,)
        assert g.dimension == 1
        assert g.dof_shape == (9,)
        assert g.n_dof == 9
        assert g.cell_volume == pytest.approx(0.2)
        assert np.allclose(g.node_coords(0), np.linspace(0, 2, 11))
        assert np.allclose(g.cell_midpoints(0), np.linspace(0.1, 1.9, 10))

    def test_2d_geometry(self):
        g = Grid(((0.0, 1.0), (0.0, 2.0)), (5, 9))
        assert g.dimension == 2
        assert g.spacing == (0.25, 0.25)
        assert g.cell_volume == pytest.approx(0.0625)
        assert g.dof_shape == (3, 7)
        assert g.n_dof == 21
        mesh = g.midpoint_mesh()
        assert mesh["x"].shape == (4, 8)
        assert mesh["y"].shape == (4, 8)

    def test_non_dirichlet_dofs_are_all_nodes(self):
        g = Grid(((-1.0, 1.0),), (7,), dirichlet=False)
        assert g.dof_shape == (7,)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError, match="dimension must be 1 or 2"):
            Grid(((0, 1), (0, 1), (0, 1)), (5, 5, 5))

    def test_rejects_mismatched_axes(self):
        with pytest.raises(ValueError, match="one entry per axis"):
            Grid(((0, 1),), (5, 5))

    def test_rejects_empty_bounds(self):
        with pytest.raises(ValueError, match="empty axis bounds"):
            Grid(((1.0, 1.0),), (5,))

    def test_rejects_too_few_nodes(self):
        with pytest.raises(ValueError, match="rejected"):
            Grid(((0.0, 1.0),), (4,))
        with pytest.raises(ValueError, match="rejected"):
            Grid(((0.0, 1.0),), (2,), dirichlet=False)
        # 3 nodes is enough without a boundary condition
        Grid(((0.0, 1.0),), (3,), dirichlet=False)


class TestWeightExpressions:
    def test_arithmetic_and_names(self):
        x = np.array([0.0, 0.5, 1.0])
        out = eval_weight_expression("2*x + 1", {"x": x})
        assert np.allclose(out, [1.0, 2.0, 3.0])
        out = eval_weight_expression("sin(pi*x)", {"x": x})
        assert np.allclose(out, [0.0, 1.0, 0.0], atol=1e-15)
        out = eval_weight_expression("x^2 - e", {"x": x})
        assert np.allclose(out, x**2 - np.e)
        out = eval_weight_expression("-abs(x - 0.5)", {"x": x})
        assert np.allclose(out, -np.abs(x - 0.5))

    def test_unary_plus_keeps_its_operand(self):
        x = np.array([0.0, 0.5, 1.0])
        assert np.array_equal(eval_weight_expression("+x - +1", {"x": x}), x - 1.0)

    def test_scalar_expression_broadcasts(self):
        out = eval_weight_expression("1 + 2", {"x": np.zeros(4)})
        assert out.shape == ()
        assert float(out) == 3.0

    def test_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown name 'q'"):
            eval_weight_expression("q + 1", {"x": np.zeros(3)})

    def test_rejects_unknown_call(self):
        with pytest.raises(ValueError, match="only sin, cos, exp, abs"):
            eval_weight_expression("tan(x)", {"x": np.zeros(3)})

    def test_rejects_constructs(self):
        with pytest.raises(ValueError, match="not allowed"):
            eval_weight_expression("[1, 2]", {"x": np.zeros(3)})
        with pytest.raises(ValueError, match="not allowed"):
            eval_weight_expression("x % 2", {"x": np.zeros(3)})
        with pytest.raises(ValueError):
            eval_weight_expression("__import__('os')", {"x": np.zeros(3)})

    @pytest.mark.parametrize("expr", ["1+True", "x*False+2"])
    def test_rejects_bool_constants(self, expr):
        # bool is an int in Python, but the grammar admits numbers only
        with pytest.raises(ValueError, match="non-numeric constant"):
            eval_weight_expression(expr, {"x": np.zeros(3)})

    def test_rejects_syntax_error(self):
        with pytest.raises(ValueError, match="cannot parse"):
            eval_weight_expression("1 +", {"x": np.zeros(3)})

    def test_rejects_non_finite_result(self):
        with pytest.raises(ValueError, match="non-finite"):
            eval_weight_expression("exp(1000*x + 1000)", {"x": np.ones(3)})


class TestWeightField:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="weight shapes differ"):
            WeightField(a=np.zeros(4), b=np.zeros(5))

    def test_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            WeightField(a=np.array([1.0, np.nan]), b=np.zeros(2))

    def test_expression_provenance(self):
        g = Grid(((0.0, 1.0),), (6,))
        w = weights_from_expressions(g, "1+x", "cos(2*pi*x)")
        assert w.a.shape == (5,)
        assert w.provenance == ("expression", "1+x", "cos(2*pi*x)")
        mids = g.cell_midpoints(0)
        assert np.allclose(w.a, 1 + mids)
        assert np.allclose(w.b, np.cos(2 * np.pi * mids))

    def test_csv_round_trip_1d(self, tmp_path):
        g = Grid(((0.0, 1.0),), (6,))
        a = np.linspace(-1, 1, 5)
        b = np.linspace(2, 3, 5)
        pa = tmp_path / "a.csv"
        pb = tmp_path / "b.csv"
        pa.write_text("\n".join(repr(float(v)) for v in a))
        pb.write_text("\n".join(repr(float(v)) for v in b))
        w = weights_from_csv(g, str(pa), str(pb))
        assert np.array_equal(w.a, a)
        assert np.array_equal(w.b, b)
        assert w.provenance[0] == "csv"

    def test_csv_round_trip_2d(self, tmp_path):
        g = Grid(((0.0, 1.0), (0.0, 1.0)), (5, 6))
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 5))
        lines = ["4,5"] + [",".join(repr(float(v)) for v in row) for row in a]
        pa = tmp_path / "a.csv"
        pa.write_text("\n".join(lines))
        w = weights_from_csv(g, str(pa), str(pa))
        assert np.array_equal(w.a, a)

    def test_csv_wrong_count(self, tmp_path):
        g = Grid(((0.0, 1.0),), (6,))
        pa = tmp_path / "a.csv"
        pa.write_text("1.0\n2.0\n")
        with pytest.raises(ValueError, match="grid needs 5"):
            weights_from_csv(g, str(pa), str(pa))

    def test_csv_2d_needs_header(self, tmp_path):
        g = Grid(((0.0, 1.0), (0.0, 1.0)), (5, 5))
        pa = tmp_path / "a.csv"
        pa.write_text("1.0,2.0,3.0,4.0\n" * 4)
        with pytest.raises(ValueError, match="header"):
            weights_from_csv(g, str(pa), str(pa))

    def test_csv_2d_empty_file_needs_header(self, tmp_path):
        g = Grid(((0.0, 1.0), (0.0, 1.0)), (5, 5))
        pa = tmp_path / "a.csv"
        pa.write_text("\n")
        with pytest.raises(ValueError, match="header"):
            weights_from_csv(g, str(pa), str(pa))


class TestProblemValidation:
    def test_rejects_weight_shape_mismatch(self):
        g = Grid(((0.0, 1.0),), (8,))
        w = WeightField(a=np.ones(3), b=np.ones(3))
        with pytest.raises(ValueError, match="do not match grid cells"):
            PLaplacianProblem(g, w, 2.0, 1.5, 4.0)

    def test_truncated_needs_free_grid_and_large_p(self):
        # p > dimension can only fail in 2d since p > alpha > 1 always holds
        free2 = Grid(((-2.0, 2.0), (-2.0, 2.0)), (7, 7), dirichlet=False)
        wf = weights_from_expressions(free2, "1", "1")
        with pytest.raises(ValueError, match="p > dimension"):
            PLaplacianProblem(free2, wf, 2.0, 1.5, 4.0)

    def test_sobolev_warning_only_below_dimension(self):
        # 1d with p >= 1 never warns
        assert dirichlet_problem_1d(9, "1", "1", p=2.0).diagnostics() == ()
        # 2d, p = 1.5: critical exponent is 2*1.5/0.5 = 6
        warn = dirichlet_problem_2d((6, 6), "1", "1", p=1.5, alpha=1.2, beta=6.5)
        (msg,) = warn.diagnostics()
        assert "critical exponent" in msg
        ok = dirichlet_problem_2d((6, 6), "1", "1", p=1.5, alpha=1.2, beta=5.0)
        assert ok.diagnostics() == ()


class TestQuadratureOracle:
    """Hand-computed values for single-node spikes on constant weights."""

    def test_1d_spike(self):
        n_int = 9
        prob = dirichlet_problem_1d(n_int, "1", "1", p=2.0, alpha=1.5, beta=4.0)
        tri = build_triple(prob)
        h = prob.grid.spacing[0]
        u = np.zeros(n_int)
        u[4] = 1.0
        # derivative is +-1/h on the two adjacent cells
        assert tri.eval_N(u) == pytest.approx(2.0 / h, rel=1e-13)
        # trapezoid rule gives the spike node full cell weight h
        assert tri.eval_A(u) == pytest.approx(h, rel=1e-13)
        assert tri.eval_B(u) == pytest.approx(h, rel=1e-13)

    def test_1d_plateau_p3(self):
        n_int = 9
        prob = dirichlet_problem_1d(n_int, "1", "1", p=3.0, alpha=1.5, beta=4.0)
        tri = build_triple(prob)
        h = prob.grid.spacing[0]
        u = np.zeros(n_int)
        u[3] = u[4] = 1.0
        # two sloped end cells, flat middle: N = 2 * h^(1-p)
        assert tri.eval_N(u) == pytest.approx(2.0 * h ** (1.0 - 3.0), rel=1e-13)
        assert tri.eval_A(u) == pytest.approx(2.0 * h, rel=1e-13)

    def test_1d_scaled_spike(self):
        n_int = 7
        prob = dirichlet_problem_1d(n_int, "1", "1", p=2.0, alpha=1.5, beta=4.0)
        tri = build_triple(prob)
        h = prob.grid.spacing[0]
        u = np.zeros(n_int)
        u[2] = -0.7
        assert tri.eval_N(u) == pytest.approx(2.0 * 0.7**2 / h, rel=1e-13)
        assert tri.eval_A(u) == pytest.approx(0.7**1.5 * h, rel=1e-13)
        assert tri.eval_B(u) == pytest.approx(0.7**4 * h, rel=1e-13)

    def test_2d_spike(self):
        prob = dirichlet_problem_2d((5, 7), "1", "1", p=2.0)
        tri = build_triple(prob)
        grid = prob.grid
        hx, hy = grid.spacing
        vol = grid.cell_volume
        u = np.zeros(grid.n_dof)
        u[2 * grid.dof_shape[1] + 3] = 1.0
        assert tri.eval_N(u) == pytest.approx(vol * (2.0 / hx**2 + 2.0 / hy**2), rel=1e-13)
        assert tri.eval_A(u) == pytest.approx(vol, rel=1e-13)

    def test_truncated_adds_mass_term(self):
        prob = truncated_problem_1d(9, 2.0, "1", "1", p=3.0)
        tri = build_triple(prob)
        h = prob.grid.spacing[0]
        u = np.zeros(prob.grid.n_dof)
        u[4] = 1.0
        # gradient part 2/h^2 plus the |u|^p mass h
        assert tri.eval_N(u) == pytest.approx(2.0 / h**2 + h, rel=1e-13)
        # boundary node of the free grid only gets half a cell of weight
        v = np.zeros(prob.grid.n_dof)
        v[0] = 1.0
        assert tri.eval_A(v) == pytest.approx(0.5 * h, rel=1e-13)


def _reference_metric_solve(problem):
    """M^{-1} v by the per-entry Thomas sweep in 1D and the FFT DST-I on 2D
    Dirichlet grids: the loops and transforms the whole-array solves replace."""
    grid = problem.grid
    if grid.dimension == 1:
        h = grid.spacing[0]
        off = -1.0 / h
        diag = np.full(grid.n_dof, 2.0 / h)
        if not grid.dirichlet:
            diag[[0, -1]] = 1.0 / h
            diag += _dof_node_weights(grid, np.ones(grid.cell_shape)).ravel() * grid.cell_volume
        n = diag.size
        inv_pivot, ratio = [0.0] * n, [0.0] * n
        for i in range(n):
            inv_pivot[i] = 1.0 / (float(diag[i]) - (off * ratio[i - 1] if i else 0.0))
            ratio[i] = off * inv_pivot[i]

        def solve_1d(v):
            x = np.asarray(v, dtype=float).tolist()
            prev = 0.0
            for i in range(n):
                prev = (x[i] - off * prev) * inv_pivot[i]
                x[i] = prev
            for i in range(n - 2, -1, -1):
                x[i] -= ratio[i] * x[i + 1]
            return np.array(x)

        return solve_1d

    def dst1(x, axis):
        # X_k = sum_j x_j sin(pi j k / (n + 1)), the imaginary part of the
        # FFT of the odd extension (0, x, 0, -reversed x)
        x = np.moveaxis(x, axis, -1)
        n = x.shape[-1]
        zero = np.zeros(x.shape[:-1] + (1,))
        ext = np.concatenate([zero, x, zero, -x[..., ::-1]], axis=-1)
        return np.moveaxis(-0.5 * np.fft.rfft(ext, axis=-1).imag[..., 1 : n + 1], -1, axis)

    shape = grid.dof_shape
    eig = [
        4.0 * np.sin(np.pi * np.arange(1, n + 1) / (2.0 * (n + 1))) ** 2 / h**2
        for n, h in zip(shape, grid.spacing)
    ]
    norm = (2.0 / (shape[0] + 1)) * (2.0 / (shape[1] + 1))
    scale = norm / (grid.cell_volume * (eig[0][:, None] + eig[1][None, :]))

    def solve_2d(v):
        coeffs = dst1(dst1(np.reshape(v, shape), 0), 1) * scale
        return dst1(dst1(coeffs, 0), 1).ravel()

    return solve_2d


def _p2_pair(problem):
    """The metric pair of the problem at p = 2: the stiffness, plus the
    lumped mass on truncated grids, the same at every point."""
    return build_triple(replace(problem, p=2.0)).metric_at(np.zeros(problem.grid.n_dof))


class TestStiffnessMetric:
    """The p = 2 metric M that sphere descent preconditions with on p = 2
    problems and on 2D grids."""

    @pytest.mark.parametrize(
        "prob",
        [
            dirichlet_problem_1d(3, "1+x", "cos(2*pi*x)+0.2"),
            dirichlet_problem_1d(31, "1+x", "cos(2*pi*x)+0.2"),
            dirichlet_problem_1d(255, "1+x", "cos(2*pi*x)+0.2"),
            truncated_problem_1d(161, 4.0, "exp(-x^2)", "exp(-x^2/2)", p=3.0),
            dirichlet_problem_2d((16, 12), "1+x*y", "0.5+sin(pi*x)*sin(pi*y)"),
            dirichlet_problem_2d((32, 32), "1+x*y", "0.5+sin(pi*x)*sin(pi*y)"),
        ],
        ids=["dirichlet_1d_n3", "dirichlet_1d_n31", "dirichlet_1d_n255", "truncated_1d_n161",
             "dirichlet_2d_16x12", "dirichlet_2d_32x32"],
    )
    def test_solve_equals_reference(self, prob):
        _, solve = _p2_pair(prob)
        reference = _reference_metric_solve(prob)
        rng = np.random.default_rng(4)
        for _ in range(3):
            v = rng.normal(size=prob.grid.n_dof)
            expected = reference(v)
            assert np.linalg.norm(solve(v) - expected) <= 1e-13 * np.linalg.norm(expected)

    def test_wide_truncated_solve_stays_finite(self):
        # The running product of the sweep ratios falls below 1e-308 over
        # 8001 nodes at radius 400; blocks restart it before 1e-150, so no
        # 1 / product overflows (a RuntimeWarning fails the test).
        prob = truncated_problem_1d(8001, 400.0, "exp(-x^2)", "exp(-x^2/2)", p=3.0)
        v = np.random.default_rng(3).normal(size=prob.grid.n_dof)
        got = _p2_pair(prob)[1](v)
        expected = _reference_metric_solve(prob)(v)
        assert np.all(np.isfinite(got))
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize(
        "prob",
        [dirichlet_problem_2d((16, 12), "1+x*y", "0.5+sin(pi*x)*sin(pi*y)")],
        ids=["dirichlet_2d_16x12"],
    )
    def test_solve_inverts_apply(self, prob):
        # the 1D pairs are the p = 2 inputs of TestWeightedMetric's test
        apply, solve = _p2_pair(prob)
        rng = np.random.default_rng(5)
        for _ in range(3):
            v = rng.normal(size=prob.grid.n_dof)
            back = solve(apply(v))
            assert np.linalg.norm(back - v) <= 1e-12 * np.linalg.norm(v)

    @pytest.mark.parametrize(
        "prob",
        [
            dirichlet_problem_1d(63, "1+x", "cos(2*pi*x)+0.2"),
            dirichlet_problem_2d((16, 12), "1+x*y", "0.5+sin(pi*x)*sin(pi*y)"),
        ],
        ids=["dirichlet_1d", "dirichlet_2d_16x12"],
    )
    def test_quadratic_form_is_n_at_p2(self, prob):
        tri = build_triple(prob)
        rng = np.random.default_rng(6)
        u, v = rng.normal(size=(2, tri.dim))
        apply, _ = tri.metric_at(u)
        assert float(v @ apply(v)) == pytest.approx(tri.eval_N(v), rel=1e-12)

    @pytest.mark.parametrize(
        "prob",
        [
            dirichlet_problem_1d(63, "1+x", "cos(2*pi*x)+0.2"),
            truncated_problem_1d(41, 4.0, "exp(-x^2)", "exp(-x^2/2)", p=3.0),
            dirichlet_problem_2d((16, 12), "1+x*y", "0.5+sin(pi*x)*sin(pi*y)"),
        ],
        ids=["dirichlet_1d", "truncated_1d", "dirichlet_2d_16x12"],
    )
    def test_apply_equals_half_the_p2_gradient_kernel(self, prob):
        # apply runs the stiffness stencil itself; the p = 2 gradient kernel
        # gives twice its floats (the factors 2 and 0.5 are exact)
        grid = prob.grid
        apply, _ = _p2_pair(prob)
        _, stiff_full = _gradient_part(grid, 2.0)
        mass = None
        if not grid.dirichlet:
            mass = _dof_node_weights(grid, np.ones(grid.cell_shape)).ravel() * grid.cell_volume
        rng = np.random.default_rng(9)
        for _ in range(15):
            v = rng.normal(size=grid.n_dof)
            expected = 0.5 * _restrict(grid, stiff_full(_embed(grid, v)))
            if mass is not None:
                expected = expected + mass * v
            assert np.array_equal(apply(v), expected)

    def test_truncated_form_adds_lumped_mass(self):
        prob = truncated_problem_1d(41, 4.0, "exp(-x^2)", "exp(-x^2/2)", p=2.0)
        tri = build_triple(prob)
        h = prob.grid.spacing[0]
        rng = np.random.default_rng(7)
        u, v = rng.normal(size=(2, tri.dim))
        apply, _ = tri.metric_at(u)
        lumped = np.full(tri.dim, h)
        lumped[[0, -1]] = 0.5 * h
        expected = float(np.sum(np.diff(v) ** 2) / h + np.sum(lumped * v * v))
        assert float(v @ apply(v)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "prob",
        [
            dirichlet_problem_1d(63, "1+x", "cos(2*pi*x)+0.2"),
            truncated_problem_1d(41, 4.0, "exp(-x^2)", "exp(-x^2/2)", p=2.0),
            dirichlet_problem_2d((16, 12), "1+x*y", "0.5+sin(pi*x)*sin(pi*y)"),
            dirichlet_problem_2d((16, 12), "1+x*y", "0.5+sin(pi*x)*sin(pi*y)", p=3.0),
        ],
        ids=["dirichlet_1d", "truncated_1d", "dirichlet_2d", "dirichlet_2d_p3"],
    )
    def test_p2_and_2d_metrics_are_the_stiffness_pair(self, prob):
        # one pair at every point, the p = 2 stiffness at every p on 2D
        # grids, so descent applies M once
        tri = build_triple(prob)
        rng = np.random.default_rng(10)
        u, w, v = rng.normal(size=(3, tri.dim))
        pair = tri.metric_at(u)
        assert tri.metric_at(w) is pair
        for got, expected in zip(pair, _p2_pair(prob)):
            assert np.array_equal(got(v), expected(v))

    def test_negated_a_keeps_metric(self, pos_problem):
        tri = build_triple(pos_problem)
        flipped = tri.with_negated_a()
        assert flipped.metric_at is tri.metric_at

    def test_truncated_2d_has_the_identity_pair(self):
        # no solver for M exists there, so descent keeps the Euclidean metric
        grid = Grid(((-3.0, 3.0), (-3.0, 3.0)), (9, 9), dirichlet=False)
        weights = weights_from_expressions(grid, "exp(-x^2-y^2)", "exp(-x^2-y^2)")
        tri = build_triple(PLaplacianProblem(grid, weights, 3.0, 1.5, 4.0))
        u, v = np.random.default_rng(8).normal(size=(2, tri.dim))
        apply, solve = tri.metric_at(u)
        assert apply(v) is v
        assert solve(v) is v


def _weighted_problem(kind, n, p):
    alpha, beta = (1.2 if p < 2.0 else 1.5), max(4.0, p + 1.0)
    if kind == "dirichlet":
        return dirichlet_problem_1d(n, "1+x", "cos(2*pi*x)+0.2", p=p, alpha=alpha, beta=beta)
    radius = 400.0 if n == 8001 else 4.0
    return truncated_problem_1d(n, radius, "exp(-x^2)", "exp(-x^2/2)", p=p, alpha=alpha, beta=beta)


class TestWeightedMetric:
    """The 1D metric at every p: the stiffness with cell weights |Du|^(p-2),
    plus the lumped mass weighted by |u|^(p-2) on truncated grids, each set
    clipped to a largest-to-smallest ratio of _WEIGHT_RATIO; at p = 2 every
    weight is 1."""

    CASES = [("dirichlet", 31), ("dirichlet", 4095), ("truncated", 41), ("truncated", 8001)]

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("kind,n", CASES)
    def test_solve_inverts_apply(self, kind, n, p):
        tri = build_triple(_weighted_problem(kind, n, p))
        rng = np.random.default_rng(12)
        for _ in range(3):
            u, v = rng.normal(size=(2, tri.dim))
            apply, solve = tri.metric_at(u)
            mv = apply(v)
            assert float(v @ mv) > 0.0
            assert np.linalg.norm(solve(mv) - v) <= 1e-10 * np.linalg.norm(v)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("kind", ["dirichlet", "truncated"])
    def test_form_is_the_clipped_weighted_stiffness(self, kind, p):
        prob = _weighted_problem(kind, 41, p)
        grid, h = prob.grid, prob.grid.spacing[0]
        tri = build_triple(prob)
        rng = np.random.default_rng(13)
        u, v = rng.normal(size=(2, tri.dim))

        def clipped(x):
            w = np.maximum(x, x.max() * _WEIGHT_RATIO ** (-1.0 / abs(p - 2.0))) ** (p - 2.0)
            assert w.max() <= _WEIGHT_RATIO * w.min() * (1.0 + 1e-12)
            return w

        slopes = np.abs(np.diff(_embed(grid, u)) / h)
        expected = np.sum(clipped(slopes) * np.diff(_embed(grid, v)) ** 2) / h
        if not grid.dirichlet:
            lumped = _dof_node_weights(grid, np.ones(grid.cell_shape)).ravel() * h
            expected += np.sum(lumped * clipped(np.abs(u)) * v * v)
        apply, _ = tri.metric_at(u)
        assert float(v @ apply(v)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 1.999, 2.001])
    @pytest.mark.parametrize("kind,n", CASES[::2])
    def test_sphere_points_raise_no_warning(self, kind, n, p):
        # a RuntimeWarning fails the test: flat cells get the clipped weight,
        # also near p = 2, where the floor's ratio 100^(-1/|p-2|) would
        # underflow to 0, and a constant u, whose slopes are all 0, gets
        # weight 1
        tri = build_triple(_weighted_problem(kind, n, p))
        rng = np.random.default_rng(14)
        block = np.zeros(tri.dim)  # every cell outside the block is flat
        block[n // 3 : 2 * n // 3] = 1.0 + rng.random(2 * n // 3 - n // 3)
        points = [rng.normal(size=tri.dim), block]
        if kind == "truncated":
            points.append(np.ones(tri.dim))
        for u in points:
            u = u / tri.norm_of(u)
            apply, solve = tri.metric_at(u)
            assert np.all(np.isfinite(solve(apply(u))))


def _kernel_problem(dimension, kind, p):
    alpha = 1.5 if p >= 2.0 else 1.2  # alpha < p
    if dimension == 1 and kind == "dirichlet":
        return dirichlet_problem_1d(31, "1+x", "cos(2*pi*x)+0.2", p=p, alpha=alpha)
    if dimension == 1:
        return truncated_problem_1d(41, 4.0, "exp(-x^2)", "exp(-x^2/2)", p=p, alpha=alpha)
    if kind == "dirichlet":
        return dirichlet_problem_2d(
            (9, 7), "1+x*y", "0.5+sin(pi*x)*sin(pi*y)", p=p, alpha=alpha
        )
    grid = Grid(((-3.0, 3.0), (-3.0, 3.0)), (9, 8), dirichlet=False)
    weights = weights_from_expressions(grid, "exp(-x^2-y^2)", "exp(-x^2-y^2)-0.1")
    return PLaplacianProblem(grid, weights, p, 1.5, 4.0)


def _reference_kernels(problem):
    """N, A, B, their gradients and the metric, written with np.sum and np.diff."""
    grid = problem.grid
    vol = grid.cell_volume
    abar = _dof_node_weights(grid, problem.weights.a).ravel()
    bbar = _dof_node_weights(grid, problem.weights.b).ravel()
    mass_w = None
    if not grid.dirichlet:
        mass_w = _dof_node_weights(grid, np.ones(grid.cell_shape)).ravel()

    def power(w, e, u):
        return float(np.sum(w * np.abs(u) ** e) * vol)

    def power_grad(w, e, u):
        # the kernel forms its weights w * (e * vol) once per term
        return w * (e * vol) * (np.abs(u) ** (e - 1.0) * np.sign(u))

    def gradient_part(full, p):
        """Value and full-node gradient of the sum of |grad_h u|^p over cells."""
        lo = (slice(None, -1),) * grid.dimension
        g, his = [], []
        for axis, h in enumerate(grid.spacing):
            # np.diff shortens this axis; the others keep each cell's lower corner
            g.append(np.diff(full, axis=axis)[lo[:axis] + (slice(None),) + lo[axis + 1 :]] / h)
            his.append(lo[:axis] + (slice(1, None),) + lo[axis + 1 :])
        mag2 = 0.0
        for gi in g:
            mag2 = mag2 + gi * gi
        value = float(np.sum(mag2 ** (p / 2.0)) * vol)
        # a flat cell (g = 0) has p-gradient 0; the base 1 there keeps
        # 0 ** ((p - 2) / 2) finite for p < 2, and m * g is still 0
        m = np.where(mag2 > 0.0, mag2, 1.0) ** ((p - 2.0) / 2.0)
        out = np.zeros_like(full)
        for gi, hi, h in zip(g, his, grid.spacing):
            c = (m * gi) * (p * (vol / h))
            out[lo] -= c
            out[hi] += c
        return value, out

    def eval_n(u):
        value = gradient_part(_embed(grid, u), problem.p)[0]
        return value if mass_w is None else value + power(mass_w, problem.p, u)

    def grad_n(u):
        grad = _restrict(grid, gradient_part(_embed(grid, u), problem.p)[1])
        return grad if mass_w is None else grad + power_grad(mass_w, problem.p, u)

    def clipped(x):
        floor = np.max(x) * _WEIGHT_RATIO ** (-1.0 / abs(problem.p - 2.0))
        return np.maximum(x, floor) ** (problem.p - 2.0)

    def metric_at(u):
        """v -> M(u) v: the p = 2 stiffness, or in 1D at p != 2 the clipped
        weighted stiffness and mass."""
        if grid.dimension == 2 or problem.p == 2.0:

            def apply(v):
                out = 0.5 * _restrict(grid, gradient_part(_embed(grid, v), 2.0)[1])
                return out if mass_w is None else out + mass_w * vol * v

            return apply
        h = grid.spacing[0]
        w = clipped(np.abs(np.diff(_embed(grid, u)) / h))

        def apply(v):
            full = _embed(grid, v)
            c = w * (np.diff(full) / h)
            out = np.zeros_like(full)
            out[:-1] -= c
            out[1:] += c
            out = _restrict(grid, out)
            return out if mass_w is None else out + mass_w * vol * clipped(np.abs(u)) * v

        return apply

    return {
        "eval_N": eval_n,
        "eval_A": lambda u: power(abar, problem.alpha, u),
        "eval_B": lambda u: power(bbar, problem.beta, u),
        "grad_N": grad_n,
        "grad_A": lambda u: power_grad(abar, problem.alpha, u),
        "grad_B": lambda u: power_grad(bbar, problem.beta, u),
        "metric_at": metric_at,
    }


class TestKernelBitIdentity:
    """The model kernels skip numpy's Python wrappers (np.sum, np.diff) on
    their short vectors; every float must stay what the wrapped calls give.
    This also guards the 2D truncated kernel, which no benchmark runs."""

    @pytest.mark.parametrize(
        "dimension,kind,p",
        [
            (1, "dirichlet", 2.0), (1, "dirichlet", 3.0),
            (1, "truncated_rn", 2.0), (1, "truncated_rn", 3.0),
            (2, "dirichlet", 2.0), (2, "dirichlet", 3.0),
            # p < 2 runs the flat-cell guard; the 2D Dirichlet corner cell is flat
            (1, "dirichlet", 1.5), (1, "truncated_rn", 1.5), (2, "dirichlet", 1.5),
            # truncated problems need p > dimension
            (2, "truncated_rn", 2.5), (2, "truncated_rn", 3.0),
        ],
    )
    def test_kernels_equal_wrapped_reference(self, dimension, kind, p):
        problem = _kernel_problem(dimension, kind, p)
        tri = build_triple(problem)
        ref = _reference_kernels(problem)
        if dimension == 2 and kind == "truncated_rn":
            del ref["metric_at"]  # the identity pair (test_truncated_2d_has_the_identity_pair)
        rng = np.random.default_rng(11)
        for _ in range(20):
            u = rng.standard_normal(tri.dim)
            for name, expected in ref.items():
                if name == "metric_at":
                    v = rng.standard_normal(tri.dim)
                    assert np.array_equal(tri.metric_at(u)[0](v), expected(u)(v)), name
                    continue
                got = getattr(tri, name)(u)
                if name.startswith("eval"):
                    assert type(got) is float
                    assert got == expected(u), name
                else:
                    assert np.array_equal(got, expected(u)), name


@pytest.mark.parametrize("p", [1.5, 1.7])
@pytest.mark.parametrize(
    "dimension,kind", [(1, "dirichlet"), (1, "truncated_rn"), (2, "dirichlet")]
)
class TestExactSmallP:
    """p in (1, 2) runs the exact kernel: N stays p-homogeneous, and its
    gradient is finite and right on flat cells, where |g|^(p-2) is infinite."""

    def test_n_is_p_homogeneous(self, dimension, kind, p):
        tri = build_triple(_kernel_problem(dimension, kind, p))
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = rng.standard_normal(tri.dim)
            n = tri.eval_N(u)
            for t in (0.01, 0.5, 3.0):
                assert tri.eval_N(t * u) == pytest.approx(t**p * n, rel=1e-14, abs=0.0)

    def test_gradient_on_flat_cells_matches_central_differences(self, dimension, kind, p):
        problem = _kernel_problem(dimension, kind, p)
        tri = build_triple(problem)
        # zero outside one block of nodes: every cell away from it is flat
        u = np.zeros(problem.grid.dof_shape)
        block = tuple(slice(n // 3, 2 * n // 3) for n in u.shape)
        u[block] = 1.0 + np.random.default_rng(4).random(u[block].shape)
        u = u.ravel()
        grad = tri.grad_N(u)
        assert np.all(np.isfinite(grad))
        h = 1e-6
        fd = np.empty(tri.dim)
        for i in range(tri.dim):
            e = np.zeros(tri.dim)
            e[i] = h
            fd[i] = (tri.eval_N(u + e) - tri.eval_N(u - e)) / (2.0 * h)
        assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(grad))


class TestEmbedRestrict:
    def test_round_trip_dirichlet_1d(self):
        g = Grid(((0.0, 1.0),), (8,))
        u = np.arange(1.0, 7.0)
        full = _embed(g, u)
        assert full[0] == full[-1] == 0.0
        assert np.array_equal(_restrict(g, full), u)

    def test_round_trip_dirichlet_2d(self):
        g = Grid(((0.0, 1.0), (0.0, 1.0)), (6, 5))
        rng = np.random.default_rng(0)
        u = rng.normal(size=g.n_dof)
        full = _embed(g, u)
        assert np.all(full[0, :] == 0) and np.all(full[:, -1] == 0)
        assert np.array_equal(_restrict(g, full), u)

    def test_round_trip_free(self):
        g = Grid(((-1.0, 1.0),), (7,), dirichlet=False)
        u = np.arange(7.0)
        assert np.array_equal(_restrict(g, _embed(g, u)), u)

    def test_round_trip_free_2d(self):
        g = Grid(((-1.0, 1.0), (-2.0, 2.0)), (7, 5), dirichlet=False)
        u = np.arange(35.0)
        full = _embed(g, u)
        assert full.shape == (7, 5) and full[0, 4] == 4.0
        assert np.array_equal(_restrict(g, full), u)

    def test_size_check(self):
        g = Grid(((0.0, 1.0),), (8,))
        with pytest.raises(ValueError, match="expected 6 coefficients"):
            _embed(g, np.zeros(7))


class TestSignStructure:
    def test_cone_mask_needs_all_adjacent_cells(self):
        # a changes sign mid-domain: nodes straddling the sign change drop out
        prob = dirichlet_problem_1d(19, "0.5-x", "1")
        mask = cone_node_mask(prob, ConeTag.A_POS)
        a_cell = prob.weights.a.ravel()
        pos = a_cell > 0
        expect = pos[:-1] & pos[1:]  # interior nodes, both neighbor cells
        assert np.array_equal(mask, expect)
        # negative-a side of the same weight
        mask_neg = cone_node_mask(prob, ConeTag.A_NEG)
        neg = a_cell < 0
        assert np.array_equal(mask_neg, neg[:-1] & neg[1:])
        assert not np.any(mask & mask_neg)

    def test_cone_mask_b_requirement(self):
        prob = dirichlet_problem_1d(19, "1", "0.5-x")
        both = cone_node_mask(prob, ConeTag.A_POS_B_POS)
        only_a = cone_node_mask(prob, ConeTag.A_POS)
        assert np.all(both <= only_a)
        assert both.sum() < only_a.sum()


class TestDisjointBasis:
    def test_blocks_are_disjoint_unit_cone_vectors(self, pos_problem):
        basis = build_disjoint_basis(pos_problem, ConeTag.A_POS_B_POS, 3)
        tri = build_triple(pos_problem)
        assert basis.shape == (3, pos_problem.grid.n_dof)
        for i in range(3):
            assert tri.norm_of(basis[i]) == pytest.approx(1.0, rel=1e-12)
            member, margin = cone_membership(tri, ConeTag.A_POS_B_POS, basis[i])
            assert member and margin > 0
            for j in range(i):
                assert not np.any((basis[i] != 0) & (basis[j] != 0))
        # any nonzero combination stays in the cone
        rng = np.random.default_rng(5)
        for _ in range(10):
            coef = rng.normal(size=3)
            coef[np.argmax(np.abs(coef))] += np.sign(coef[np.argmax(np.abs(coef))])
            member, _ = cone_membership(tri, ConeTag.A_POS_B_POS, basis.T @ coef)
            assert member

    def test_too_many_blocks_raise(self, pos_problem):
        with pytest.raises(ValueError, match="cannot host"):
            build_disjoint_basis(pos_problem, ConeTag.A_POS_B_POS, 40)

    def test_k_must_be_positive(self, pos_problem):
        with pytest.raises(ValueError, match="at least 1"):
            build_disjoint_basis(pos_problem, ConeTag.A_POS_B_POS, 0)

    def test_2d_blocks(self, two_d_problem):
        basis = build_disjoint_basis(two_d_problem, ConeTag.A_POS_B_POS, 2)
        assert not np.any((basis[0] != 0) & (basis[1] != 0))


class TestTruncationDiagnostics:
    def test_clean_decay_has_no_notes(self):
        prob = truncated_problem_1d(41, 6.0, "exp(-x^2)", "exp(-x^2/2)", p=3.0)
        assert prob.diagnostics() == ()

    @pytest.mark.parametrize(
        "bounds,n_nodes,a_expr,b_expr,note",
        [
            ((-4.0, 4.0), 41, "1", "exp(-x^2)", "weight a carries"),
            ((-2.0, 2.0), 81, "1/(1+x^2)", "exp(-x^2)", "weight a gains"),
            # the same weights about the centre of a shifted box: the doubled
            # box doubles each axis about its own midpoint
            ((2.0, 6.0), 81, "1/(1+(x-4)^2)", "exp(-(x-4)^2)", "weight a gains"),
        ],
        ids=["constant_weight", "centred", "shifted"],
    )
    def test_slow_decay_is_flagged(self, bounds, n_nodes, a_expr, b_expr, note):
        grid = Grid((bounds,), (n_nodes,), dirichlet=False)
        weights = weights_from_expressions(grid, a_expr, b_expr)
        text = " ".join(PLaplacianProblem(grid, weights, 3.0, 1.5, 4.0).diagnostics())
        assert "outer" in text or "doubles" in text
        assert note in text
        # the slowly decaying a is the offender, not the gaussian
        assert "weight a" in text
        assert "weight b" not in text


class TestConjectureWeight:
    def test_construction_keeps_minimizers_positive(self):
        prob = dirichlet_problem_1d(63, "1", "sin(2*pi*x)")
        field, eps = construct_weight_for_conjecture(
            prob, bump_center=0.75, bump_radius=0.1, multistart=8, seed=0
        )
        assert eps >= 0.0
        b_plus = np.maximum(prob.weights.b, 0.0)
        diff = b_plus - field.a
        # a differs from b_plus only inside the bump, and only downward
        assert np.all(diff >= -1e-15)
        mids = prob.grid.cell_midpoints(0)
        assert np.all(diff[np.abs(mids - 0.75) >= 0.1] == 0.0)
        assert np.array_equal(field.b, prob.weights.b)

    def test_bump_must_avoid_positive_b(self):
        prob = dirichlet_problem_1d(63, "1", "sin(2*pi*x)")
        with pytest.raises(ValueError, match="b > 0"):
            construct_weight_for_conjecture(prob, bump_center=0.25, bump_radius=0.1)

    def test_empty_bump_rejected(self):
        prob = dirichlet_problem_1d(63, "1", "sin(2*pi*x)")
        with pytest.raises(ValueError, match="no cells"):
            construct_weight_for_conjecture(prob, bump_center=0.75, bump_radius=1e-6)

    def test_bump_center_needs_every_coordinate(self):
        prob = dirichlet_problem_2d((7, 7), "1", "sin(2*pi*x)")
        with pytest.raises(ValueError, match="bump_center needs 2 coordinates, got 1"):
            construct_weight_for_conjecture(prob, bump_center=0.75, bump_radius=0.1)

    def test_b_without_positive_part_rejected(self):
        prob = dirichlet_problem_1d(63, "1", "-1")
        with pytest.raises(ValueError, match="no positive part"):
            construct_weight_for_conjecture(prob, bump_center=0.75, bump_radius=0.1)
