from collections import Counter

import numpy as np
import pytest

import fibercurve.nehari_minmax as nm
from fibercurve import (
    ConeTag,
    SphereConstraint,
    build_triple,
    dirichlet_problem_1d,
    dirichlet_problem_2d,
    truncated_problem_1d,
)

_ACCEPTANCE_LINES = []


def record_acceptance_line(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


# --- shared discretized instances (session scoped: building is cheap but
# --- the optimizer calls on top of them are not, so share freely)

@pytest.fixture(scope="session")
def const_problem():
    """Constant weights a = b = 1; closed-form cross-checks exist."""
    return dirichlet_problem_1d(31, "1", "1", p=2.0, alpha=1.5, beta=4.0)


@pytest.fixture(scope="session")
def pos_problem():
    """a > 0 everywhere, b sign-changing; the friendly instance."""
    return dirichlet_problem_1d(31, "1+x", "cos(2*pi*x)+0.2", p=2.0, alpha=1.5, beta=4.0)


@pytest.fixture(scope="session")
def signed_problem():
    """Both weights sign-changing."""
    return dirichlet_problem_1d(
        63, "sin(2*pi*x)+0.3", "cos(2*pi*x)+0.2", p=2.0, alpha=1.5, beta=4.0
    )


@pytest.fixture(scope="session")
def two_d_problem():
    return dirichlet_problem_2d(
        (12, 12), "1+x*y", "0.5+sin(pi*x)*sin(pi*y)", p=2.0, alpha=1.5, beta=4.0
    )


@pytest.fixture(scope="session")
def truncated_problem():
    return truncated_problem_1d(
        41, 4.0, "exp(-x^2)", "exp(-x^2/2)", p=3.0, alpha=1.5, beta=4.0
    )


@pytest.fixture(scope="session")
def const_triple(const_problem):
    return build_triple(const_problem)


@pytest.fixture(scope="session")
def pos_triple(pos_problem):
    return build_triple(pos_problem)


@pytest.fixture(scope="session")
def signed_triple(signed_problem):
    return build_triple(signed_problem)


@pytest.fixture(scope="session")
def two_d_triple(two_d_problem):
    return build_triple(two_d_problem)


@pytest.fixture(scope="session")
def truncated_triple(truncated_problem):
    return build_triple(truncated_problem)


@pytest.fixture(scope="session")
def const_con_plus(const_triple):
    return SphereConstraint(const_triple, tag=ConeTag.A_POS)


@pytest.fixture(scope="session")
def const_con_both(const_triple):
    return SphereConstraint(const_triple, tag=ConeTag.A_POS_B_POS)


@pytest.fixture(scope="session")
def pos_con_plus(pos_triple):
    return SphereConstraint(pos_triple, tag=ConeTag.A_POS)


@pytest.fixture(scope="session")
def pos_con_both(pos_triple):
    return SphereConstraint(pos_triple, tag=ConeTag.A_POS_B_POS)


@pytest.fixture(scope="session")
def signed_con_plus(signed_triple):
    return SphereConstraint(signed_triple, tag=ConeTag.A_POS)


@pytest.fixture(scope="session")
def signed_con_both(signed_triple):
    return SphereConstraint(signed_triple, tag=ConeTag.A_POS_B_POS)


def random_cone_point(constraint, rng, max_tries=500):
    """A unit-sphere point strictly inside the constraint's cone."""
    for _ in range(max_tries):
        u = rng.standard_normal(constraint.triple.dim)
        for cand in (u, np.abs(u)):
            v = cand / constraint.triple.norm_of(cand)
            if constraint.feasible(v):
                return v
    raise RuntimeError("could not sample a feasible cone point")


def level_evaluation(constraint, c, branch):
    """The ground solve's sphere evaluation of the level at (c, branch)."""
    objective = nm._level_objective(constraint.working.exponents, c, branch)
    return nm._sphere_evaluation(constraint, objective)


def count_multistart_purposes(monkeypatch) -> Counter:
    """A Counter of the purpose of every nm._multistart call from now on."""
    purposes = Counter()
    multistart = nm._multistart

    def counting(constraint, evaluate, purpose, *args, **kwargs):
        purposes[purpose] += 1
        return multistart(constraint, evaluate, purpose, *args, **kwargs)

    monkeypatch.setattr(nm, "_multistart", counting)
    return purposes
