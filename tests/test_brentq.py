"""`fuzzyopt._brentq` is a port of scipy's `brentq.c`, and
`scipy.optimize.brentq` is its oracle: on every bracket the two must probe
the same points in the same order and return the same root, or raise the
same ValueError after the same probes."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from asplan import fuzzyopt
from asplan.fuzzyopt import _ROOT_ITER, _ROOT_RTOL, _ROOT_XTOL, _brentq
from asplan.membership import FuzzyLevel, FuzzyLife
from asplan.plans import Family, PlanProblem

TOLERANCES = [(_ROOT_XTOL, _ROOT_RTOL), (1e-12, 1e-10), (1e-6, 1e-8)]


def _noise(x: float) -> float:
    """A deterministic stand-in for rounding noise in [-0.5, 0.5): a hash
    of the bits of x."""
    bits = struct.unpack("<Q", struct.pack("<d", x))[0]
    return bits * 2654435761 % 1000003 / 1000003 - 0.5


def _noisy_step(root: float):
    """1 below ``root``, and a rounding-noise excess of about -1e-17 from
    it: the shape of a plan's risk excess whose tail rounds just under its
    bound.  Each secant step from the tiny end is shorter than the
    tolerance, so the bracket halves only every other iteration."""
    return lambda x: 1.0 if x < root else -1e-17 * (1.5 + _noise(x))


SHAPES = {
    "linear": lambda r, w: lambda x: x - r,
    "cubic": lambda r, w: lambda x: (x - r) ** 3,
    "tanh": lambda r, w: lambda x: math.tanh(5.0 * (x - r) / w),
    "expm1": lambda r, w: lambda x: math.expm1(20.0 * (x - r) / w),
    "step": lambda r, w: lambda x: 1.0 if x >= r else -1.0,
    "noisy-linear": lambda r, w: lambda x: (x - r) + 1e-9 * w * _noise(x),
    "noisy-step": lambda r, w: _noisy_step(r),
}


def _run(solver, f, a, b, xtol, rtol):
    """The probes of one solve and its root, or the ValueError it raised."""
    probes = []

    def recorded(x):
        probes.append(x)
        return f(x)

    try:
        return probes, solver(recorded, a, b, xtol, rtol)
    except ValueError as exc:
        return probes, f"ValueError: {exc}"


def _scipy(f, a, b, xtol, rtol):
    return brentq(f, a, b, xtol=xtol, rtol=rtol, disp=False)


def _same_as_scipy(f, a, b, xtol=_ROOT_XTOL, rtol=_ROOT_RTOL):
    ours = _run(_brentq, f, a, b, xtol, rtol)
    assert ours == _run(_scipy, f, a, b, xtol, rtol)
    assert all(type(x) is float for x in ours[0])
    return ours


@pytest.mark.parametrize("xtol,rtol", TOLERANCES, ids=["solver", "loose", "looser"])
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    shape=st.sampled_from(sorted(SHAPES)),
    a=st.floats(-1e3, 1e3),
    width=st.floats(1e-6, 1e3),
    where=st.floats(0.0, 1.0),
    decreasing=st.booleans(),
)
def test_brentq_probes_as_scipy_does(xtol, rtol, shape, a, width, where, decreasing):
    b = a + width
    f = SHAPES[shape](a + where * (b - a), b - a)
    _same_as_scipy((lambda x: -f(x)) if decreasing else f, a, b, xtol, rtol)


@pytest.mark.parametrize("end", ["a", "b"])
def test_brentq_returns_a_root_at_an_end_point(end):
    root = 2.0 if end == "a" else 5.0
    probes, x = _same_as_scipy(lambda x: x - root, 2.0, 5.0)
    assert (probes, x) == ([2.0, 5.0], root)


@pytest.mark.parametrize("xtol,rtol", TOLERANCES[:1])
def test_brentq_stops_at_the_iteration_cap(xtol, rtol):
    """The noisy step at 100 in [0, 300] needs more than `_ROOT_ITER`
    iterations at the solver's tolerance; both stop after the cap, at the
    same last probe, without an error."""
    probes, x = _same_as_scipy(_noisy_step(100.0), 0.0, 300.0, xtol, rtol)
    assert len(probes) == 2 + _ROOT_ITER
    assert x == probes[-1]


def test_brentq_rejects_a_bracket_without_a_sign_change():
    probes, error = _same_as_scipy(lambda x: x * x + 1.0, -1.0, 2.0)
    assert probes == [-1.0, 2.0]
    assert error == "ValueError: f(a) and f(b) must have different signs"


@pytest.mark.parametrize(
    "f,probes",
    [
        (lambda x: math.nan if x == 0.0 else x - 2.0, 1),
        (lambda x: x - 2.0 if x in (0.0, 4.0) else math.nan, 3),
    ],
    ids=["end-point", "interior"],
)
def test_brentq_rejects_a_nan(f, probes):
    seen, error = _same_as_scipy(f, 0.0, 4.0)
    assert len(seen) == probes
    assert error == f"ValueError: The function value at x={seen[-1]} is NaN; solver cannot continue."


README_PROBLEMS = {
    "ssp": PlanProblem(
        family=Family.SSP,
        lambda0=FuzzyLife(300.0, 1500.0),
        lambda1=FuzzyLife(50.0, 1500.0),
        alpha=FuzzyLevel(0.05, 0.05),
        beta=FuzzyLevel(0.05, 0.05),
    ),
    "type1": PlanProblem(
        family=Family.TYPE_I,
        lambda0=FuzzyLife(300.0, 15000.0),
        lambda1=FuzzyLife(200.0, 15000.0),
        alpha=FuzzyLevel(0.01, 0.01),
        beta=FuzzyLevel(0.01, 0.01),
        tau=50.0,
        objective_variant="etc_upper_bound",
    ),
}


@pytest.mark.parametrize("form", fuzzyopt.MEMBERSHIP_FORMS)
@pytest.mark.parametrize("name", sorted(README_PROBLEMS))
def test_brentq_probes_as_scipy_does_on_the_solver_closures(name, form, monkeypatch):
    """Every bracket that a README design hands `_brentq`, replayed through
    both solvers at the solver's tolerances."""
    calls = []

    def record(f, a, b, xtol, rtol):
        calls.append((f, a, b))
        return _brentq(f, a, b, xtol, rtol)

    monkeypatch.setattr(fuzzyopt, "_brentq", record)
    fuzzyopt.solve_plan(README_PROBLEMS[name], membership_form=form)
    monkeypatch.undo()
    assert calls
    for f, a, b in calls:
        _same_as_scipy(f, a, b)
