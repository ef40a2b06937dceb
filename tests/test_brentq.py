"""`fuzzyopt._last_met` runs Brent's method line for line as scipy's
`brentq.c`, and `scipy.optimize.brentq` is its oracle.  After its check of
f(unmet), on every bracket it must probe the same points in the same order
as scipy on [min(met, unmet), max(met, unmet)], on t or on log t, and
return the probe nearest unmet that meets f <= 0 (met where none does), or
raise the same ValueError after the same probes."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from asplan import fuzzyopt
from asplan.fuzzyopt import _ROOT_ITER, _ROOT_RTOL, _ROOT_XTOL, _last_met
from asplan.membership import FuzzyLevel, FuzzyLife
from asplan.plans import Family, PlanProblem


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


def _ours(f, met, unmet, on_log):
    """The probes of one `_last_met` and the point it returned, or the
    ValueError it raised."""
    probes = []

    def recorded(x):
        probes.append(x)
        return f(x)

    try:
        return probes, _last_met(recorded, met, unmet, on_log)
    except ValueError as exc:
        return probes, f"ValueError: {exc}"


def _scipy(f, met, unmet, on_log):
    """scipy's probes on the bracket, as points t, and the one nearest
    unmet in Brent's coordinate that meets f <= 0, or met; or the
    ValueError scipy raised.  On log t each end is itself, not exp(log t)."""
    ends = {math.log(met): met, math.log(unmet): unmet} if on_log else {}
    if len(ends) < 2:
        ends, coordinate = {}, float
    else:
        coordinate = math.log
    probes = []

    def recorded(u):
        x = ends[u] if u in ends else math.exp(u) if ends else u
        probes.append((u, x))
        return f(x)

    a, b = sorted((coordinate(met), coordinate(unmet)))
    try:
        brentq(recorded, a, b, xtol=_ROOT_XTOL, rtol=_ROOT_RTOL, maxiter=_ROOT_ITER, disp=False)
    except ValueError as exc:
        return [x for _, x in probes], f"ValueError: {exc}"
    best, found, target = coordinate(met), met, coordinate(unmet)
    for u, x in probes:
        if f(x) <= 0.0 and abs(u - target) < abs(best - target):
            best, found = u, x
    return [x for _, x in probes], found


def _same_as_scipy(f, met, unmet, on_log=False):
    """`_last_met`'s probes after its check of f(unmet), and its result."""
    probes, result = _ours(f, met, unmet, on_log)
    assert probes[0] == unmet
    if f(unmet) <= 0.0:
        assert (probes, result) == ([unmet], unmet)
    else:
        assert (probes[1:], result) == _scipy(f, met, unmet, on_log)
    assert all(type(x) is float for x in probes)
    return probes[1:], result


def _oriented(f, lo, hi, decreasing):
    """f, met and unmet for a root of f in [lo, hi]: met is the end where
    f, negated when ``decreasing``, is at or below 0 as it rises."""
    if decreasing:
        return (lambda x: -f(x)), hi, lo
    return f, lo, hi


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    shape=st.sampled_from(sorted(SHAPES)),
    a=st.floats(-1e3, 1e3),
    width=st.floats(1e-6, 1e3),
    where=st.floats(0.0, 1.0),
    decreasing=st.booleans(),
)
def test_brentq_probes_as_scipy_does(shape, a, width, where, decreasing):
    b = a + width
    f = SHAPES[shape](a + where * (b - a), b - a)
    _same_as_scipy(*_oriented(f, a, b, decreasing))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    shape=st.sampled_from(sorted(SHAPES)),
    log_lo=st.floats(-14.0, 7.0),
    log_width=st.floats(1e-12, 20.0),
    where=st.floats(0.0, 1.0),
    decreasing=st.booleans(),
)
def test_brentq_probes_as_scipy_does_on_log_t(shape, log_lo, log_width, where, decreasing):
    """On log t, as `solve_monotone` finds its roots over a `LogAxis`:
    brackets from 1e-12 to 20 wide in log t, from t = 1e-6 up."""
    lo, hi = math.exp(log_lo), math.exp(log_lo + log_width)
    f = SHAPES[shape](math.exp(log_lo + where * log_width), hi - lo)
    _same_as_scipy(*_oriented(f, lo, hi, decreasing), on_log=True)


@pytest.mark.parametrize("width", [0.0, 2e-14], ids=["adjacent", "wider"])
def test_brentq_stays_on_t_where_the_logs_are_one_double(width):
    """Two ends whose logs round to one double: adjacent ones, where the
    bracket is already within tolerance, and ones 2e-14 relative apart,
    where Brent's method iterates on t."""
    met = 1e300
    unmet = max(met * (1.0 + width), math.nextafter(met, math.inf))
    assert math.log(met) == math.log(unmet)
    root = met + (unmet - met) / 3.0
    probes, x = _same_as_scipy(lambda x: x - root, met, unmet, on_log=True)
    assert probes[:2] == [met, unmet] and met <= x <= root
    assert (len(probes) == 2) == (width == 0.0)


@pytest.mark.parametrize("end", ["a", "b"])
def test_brentq_returns_a_root_at_an_end_point(end):
    """A met end where f is 0 ends Brent's method at its first two probes."""
    f, met, unmet = (lambda x: x - 2.0, 2.0, 5.0) if end == "a" else (lambda x: 5.0 - x, 5.0, 2.0)
    assert _same_as_scipy(f, met, unmet) == ([2.0, 5.0], met)


def test_brentq_returns_unmet_where_it_is_met():
    assert _same_as_scipy(lambda x: x - 5.0, 2.0, 5.0) == ([], 5.0)


def test_brentq_stops_at_the_iteration_cap():
    """The noisy step at 100 in [0, 300] needs more than `_ROOT_ITER`
    iterations at the solver's tolerance; both stop after the cap, without
    an error, and the point returned is a probe that meets f <= 0."""
    f = _noisy_step(100.0)
    probes, x = _same_as_scipy(f, 300.0, 0.0)
    assert len(probes) == 2 + _ROOT_ITER
    assert x in probes[2:] and f(x) <= 0.0


def test_brentq_rejects_a_bracket_without_a_sign_change():
    probes, error = _same_as_scipy(lambda x: x * x + 1.0, -1.0, 2.0)
    assert probes == [-1.0, 2.0]
    assert error == "ValueError: f(a) and f(b) must have different signs"


@pytest.mark.parametrize("on_log", [False, True], ids=["t", "log-t"])
@pytest.mark.parametrize(
    "nan_at,probes",
    [("met-end", 1), ("unmet-end", 2), ("interior", 3)],
)
def test_brentq_rejects_a_nan(nan_at, probes, on_log):
    """A NaN at either end or inside [1, 4] raises scipy's ValueError, at x
    in Brent's coordinate: t, or log t."""
    nan_where = {"met-end": {1.0}, "unmet-end": {4.0}}.get(nan_at)

    def f(x):
        if nan_where is None:
            return x - 2.0 if x in (1.0, 4.0) else math.nan
        return math.nan if x in nan_where else x - 2.0

    seen, error = _same_as_scipy(f, 1.0, 4.0, on_log)
    assert len(seen) == probes
    head, tail = "ValueError: The function value at x=", " is NaN; solver cannot continue."
    assert error.startswith(head) and error.endswith(tail)
    at = float(error[len(head):-len(tail)])
    assert math.isclose(at, math.log(seen[-1]) if on_log else seen[-1], rel_tol=1e-12)


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
    """Every root that a README design hands `_last_met`, on t and on log
    t, replayed through both solvers."""
    calls = []

    def record(f, met, unmet, on_log=False):
        calls.append((f, met, unmet, on_log))
        return _last_met(f, met, unmet, on_log)

    monkeypatch.setattr(fuzzyopt, "_last_met", record)
    fuzzyopt.solve_plan(README_PROBLEMS[name], membership_form=form)
    monkeypatch.undo()
    assert calls
    assert {on_log for *_, on_log in calls} == ({False, True} if name == "ssp" else {False})
    for call in calls:
        _same_as_scipy(*call)
