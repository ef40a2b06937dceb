import math
import random

import pytest

from asplan.errors import DomainError
from asplan.lifemodel import oscillatory_pair, std_normal_cdf

from reference import ConvergenceError, QuadratureSettings, _composite_simpson, simpson


def test_simpson_constant():
    assert simpson(lambda x: 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_simpson_cubic_exact():
    assert simpson(lambda x: x**3, 0.0, 2.0) == pytest.approx(4.0, rel=1e-14)


def test_simpson_rejects_bad_interval():
    with pytest.raises(DomainError):
        simpson(lambda x: x, 1.0, 1.0)


def test_simpson_fourth_order_convergence():
    exact = 1.0 - math.cos(1.0)
    err = lambda panels: abs(_composite_simpson(math.sin, 0.0, 1.0, panels) - exact)
    ratio = err(8) / err(16)
    assert 12.0 < ratio < 20.0


def test_simpson_nonconvergence_raises():
    settings = QuadratureSettings(initial_panels=2, rel_tol=1e-14, max_refinements=1)
    with pytest.raises(ConvergenceError) as excinfo:
        simpson(lambda u: math.sin(1e6 * u), 0.0, 1.0, settings)
    assert excinfo.value.previous is not None
    assert excinfo.value.latest is not None


def test_oscillatory_pair_matches_fine_grid():
    c = 1500.0 * math.pi / 300.0
    ic, is_ = oscillatory_pair(c)
    fine = QuadratureSettings(initial_panels=640)
    ic_fine = simpson(lambda u: math.cos(u) / u, c - math.pi, c + math.pi, fine)
    is_fine = simpson(lambda u: math.sin(u) / u, c - math.pi, c + math.pi, fine)
    assert ic == pytest.approx(ic_fine, rel=1e-10, abs=1e-12)
    assert is_ == pytest.approx(is_fine, rel=1e-10, abs=1e-12)


def test_oscillatory_pair_bound_for_large_c():
    c = 15000.0 * math.pi / 300.0
    ic, is_ = oscillatory_pair(c)
    bound = 2.0 * math.pi / (c - math.pi)
    assert abs(ic) <= bound
    assert abs(is_) <= bound


def test_oscillatory_pair_small_c():
    c = 2100.0 * math.pi / 70.0
    ic, is_ = oscillatory_pair(c)
    assert math.isfinite(ic) and math.isfinite(is_)


# Ci(c + pi) - Ci(c - pi) and Si(c + pi) - Si(c - pi), computed once with
# mpmath at 50 significant digits (c taken as the exact double shown).
MPMATH_PAIRS = {
    3.25: (1.6420927631918405059, 1.3107386673781033014),
    9.42: (0.016824456180669430184, 0.074008740428939083992),
    15.71: (0.0032932618588160804009, 0.025872680874407663458),
    157.1: (1.9442442489169643091e-6, -0.00025463502585819413921),
}


@pytest.mark.parametrize("c", sorted(MPMATH_PAIRS))
def test_oscillatory_pair_matches_mpmath(c):
    ic, is_ = oscillatory_pair(c)
    want_ic, want_is = MPMATH_PAIRS[c]
    assert ic == pytest.approx(want_ic, rel=0, abs=1e-14)
    assert is_ == pytest.approx(want_is, rel=0, abs=1e-14)


def test_oscillatory_pair_rejects_small_c():
    with pytest.raises(DomainError):
        oscillatory_pair(3.0)


def test_std_normal_cdf_values():
    assert std_normal_cdf(0.0) == 0.5
    assert std_normal_cdf(40.0) == pytest.approx(1.0, abs=1e-15)
    assert std_normal_cdf(1.959963985) == pytest.approx(0.975, abs=1e-9)


def test_std_normal_cdf_symmetry():
    rng = random.Random(11)
    for _ in range(1000):
        z = rng.uniform(-8.0, 8.0)
        assert std_normal_cdf(z) + std_normal_cdf(-z) == pytest.approx(1.0, abs=1e-13)


def test_std_normal_cdf_monotone():
    zs = [i / 10.0 for i in range(-60, 61)]
    values = [std_normal_cdf(z) for z in zs]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_settings_validation():
    with pytest.raises(DomainError):
        QuadratureSettings(initial_panels=3)
    with pytest.raises(DomainError):
        QuadratureSettings(rel_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureSettings(max_refinements=0)
