import math
import random

import pytest

from asplan.errors import DomainError
from asplan.lifemodel import _GAUSS_LEGENDRE_16, oscillatory_pair, std_normal_cdf

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


def _jc_integrand(u):
    return -2.0 * math.sin(0.5 * u) ** 2 / u


def _js_integrand(u):
    return math.sin(u) / u


def test_oscillatory_pair_matches_fine_grid():
    fine = QuadratureSettings(initial_panels=640)
    for c in (math.pi * (1.0 + 1e-9), 1500.0 * math.pi / 300.0, 157.1):
        jc, js = oscillatory_pair(c)
        assert jc == pytest.approx(simpson(_jc_integrand, c - math.pi, c + math.pi, fine),
                                   rel=1e-10, abs=1e-12)
        assert js == pytest.approx(simpson(_js_integrand, c - math.pi, c + math.pi, fine),
                                   rel=1e-10, abs=1e-12)


def test_oscillatory_pair_bound_for_large_c():
    """Jc + log((c+pi)/(c-pi)) and Js integrate cos(u)/u and sin(u)/u, each
    bounded by 1/(c - pi) over an interval of length 2 pi."""
    c = 15000.0 * math.pi / 300.0
    jc, js = oscillatory_pair(c)
    bound = 2.0 * math.pi / (c - math.pi)
    assert abs(jc + math.log((c + math.pi) / (c - math.pi))) <= bound
    assert abs(js) <= bound


def test_oscillatory_pair_small_c():
    """The integrands are entire: c at pi, or below it, is no edge."""
    for c in (math.pi, 3.0, 2100.0 * math.pi / 70.0):
        jc, js = oscillatory_pair(c)
        assert math.isfinite(jc) and math.isfinite(js)


@pytest.mark.parametrize("c", [math.pi * (1.0 + 1e-9), 3.25, 9.42, 15.71, 157.1, 1e4 * math.pi])
def test_oscillatory_pair_matches_mpmath(c):
    """Jc = Ci(c+pi) - Ci(c-pi) - log((c+pi)/(c-pi)) and Js = Si(c+pi) - Si(c-pi),
    at 50 digits and the exact double c."""
    mpmath = pytest.importorskip("mpmath")
    jc, js = oscillatory_pair(c)
    with mpmath.workdps(50):
        big_c = mpmath.mpf(c)
        hi, lo = big_c + mpmath.pi, big_c - mpmath.pi
        want_jc = mpmath.ci(hi) - mpmath.ci(lo) - mpmath.log(hi / lo)
        want_js = mpmath.si(hi) - mpmath.si(lo)
    assert jc == pytest.approx(float(want_jc), rel=1e-14, abs=1e-17)
    assert js == pytest.approx(float(want_js), rel=1e-14, abs=1e-17)


def test_gauss_legendre_table_is_the_16_node_rule():
    """The literal table is leggauss(16) to its accuracy, and the doubles
    nearest the 50-digit nodes and weights."""
    np = pytest.importorskip("numpy")
    mpmath = pytest.importorskip("mpmath")
    nodes, weights = np.polynomial.legendre.leggauss(16)
    table = sorted(_GAUSS_LEGENDRE_16)
    assert len(table) == 8
    for (x, w), node, weight in zip(table, nodes[8:], weights[8:]):
        assert x == pytest.approx(float(node), rel=1e-15)
        assert w == pytest.approx(float(weight), rel=1e-14)
        with mpmath.workdps(50):
            root = mpmath.findroot(lambda t: mpmath.legendre(16, t), mpmath.mpf(x))
            slope = mpmath.diff(lambda t: mpmath.legendre(16, t), root)
            assert x == float(root)
            assert w == float(2 / ((1 - root ** 2) * slope ** 2))
    assert math.fsum(2.0 * w for _, w in table) == 2.0


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
