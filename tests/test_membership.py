import math
import random

import pytest

from asplan.errors import DomainError
from asplan.membership import FuzzyLevel, FuzzyLife

from reference import (
    QuadratureSettings,
    defuzzify_center_of_gravity,
    level_membership,
    life_membership,
    life_membership_mass,
    simpson,
)


def test_life_membership_peak():
    f = FuzzyLife(lambda_j=300.0, a=1500.0)
    assert life_membership(f, 1.0 / 300.0) == 1.0


def test_life_membership_support_endpoint():
    f = FuzzyLife(lambda_j=300.0, a=1500.0)
    assert life_membership(f, 1.0 / 300.0 + 1.0 / 1500.0) == 0.0
    assert life_membership(f, 1.0 / 300.0 - 1.0 / 1500.0) == 0.0


def test_life_membership_midpoint():
    f = FuzzyLife(lambda_j=300.0, a=1500.0)
    assert life_membership(f, 1.0 / 300.0 + 1.0 / 3000.0) == pytest.approx(0.5, abs=1e-14)


def test_life_membership_outside_support_is_zero():
    f = FuzzyLife(lambda_j=300.0, a=1500.0)
    assert life_membership(f, 1.0 / 300.0 + 1.0 / 900.0) == 0.0
    assert life_membership(f, 1e-9) == 0.0


def test_life_membership_symmetry():
    f = FuzzyLife(lambda_j=70.0, a=2100.0)
    center = 1.0 / 70.0
    for k in range(1, 50):
        d = k / 50.0 / 2100.0
        assert life_membership(f, center + d) == pytest.approx(
            life_membership(f, center - d), abs=1e-14
        )


def test_life_membership_rejects_nonpositive_rate():
    f = FuzzyLife(lambda_j=300.0, a=1500.0)
    with pytest.raises(DomainError):
        life_membership(f, 0.0)


def test_fuzzy_life_requires_a_above_lambda():
    with pytest.raises(DomainError):
        FuzzyLife(lambda_j=300.0, a=300.0)
    with pytest.raises(DomainError):
        FuzzyLife(lambda_j=-1.0, a=10.0)


@pytest.mark.parametrize("a", [math.inf, math.nan])
def test_fuzzy_life_requires_a_finite_scale(a):
    """An infinite a has a NaN membership everywhere; the crisp limit is a
    plain mean life instead."""
    with pytest.raises(DomainError, match="finite"):
        FuzzyLife(lambda_j=300.0, a=a)


@pytest.mark.parametrize(
    "make,field",
    [
        (lambda: FuzzyLife(300.0, None), "a"),
        (lambda: FuzzyLife(300.0, "1500"), "a"),
        (lambda: FuzzyLevel("0.05", 0.0), "level"),
    ],
    ids=["life-a-none", "life-a-string", "level-string"],
)
def test_a_field_that_is_not_a_number_raises_a_domain_error_naming_it(make, field):
    """None or a string, where a number belongs, is refused as a
    DomainError that names the field, not a bare TypeError from the range
    checks."""
    with pytest.raises(DomainError, match=rf"^{field} must be a real number, got "):
        make()


@pytest.mark.parametrize("a", [1500.0, 15000.0])
def test_mass_closed_form(a):
    assert life_membership_mass(FuzzyLife(lambda_j=300.0, a=a)) == 1.0 / a


def test_mass_matches_quadrature():
    rng = random.Random(7)
    for _ in range(10):
        lam = rng.uniform(20.0, 600.0)
        f = FuzzyLife(lambda_j=lam, a=lam * rng.uniform(1.5, 100.0))
        lo, hi = f.support
        integral = simpson(lambda r: life_membership(f, r), lo, hi)
        assert integral == pytest.approx(life_membership_mass(f), rel=1e-12)


def test_level_membership_branches():
    level = FuzzyLevel(0.05, 0.05)
    assert level_membership(level, 0.04) == 1.0
    assert level_membership(level, 0.075) == pytest.approx(0.5, abs=1e-14)
    assert level_membership(level, 0.12) == 0.0


def test_level_membership_nonincreasing():
    level = FuzzyLevel(0.1, 0.2)
    xs = [i / 200.0 for i in range(200)]
    values = [level_membership(level, x) for x in xs]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_level_membership_zero_slack_is_indicator():
    level = FuzzyLevel(0.05, 0.0)
    assert level_membership(level, 0.049999) == 1.0
    assert level_membership(level, 0.05) == 0.0
    assert level_membership(level, 0.06) == 0.0


def test_fuzzy_level_membership_is_the_unclipped_inverse_of_its_cut():
    """`FuzzyLevel.membership` agrees with the reference's shoulder inside
    the slack, inverts `cut`, and is not clipped outside [0, 1].  A
    zero-slack level includes the level itself, which a design meets as
    evaluated; the reference's indicator does not."""
    level = FuzzyLevel(0.05, 0.05)
    for s in (0.0, 0.25, 0.5, 1.0):
        assert level.membership(level.cut(s)) == pytest.approx(s, abs=1e-14)
    assert level.membership(0.075) == pytest.approx(level_membership(level, 0.075), abs=1e-14)
    assert level.membership(0.0) == pytest.approx(2.0) and level.membership(0.2) < 0.0
    crisp = FuzzyLevel(0.05, 0.0)
    assert [crisp.membership(v) for v in (0.0, 0.05, math.nextafter(0.05, 1.0))] == [1.0, 1.0, 0.0]


def test_fuzzy_level_validation():
    with pytest.raises(DomainError):
        FuzzyLevel(0.0, 0.05)
    with pytest.raises(DomainError):
        FuzzyLevel(0.05, -0.1)
    with pytest.raises(DomainError):
        FuzzyLevel(0.9, 0.2)


@pytest.mark.parametrize("center,a", [(300.0, 1500.0), (50.0, 2100.0)])
def test_defuzzify_returns_center(center, a):
    assert defuzzify_center_of_gravity(center, a) == center


def test_defuzzify_matches_centroid_quadrature():
    # Centroid = int x*m(x) / int m(x) over the raised-cosine support.
    center, a = 120.0, 900.0
    m = lambda x: 0.5 * (1.0 + math.cos(a * math.pi * (x - center)))
    lo, hi = center - 1.0 / a, center + 1.0 / a
    s = QuadratureSettings(initial_panels=256)
    numerator = simpson(lambda x: x * m(x), lo, hi, s)
    denominator = simpson(m, lo, hi, s)
    assert numerator / denominator == pytest.approx(
        defuzzify_center_of_gravity(center, a), rel=1e-12
    )


def test_defuzzify_rejects_support_crossing_zero():
    with pytest.raises(DomainError):
        defuzzify_center_of_gravity(0.001, 10.0)
