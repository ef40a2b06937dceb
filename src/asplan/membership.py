"""Fuzzy numbers for mean life and for risk levels.

Two shapes only: a raised-cosine membership over the failure rate (mean
life "approximately lambda_j") and a left-shoulder piecewise-linear
membership over a risk level ("roughly alpha").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


def _check_real(**fields) -> None:
    """Raise DomainError naming each field whose value does not order against floats."""
    for name, value in fields.items():
        try:
            value < 0.0
        except TypeError:
            raise DomainError(f"{name} must be a real number, got {value!r}") from None


@dataclass(frozen=True)
class FuzzyLife:
    """Fuzzy mean life (lambda_j, a).

    The membership is a raised cosine over the failure *rate*, peaking at
    1/lambda_j with half-width 1/a, so the support is
    [1/lambda_j - 1/a, 1/lambda_j + 1/a].  Requiring a > lambda_j keeps the
    support inside (0, inf); a finite a keeps the mean life fuzzy (the
    crisp limit a -> inf is a plain mean life instead).
    """

    lambda_j: float
    a: float

    def __post_init__(self) -> None:
        _check_real(lambda_j=self.lambda_j, a=self.a)
        if not self.lambda_j > 0:
            raise DomainError(f"nominal mean life must be positive, got {self.lambda_j}")
        if not self.lambda_j < self.a < math.inf:
            raise DomainError(
                f"fuzziness scale a={self.a} must be finite and exceed lambda_j={self.lambda_j}"
            )

    @property
    def support(self) -> tuple[float, float]:
        center = 1.0 / self.lambda_j
        half_width = 1.0 / self.a
        return (center - half_width, center + half_width)


@dataclass(frozen=True)
class FuzzyLevel:
    """Fuzzy risk level (level, slack) with a left-shoulder linear membership.

    Membership is 1 below ``level``, falls linearly to 0 at ``level + slack``.
    ``slack = 0`` degenerates to the crisp indicator x < level, which lets
    crisp baselines run through the same pipeline.
    """

    level: float
    slack: float

    def __post_init__(self) -> None:
        _check_real(level=self.level, slack=self.slack)
        if not 0.0 < self.level < 1.0:
            raise DomainError(f"risk level must be in (0,1), got {self.level}")
        if not 0.0 <= self.slack <= 1.0:
            raise DomainError(f"slack must be in [0,1], got {self.slack}")
        if self.level + self.slack > 1.0:
            raise DomainError("level + slack must not exceed 1")

    @property
    def relaxed(self) -> float:
        return self.level + self.slack

    def cut(self, s: float) -> float:
        """The largest risk of membership at least s in [0, 1]:
        level + (1 - s)·slack, so cut(1) is the level and cut(0) the
        relaxed level, both exactly."""
        return self.level + (1.0 - s) * self.slack
