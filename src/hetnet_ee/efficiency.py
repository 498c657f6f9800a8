"""Sigmoidal packet-success model and its optimal SINR operating points.

The packet success rate is modeled as ``(1 - exp(-x))**m`` of the received
SINR ``x``.  Two scalar root-finding problems drive every solver in this
package:

* the SINR ``x`` solving ``x * f'(x) = f(x)``, which maximizes successes
  per unit power on a single interference-free carrier, and
* its generalization ``(x - c*x**2) * f'(x) = f(x)``, which arises for a
  transmitter whose interferers scale their own power with its SINR
  (coefficient ``c`` measures that feedback).

Both are solved by one safeguarded Newton iteration on a reduced residual
that stays well scaled for large ``m``.  Near zero the residual behaves like
``(m - 1) x > 0``, and it is negative at ``x = m`` and at ``x = 1/c``, so
``(0, min(m, 1/c)]`` brackets the root for every ``m >= 2`` and ``c >= 0``.
Each step shrinks that bracket by the residual's sign and falls back to
bisection when the Newton step leaves it; the loop ends when a step no
longer moves the iterate.  The first root depends only on ``m``: each model
solves it once, as its ``gamma``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "EfficiencyModel",
    "optimal_sinr",
    "optimal_sinr_with_feedback",
]


def _sinr(x) -> np.ndarray:
    """``x`` as an at least 1-d float array, so a scalar takes the array
    loops and an array entry's last bit, not libm pow's (scalar ``**``)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    if (x < 0.0).any():
        raise ValueError("SINR must be nonnegative")
    return x


def _success(x, m):
    """``(1 - exp(-x))**m`` of a nonnegative SINR array ``x``, unchecked."""
    return (-np.expm1(-x)) ** m


@dataclass(frozen=True)
class EfficiencyModel:
    """Packet success probability ``(1 - exp(-x))**m`` at SINR ``x``.

    ``m`` is the packet-length exponent.  It must be an integer >= 2 so
    that the success curve is flat at zero SINR; that makes zero power the
    exact limit of the throughput-per-watt utility and guarantees that the
    dense-regime equilibrium exists whatever the interference coupling.
    ``gamma`` is the optimal operating point :func:`optimal_sinr`, solved
    once per model; it is not a field, so it takes no part in equality.
    """

    m: int = 2

    def __post_init__(self) -> None:
        if isinstance(self.m, bool) or not isinstance(self.m, (int, np.integer)):
            raise ValueError(f"packet exponent m must be an integer, got {self.m!r}")
        if self.m < 2:
            raise ValueError(f"packet exponent m must be >= 2, got {self.m}")

    def value(self, x):
        """Success rate at SINR ``x`` (scalar or array), in [0, 1)."""
        out = _success(_sinr(x), self.m)
        return float(out[0]) if np.ndim(x) == 0 else out

    def derivative(self, x):
        """Slope of the success rate at SINR ``x``."""
        s = _sinr(x)
        out = self.m * np.exp(-s) * (-np.expm1(-s)) ** (self.m - 1)
        return float(out[0]) if np.ndim(x) == 0 else out

    @cached_property
    def gamma(self) -> float:
        return optimal_sinr(self)


def optimal_sinr_with_feedback(model: EfficiencyModel, feedback: float) -> float:
    """Positive root of ``(x - feedback*x**2) * f'(x) = f(x)``.

    ``feedback`` is the quadratic self-interference coefficient; it must be
    finite and nonnegative.  The root is the unique sign change of the
    reduced residual on ``(0, min(m, 1/feedback)]``, so ``feedback * root
    < 1`` and ``root < m`` always hold.  With ``feedback == 0`` this is
    :func:`optimal_sinr`.  The result is accurate to a few ulps.
    """
    if not 0.0 <= feedback < math.inf:
        raise ValueError(f"feedback coefficient must be finite and nonnegative, got {feedback}")
    m, c = int(model.m), float(feedback)
    lo = 0.0
    x = hi = float(m) if c == 0.0 else min(float(m), 1.0 / c)
    while True:
        # (x - c x^2) f'(x) - f(x) shares its sign with r after dividing out
        # (1 - e^-x)^(m-1) > 0; the reduced form never underflows
        e = math.exp(-x)
        r = m * x * e * (1.0 - c * x) + math.expm1(-x)
        if r > 0.0:
            lo = x
        elif r < 0.0:
            hi = x
        else:
            return x
        slope = e * (m * (1.0 - x - 2.0 * c * x + c * x * x) - 1.0)
        step = x - r / slope if slope else math.nan
        if step == x:
            return x
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
            if step in (lo, hi):
                return x
        x = step


def optimal_sinr(model: EfficiencyModel) -> float:
    """SINR maximizing successes per unit power: root of ``x*f'(x) = f(x)``.

    Also the maximizer of ``f(x)/x``, which is how tests cross-check it.
    """
    return optimal_sinr_with_feedback(model, 0.0)
