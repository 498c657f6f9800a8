"""Sigmoidal packet-success model and its optimal SINR operating points.

The packet success rate is modeled as ``(1 - exp(-x))**m`` of the received
SINR ``x``.  Two scalar root-finding problems drive every solver in this
package:

* the SINR ``x`` solving ``x * f'(x) = f(x)``, which maximizes successes
  per unit power on a single interference-free carrier, and
* its generalization ``(x - c*x**2) * f'(x) = f(x)``, which arises for a
  transmitter whose interferers scale their own power with its SINR
  (coefficient ``c`` measures that feedback).

Both are solved by geometric-grid bracketing followed by plain bisection,
using a reduced residual that stays well scaled for large ``m``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EfficiencyModel",
    "NoRootError",
    "optimal_sinr",
    "optimal_sinr_with_feedback",
]

# bracketing scan for the root equations (geometric grid, see optimal_sinr)
_SCAN_LO = 1e-9
_SCAN_HI = 1e3
_SCAN_POINTS = 256
_MAX_BISECT = 200


class NoRootError(RuntimeError):
    """No sign change could be bracketed for a root equation."""


@dataclass(frozen=True)
class EfficiencyModel:
    """Packet success probability ``(1 - exp(-x))**m`` at SINR ``x``.

    ``m`` is the packet-length exponent.  It must be an integer >= 2 so
    that the success curve is flat at zero SINR; that makes zero power the
    exact limit of the throughput-per-watt utility and guarantees that the
    dense-regime equilibrium exists whatever the interference coupling.
    """

    m: int = 2

    def __post_init__(self) -> None:
        if isinstance(self.m, bool) or not isinstance(self.m, (int, np.integer)):
            raise ValueError(f"packet exponent m must be an integer, got {self.m!r}")
        if self.m < 2:
            raise ValueError(f"packet exponent m must be >= 2, got {self.m}")

    def value(self, x):
        """Success rate at SINR ``x`` (scalar or array), in [0, 1)."""
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0):
            raise ValueError("SINR must be nonnegative")
        out = (-np.expm1(-x)) ** self.m
        return float(out) if out.ndim == 0 else out

    def derivative(self, x):
        """Slope of the success rate at SINR ``x``."""
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0):
            raise ValueError("SINR must be nonnegative")
        out = self.m * np.exp(-x) * (-np.expm1(-x)) ** (self.m - 1)
        return float(out) if out.ndim == 0 else out

    def __call__(self, x):
        return self.value(x)


def _reduced_residual(x: float, m: int, feedback: float) -> float:
    # (x - c x^2) f'(x) - f(x) shares its sign with this expression after
    # dividing out (1 - e^-x)^(m-1) > 0; the reduced form never underflows.
    return m * x * math.exp(-x) * (1.0 - feedback * x) + math.expm1(-x)


def optimal_sinr_with_feedback(
    model: EfficiencyModel, feedback: float, tol: float = 1e-12
) -> float:
    """Positive root of ``(x - feedback*x**2) * f'(x) = f(x)``.

    ``feedback`` is the quadratic self-interference coefficient; it must be
    nonnegative.  All positive roots lie in ``(0, 1/feedback)`` because the
    left side is negative beyond that point, so the returned root always
    satisfies ``feedback * root < 1``.  With ``feedback == 0`` this reduces
    exactly to :func:`optimal_sinr`.

    Raises :class:`NoRootError` if no sign change exists on the scan grid,
    which signals a success function violating the one-positive-root
    premise.
    """
    if feedback < 0.0:
        raise ValueError("feedback coefficient must be nonnegative")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    m = model.m
    hi = _SCAN_HI if feedback == 0.0 else min(_SCAN_HI, 1.0 / feedback)
    grid = np.geomspace(_SCAN_LO, hi, _SCAN_POINTS)
    vals = m * grid * np.exp(-grid) * (1.0 - feedback * grid) + np.expm1(-grid)
    signs = np.sign(vals)
    flips = np.nonzero(signs[1:] * signs[:-1] < 0)[0]
    exact = np.nonzero(signs == 0)[0]
    if exact.size:
        return float(grid[exact[0]])
    if not flips.size:
        raise NoRootError(
            f"no positive root of the optimal-SINR equation for m={m}, "
            f"feedback={feedback} on (0, {hi}]"
        )
    lo, up = float(grid[flips[0]]), float(grid[flips[0] + 1])
    flo = _reduced_residual(lo, m, feedback)
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + up)
        fmid = _reduced_residual(mid, m, feedback)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            up = mid
        if up - lo <= tol * mid and abs(fmid) <= tol:
            break
    root = 0.5 * (lo + up)
    resid = (root - feedback * root * root) * model.derivative(root) - model.value(root)
    if abs(resid) >= tol:
        raise NoRootError(
            f"bisection stalled for m={m}, feedback={feedback}: residual {resid:.3e}"
        )
    return root


def optimal_sinr(model: EfficiencyModel, tol: float = 1e-12) -> float:
    """SINR maximizing successes per unit power: root of ``x*f'(x) = f(x)``.

    Also the maximizer of ``f(x)/x``, which is how tests cross-check it.
    """
    return optimal_sinr_with_feedback(model, 0.0, tol)
