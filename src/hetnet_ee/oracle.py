"""Certification of equilibria, independent of the closed-form solvers.

Every check recomputes utilities from scratch; ``f`` is the success curve.

**The unilateral check** (:func:`verify_follower`, and every player of
:func:`verify_nash`) is exact.  With the other rows fixed, the player's
denominators ``d_k`` (its row of :func:`model.denominators`) are constant;
with ``a_k = g_k / d_k``, any action ``p``, multi-carrier included, earns::

    U(p) = rate * sum_k f(a_k p_k) / sum_k p_k
        <= rate * max_k f(a_k p_k) / p_k       (mediant: sum x / sum y <= max x/y)
        <= rate * max_k a_k * phi*             (f(a p) / p = a f(a p) / (a p) <= a phi*)

where ``phi* = max_x f(x)/x``.  The best response (SINR ``gamma`` on the
argmax carrier) attains the bound, so it is the best deviation.  ``phi*``
comes from a golden-section search on ``f(x)/x``, not from the solvers'
Newton root.

**The leader check** (:func:`verify_leader_stackelberg`) is bi-level and
rests on a lemma: a leader action ``p`` on several carriers never beats its
best single-carrier part ``p_k e_k``.  Under ``p`` a follower's score on
another carrier ``j``, ``gf_j / (sigma2 + h0_j p_j)``, is at most its score
``gf_j / sigma2`` under ``p_k e_k``, and its score on ``k`` is unchanged.
So every follower that picks ``k`` under ``p_k e_k`` picks it under ``p``
(lowest-index ties and monotone rounding keep this); more followers on
``k`` mean more interference, so the leader's SINR on ``k`` is at most its
SINR under ``p_k e_k``, and the mediant step gives ``U(p) <= max_k U(p_k
e_k)`` in both regimes.  The search scores single-carrier actions only, in
one table of a row per carrier and a column per grid power; followers
re-respond as :func:`model.respond` does, with its float comparisons and
ties, between the action's carrier and their best carrier off it, whose
score ``gf / sigma2`` is their switching threshold.
:func:`brute_force_stackelberg` returns the best grid allocation, used to
generate trusted expected values apart from the solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .efficiency import EfficiencyModel
from .model import NetworkInstance, all_utilities, denominators, respond, utility

__all__ = [
    "DeviationReport",
    "verify_follower",
    "verify_followers",
    "verify_leader_stackelberg",
    "verify_nash",
    "brute_force_stackelberg",
]

GRID_DECADES = 4  # grid spans 10**-GRID_DECADES .. 10**+GRID_DECADES times center
SPLIT_WEIGHTS = 11
PART_WEIGHTS = np.linspace(0.0, 1.0, SPLIT_WEIGHTS)[1:]  # the nonzero split weights
PIECE_CELLS = 1 << 18
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class DeviationReport:
    """Outcome of one deviation search.

    ``relative_gain`` is ``(best_found - claimed) / claimed`` (infinite
    when a zero-utility claim has a positive alternative); the check passes
    when the gain does not exceed ``tolerance``.
    """

    player: int
    claimed_utility: float
    best_found_utility: float
    relative_gain: float
    deviating_action: dict
    tolerance: float
    passed: bool


def _gain(claimed: float, best: float) -> float:
    if claimed <= 0.0:
        return np.inf if best > 0.0 else 0.0
    return (best - claimed) / claimed


def _report(player, claimed, best, action, tol) -> DeviationReport:
    gain = _gain(claimed, best)
    return DeviationReport(
        player=player,
        claimed_utility=claimed,
        best_found_utility=best,
        relative_gain=gain,
        deviating_action=action,
        tolerance=tol,
        passed=bool(gain <= tol),
    )


def power_grid(center: float, grid_size: int) -> np.ndarray:
    """``np.geomspace`` from ``center / 10**GRID_DECADES`` to ``center *
    10**GRID_DECADES``, bit for bit: its own steps, without its set-up."""
    lo, hi = center / 10.0**GRID_DECADES, center * 10.0**GRID_DECADES
    grid = 10.0 ** np.linspace(np.log10(lo), np.log10(hi), grid_size)
    grid[0], grid[-1] = lo, hi
    return grid


def _follower_choice(instance, rows, denom):
    """Each follower's carrier under actions on carrier ``rows[r]`` alone,
    as ``respond`` picks it, with ``denom[r, n] = sigma2 + h0 * p`` there:
    ``chosen[r, f, n]`` (``f`` picks ``rows[r]``), else the rival ``(R,
    F)``, its best carrier off ``rows[r]`` by ``gf / sigma2``, which a score
    there must beat strictly, or tie from a lower index."""
    off = (rows[:, None] != np.arange(instance.carriers))[:, None]
    quiet = np.where(off, instance.gf / instance.sigma2, -np.inf)
    rival, bar = quiet.argmax(axis=-1), quiet.max(axis=-1)
    bar = np.where(rival < rows[:, None], bar, np.nextafter(bar, -np.inf))
    return instance.gf.T[rows][..., None] / denom[:, None] > bar[..., None], rival


def _best_carrier_action(instance, model, regime, grid):
    """Best single-carrier leader action on the power grid, every follower
    re-responding, as ``(utility, carrier, power)``; ties go to the lower
    carrier, then the earlier grid point.  The ``(K, N)`` table of leader
    utilities ``rate * f(sinr) / p`` is scored in row pieces of about
    ``PIECE_CELLS`` (action, follower) cells."""
    carriers = np.arange(instance.carriers)
    rows = max(1, PIECE_CELLS // (grid.size * max(instance.followers, 1)))
    utilities = []
    for s in (carriers[i:i + rows] for i in range(0, carriers.size, rows)):
        interference = 0.0
        if regime == "dense":
            gf, denom = instance.gf.T[s][..., None], instance.sigma2 + instance.h0[s, None] * grid
            chosen = _follower_choice(instance, s, denom)[0]
            # hf-weighted follower powers, masked to the chosen carrier in
            # place; a subnormal gain overflows (and inf * 0 is NaN) only off
            # it, where the mask drops the value
            with np.errstate(over="ignore", invalid="ignore"):
                terms = model.gamma * denom[:, None] / gf
                terms *= instance.hf.T[s][..., None]
            np.copyto(terms, 0.0, where=~chosen)
            interference = terms.sum(axis=1)
        sinr = instance.g0[s, None] * grid / (instance.sigma2 + interference)
        utilities.append(float(instance.rates[0]) * model.value(sinr) / grid)
    utilities = np.concatenate(utilities)
    k, i = divmod(int(np.argmax(utilities)), grid.size)
    return float(utilities[k, i]), k, float(grid[i])


def _leader_grid(instance, model, grid_size):
    """The power grid centred on the leader's natural scale."""
    return power_grid(model.gamma * instance.sigma2 / float(instance.g0.max()), grid_size)


@cache
def _peak_efficiency(model: EfficiencyModel) -> float:
    """``phi* = max_x f(x)/x`` by golden-section search (Kiefer 1953).

    ``f(x)/x`` rises while ``x f'(x) > f(x)`` and falls after, with its
    peak below ``m``, so it is unimodal on ``(0, m)``.  The search keeps
    the better interior point until the points meet in float; the peak is
    flat, so the best value found is ``phi*`` to the rounding of ``f``."""
    lo, hi = 0.0, float(model.m)
    c, d = hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo)
    fc, fd = model.value(c) / c, model.value(d) / d
    while lo < c < d < hi:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - GOLDEN * (hi - lo)
            fc = model.value(c) / c
        else:
            lo, c, fc = c, d, fd
            d = lo + GOLDEN * (hi - lo)
            fd = model.value(d) / d
    return max(fc, fd)


def _unilateral(instance, model, players, allocation, regime, tol) -> list[DeviationReport]:
    """The best deviation of each of ``players`` with every other row fixed:
    the bound ``rate * max_k(g_k / d_k) * phi*`` (module docstring),
    attained by the player's best response, which is the reported action.
    One utilities pass and one denominators pass serve every player."""
    players = list(players)
    claimed = all_utilities(instance, model, allocation, regime)[players].tolist()
    denom = denominators(instance, allocation, regime)[players]
    gains = instance.gains[players]
    ratios = gains / denom
    k = np.argmax(ratios, axis=1)[:, None]
    power = (model.gamma * np.take_along_axis(denom, k, 1) / np.take_along_axis(gains, k, 1))
    best = instance.rates[players] * np.take_along_axis(ratios, k, 1)[:, 0] * _peak_efficiency(model)
    return [
        _report(player, u, b, {"carrier": c, "power": p, "source": "bound"}, tol)
        for player, u, b, c, p in zip(players, claimed, best.tolist(), k[:, 0].tolist(),
                                      power[:, 0].tolist())
    ]


def verify_follower(
    instance: NetworkInstance,
    model: EfficiencyModel,
    f: int,
    allocation,
    tol: float = 1e-12,
) -> DeviationReport:
    """Unilateral deviation check of follower ``f`` (player ``f+1``); its
    SINR depends only on the leader's row, so this holds in both regimes."""
    return _unilateral(instance, model, (f + 1,), allocation, "dense", tol)[0]


def verify_followers(
    instance: NetworkInstance,
    model: EfficiencyModel,
    allocation,
    tol: float = 1e-12,
) -> list[DeviationReport]:
    """:func:`verify_follower` of every follower, in order."""
    return _unilateral(instance, model, range(1, instance.players), allocation, "dense", tol)


def verify_leader_stackelberg(
    instance: NetworkInstance,
    model: EfficiencyModel,
    allocation,
    regime: str,
    grid_size: int = 300,
    tol: float = 1e-3,
) -> DeviationReport:
    """Bi-level deviation search for the leader.

    Every single-carrier action on the grid is scored against freshly
    computed follower best responses.  The grid is ``grid_size`` powers
    spanning eight decades around ``gamma * sigma2 / max(g0)``, plus ``w *
    t`` for the nonzero weights ``w`` of an 11-point convex sweep and the
    totals ``t`` of a coarse grid: every part of those two-carrier splits,
    so by the module's lemma the search is no weaker than probing them.
    """
    if grid_size < 100:
        raise ValueError("grid_size must be at least 100")
    claimed = utility(instance, model, 0, allocation, regime)
    totals = _leader_grid(instance, model, max(grid_size // 10, 12))
    parts = np.multiply.outer(PART_WEIGHTS, totals).ravel()
    grid = np.concatenate([_leader_grid(instance, model, grid_size), parts])
    best, k, p = _best_carrier_action(instance, model, regime, grid)
    return _report(0, claimed, best, {"carrier": k, "power": p, "source": "grid"}, tol)


def verify_nash(
    instance: NetworkInstance,
    model: EfficiencyModel,
    allocation,
    regime: str,
    tol: float = 1e-3,
) -> list[DeviationReport]:
    """Unilateral deviation check of every player, others held fixed."""
    return _unilateral(instance, model, range(instance.players), allocation, regime, tol)


def brute_force_stackelberg(
    instance: NetworkInstance,
    model: EfficiencyModel,
    regime: str,
    grid_size: int = 300,
) -> np.ndarray:
    """Exhaustive leader grid search with exact follower re-responses.

    Returns the best allocation found (leader action plus the follower
    best responses it induces).  Meant for small instances; accuracy is
    bounded by the grid resolution.
    """
    grid = _leader_grid(instance, model, grid_size)
    _, k, p = _best_carrier_action(instance, model, regime, grid)
    allocation = np.zeros((instance.players, instance.carriers))
    allocation[0, k] = p
    allocation[1:] = respond(instance, allocation[0], model.gamma)[0]
    return allocation
