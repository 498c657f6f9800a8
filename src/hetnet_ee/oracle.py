"""Certification of equilibria, independent of the closed-form solvers.

Every check recomputes utilities from scratch for a batch (a
:class:`~hetnet_ee.model.NetworkInstance` with a leading trial axis) and
returns :class:`Checks`, arrays over trials and players, from which
:class:`DeviationReport` objects are built only to be read; the
``verify_*`` functions and :func:`brute_force_stackelberg` are one-instance
calls.  ``f`` is the success curve and ``phi_c(x) = f(x) (1 - c x) / x``;
``phi_c`` rises while ``(x - c x^2) f'(x) > f(x)`` and falls after, once,
below ``min(m, 1/c)``, so a golden-section search (Kiefer 1953) on ``(0,
min(m, 1/c)]`` finds its peak with no root solved, once per distinct
``c``.  ``phi* = max phi_0`` is searched until the points meet in float.
A check passes when its relative gain is at most ``tol``, :data:`TOL` by
default for every player of every scheme: the checks are exact, and
solver outputs read gains near ``1e-15``.  The leader check is two-sided:
its certificate is the leader's exact best with every follower
re-responding, so a claim above it, by a gain below ``-tol``, comes from
follower rows that are not those responses, and fails.

**The unilateral check** (stackelberg followers, Nash players) is exact.
With the other rows fixed, the player's denominators ``d_k`` are constant;
with ``a_k = g_k / d_k``, any action ``p``, multi-carrier included, earns::

    U(p) = rate * sum_k f(a_k p_k) / sum_k p_k
        <= rate * max_k f(a_k p_k) / p_k       (mediant: sum x / sum y <= max x/y)
        <= rate * max_k a_k * phi*             (f(a p) / p = a f(a p) / (a p) <= a phi*)

and :func:`model.best_response` (SINR ``gamma`` on the argmax carrier),
the deviation the check reports, attains it.

**The leader check** is exact too, every follower re-responding at the
model's ``gamma`` as :func:`model.respond` picks.  A leader action ``p`` on
several carriers never beats its best single-carrier part ``p_k e_k``: a
follower's score on ``j != k``, ``gf_j / (sigma2 + h0_j p_j)``, is at most
its score ``gf_j / sigma2`` under ``p_k e_k`` and its score on ``k`` is the
same, so a follower on ``k`` under ``p_k e_k`` stays there under ``p``
(lowest-index ties and monotone rounding keep this); more followers on
``k`` mean more interference, and the mediant step gives ``U(p) <= max_k
U(p_k e_k)``.  With the leader alone on ``k``, a follower's score there
falls with ``p``, so it stays on ``k`` exactly below one switching power,
its :func:`model.switches` entry, the same float the dense solver reads;
these cut the powers into at most ``F+1`` intervals (one where
:func:`model.hears_followers` says the leader hears none) with a fixed set
of followers on ``k``.  With ``eta = sum hf / gf`` over it, the leader's
SINR ``x = g0 p / (sigma2 (1 + gamma eta) + gamma eta h0 p)`` rises with
``p`` below ``1/c``, ``c = gamma eta h0 / g0``, and its utility is ``rate
g0 / (sigma2 (1 + gamma eta)) phi_c(x)``, so an interval's best power is
its stationary point or an end.
``GOLDEN_STEPS`` steps narrow the search below ``1e-10`` of its bracket,
and the peak is quadratic, so its value is exact to the rounding of ``f``
(measured for ``m`` up to 100).  Those powers and each switching power
with its float neighbours are scored with every follower re-responding
(on ``k`` exactly below its switch);
the best is the leader's best deviation, and
:func:`brute_force_stackelberg` returns it as an allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Optional

import numpy as np

from .efficiency import EfficiencyModel, _success
from .model import (NetworkInstance, all_utilities, best_response, denominators, hears_followers,
                    respond, stack_instances, switches)

__all__ = ["TOL", "DeviationReport", "Checks", "stackelberg_checks", "nash_checks",
           "verify_follower", "verify_leader_stackelberg", "verify_nash", "brute_force_stackelberg"]

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_STEPS = 48
TOL = 1e-12  # the default relative-gain tolerance of every check


@dataclass(frozen=True)
class DeviationReport:
    """Outcome of one deviation search.

    ``relative_gain`` is ``(best_found - claimed) / claimed`` (infinite
    when a zero-utility claim has a positive alternative); the check passes
    as :attr:`Checks.passed` says.  ``deviating_action`` is
    the best deviation's carrier and power; a power past the float range
    (a subnormal gain on that carrier) reads ``inf``.
    """

    player: int
    claimed_utility: float
    best_found_utility: float
    relative_gain: float
    deviating_action: dict
    tolerance: float
    passed: bool


@dataclass(eq=False)
class Checks:
    """Checks of every player over ``T`` trials: ``claimed`` utilities, the
    ``best`` deviation's utility, ``carriers`` and ``powers``, ``(T, N)``;
    ``sources`` per player; one ``tol`` for every check (two-sided for an
    ``"exact"`` source).  A trial whose ``claims`` entry is false (by
    default none is) claims no equilibrium and has no reports."""

    claimed: np.ndarray
    best: np.ndarray
    carriers: np.ndarray
    powers: np.ndarray
    sources: tuple
    tol: float
    claims: Optional[np.ndarray] = None
    gains: np.ndarray = field(init=False)
    passed: np.ndarray = field(init=False)

    def __post_init__(self):
        claims = np.ones(len(self.claimed), bool) if self.claims is None else self.claims
        self.claims = np.asarray(claims, bool)
        # a claim of 0 has no ratio, and a subnormal one can overflow it to inf
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = (self.best - self.claimed) / self.claimed
        self.gains = np.where(self.claimed > 0.0, ratio, np.where(self.best > 0.0, np.inf, 0.0))
        exact = np.array([s == "exact" for s in self.sources], dtype=bool)
        self.passed = np.where(exact, np.abs(self.gains) <= self.tol, self.gains <= self.tol)

    def reports(self, t: int) -> list[DeviationReport]:
        if not self.claims[t]:
            return []
        rows = (self.claimed, self.best, self.gains, self.carriers, self.powers, self.passed)
        return [DeviationReport(n, u, b, g, {"carrier": k, "power": p, "source": s}, self.tol, ok)
                for n, (u, b, g, k, p, ok, s) in enumerate(zip(*(r[t].tolist() for r in rows),
                                                               self.sources))]


def _golden(model, c, meet=False):
    """The argmax and the max of ``phi_c`` on ``(0, min(m, 1/c)]`` for each
    entry of ``c``: ``GOLDEN_STEPS`` golden-section steps or, with ``meet``
    (one entry), steps until the points meet in float.  Each distinct
    entry (by its bits) is searched once."""
    order = np.argsort(c, kind="stable")  # _leader's own sort kernel; a new one maps 0.3 MB
    first = np.diff(c.view(np.int64)[order], prepend=-1) != 0  # -1 is a NaN's bits
    back = np.empty_like(order)
    back[order] = np.cumsum(first) - 1
    c, m = c[order[first]], model.m
    with np.errstate(divide="ignore"):
        hi = np.minimum(float(m), 1.0 / c)
    lo = np.zeros_like(hi)

    def phi(x):  # model.value unchecked: every x lies in (0, hi]
        return _success(x, m) * (1.0 - c * x) / x

    x1, x2 = hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo)
    f1, f2 = phi(x1), phi(x2)
    steps = GOLDEN_STEPS
    while bool(lo < x1 < x2 < hi) if meet else (steps := steps - 1) >= 0:
        left = f1 >= f2  # the peak lies below x2, else above x1
        hi, lo = np.where(left, x2, hi), np.where(left, lo, x1)
        step = GOLDEN * (hi - lo)
        new = np.where(left, hi - step, lo + step)
        f_new = phi(new)
        x1, x2 = np.where(left, new, x2), np.where(left, x1, new)
        f1, f2 = np.where(left, f_new, f2), np.where(left, f1, f_new)
    return np.where(f1 >= f2, x1, x2)[back], np.where(f1 >= f2, f1, f2)[back]


@cache
def _peak_efficiency(model: EfficiencyModel) -> float:
    """``phi* = max_x f(x)/x``, searched until the points meet."""
    return float(_golden(model, np.zeros(1), meet=True)[1][0])


def _unilateral(batch, model, players, allocation, regime):
    """The best deviation of each of ``players`` with every other row
    fixed: the bound ``rate * max_k(g_k / d_k) * phi*`` (module docstring),
    attained by the :func:`model.best_response` whose carrier and power are
    the action.  Returns ``(best, carriers, powers)``, each ``(T, P)``."""
    denom = denominators(batch, allocation, regime)[:, players]
    gains = batch.gains[:, players]
    powers, k = best_response(gains, denom, model.gamma)
    best = batch.rates[:, players] * (gains / denom).max(axis=-1) * _peak_efficiency(model)
    return best, k, powers.sum(axis=-1)  # the one nonzero power


def _leader(batch, model, regime):
    """The leader's best single-carrier action, every follower
    re-responding (module docstring): ``(best, carriers, powers)``, each
    ``(T, 1)``; ties go to the lower carrier, then the earlier candidate."""
    gamma, sigma2 = model.gamma, batch.sigma2[:, :, None]
    h0, g0 = batch.h0[:, :, None], batch.g0[:, :, None]
    # by (trial, carrier, follower): gains, and switching powers, 0 off the
    # follower's carrier at zero power; no follower reaches a sparse leader
    count = batch.followers * hears_followers(regime)
    gk, hk = (x.swapaxes(-1, -2)[..., :count] for x in (batch.gf, batch.hf))
    switch = np.zeros(gk.shape)
    if count:
        carrier, _, switch = (x[:, None] for x in switches(batch))
        switch = np.where(carrier == np.arange(batch.carriers)[:, None], switch, 0.0)

    # interval j spans [ends[j-1], ends[j]) with the followers ranked j and up on k
    order = np.argsort(switch, axis=-1, kind="stable")
    ends = np.take_along_axis(switch, order, -1)
    eta = np.zeros(ends.shape[:-1] + (count + 1,))
    with np.errstate(over="ignore", invalid="ignore"):
        eta[..., :-1] = np.take_along_axis(hk / gk, order, -1)[..., ::-1].cumsum(-1)[..., ::-1]
        a, b = sigma2 * (1.0 + gamma * eta), gamma * eta * h0
        c = b / g0
    bounds = np.concatenate([np.zeros(eta.shape[:-1] + (1,)), ends,
                             np.full(eta.shape[:-1] + (1,), np.inf)], axis=-1)
    live = (bounds[..., :-1] < bounds[..., 1:]) & np.isfinite(a) & np.isfinite(c)

    # candidates: each live interval's stationary power, then each
    # switching power and its float neighbours
    x = np.full(c.shape, np.nan)
    x[live] = _golden(model, c[live])[0]
    breaks = np.where((switch > 0.0) & (switch < np.inf), switch, np.nan)[..., None]
    breaks = np.concatenate([np.nextafter(breaks, 0.0), breaks, np.nextafter(breaks, np.inf)], -1)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        cand = np.concatenate([a * x / (g0 - b * x), breaks.reshape(x.shape[:-1] + (-1,))], -1)
    valid = (cand > 0.0) & (cand < np.inf)

    t, k, _ = np.nonzero(valid)
    p = cand[valid]
    interference = np.zeros(p.shape)
    # follower by follower, a fixed rounding; a power overflows off k or past its
    # switch, where the mask drops it, and a denominator near 1e308 scores 0 or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        denom = batch.sigma2[t, 0] + batch.h0[t, k] * p
        for gf, hf, on in zip(*(arr.transpose(2, 0, 1)[:, t, k] for arr in (gk, hk, switch))):
            interference += np.where(p < on, gamma * denom / gf * hf, 0.0)
        sinr = batch.g0[t, k] * p / (batch.sigma2[t, 0] + interference)
        utility = batch.rates[t, 0] * model.value(sinr) / p
    scores = np.full(cand.shape, -np.inf)
    scores[valid] = np.where(np.isnan(utility), -np.inf, utility)
    scores, cand = scores.reshape(batch.trials, -1), cand.reshape(batch.trials, -1)
    i = scores.argmax(axis=1)[:, None]
    return np.take_along_axis(scores, i, 1), i // (4 * count + 1), np.take_along_axis(cand, i, 1)


def stackelberg_checks(batch, model, allocation, regime, tol=TOL, claims=None) -> Checks:
    """The leader's bi-level check and every follower's unilateral check of
    stackelberg allocations ``(T, F+1, K)``; ``claims`` as in :func:`nash_checks`."""
    allocation = np.asarray(allocation, dtype=float)
    found = zip(_leader(batch, model, regime),
                _unilateral(batch, model, range(1, batch.players), allocation, "dense"))
    return Checks(all_utilities(batch, model, allocation, regime),
                  *(np.concatenate(pair, axis=1) for pair in found),
                  ("exact",) + ("bound",) * batch.followers, tol, claims)


def nash_checks(batch, model, allocation, regime, tol=TOL, claims=None) -> Checks:
    """The unilateral check of every player of allocations ``(T, F+1, K)``,
    the others held fixed; ``claims`` (default: all) marks the trials that
    claim an equilibrium."""
    allocation = np.asarray(allocation, dtype=float)
    return Checks(all_utilities(batch, model, allocation, regime),
                  *_unilateral(batch, model, range(batch.players), allocation, regime),
                  ("bound",) * batch.players, tol, claims)


def _one(instance, allocation):
    """One instance and its allocation as a batch of one."""
    return stack_instances((instance,)), np.asarray(allocation, dtype=float)[None]


def verify_follower(instance: NetworkInstance, model: EfficiencyModel, f: int, allocation,
                    tol: float = TOL) -> DeviationReport:
    """Unilateral deviation check of follower ``f``, player ``f+1``'s row of
    :func:`verify_nash`, which reads only the leader's row in either regime."""
    return verify_nash(instance, model, allocation, "dense", tol)[f + 1]


def verify_leader_stackelberg(instance: NetworkInstance, model: EfficiencyModel, allocation,
                              regime: str, tol: float = TOL) -> DeviationReport:
    """Bi-level deviation check of the leader: its exact best action, every
    follower re-responding (module docstring)."""
    batch, allocation = _one(instance, allocation)
    return stackelberg_checks(batch, model, allocation, regime, tol).reports(0)[0]


def verify_nash(instance: NetworkInstance, model: EfficiencyModel, allocation, regime: str,
                tol: float = TOL) -> list[DeviationReport]:
    """Unilateral deviation check of every player, others held fixed."""
    batch, allocation = _one(instance, allocation)
    return nash_checks(batch, model, allocation, regime, tol).reports(0)


def brute_force_stackelberg(instance: NetworkInstance, model: EfficiencyModel,
                            regime: str) -> np.ndarray:
    """The leader's exact best action, as the leader check finds it, with
    the follower best responses it induces, as an allocation."""
    _, k, p = (x.item() for x in _leader(stack_instances((instance,)), model, regime))
    allocation = np.zeros(instance.gains.shape)
    allocation[0, k] = p
    allocation[1:] = respond(instance, allocation[0], model.gamma)[0]
    return allocation
