"""Comparison schemes: simultaneous-move Nash and the best-channel heuristic.

Every player transmits on one carrier at exactly the optimal SINR given the
interference seen there.  The schemes differ in how carriers are chosen:

* Nash dynamics re-pick the interference-adjusted best carrier on every
  update (round-robin, leader first, from silence); a fixed point is a Nash
  equilibrium of the simultaneous-move game.  The iteration need not
  converge and its report says why it stopped; divergence is reported with
  the last finite iterate, never raised, and its overflow raises no warning.
* The best-channel heuristic pins each player to its raw best-gain carrier.
  Its power map is affine with one scalar gain ``b``, so its fixed point is
  closed form and exists exactly when ``b < 1``; its overflow is named.

Both run on every trial of a batch (:func:`nash_batch`, :func:`best_channel_batch`),
each trial ending in a stop code, an index into :data:`model.STOPS`; :func:`solve_nash` and
:func:`solve_best_channel` are their one-instance calls, with reports.  All four need a regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .efficiency import EfficiencyModel
from .model import (CAP, CONVERGED, CYCLE, INFEASIBLE, OVERFLOW, STOPS, EquilibriumResult,
                    NetworkInstance, _heard, best_response, empty_allocation, hears_followers,
                    leader_interference, make_result, respond, stack_instances)

__all__ = ["IterationReport", "nash_batch", "solve_nash", "best_channel_batch",
           "solve_best_channel"]


@dataclass(frozen=True)
class IterationReport:
    """Convergence record of one fixed-point run; ``stop`` names why it ended:
    ``"converged"``, ``"cycle"`` (an exact repeat, carried to ``max_iter``),
    ``"overflow"`` (a non-finite iterate), ``"cap"`` or, for best-channel,
    ``"infeasible"`` (no finite fixed point)."""

    converged: bool
    iterations: int
    stop: str


def _iterate(step, alloc: np.ndarray, max_iter: int, tol: float):
    """Apply the in-place sweep ``step`` to every trial's iterate, row ``t``
    of ``alloc``, until the row's largest power change drops below ``tol``
    times its largest power, it turns non-finite or ``max_iter`` sweeps ran;
    returns the last finite iterates and, per row, the stop code and the
    sweeps run.
    Rows run in lockstep, and a stopped row is put back after each sweep.
    An exact repeat (checked Brent-style against one checkpoint re-taken at
    sweeps 1, 2, 4, ...) skips whole periods, returning what every sweep
    would."""
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    rows = len(alloc)
    stop = np.full(rows, CAP)
    sweeps, running = np.zeros(rows, dtype=int), np.ones(rows, dtype=bool)
    checkpoint, mark, sweep = None, 0, 0
    with np.errstate(over="ignore", invalid="ignore"):
        while running.any():
            sweep += 1
            previous = alloc.copy()
            step(alloc)
            sweeps += running
            finite = np.isfinite(alloc).all(axis=(1, 2))
            stop[running & ~finite] = OVERFLOW
            running &= finite
            np.copyto(alloc, previous, where=~running[:, None, None])
            moved = np.abs(alloc - previous).max(axis=(1, 2))
            done = running & (moved < tol * alloc.max(axis=(1, 2)))
            stop[done] = CONVERGED
            running &= ~done
            if checkpoint is not None:
                # rows still looking whose bytes repeat the checkpoint passed
                # every check over sweeps mark+1..sweep and repeat with this
                # period; jump by whole periods
                same = (alloc.view(np.int64) == checkpoint).all(axis=(1, 2))
                repeat = running & (stop == CAP) & same
                stop[repeat] = CYCLE
                sweeps[repeat] = max_iter - (max_iter - sweep) % (sweep - mark)
            if sweep & (sweep - 1) == 0:
                checkpoint, mark = alloc.view(np.int64).copy(), sweep
            running &= sweeps < max_iter
    return alloc, stop, sweeps


def nash_batch(batch: NetworkInstance, model: EfficiencyModel, regime: str,
               max_iter: int = 1000, tol: float = 1e-10):
    """:func:`solve_nash`'s dynamics on every trial: the last iterates
    ``(T, F+1, K)`` and, per trial ``(T,)``, the stop code and the sweeps run."""
    gamma = model.gamma

    def step(alloc):
        interference = leader_interference(batch, alloc[:, 1:], regime)
        leader = best_response(batch.g0, batch.sigma2 + interference, gamma)[0]
        alloc[:, 0] = leader
        alloc[:, 1:] = respond(batch, leader, gamma)[0]

    return _iterate(step, empty_allocation(batch), max_iter, tol)


def solve_nash(
    instance: NetworkInstance,
    model: EfficiencyModel,
    regime: str,
    max_iter: int = 1000,
    tol: float = 1e-10,
) -> tuple[EquilibriumResult, IterationReport]:
    """Round-robin best-response dynamics from the all-zero profile.

    Each update moves one player to its interference-adjusted best carrier
    at the optimal-SINR power.  Stops when the largest power change over a
    full sweep drops below ``tol`` times the largest power, so ``converged``
    means the same at every SNR; cycling or divergence ends with
    ``converged=False`` and the last iterate.  A run that enters an exact
    cycle skips the repeated sweeps and returns the same iterate and
    ``iterations == max_iter`` as running them all.  The result's
    diagnostics are empty; the report returned beside it is the run's record.
    """
    alloc, *run = nash_batch(stack_instances((instance,)), model, regime, max_iter, tol)
    stop, sweeps = (x.item() for x in run)  # reports hold Python values
    return (make_result(instance, model, alloc[0], regime),
            IterationReport(stop == CONVERGED, sweeps, STOPS[stop]))


def best_channel_batch(batch: NetworkInstance, model: EfficiencyModel, regime: str):
    """:func:`solve_best_channel` on every trial: the allocations ``(T, F+1,
    K)``, the stop codes of its reports ``(T,)``, the pinned carriers ``(T,
    F+1)`` and the feedback gains ``b`` ``(T,)``."""
    gamma, sigma2, g0, h0 = model.gamma, batch.sigma2[:, 0], batch.g0, batch.h0
    rows, followers = np.arange(batch.trials), np.arange(batch.followers)
    pins = batch.gains.argmax(axis=-1)
    k0 = pins[:, 0]
    coupled = (pins[:, 1:] == k0[:, None]) & hears_followers(regime)
    with np.errstate(over="ignore", invalid="ignore"):  # a subnormal gain can overflow
        eta = np.divide(batch.hf[rows, :, k0], batch.gf[rows, :, k0],
                        out=np.zeros(coupled.shape), where=coupled).sum(axis=1)
        g0k = g0[rows, k0]
        b = gamma * gamma * h0[rows, k0] * eta / g0k
        feasible = b < 1.0
        alloc = np.zeros(batch.gains.shape)
        alloc[rows, 0, k0] = np.divide(gamma * sigma2 * (1.0 + gamma * eta) / g0k, 1.0 - b,
                                       out=np.zeros(batch.trials), where=feasible)
        k, trial = pins[:, 1:], rows[:, None]
        heard = _heard(h0[trial, k], alloc[trial, 0, k])
        powers = gamma * (sigma2[:, None] + heard) / batch.gf[trial, followers, k]
    alloc[trial, followers + 1, k] = np.where(coupled & ~feasible[:, None], 0.0, powers)
    converged = feasible & np.isfinite(alloc).all(axis=(1, 2))
    stop = np.where(converged, CONVERGED, np.where(b >= 1.0, INFEASIBLE, OVERFLOW))
    return np.nan_to_num(alloc, nan=0.0, posinf=0.0), stop, pins, b


def solve_best_channel(
    instance: NetworkInstance,
    model: EfficiencyModel,
    regime: str,
) -> tuple[EquilibriumResult, IterationReport]:
    """Every player pinned to its raw best-gain carrier at the optimal SINR.

    Only the leader's carrier ``k0`` couples anyone, so the target-SINR
    powers (Foschini-Miljanic) are closed form: with ``eta`` the sum of
    ``hf/gf`` on ``k0`` over the followers pinned there (0 in the sparse
    regime), the leader's power solves ``p0 = A + b p0`` with
    ``A = gamma sigma2 (1 + gamma eta) / g0[k0]`` and
    ``b = gamma^2 h0[k0] eta / g0[k0]``; each follower's follows from it.
    If ``b < 1`` the report says ``"converged"``.  Otherwise no finite powers
    reach ``gamma`` on ``k0``: the report says ``"infeasible"``, and the leader
    and the followers pinned to ``k0`` get all-zero rows (utility 0, the limit
    of their growing powers); every other row is exact.  A power past the
    float range is 0 as well, and the report says ``"overflow"`` unless ``b >=
    1`` (so a NaN ``b`` says it too).  Reports have ``iterations == 0``.
    ``diagnostics["pinned_carriers"]`` is every player's pinned carrier,
    naming the carrier of an all-zero row; ``diagnostics["feedback_gain"]`` is ``b``.
    """
    alloc, (stop,), pins, b = best_channel_batch(stack_instances((instance,)), model, regime)
    report = IterationReport(bool(stop == CONVERGED), 0, STOPS[stop])
    diagnostics = {"pinned_carriers": tuple(pins[0].tolist()), "feedback_gain": float(b[0])}
    return make_result(instance, model, alloc[0], regime, diagnostics), report
