"""Comparison schemes: simultaneous-move Nash and the best-channel heuristic.

Both schemes give every player the same myopic power rule, transmit on one
carrier at exactly the optimal SINR given the interference currently seen
there.  They differ in how the carrier is chosen:

* Nash dynamics re-pick the interference-adjusted best carrier on every
  update (round-robin, leader first, followers in index order, starting
  from silence).  A fixed point of this map is a Nash equilibrium of the
  simultaneous-move game.
* The best-channel heuristic pins each player to its raw best-gain
  carrier and only iterates the powers.

Neither iteration is guaranteed to converge; the report says whether it
did.  Divergence (interference feeding back faster than it damps) is
detected by non-finite powers or iteration exhaustion and reported as
``converged=False``, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .efficiency import EfficiencyModel, optimal_sinr
from .model import (
    EquilibriumResult,
    NetworkInstance,
    empty_allocation,
    leader_interference,
    make_result,
    respond,
)

__all__ = ["IterationReport", "solve_nash", "solve_best_channel"]


@dataclass(frozen=True)
class IterationReport:
    """Convergence record of one best-response or fixed-point run."""

    converged: bool
    iterations: int
    final_change: float


def solve_nash(
    instance: NetworkInstance,
    model: EfficiencyModel,
    regime: str = "dense",
    max_iter: int = 1000,
    tol: float = 1e-10,
) -> tuple[EquilibriumResult, IterationReport]:
    """Round-robin best-response dynamics from the all-zero profile.

    Each update moves one player to its interference-adjusted best carrier
    at the optimal-SINR power.  Stops when the largest power change over a
    full sweep drops below ``tol``; cycling or divergence ends with
    ``converged=False`` and the last iterate.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    gamma = optimal_sinr(model)
    alloc = empty_allocation(instance)
    converged = False
    change = np.inf
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        previous = alloc.copy()
        interference = (
            leader_interference(instance, alloc[1:])
            if regime == "dense"
            else np.zeros(instance.carriers)
        )
        k = int(np.argmax(instance.g0 / (instance.sigma2 + interference)))
        alloc[0] = 0.0
        alloc[0, k] = gamma * (instance.sigma2 + interference[k]) / instance.g0[k]
        alloc[1:] = respond(instance, alloc[0], gamma)[0]
        if not np.all(np.isfinite(alloc)):
            alloc = previous
            break
        change = float(np.abs(alloc - previous).max())
        if change < tol:
            converged = True
            break
    report = IterationReport(converged=converged, iterations=sweeps, final_change=change)
    diagnostics = {
        "solver": "nash_best_response",
        "sinr_target": gamma,
        "update_order": "leader_first_round_robin",
        "iteration_report": report,
    }
    return make_result(instance, model, alloc, regime, diagnostics), report


def solve_best_channel(
    instance: NetworkInstance,
    model: EfficiencyModel,
    regime: str = "dense",
    max_iter: int = 1000,
    tol: float = 1e-10,
) -> tuple[EquilibriumResult, IterationReport]:
    """Fixed-point power iteration with carriers pinned to raw best gains.

    Carrier choices never change; powers chase the optimal-SINR level
    against whatever interference the other pinned players currently
    produce.  When contention is strong enough the power recursion has no
    finite fixed point and the run reports ``converged=False``.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    gamma = optimal_sinr(model)
    pins = [int(np.argmax(instance.own_gains(n))) for n in range(instance.players)]
    alloc = empty_allocation(instance)
    converged = False
    change = np.inf
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        previous = alloc.copy()
        interference = (
            leader_interference(instance, alloc[1:])
            if regime == "dense"
            else np.zeros(instance.carriers)
        )
        k0 = pins[0]
        alloc[0, k0] = gamma * (instance.sigma2 + interference[k0]) / instance.g0[k0]
        for f in range(instance.followers):
            k = pins[f + 1]
            denom = instance.sigma2 + instance.h0[k] * alloc[0, k]
            alloc[f + 1, k] = gamma * denom / instance.gf[f, k]
        if not np.all(np.isfinite(alloc)):
            alloc = previous
            break
        change = float(np.abs(alloc - previous).max())
        if change < tol:
            converged = True
            break
    report = IterationReport(converged=converged, iterations=sweeps, final_change=change)
    diagnostics = {
        "solver": "best_channel_fixed_point",
        "sinr_target": gamma,
        "pinned_carriers": tuple(pins),
        "iteration_report": report,
    }
    return make_result(instance, model, alloc, regime, diagnostics), report
