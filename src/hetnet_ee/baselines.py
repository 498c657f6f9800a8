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
  closed form and exists exactly when ``b < 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .efficiency import EfficiencyModel
from .model import (
    EquilibriumResult,
    NetworkInstance,
    best_response,
    denominators,
    empty_allocation,
    make_result,
    respond,
)

__all__ = ["IterationReport", "solve_nash", "solve_best_channel"]


@dataclass(frozen=True)
class IterationReport:
    """Convergence record of one fixed-point run; ``stop`` names why it ended:
    ``"converged"``, ``"cycle"`` (an exact repeat, carried to ``max_iter``),
    ``"overflow"`` (a non-finite iterate), ``"cap"`` or, for best-channel,
    ``"infeasible"`` (no finite fixed point)."""

    converged: bool
    iterations: int
    final_change: float
    stop: str


def _iterate(step, alloc: np.ndarray, max_iter: int, tol: float):
    """Apply the in-place sweep ``step`` until the largest power change drops
    below ``tol`` times the largest power, an iterate turns non-finite or
    ``max_iter`` sweeps ran; returns the last finite iterate and its
    ``IterationReport``.  An exact repeat (checked Brent-style against one
    checkpoint re-taken at sweeps 1, 2, 4, ...) skips whole periods,
    returning what every sweep would."""
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    change, stop, checkpoint, mark, sweep = np.inf, "cap", None, 0, 0
    with np.errstate(over="ignore", invalid="ignore"):
        while sweep < max_iter:
            sweep += 1
            previous = alloc.copy()
            step(alloc)
            if not np.all(np.isfinite(alloc)):
                return previous, IterationReport(False, sweep, change, "overflow")
            change = float(np.abs(alloc - previous).max())
            if change < tol * float(alloc.max()):
                return alloc, IterationReport(True, sweep, change, "converged")
            if stop == "cap":
                state = alloc.tobytes()
                if state == checkpoint:
                    # sweeps mark+1..sweep passed every check and repeat
                    # with this period; jump by whole periods
                    stop = "cycle"
                    sweep = max_iter - (max_iter - sweep) % (sweep - mark)
                elif sweep & (sweep - 1) == 0:
                    checkpoint, mark = state, sweep
    return alloc, IterationReport(False, sweep, change, stop)


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
    full sweep drops below ``tol`` times the largest power, so ``converged``
    means the same at every SNR; cycling or divergence ends with
    ``converged=False`` and the last iterate.  A run that enters an exact
    cycle skips the repeated sweeps and returns the same iterate, change
    and ``iterations == max_iter`` as running them all.
    """
    gamma = model.gamma

    def step(alloc):
        alloc[0] = best_response(instance.g0, denominators(instance, alloc, regime)[0], gamma)[0]
        alloc[1:] = respond(instance, alloc[0], gamma)[0]

    alloc, report = _iterate(step, empty_allocation(instance), max_iter, tol)
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
) -> tuple[EquilibriumResult, IterationReport]:
    """Every player pinned to its raw best-gain carrier at the optimal SINR.

    Only the leader's carrier ``k0`` couples anyone, so the target-SINR
    powers (Foschini-Miljanic) are closed form: with ``eta`` the sum of
    ``hf/gf`` on ``k0`` over the followers pinned there (0 in the sparse
    regime), the leader's power solves ``p0 = A + b p0`` with
    ``A = gamma sigma2 (1 + gamma eta) / g0[k0]`` and
    ``b = gamma^2 h0[k0] eta / g0[k0]``; each follower's follows from it.
    If ``b < 1`` the report says ``"converged"``.  Otherwise no finite powers
    reach ``gamma`` on ``k0``: the report says ``converged=False`` and
    ``"infeasible"``, and the leader and the followers pinned to ``k0`` get
    all-zero rows (utility 0, the limit of their growing powers); every
    other row is exact.  Reports have ``iterations == 0`` and
    ``final_change == 0.0``; ``diagnostics["feedback_gain"]`` is ``b``.
    """
    gamma, sigma2 = model.gamma, instance.sigma2
    pins = instance.gains.argmax(axis=1)
    k0 = pins[0]
    coupled = (pins[1:] == k0) & (regime == "dense")
    eta = float((instance.hf[coupled, k0] / instance.gf[coupled, k0]).sum())
    b = float(gamma * gamma * instance.h0[k0] * eta / instance.g0[k0])
    feasible = b < 1.0
    alloc = empty_allocation(instance)
    if feasible:
        alloc[0, k0] = gamma * sigma2 * (1.0 + gamma * eta) / instance.g0[k0] / (1.0 - b)
    f, k = np.arange(instance.followers), pins[1:]
    alloc[f + 1, k] = gamma * (sigma2 + instance.h0[k] * alloc[0, k]) / instance.gf[f, k]
    if not feasible:
        alloc[1:][coupled] = 0.0
    report = IterationReport(feasible, 0, 0.0, "converged" if feasible else "infeasible")
    diagnostics = {
        "solver": "best_channel_fixed_point",
        "sinr_target": gamma,
        "pinned_carriers": tuple(pins.tolist()),
        "feedback_gain": b,
        "iteration_report": report,
    }
    return make_result(instance, model, alloc, regime, diagnostics), report
