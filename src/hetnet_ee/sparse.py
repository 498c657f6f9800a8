"""Closed-form hierarchical equilibrium for sparse small-cell deployments.

With small-cell interference ignored at the macro receiver, the leader's
problem decouples: it transmits on its best carrier at the power that puts
its SINR exactly at the optimal operating point.  Each follower then either
keeps its own best carrier (absorbing the leader's interference with a
power raise) or retreats to its second-best carrier, depending on whether
its best-to-second gain ratio clears ``1 + (h0/g0) * gamma`` on the shared
carrier.  A ratio exactly at the threshold yields identical utilities on
both carriers; the solver deterministically keeps the shared carrier.
"""

from __future__ import annotations

import numpy as np

from .efficiency import EfficiencyModel
from .model import (
    EquilibriumResult,
    NetworkInstance,
    empty_allocation,
    make_result,
    rank_carriers,
)

__all__ = ["solve_sparse"]

_BRANCHES = np.array(["free", "stay", "move"])


def solve_sparse(instance: NetworkInstance, model: EfficiencyModel) -> EquilibriumResult:
    """Hierarchical equilibrium of the sparse-regime game.

    Every player ends up single-carrier with its SINR exactly at the
    optimal operating point; follower branch decisions are recorded in
    ``diagnostics["follower_branches"]`` as ``"free"`` (own best carrier,
    no contention), ``"stay"`` (shares the leader's carrier) or ``"move"``
    (second-best carrier).
    """
    gamma, sigma2 = model.gamma, instance.sigma2
    alloc = empty_allocation(instance)

    best, second = rank_carriers(instance)
    b0 = best[0]
    p0 = gamma * sigma2 / instance.g0[b0]
    alloc[0, b0] = p0

    f, best, second = np.arange(instance.followers), best[1:], second[1:]
    contended = best == b0
    ratio = instance.gf[f, best] / instance.gf[f, second]
    threshold = 1.0 + (instance.h0[b0] / instance.g0[b0]) * gamma
    stay = contended & (ratio >= threshold)
    move = contended & ~stay
    carrier = np.where(move, second, best)
    # same arithmetic as the shared-carrier power in the dense solver, so
    # the two agree bitwise when cross gains vanish
    denom = np.where(stay, sigma2 + instance.h0[best] * p0, sigma2)
    alloc[f + 1, carrier] = gamma * denom / instance.gf[f, carrier]

    diagnostics = {
        "solver": "sparse_closed_form",
        "sinr_target": gamma,
        "follower_branches": tuple(_BRANCHES[contended * 1 + move].tolist()),
    }
    return make_result(instance, model, alloc, "sparse", diagnostics)
