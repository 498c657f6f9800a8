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

from .efficiency import EfficiencyModel
from .model import (
    EquilibriumResult,
    NetworkInstance,
    empty_allocation,
    make_result,
    rank_carriers,
)

__all__ = ["solve_sparse"]


def solve_sparse(instance: NetworkInstance, model: EfficiencyModel) -> EquilibriumResult:
    """Hierarchical equilibrium of the sparse-regime game.

    Every player ends up single-carrier with its SINR exactly at the
    optimal operating point; follower branch decisions are recorded in
    ``diagnostics["follower_branches"]`` as ``"free"`` (own best carrier,
    no contention), ``"stay"`` (shares the leader's carrier) or ``"move"``
    (second-best carrier).
    """
    if instance.carriers < 2:
        raise ValueError("the sparse equilibrium needs at least two carriers")
    gamma = model.gamma
    sigma2 = instance.sigma2
    alloc = empty_allocation(instance)

    best, second = (ranks.tolist() for ranks in rank_carriers(instance))
    b0 = best[0]
    p0 = gamma * sigma2 / instance.g0[b0]
    alloc[0, b0] = p0

    branches = []
    for f in range(instance.followers):
        bf, sf = best[f + 1], second[f + 1]
        if bf != b0:
            alloc[f + 1, bf] = gamma * sigma2 / instance.gf[f, bf]
            branches.append("free")
            continue
        ratio = instance.gf[f, bf] / instance.gf[f, sf]
        threshold = 1.0 + (instance.h0[bf] / instance.g0[bf]) * gamma
        if ratio >= threshold:
            # same arithmetic as the shared-carrier power in the dense
            # solver, so the two agree bitwise when cross gains vanish
            alloc[f + 1, bf] = gamma * (sigma2 + instance.h0[bf] * p0) / instance.gf[f, bf]
            branches.append("stay")
        else:
            alloc[f + 1, sf] = gamma * sigma2 / instance.gf[f, sf]
            branches.append("move")

    diagnostics = {
        "solver": "sparse_closed_form",
        "sinr_target": gamma,
        "follower_branches": tuple(branches),
    }
    return make_result(instance, model, alloc, "sparse", diagnostics)
