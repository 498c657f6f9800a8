"""Closed-form hierarchical equilibrium for sparse small-cell deployments.

With small-cell interference ignored at the macro receiver, the leader's
problem decouples: its :func:`model.best_response` to noise alone puts it on
its best carrier at the power that sets its SINR exactly at the optimal
operating point.  Each follower then best-responds to that leader row
(:func:`model.respond`): it keeps its own best carrier, absorbing the
leader's interference with a power raise, or retreats to its second-best
carrier.  A follower exactly indifferent between two carriers takes the
lower-indexed one, as every best response does.
"""

from __future__ import annotations

import numpy as np

from .efficiency import EfficiencyModel
from .model import (
    EquilibriumResult,
    NetworkInstance,
    best_response,
    make_result,
    respond,
    stack_instances,
    switches,
)

__all__ = ["sparse_batch", "solve_sparse"]

_BRANCHES = np.array(["free", "stay", "move"])


def sparse_batch(batch: NetworkInstance, model: EfficiencyModel):
    """Sparse-regime equilibrium of every trial: the allocations ``(T, F+1,
    K)`` and every player's carrier ``(T, F+1)``."""
    gamma = model.gamma
    leader, k0 = best_response(batch.g0, batch.sigma2, gamma)
    followers, carriers = respond(batch, leader, gamma)
    alloc = np.concatenate([leader[:, None], followers], axis=1)
    return alloc, np.concatenate([k0[:, None], carriers], axis=1)


def solve_sparse(instance: NetworkInstance, model: EfficiencyModel) -> EquilibriumResult:
    """Hierarchical equilibrium of the sparse-regime game.

    Every player ends up single-carrier with its SINR exactly at the
    optimal operating point; follower branch decisions are recorded in
    ``diagnostics["follower_branches"]`` as ``"free"`` (own best carrier is
    not the leader's), ``"stay"`` (shares the leader's carrier) or
    ``"move"`` (leaves the leader's carrier).
    """
    best = switches(instance)[0]
    alloc, carriers = sparse_batch(stack_instances((instance,)), model)
    carriers = carriers[0]
    contended = best == carriers[0]
    move = contended & (carriers[1:] != carriers[0])
    diagnostics = {"follower_branches": tuple(_BRANCHES[contended * 1 + move].tolist())}
    return make_result(instance, model, alloc[0], "sparse", diagnostics)
