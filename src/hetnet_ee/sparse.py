"""Closed-form hierarchical equilibrium for sparse small-cell deployments.

With small-cell interference ignored at the macro receiver, the leader's
problem decouples: its :func:`model.best_response` to noise alone puts it on
its best carrier at the power that sets its SINR exactly at the optimal
operating point.  Each follower then best-responds to that leader row
(:func:`model.respond`): it keeps its own best carrier, absorbing the
leader's interference with a power raise, or retreats to its second-best
carrier.  A follower exactly indifferent between two carriers takes the
lower-indexed one, as every best response does.

:func:`solve_sparse` is :func:`dense.stackelberg_batch`'s sparse regime on a
batch of one.
"""

from __future__ import annotations

from .dense import stackelberg_batch
from .efficiency import EfficiencyModel
from .model import STOPS, EquilibriumResult, NetworkInstance, make_result, stack_instances

__all__ = ["solve_sparse"]


def solve_sparse(instance: NetworkInstance, model: EfficiencyModel) -> EquilibriumResult:
    """Hierarchical equilibrium of the sparse-regime game.

    Every player ends up single-carrier with its SINR exactly at the
    optimal operating point.  ``diagnostics["stop"]`` is ``"converged"``,
    or ``"overflow"`` when a power passes the float range.
    """
    alloc, (stop,), _ = stackelberg_batch(stack_instances((instance,)), model, "sparse")
    return make_result(instance, model, alloc[0], "sparse", {"stop": STOPS[stop]})
