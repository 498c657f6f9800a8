"""Brute-force certification of equilibria by exhaustive deviation search.

Every check here is independent of the closed-form solvers: utilities are
recomputed from scratch and alternatives are enumerated on geometric power
grids spanning eight decades around the natural power scale
``gamma * sigma2 / max(own gain)``.  Follower reactions come from the
shared best-response kernel :func:`model.respond`, and every leader search
scores a matrix of candidate leader actions in one vectorized sweep.

* :func:`verify_follower` fixes everyone else and sweeps one follower over
  carriers x powers, plus its exact closed-form best response.
* :func:`verify_leader_stackelberg` is bi-level: every candidate leader
  action is evaluated with all followers re-responding, one sweep per
  carrier, plus one sweep per carrier pair probing two-carrier power
  splits (every weight x total at once) to attack the single-carrier claim.
* :func:`verify_nash` is the unilateral version: the leader sweep runs
  against the followers' fixed interference, one report per player.
* :func:`brute_force_stackelberg` returns the best single-carrier grid
  allocation of the bi-level sweep, used to generate trusted expected
  values before the solvers exist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .efficiency import EfficiencyModel, optimal_sinr
from .model import NetworkInstance, leader_interference, respond, utility

__all__ = [
    "DeviationReport",
    "verify_follower",
    "verify_leader_stackelberg",
    "verify_nash",
    "brute_force_stackelberg",
]

GRID_DECADES = 4  # grid spans 10**-GRID_DECADES .. 10**+GRID_DECADES times center
SPLIT_WEIGHTS = 11


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
    span = 10.0**GRID_DECADES
    return np.geomspace(center / span, center * span, grid_size)


def _one_carrier(instance: NetworkInstance, k: int, powers: np.ndarray) -> np.ndarray:
    """Leader actions putting each of ``powers`` on carrier ``k``, (N, K)."""
    actions = np.zeros((powers.size, instance.carriers))
    actions[:, k] = powers
    return actions


def _leader_sweep(instance, model, actions, interference) -> np.ndarray:
    """Leader utility ``rate * sum_k f(sinr_k) / sum_k p_k`` of each row of
    an (N, K) matrix of leader actions against the given interference."""
    sinr = instance.g0 * actions / (instance.sigma2 + interference)
    return float(instance.rates[0]) * model.value(sinr).sum(axis=-1) / actions.sum(axis=-1)


def _bilevel_sweep(instance, model, gamma, regime, actions) -> np.ndarray:
    """:func:`_leader_sweep` with every follower re-responding to each row."""
    if regime == "dense":
        interference = leader_interference(instance, respond(instance, actions, gamma)[0])
    else:
        interference = 0.0
    return _leader_sweep(instance, model, actions, interference)


def _best_carrier_action(instance, grid, score):
    """Best single-carrier leader action on the power grid, as
    ``(utility, carrier, power)``; ``score`` maps (N, K) actions to
    utilities.  Ties go to the lower carrier, then the lower power."""
    best = (-np.inf, 0, float(grid[0]))
    for k in range(instance.carriers):
        utilities = score(_one_carrier(instance, k, grid))
        i = int(np.argmax(utilities))
        if utilities[i] > best[0]:
            best = (float(utilities[i]), k, float(grid[i]))
    return best


def _leader_grid(instance, gamma, grid_size):
    return power_grid(gamma * instance.sigma2 / float(instance.g0.max()), grid_size)


def verify_follower(
    instance: NetworkInstance,
    model: EfficiencyModel,
    f: int,
    allocation,
    grid_size: int = 300,
    tol: float = 1e-6,
) -> DeviationReport:
    """Deviation search for one follower with all other rows fixed.

    Sweeps every carrier over a geometric power grid and additionally
    evaluates the exact closed-form best response; the follower's SINR
    depends only on the leader's row, so the result holds in both regimes.
    """
    if grid_size < 100:
        raise ValueError("grid_size must be at least 100")
    allocation = np.asarray(allocation, dtype=float)
    gamma = optimal_sinr(model)
    claimed = utility(instance, model, f + 1, allocation, "dense")
    rate = float(instance.rates[f + 1])
    denom = instance.sigma2 + instance.h0 * allocation[0]

    center = gamma * instance.sigma2 / float(instance.gf[f].max())
    grid = power_grid(center, grid_size)
    sinr = instance.gf[f][:, None] * grid[None, :] / denom[:, None]
    utilities = rate * model.value(sinr) / grid[None, :]
    flat = int(np.argmax(utilities))
    best_k, best_i = np.unravel_index(flat, utilities.shape)
    best = float(utilities[best_k, best_i])
    action = {"carrier": int(best_k), "power": float(grid[best_i]), "source": "grid"}

    responses, carriers = respond(instance, allocation[0], gamma)
    trial = allocation.copy()
    trial[f + 1] = responses[f]
    br_utility = utility(instance, model, f + 1, trial, "dense")
    if br_utility > best:
        k = int(carriers[f])
        best = br_utility
        action = {"carrier": k, "power": float(responses[f, k]), "source": "closed_form"}

    return _report(f + 1, claimed, best, action, tol)


def verify_leader_stackelberg(
    instance: NetworkInstance,
    model: EfficiencyModel,
    allocation,
    regime: str,
    grid_size: int = 300,
    tol: float = 1e-3,
    probe_splits: bool = True,
) -> DeviationReport:
    """Bi-level deviation search for the leader.

    Every grid action is scored against freshly computed follower best
    responses.  Single-carrier sweeps cover each carrier; two-carrier
    splits are probed on a coarse power grid with an 11-point convex
    weight sweep, a cheap attempt to falsify single-carrier optimality.
    """
    if grid_size < 100:
        raise ValueError("grid_size must be at least 100")
    allocation = np.asarray(allocation, dtype=float)
    gamma = optimal_sinr(model)
    claimed = utility(instance, model, 0, allocation, regime)

    def score(actions):
        return _bilevel_sweep(instance, model, gamma, regime, actions)

    best, k, p = _best_carrier_action(instance, _leader_grid(instance, gamma, grid_size), score)
    action: dict = {"carrier": k, "power": p, "source": "grid"}

    if probe_splits and instance.carriers >= 2:
        totals = _leader_grid(instance, gamma, max(grid_size // 10, 12))
        weights = np.linspace(0.0, 1.0, SPLIT_WEIGHTS)
        # rows run over weights, then totals
        shares = (weights[:, None] * totals).ravel()
        rests = ((1.0 - weights)[:, None] * totals).ravel()
        for k1 in range(instance.carriers):
            for k2 in range(k1 + 1, instance.carriers):
                actions = _one_carrier(instance, k1, shares)
                actions[:, k2] = rests
                values = score(actions)
                i = int(np.argmax(values))
                if values[i] > best:
                    w, t = divmod(i, totals.size)
                    best = float(values[i])
                    action = {
                        "carriers": (k1, k2),
                        "weight": float(weights[w]),
                        "total_power": float(totals[t]),
                        "source": "split",
                    }

    return _report(0, claimed, best, action, tol)


def verify_nash(
    instance: NetworkInstance,
    model: EfficiencyModel,
    allocation,
    regime: str,
    grid_size: int = 300,
    tol: float = 1e-3,
) -> list[DeviationReport]:
    """Unilateral deviation search for every player, others held fixed."""
    if grid_size < 100:
        raise ValueError("grid_size must be at least 100")
    allocation = np.asarray(allocation, dtype=float)
    gamma = optimal_sinr(model)

    claimed = utility(instance, model, 0, allocation, regime)
    if regime == "dense":
        fixed = leader_interference(instance, allocation[1:])
    else:
        fixed = np.zeros(instance.carriers)

    def score(actions):
        return _leader_sweep(instance, model, actions, fixed)

    best, k, p = _best_carrier_action(instance, _leader_grid(instance, gamma, grid_size), score)
    action: dict = {"carrier": k, "power": p, "source": "grid"}
    # the gamma-targeting closed form on the best adjusted carrier
    k = int(np.argmax(instance.g0 / (instance.sigma2 + fixed)))
    p = gamma * (instance.sigma2 + fixed[k]) / instance.g0[k]
    closed = float(score(_one_carrier(instance, k, np.array([p])))[0])
    if closed > best:
        best = closed
        action = {"carrier": k, "power": float(p), "source": "closed_form"}
    reports = [_report(0, claimed, best, action, tol)]

    for f in range(instance.followers):
        reports.append(
            verify_follower(instance, model, f, allocation, grid_size=grid_size, tol=tol)
        )
    return reports


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
    gamma = optimal_sinr(model)
    _, k, p = _best_carrier_action(
        instance,
        _leader_grid(instance, gamma, grid_size),
        lambda actions: _bilevel_sweep(instance, model, gamma, regime, actions),
    )
    allocation = np.zeros((instance.players, instance.carriers))
    allocation[0, k] = p
    allocation[1:] = respond(instance, allocation[0], gamma)[0]
    return allocation
