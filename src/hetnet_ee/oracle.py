"""Brute-force certification of equilibria by exhaustive deviation search.

Every check here is independent of the closed-form solvers: utilities are
recomputed from scratch and alternatives are enumerated on geometric power
grids spanning eight decades around the natural power scale
``gamma * sigma2 / max(own gain)``.

One unilateral check serves every player: others fixed, it sweeps the
player over carriers x powers against its row of :func:`model.denominators`
and scores its exact :func:`model.best_response` alike.

Bi-level leader searches score blocks of actions in array passes: a block
row is a support of one carrier (the grid) or two (the split probes), with
the long power axis last.  Followers re-respond as :func:`model.respond`
does, with its float comparisons and ties, among the support and the best
carrier off it, whose score ``gf / sigma2`` is their switching threshold;
interference is computed on the support only.

* :func:`verify_follower` is the unilateral check of one follower.
* :func:`verify_leader_stackelberg` is bi-level: every single-carrier grid
  action is scored with all followers re-responding, and so is every
  two-carrier split (each weight x total) on every carrier pair, to attack
  the single-carrier claim.
* :func:`verify_nash` is the unilateral check of every player.
* :func:`brute_force_stackelberg` returns the best single-carrier grid
  allocation of the bi-level sweep, used to generate trusted expected
  values before the solvers exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .efficiency import EfficiencyModel
from .model import NetworkInstance, best_response, denominators, respond, utility

__all__ = [
    "DeviationReport",
    "verify_follower",
    "verify_leader_stackelberg",
    "verify_nash",
    "brute_force_stackelberg",
]

GRID_DECADES = 4  # grid spans 10**-GRID_DECADES .. 10**+GRID_DECADES times center
SPLIT_WEIGHTS = 11
PIECE_CELLS = 1 << 18


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


def _leader_sweep(instance, model, support, powers, interference) -> np.ndarray:
    """Leader utility ``rate * sum_k f(sinr_k) / sum_k p_k``, ``(B, N)``, of
    the actions putting ``powers[b, :, n]`` on carriers ``support[b]``."""
    sinr = instance.g0[support][..., None] * powers / (instance.sigma2 + interference)
    return float(instance.rates[0]) * model.value(sinr).sum(axis=1) / powers.sum(axis=1)


def _follower_choice(instance, support, gf, denom):
    """Each follower's carrier against a block of actions, as ``respond``
    picks it; ``gf`` and ``denom = sigma2 + h0 * p`` are taken on
    ``support``, whose rows hold one or two ascending carriers.  Returns
    ``chosen[b, s, f, n]`` (``f`` picks ``support[b, s]``) and the
    off-support rivals ``(B, 1, F)``, which a carrier above must beat strictly."""
    scores = gf / denom[:, :, None]
    off = (np.arange(instance.carriers) != support[..., None]).all(axis=1)
    quiet = np.where(off[:, None], instance.gf / instance.sigma2, -np.inf)
    rival, bar = quiet.argmax(axis=-1)[:, None], quiet.max(axis=-1)[:, None]
    bar = np.where(rival < support[..., None], bar, np.nextafter(bar, -np.inf))
    chosen = scores > bar[..., None]
    if support.shape[1] == 2:
        lower = scores[:, 0] >= scores[:, 1]
        chosen[:, 0] &= lower
        chosen[:, 1] &= ~lower
    return chosen, rival


def _bilevel_sweep(instance, model, gamma, regime, support, powers) -> np.ndarray:
    """:func:`_leader_sweep` with every follower re-responding; dense blocks
    go in row pieces of about ``PIECE_CELLS`` (action, follower) cells."""
    if regime != "dense":
        return _leader_sweep(instance, model, support, powers, 0.0)
    rows = max(1, PIECE_CELLS // (powers[0].size * max(instance.followers, 1)))
    utilities = []
    for i in range(0, len(support), rows):
        s, p = support[i:i + rows], powers[i:i + rows]
        gf, denom = instance.gf.T[s][..., None], instance.sigma2 + instance.h0[s][..., None] * p
        chosen = _follower_choice(instance, s, gf, denom)[0]
        # hf-weighted follower powers, masked to the chosen carrier in place;
        # a subnormal gain overflows (and inf * 0 is NaN) only off it, where
        # the mask drops the value
        with np.errstate(over="ignore", invalid="ignore"):
            terms = gamma * denom[:, :, None] / gf
            terms *= instance.hf.T[s][..., None]
        np.copyto(terms, 0.0, where=~chosen)
        utilities.append(_leader_sweep(instance, model, s, p, terms.sum(axis=2)))
    return utilities[0] if len(utilities) == 1 else np.concatenate(utilities)


def _best_carrier_action(instance, grid, score):
    """Best single-carrier leader action on the power grid, as
    ``(utility, carrier, power)``; ``score`` maps a block of actions to
    utilities.  Ties go to the lower carrier, then the lower power."""
    carriers = np.arange(instance.carriers)[:, None]
    utilities = score(carriers, np.broadcast_to(grid, (carriers.size, 1, grid.size)))
    k, i = divmod(int(np.argmax(utilities)), grid.size)
    return float(utilities[k, i]), k, float(grid[i])


def _grid(instance, gamma, player, grid_size):
    """The power grid centred on ``player``'s natural scale."""
    return power_grid(gamma * instance.sigma2 / float(instance.gains[player].max()), grid_size)


def _unilateral(instance, model, player, allocation, regime, grid_size, tol) -> DeviationReport:
    """Deviation search for one player with every other row fixed: every
    carrier on a power grid centred on the player's best gain, then its
    exact :func:`best_response`, scored alike.  Ties go to the lower
    carrier, then the lower power, then the grid."""
    if grid_size < 100:
        raise ValueError("grid_size must be at least 100")
    gamma, gains, rate = model.gamma, instance.gains[player], float(instance.rates[player])
    claimed = utility(instance, model, player, allocation, regime)
    denom = denominators(instance, allocation, regime)[player]

    grid = _grid(instance, gamma, player, grid_size)
    utilities = rate * model.value(gains[:, None] * grid / denom[:, None]) / grid
    k, i = divmod(int(np.argmax(utilities)), grid.size)
    best = float(utilities[k, i])
    action = {"carrier": k, "power": float(grid[i]), "source": "grid"}

    powers, k = best_response(gains, denom, gamma)
    k, p = int(k), float(powers[k])
    closed = rate * model.value(gains[k] * p / denom[k]) / p
    if closed > best:
        best = closed
        action = {"carrier": k, "power": p, "source": "closed_form"}
    return _report(player, claimed, best, action, tol)


def verify_follower(
    instance: NetworkInstance,
    model: EfficiencyModel,
    f: int,
    allocation,
    grid_size: int = 300,
    tol: float = 1e-6,
) -> DeviationReport:
    """Unilateral deviation search for follower ``f`` (player ``f+1``); its
    SINR depends only on the leader's row, so this holds in both regimes."""
    return _unilateral(instance, model, f + 1, allocation, "dense", grid_size, tol)


def verify_leader_stackelberg(
    instance: NetworkInstance,
    model: EfficiencyModel,
    allocation,
    regime: str,
    grid_size: int = 300,
    tol: float = 1e-3,
) -> DeviationReport:
    """Bi-level deviation search for the leader.

    Every grid action is scored against freshly computed follower best
    responses.  Single-carrier sweeps cover each carrier; two-carrier
    splits are probed on a coarse power grid with an 11-point convex
    weight sweep, a cheap attempt to falsify single-carrier optimality.
    """
    if grid_size < 100:
        raise ValueError("grid_size must be at least 100")
    gamma = model.gamma
    claimed = utility(instance, model, 0, allocation, regime)

    def score(support, powers):
        return _bilevel_sweep(instance, model, gamma, regime, support, powers)

    best, k, p = _best_carrier_action(instance, _grid(instance, gamma, 0, grid_size), score)
    action: dict = {"carrier": k, "power": p, "source": "grid"}

    if instance.carriers >= 2:
        totals = _grid(instance, gamma, 0, max(grid_size // 10, 12))
        weights = np.linspace(0.0, 1.0, SPLIT_WEIGHTS)
        # one block row per carrier pair; columns run over weights, then totals
        pairs = np.array(list(combinations(range(instance.carriers), 2)))
        split = np.multiply.outer([weights, 1.0 - weights], totals).reshape(2, -1)
        values = score(pairs, np.broadcast_to(split, (len(pairs), *split.shape)))
        pair, rest = divmod(int(np.argmax(values)), values.shape[1])
        if values[pair, rest] > best:
            w, t = divmod(rest, totals.size)
            best = float(values[pair, rest])
            action = {"carriers": tuple(pairs[pair].tolist()), "weight": float(weights[w]),
                      "total_power": float(totals[t]), "source": "split"}

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
    return [
        _unilateral(instance, model, player, allocation, regime, grid_size, tol)
        for player in range(instance.players)
    ]


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
    gamma = model.gamma
    _, k, p = _best_carrier_action(
        instance,
        _grid(instance, gamma, 0, grid_size),
        lambda support, powers: _bilevel_sweep(instance, model, gamma, regime, support, powers),
    )
    allocation = np.zeros((instance.players, instance.carriers))
    allocation[0, k] = p
    allocation[1:] = respond(instance, allocation[0], gamma)[0]
    return allocation
