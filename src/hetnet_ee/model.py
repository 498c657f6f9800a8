"""Two-tier network game data: instances, SINRs, and the bits-per-joule utility.

A game has one macro (leader, player 0) and ``F`` small cells (followers,
players 1..F) sharing ``K`` orthogonal carriers.  Power allocations are
plain ``(F+1, K)`` float arrays with one row per player; all entries are
nonnegative and rows of equilibrium outputs have at most one nonzero entry.

Whole-instance quantities are arrays with one row per player, computed for
all players at once: the own-signal gains, the SINR denominators
(:func:`denominators`) and matrix (:func:`sinr`), the utilities and each
player's two strongest carriers (:func:`rank_carriers`).  Every player
best-responds by one rule, :func:`best_response`.

Two interference regimes share the follower SINR but differ for the leader:

* ``"sparse"``: small-cell transmissions are ignored at the macro receiver,
  so the leader sees noise only.
* ``"dense"``: the leader's SINR denominator includes every follower's
  cross-tier interference ``hf[f, k] * p[f, k]``.

Gains are linear power gains throughout; decibels appear only at the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .efficiency import EfficiencyModel

__all__ = [
    "REGIMES",
    "NetworkInstance",
    "EquilibriumResult",
    "empty_allocation",
    "leader_interference",
    "best_response",
    "respond",
    "denominators",
    "sinr",
    "utility",
    "all_utilities",
    "rank_carriers",
    "sample_instance",
    "make_result",
]

REGIMES = ("sparse", "dense")


def _check_regime(regime: str) -> str:
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")
    return regime


def _frozen_array(values, shape, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class NetworkInstance:
    """Immutable channel data for one realization of the game.

    ``g0[k]``/``gf[f, k]`` are own-signal gains of the leader and of
    follower ``f`` on carrier ``k``; ``h0[k]`` is the leader's cross gain
    into follower receivers and ``hf[f, k]`` the follower's cross gain into
    the leader's receiver.  ``rates[n]`` is player ``n``'s transmission
    rate in bits/s.  Requires ``K >= F + 1``.  ``gains`` stacks the
    own-signal gains of all players, ``(F+1, K)`` with the leader's first.
    Compared by identity; ``digest()`` compares content.
    """

    g0: np.ndarray
    gf: np.ndarray
    h0: np.ndarray
    hf: np.ndarray
    sigma2: float
    rates: Optional[np.ndarray] = None

    def __post_init__(self):
        k = np.size(self.g0)
        f = 0 if np.size(self.gf) == 0 else np.shape(self.gf)[0]
        object.__setattr__(self, "g0", _frozen_array(self.g0, (k,), "g0"))
        object.__setattr__(self, "gf", _frozen_array(self.gf, (f, k), "gf"))
        object.__setattr__(self, "h0", _frozen_array(self.h0, (k,), "h0"))
        object.__setattr__(self, "hf", _frozen_array(self.hf, (f, k), "hf"))
        rates = np.ones(f + 1) if self.rates is None else self.rates
        object.__setattr__(self, "rates", _frozen_array(rates, (f + 1,), "rates"))
        if k < f + 1:
            raise ValueError(f"need at least F+1={f + 1} carriers, got K={k}")
        if np.any(self.g0 <= 0.0) or np.any(self.gf <= 0.0):
            raise ValueError("signal gains must be strictly positive")
        if np.any(self.h0 < 0.0) or np.any(self.hf < 0.0):
            raise ValueError("cross gains must be nonnegative")
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0.0):
            raise ValueError("noise power sigma2 must be positive")
        if np.any(self.rates <= 0.0):
            raise ValueError("rates must be strictly positive")
        gains = np.vstack([self.g0, self.gf])
        gains.setflags(write=False)
        object.__setattr__(self, "gains", gains)

    @property
    def carriers(self) -> int:
        return self.g0.size

    @property
    def followers(self) -> int:
        return self.gf.shape[0]

    @property
    def players(self) -> int:
        return self.followers + 1

    def digest(self) -> str:
        """Short content hash, used to assert paired-trial discipline."""
        import hashlib

        h = hashlib.sha256()
        for arr in (self.g0, self.gf, self.h0, self.hf, self.rates):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(np.float64(self.sigma2).tobytes())
        return h.hexdigest()[:16]


@dataclass(frozen=True, eq=False)
class EquilibriumResult:
    """Solver output: allocation plus recomputed per-player facts.

    ``utilities[n]`` is always recomputed from ``allocation`` at
    construction, so it matches :func:`utility` by definition.
    ``active_carriers[n]`` is the carrier player ``n`` transmits on, or
    ``None`` for an all-zero row.  ``diagnostics`` carries solver-specific
    notes (candidate tables, iteration reports, fallback flags).
    """

    allocation: np.ndarray
    utilities: np.ndarray
    active_carriers: tuple
    diagnostics: dict = field(default_factory=dict)


def empty_allocation(instance: NetworkInstance) -> np.ndarray:
    return np.zeros((instance.players, instance.carriers))


def leader_interference(instance: NetworkInstance, follower_powers) -> np.ndarray:
    """Cross-tier interference at the macro receiver, ``sum_f hf[f] * p[f]``.

    Maps follower powers ``(..., F, K)`` to per-carrier interference
    ``(..., K)``; with no followers it is zero.
    """
    return np.einsum("fk,...fk->...k", instance.hf, follower_powers)


def best_response(gains, denom, gamma: float):
    """Every player's single-carrier best response, the one rule of the game.

    Picks the carrier maximizing gain over noise plus interference, ``gains
    / denom`` (ties to the lowest index), at the power ``gamma * denom /
    gains`` that puts the SINR there at ``gamma``; other powers are exact
    zeros.  Broadcasts; returns the powers and the chosen carriers.
    """
    carriers = np.argmax(gains / denom, axis=-1)
    chosen = np.arange(np.shape(gains)[-1]) == carriers[..., None]
    return np.where(chosen, gamma * denom, 0.0) / gains, carriers


def respond(instance: NetworkInstance, leader_powers, gamma: float):
    """Every follower's :func:`best_response` to the leader's powers.

    Maps leader powers ``(..., K)`` to follower powers ``(..., F, K)`` and
    chosen carriers ``(..., F)``.
    """
    denom = (instance.sigma2 + instance.h0 * np.asarray(leader_powers, dtype=float))[..., None, :]
    return best_response(instance.gf, denom, gamma)


def denominators(instance: NetworkInstance, allocation, regime: str) -> np.ndarray:
    """Noise plus interference of every player on every carrier, ``(F+1, K)``:
    followers see ``h0 * p0``, the leader sees :func:`leader_interference`
    in the dense regime and noise only in the sparse one."""
    _check_regime(regime)
    allocation = np.asarray(allocation, dtype=float)
    denom = np.empty_like(allocation)
    interference = leader_interference(instance, allocation[1:]) if regime == "dense" else 0.0
    denom[0] = instance.sigma2 + interference
    denom[1:] = instance.sigma2 + instance.h0 * allocation[0]
    return denom


def sinr(instance: NetworkInstance, allocation, regime: str) -> np.ndarray:
    """SINR of every player on every carrier, ``(F+1, K)``."""
    return instance.gains * allocation / denominators(instance, allocation, regime)


def all_utilities(
    instance: NetworkInstance, model: EfficiencyModel, allocation, regime: str
) -> np.ndarray:
    """Energy efficiency of every player in bits/joule.

    ``rate * sum_k f(sinr_k) / sum_k p_k`` per row; an all-zero power row
    yields 0, the exact limit for success curves flat at the origin.
    """
    allocation = np.asarray(allocation, dtype=float)
    totals = allocation.sum(axis=1)
    successes = model.value(sinr(instance, allocation, regime)).sum(axis=1)
    return np.divide(
        instance.rates * successes, totals, out=np.zeros(instance.players), where=totals != 0.0
    )


def utility(
    instance: NetworkInstance, model: EfficiencyModel, player: int, allocation, regime: str
) -> float:
    """Energy efficiency of one player, ``all_utilities(...)[player]``."""
    return float(all_utilities(instance, model, allocation, regime)[player])


def rank_carriers(instance: NetworkInstance):
    """Every player's best and second-best own-gain carriers, two ``(F+1,)``
    index arrays; ties go to the lower index."""
    if instance.carriers < 2:
        raise ValueError("carrier ranking needs at least two carriers")
    order = np.argsort(-instance.gains, axis=1, kind="stable")
    return order[:, 0], order[:, 1]


def sample_instance(
    carriers: int,
    followers: int,
    *,
    mean_signal: float = 1.0,
    mean_cross: float = 0.5,
    snr_db: float = 10.0,
    rates=None,
    seed: int,
) -> NetworkInstance:
    """Draw one Rayleigh-faded instance, deterministic in ``seed``.

    Squared-magnitude Rayleigh fading makes every linear power gain an
    i.i.d. exponential: mean ``mean_signal`` for own-signal gains, mean
    ``mean_cross`` for cross gains (``mean_cross=0`` gives exact zeros).
    Noise power is ``mean_signal / 10**(snr_db/10)``, so ``snr_db`` is the
    mean per-carrier signal-to-noise ratio.

    Draw order is fixed (g0, gf, h0, hf) so instances are reproducible
    from the integer seed alone.
    """
    if mean_signal <= 0.0:
        raise ValueError("mean_signal must be positive")
    if mean_cross < 0.0:
        raise ValueError("mean_cross must be nonnegative")
    rng = np.random.default_rng(seed)
    g0 = rng.exponential(mean_signal, size=carriers)
    gf = rng.exponential(mean_signal, size=(followers, carriers))
    h0 = rng.exponential(mean_cross, size=carriers) if mean_cross > 0 else np.zeros(carriers)
    hf = (
        rng.exponential(mean_cross, size=(followers, carriers))
        if mean_cross > 0
        else np.zeros((followers, carriers))
    )
    sigma2 = mean_signal / 10.0 ** (snr_db / 10.0)
    if rates is not None:
        rates = np.broadcast_to(np.asarray(rates, dtype=float), (followers + 1,)).copy()
    return NetworkInstance(g0=g0, gf=gf, h0=h0, hf=hf, sigma2=sigma2, rates=rates)


def make_result(
    instance: NetworkInstance,
    model: EfficiencyModel,
    allocation: np.ndarray,
    regime: str,
    diagnostics: Optional[dict] = None,
) -> EquilibriumResult:
    """Package an allocation with recomputed utilities and active carriers."""
    allocation = np.asarray(allocation, dtype=float)
    if allocation.shape != (instance.players, instance.carriers):
        raise ValueError("allocation has wrong shape")
    if np.any(allocation < 0.0):
        raise ValueError("powers must be nonnegative")
    allocation = allocation.copy()
    allocation.setflags(write=False)
    active = tuple(
        k if on else None
        for k, on in zip(allocation.argmax(axis=1).tolist(), allocation.any(axis=1).tolist())
    )
    utilities = all_utilities(instance, model, allocation, regime)
    utilities.setflags(write=False)
    return EquilibriumResult(
        allocation=allocation,
        utilities=utilities,
        active_carriers=active,
        diagnostics=diagnostics or {},
    )
