"""Two-tier network game data: instances, SINRs, and the bits-per-joule utility.

A game has one macro (leader, player 0) and ``F`` small cells (followers,
players 1..F) sharing ``K`` orthogonal carriers.  Power allocations are
plain ``(F+1, K)`` float arrays with one row per player; all entries are
nonnegative and rows of equilibrium outputs have at most one nonzero entry.

Whole-instance quantities are arrays with one row per player, computed for
all players at once: the own-signal gains, the SINR denominators
(:func:`denominators`) and matrix (:func:`sinr`) and the utilities.  Every
player best-responds by one rule, :func:`best_response`, at the powers
of :func:`target_powers`, so every scheme's allocation is its carriers
and its leader's power (:func:`allocate`); :func:`switches` says when a
follower leaves the leader's carrier.  A
:class:`NetworkInstance` may hold a batch, ``T`` instances of one shape
stacked on a leading trial axis; the same functions take it and then
return arrays with that axis first.  The solvers work on batches, a
single instance is the batch of one, and every sampled one comes from
:func:`sample_batch`.  Every scheme's batch core ends each trial in a stop
code, an index into :data:`STOPS`.

Two interference regimes, told apart by :func:`hears_followers` alone and
never defaulted, share the follower SINR but differ for the leader:

* ``"sparse"``: small-cell transmissions are ignored at the macro receiver,
  so the leader sees noise only.
* ``"dense"``: the leader's SINR denominator includes every follower's
  cross-tier interference ``hf[f, k] * p[f, k]``.

Gains are linear power gains throughout; decibels appear only at the CLI.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from operator import attrgetter, index
from typing import NamedTuple, Optional

import numpy as np

from .efficiency import EfficiencyModel

__all__ = [
    "REGIMES",
    "STOPS",
    "NetworkInstance",
    "EquilibriumResult",
    "empty_allocation",
    "hears_followers",
    "leader_interference",
    "target_powers",
    "best_response",
    "respond",
    "allocate",
    "switches",
    "denominators",
    "sinr",
    "utility",
    "all_utilities",
    "sample_instance",
    "sample_batch",
    "stack_instances",
    "outcomes",
    "make_result",
]

REGIMES = ("sparse", "dense")
STOPS = ("converged", "cycle", "overflow", "cap", "infeasible")
CONVERGED, CYCLE, OVERFLOW, CAP, INFEASIBLE = range(len(STOPS))
_INF_BITS = int(np.float64(np.inf).view(np.int64))


def _frozen_array(values, shape, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class NetworkInstance:
    """Immutable channel data for one realization of the game, or a batch
    of ``T`` of one shape with a leading trial axis on every array.

    ``g0[k]``/``gf[f, k]`` are own-signal gains of the leader and of
    follower ``f`` on carrier ``k``; ``h0[k]`` is the leader's cross gain
    into follower receivers and ``hf[f, k]`` the follower's cross gain into
    the leader's receiver.  ``rates[n]`` is player ``n``'s transmission
    rate in bits/s.  Requires ``K >= F + 1``.  ``gains`` stacks ``g0`` and
    ``gf``, ``(F+1, K)`` (``(T, F+1, K)``); ``sigma2`` is a float (``(T,
    1)``, to broadcast over carriers).  Compared by identity; ``digest()``
    compares content.
    """

    g0: np.ndarray
    gf: np.ndarray
    h0: np.ndarray
    hf: np.ndarray
    sigma2: float
    rates: Optional[np.ndarray] = None

    def __post_init__(self):
        shape = np.shape(self.g0)
        lead, k = shape[:-1], shape[-1] if shape else 0
        f = np.shape(self.gf)[-2] if np.ndim(self.gf) > 1 else 0
        g0 = _frozen_array(self.g0, lead + (k,), "g0")
        gf = _frozen_array(self.gf, lead + (f, k), "gf")
        h0 = _frozen_array(self.h0, lead + (k,), "h0")
        hf = _frozen_array(self.hf, lead + (f, k), "hf")
        rates = _frozen_array(np.ones(lead + (f + 1,)) if self.rates is None else self.rates,
                              lead + (f + 1,), "rates")
        sigma2 = _frozen_array(self.sigma2, lead + (1,) if lead else (), "sigma2")
        if k < f + 1:
            raise ValueError(f"need at least F+1={f + 1} carriers, got K={k}")
        if (g0 <= 0.0).any() or (gf <= 0.0).any():
            raise ValueError("signal gains must be strictly positive")
        if (h0 < 0.0).any() or (hf < 0.0).any():
            raise ValueError("cross gains must be nonnegative")
        if (sigma2 <= 0.0).any():
            raise ValueError("noise power sigma2 must be positive")
        if (rates <= 0.0).any():
            raise ValueError("rates must be strictly positive")
        gains = np.concatenate([g0[..., None, :], gf], axis=-2)
        gains.setflags(write=False)
        _fill(self, gains, h0, hf, sigma2 if lead else float(sigma2), rates)

    @property
    def trials(self) -> int:
        return self.h0.size // self.carriers

    @property
    def carriers(self) -> int:
        return self.g0.shape[-1]

    @property
    def followers(self) -> int:
        return self.gf.shape[-2]

    @property
    def players(self) -> int:
        return self.followers + 1

    def instance(self, t: int) -> NetworkInstance:
        """Trial ``t`` of a batch, as one instance sharing its arrays."""
        return _fill(object.__new__(NetworkInstance), self.gains[t], self.h0[t], self.hf[t],
                     float(self.sigma2[t, 0]), self.rates[t])

    def digests(self) -> list:
        """A short content hash of each trial, ``g0, gf, h0, hf, rates,
        sigma2`` bytes; used to assert paired-trial discipline."""
        import hashlib  # here, not at the top: it adds about 6 ms to a cold import

        if not self.trials:
            return []
        rows = np.concatenate([np.reshape(a, (self.trials, -1)) for a in
                               (self.gains, self.h0, self.hf, self.rates, self.sigma2)], axis=1)
        return [hashlib.sha256(row.tobytes()).hexdigest()[:16] for row in rows]

    def digest(self) -> str:
        """:meth:`digests` of one instance (of a batch's first trial)."""
        return self.digests()[0]


def _fill(instance: NetworkInstance, gains, h0, hf, sigma2, rates) -> NetworkInstance:
    """Set ``instance``'s arrays from checked, frozen ones (``g0`` and ``gf``
    as views of ``gains``); derived instances skip the constructor's checks."""
    vars(instance).update(gains=gains, g0=gains[..., 0, :], gf=gains[..., 1:, :], h0=h0, hf=hf,
                          sigma2=sigma2, rates=rates)
    return instance


_STACKED = attrgetter("gains", "h0", "hf", "sigma2", "rates")


def stack_instances(instances) -> NetworkInstance:
    """Instances of one shape as one batch, in order, copying their arrays."""
    if not instances:
        raise ValueError("no instances to stack")
    arrays = [np.array(column) for column in zip(*map(_STACKED, instances))]
    for arr in arrays:
        arr.setflags(write=False)
    gains, h0, hf, sigma2, rates = arrays
    return _fill(object.__new__(NetworkInstance), gains, h0, hf, sigma2[:, None], rates)


@dataclass(frozen=True, eq=False)
class EquilibriumResult:
    """Solver output: allocation plus recomputed per-player facts.

    ``utilities[n]`` is always recomputed from ``allocation`` at
    construction, so it matches :func:`utility` by definition.
    ``active_carriers[n]`` is the carrier player ``n`` transmits on, or
    ``None`` for an all-zero row.  ``diagnostics`` holds what the solver
    computed beyond these: the stop name, the dense slot table and winning
    occupancy, the best-channel pins and feedback gain.
    """

    allocation: np.ndarray
    utilities: np.ndarray
    active_carriers: tuple
    diagnostics: dict = field(default_factory=dict)


def empty_allocation(instance: NetworkInstance) -> np.ndarray:
    return np.zeros(instance.gains.shape)


def hears_followers(regime: str) -> bool:
    """Whether the leader's receiver hears the followers: ``True`` in the
    dense regime, ``False`` in the sparse one; any other regime raises."""
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")
    return regime == "dense"


def leader_interference(instance: NetworkInstance, follower_powers, regime: str):
    """Cross-tier interference at the macro receiver, ``sum_f hf[f] * p[f]``.

    Maps follower powers ``(..., F, K)`` to per-carrier interference
    ``(..., K)``, zero with no followers; ``0.0`` in the sparse regime.
    """
    if not hears_followers(regime):
        return 0.0
    return np.einsum("...fk,...fk->...k", instance.hf, follower_powers)


def _heard(h0, leader_powers):
    """``h0 * p0``; without cross gain a follower hears 0, even from an infinite leader."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(h0 > 0.0, h0 * leader_powers, 0.0)


def target_powers(gains, denom, gamma: float, carriers):
    """The one power rule of the game: each row on its carrier (``-1``, or
    any index past the last, for none) at the power ``gamma * denom /
    gains`` that puts the SINR there at ``gamma``; other powers are exact
    zeros; a power past the float range (a subnormal gain) reads ``inf``,
    without a warning.  Broadcasts."""
    chosen = np.arange(np.shape(gains)[-1]) == carriers[..., None]
    with np.errstate(over="ignore"):
        return np.where(chosen, gamma * denom, 0.0) / gains


def best_response(gains, denom, gamma: float):
    """Every player's single-carrier best response: the carrier maximizing
    gain over noise plus interference, ``gains / denom`` (ties to the lowest
    index), at its :func:`target_powers`.  Broadcasts; returns the powers
    and the chosen carriers.
    """
    carriers = np.argmax(gains / denom, axis=-1)
    return target_powers(gains, denom, gamma, carriers), carriers


def respond(instance: NetworkInstance, leader_powers, gamma: float, carriers=None):
    """Every follower's :func:`best_response` to the leader's powers or,
    given its ``carriers`` ``(..., F)``, its :func:`target_powers` there.

    Maps leader powers ``(..., K)`` to follower powers ``(..., F, K)`` and
    chosen carriers ``(..., F)``.
    """
    denom = (instance.sigma2 + _heard(instance.h0, leader_powers))[..., None, :]
    if carriers is None:
        return best_response(instance.gf, denom, gamma)
    return target_powers(instance.gf, denom, gamma, carriers), carriers


def allocate(instance: NetworkInstance, gamma: float, carriers, leader_powers) -> np.ndarray:
    """The allocation ``(..., F+1, K)`` that every scheme leaves, given each
    player's carrier ``(..., F+1)`` (as in :func:`target_powers`) and the
    leader's power ``(...)``: that power on the leader's carrier, and each
    follower's :func:`respond` row on its own against that leader row."""
    leader = np.where(np.arange(instance.carriers) == carriers[..., :1],
                      np.asarray(leader_powers)[..., None], 0.0)
    followers = respond(instance, leader, gamma, carriers[..., 1:])[0]
    return np.concatenate([leader[..., None, :], followers], axis=-2)


def switches(instance: NetworkInstance):
    """Every follower's ``carrier`` at zero leader power, as :func:`respond`
    picks it, the ``rival`` carrier it leaves to, and its ``switch``: the
    least leader power on ``carrier`` at which :func:`respond` moves it
    (``inf`` if none does); three ``(..., F)`` arrays.

    With the leader alone on ``carrier``, the follower stays while ``g /
    (sigma2 + h0 p) > bar``, ``bar`` being the rival's score ``g / sigma2``,
    one ulp lower where ``carrier`` wins the tie (a lower index).  The
    search bisects the bit patterns of the nonnegative floats, which order
    as the floats do, from a bracket around the closed form where the stay
    test confirms it (its roundings are monotone in the power, so any such
    bracket holds the same least failing float), else from all powers."""
    if instance.carriers < 2:
        raise ValueError("switching carriers needs at least two carriers")
    scores = instance.gf / np.asarray(instance.sigma2)[..., None]
    top = np.argsort(-scores, axis=-1, kind="stable")  # lower index first
    carrier, rival = top[..., 0], top[..., 1]
    gk = np.take_along_axis(instance.gf, carrier[..., None], -1)[..., 0]
    bar = np.take_along_axis(scores, rival[..., None], -1)[..., 0]
    bar = np.where(rival < carrier, bar, np.nextafter(bar, -np.inf))
    sigma2, h0 = instance.sigma2, np.take_along_axis(instance.h0, carrier, -1)

    def stays(p):
        return gk / (sigma2 + h0 * p) > bar

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        quiet = gk / bar  # the denominator at the switch
        guess, spread = (quiet - sigma2) / h0, quiet / h0 * 2.0**-49  # 8 ulps of quiet
        lo, hi = guess - spread, guess + spread
        narrow = (lo >= 0.0) & (hi < np.inf) & stays(lo) & ~stays(hi)
        lo, hi = np.where(narrow, lo, 0.0).view(np.int64), np.where(narrow, hi, np.inf).view(np.int64)
        lo[h0 == 0.0] = _INF_BITS - 1  # then the test does not depend on the power
        for _ in range(int((hi - lo).max(initial=0)).bit_length()):
            mid = lo + ((hi - lo) >> 1)
            stay = stays(mid.view(np.float64))
            lo, hi = np.where(stay, mid, lo), np.where(stay, hi, mid)
    return carrier, rival, hi.view(np.float64)


def denominators(instance: NetworkInstance, allocation, regime: str) -> np.ndarray:
    """Noise plus interference of every player on every carrier, ``(F+1, K)``:
    followers see ``h0 * p0``, the leader its :func:`leader_interference`."""
    allocation = np.asarray(allocation, dtype=float)
    denom = np.empty_like(allocation)
    interference = leader_interference(instance, allocation[..., 1:, :], regime)
    denom[..., 0, :] = instance.sigma2 + interference
    denom[..., 1:, :] = (instance.sigma2 + _heard(instance.h0, allocation[..., 0, :]))[..., None, :]
    return denom


def sinr(instance: NetworkInstance, allocation, regime: str) -> np.ndarray:
    """SINR of every player on every carrier, ``(F+1, K)``."""
    # a signal past the float range reads inf, where the success curve is 1,
    # or NaN against an infinite interference: an overflowing run's row
    with np.errstate(over="ignore", invalid="ignore"):
        return instance.gains * allocation / denominators(instance, allocation, regime)


def all_utilities(
    instance: NetworkInstance, model: EfficiencyModel, allocation, regime: str
) -> np.ndarray:
    """Energy efficiency of every player in bits/joule.

    ``rate * sum_k f(sinr_k) / sum_k p_k`` per row; an all-zero power row
    yields 0, the exact limit for success curves flat at the origin.
    """
    allocation = np.asarray(allocation, dtype=float)
    totals = allocation.sum(axis=-1)
    successes = model.value(sinr(instance, allocation, regime)).sum(axis=-1)
    return np.divide(
        instance.rates * successes, totals, out=np.zeros(totals.shape), where=totals != 0.0
    )


def utility(
    instance: NetworkInstance, model: EfficiencyModel, player: int, allocation, regime: str
) -> float:
    """Energy efficiency of one player, ``all_utilities(...)[player]``."""
    return float(all_utilities(instance, model, allocation, regime)[player])


# numpy's SeedSequence (numpy/random/bit_generator.pyx): a pool of four uint32
# words, hashed with constants seeded and multiplied by these, and mixed
_INIT_A, _MULT_A, _INIT_B, _MULT_B, _MIX_L, _MIX_R = np.array(
    [0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED, 0xCA01F9DD, 0x4973F715], dtype=np.uint32)


@functools.cache
def _constants(width: int, n: int) -> tuple:
    """:func:`_seed_words`'s xor and multiply constants for ``width >= 4``
    words a row: one row per pool round (``1 + s`` hashes pool word ``s``
    into the others for ``s < 4``, then entropy word ``s`` into all four),
    then the pool word behind each of ``n`` output words and their constants."""
    calls = np.array([range(4)] + [np.insert(np.arange(4, 7) + 3 * s, s, 0) for s in range(4)]
                     + [range(4 * s, 4 * s + 4) for s in range(4, width)])
    run = _INIT_A * _MULT_A ** np.arange(4 * width + 1, dtype=np.uint32)
    out = _INIT_B * _MULT_B ** np.arange(n + 1, dtype=np.uint32)
    arrays = run[calls], run[calls + 1], np.arange(n) % 4, out[:-1], out[1:]
    for arr in arrays:  # shared by every call
        arr.setflags(write=False)
    return arrays


def _hash(values, xor, mult):
    values = (values ^ xor) * mult
    return values ^ values >> 16


def _mix(x, y):
    mixed = x * _MIX_L - y * _MIX_R
    return mixed ^ mixed >> 16


def _words(*values) -> list:
    """SeedSequence's entropy words of nonnegative integers in order, each
    integer's 32-bit words least significant first."""
    values = list(map(index, values))
    if min(values) < 0:
        raise ValueError("expected non-negative integer")
    return [value >> shift & 0xFFFFFFFF
            for value in values for shift in range(0, max(value.bit_length(), 1), 32)]


def _seed_words(keys, n: int) -> np.ndarray:
    """``SeedSequence(key).generate_state(n)`` of every key, a tuple of
    nonnegative integers, as one ``(T, n)`` uint32 array: numpy's pool
    mixing and output hash over all keys at once, as their constants depend
    on word positions only.  Rows are zero-padded to at least the pool's
    four words, which hash as no words; past four, a row ends at its width."""
    rows = [_words(*key) for key in keys]
    width = max([4, *map(len, rows)])
    entropy = np.array([w + [0] * (width - len(w)) for w in rows], np.uint32).reshape(-1, width)
    xor, mult, source, out_xor, out_mult = _constants(width, n)
    pool = _hash(entropy[:, :4], xor[0], mult[0])
    for s in range(4):
        mixed = _mix(pool, _hash(pool[:, s, None], xor[1 + s], mult[1 + s]))
        mixed[:, s] = pool[:, s]
        pool = mixed
    for s in range(4, width):
        mixed = _mix(pool, _hash(entropy[:, s, None], xor[1 + s], mult[1 + s]))
        pool = np.where(np.array([[len(row) > s] for row in rows]), mixed, pool)
    return _hash(pool.take(source, axis=1), out_xor, out_mult)


def _seed_states(seeds) -> np.ndarray:
    """Each nonnegative integer seed's ``SeedSequence(seed).generate_state(4,
    np.uint64)``, the state ``PCG64(seed)`` hashes (words paired little-endian)."""
    return _seed_words([(seed,) for seed in seeds], 8).astype("<u4").view("<u8").astype(np.uint64)


class _Hashed(NamedTuple):
    """A seed sequence whose hash is done: ``PCG64(_Hashed(state))`` takes a
    :func:`_seed_states` row as ``generate_state(4, np.uint64)``."""

    state: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _noise_power(mean_signal: float, snr_db: float) -> float:
    """``mean_signal / 10**(snr_db/10)``, the noise power at a mean SNR;
    ``inf`` or 0 where the power of ten under- or overflows."""
    try:
        return mean_signal / 10.0 ** (snr_db / 10.0)
    except ZeroDivisionError:
        return math.inf
    except OverflowError:
        return 0.0


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
    from the integer seed alone: the one trial of a :func:`sample_batch`.
    """
    return sample_batch(carriers, followers, seeds=(seed,), snr_db=(snr_db,),
                        mean_signal=mean_signal, mean_cross=mean_cross, rates=rates).instance(0)


def sample_batch(
    carriers: int,
    followers: int,
    *,
    seeds,
    snr_db,
    mean_signal: float = 1.0,
    mean_cross: float = 0.5,
    rates=None,
) -> NetworkInstance:
    """One checked batch of instances, trial ``t`` drawn from ``seeds[t]``
    at ``snr_db[t]`` as :func:`sample_instance` describes.

    Trial ``t`` is ``default_rng(seeds[t])``'s draw: the seeds'
    ``SeedSequence`` hashes run as one pass (:func:`_seed_states`), and each
    generator draws ``g0, gf, h0, hf`` in that order as one
    standard-exponential stream; ``exponential(scale)`` is ``scale`` times
    that draw, bit for bit.  ``mean_cross=0`` draws no cross gains."""
    if mean_signal <= 0.0:
        raise ValueError("mean_signal must be positive")
    if mean_cross < 0.0:
        raise ValueError("mean_cross must be nonnegative")
    if followers < 0:
        raise ValueError(f"followers must be nonnegative, got {followers}")
    from numpy.random import PCG64, Generator  # not at import: it slows a cold start
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_Hashed)  # a no-op after the first draw
    states = _seed_states(seeds)
    draws = np.empty((len(states), 2 if mean_cross > 0 else 1, followers + 1, carriers))
    for row, state in zip(draws, states):
        Generator(PCG64(_Hashed(state))).standard_exponential(out=row)
    with np.errstate(over="ignore"):  # a gain past the float range: NetworkInstance names it
        own = draws[:, 0] * mean_signal
        cross = draws[:, 1] * mean_cross if mean_cross > 0 else np.zeros_like(own)
    sigma2 = np.array([_noise_power(mean_signal, snr) for snr in snr_db])[:, None]
    rates = np.broadcast_to(np.asarray(1.0 if rates is None else rates, dtype=float),
                            (len(own), followers + 1))
    return NetworkInstance(own[:, 0], own[:, 1:], cross[:, 0], cross[:, 1:], sigma2, rates)


def _active(allocation: np.ndarray) -> np.ndarray:
    """Each row's active carrier, its argmax, or -1 for an all-zero row."""
    return np.where(allocation.any(axis=-1), allocation.argmax(axis=-1), -1)


def outcomes(instance: NetworkInstance, model: EfficiencyModel, allocation, regime: str):
    """Every player's utility and active carrier (:func:`_active`) under
    ``allocation``, which is checked for shape and signs."""
    allocation = np.asarray(allocation, dtype=float)
    if allocation.shape != instance.gains.shape:
        raise ValueError("allocation has wrong shape")
    if (allocation < 0.0).any():
        raise ValueError("powers must be nonnegative")
    return all_utilities(instance, model, allocation, regime), _active(allocation)


def make_result(
    instance: NetworkInstance,
    model: EfficiencyModel,
    allocation: np.ndarray,
    regime: str,
    diagnostics: Optional[dict] = None,
) -> EquilibriumResult:
    """Package an allocation with recomputed utilities and active carriers."""
    allocation = np.array(allocation, dtype=float)
    allocation.setflags(write=False)
    utilities, active = outcomes(instance, model, allocation, regime)
    utilities.setflags(write=False)
    return EquilibriumResult(
        allocation=allocation,
        utilities=utilities,
        active_carriers=tuple(None if k < 0 else k for k in active.tolist()),
        diagnostics=diagnostics or {},
    )
