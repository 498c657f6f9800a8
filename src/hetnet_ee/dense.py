"""Equilibrium for dense deployments, where small cells interfere back.

The follower side is simple: given the leader's powers, each follower
transmits on its interference-adjusted best carrier at the power that puts
its SINR exactly at the optimal operating point (:func:`model.respond`).

The leader side anticipates those reactions.  Each follower nominates its
best own-gain carrier, and a carrier's nominees are ranked by their
best-to-second gain ratio, strongest first.  One slot table, a row per
carrier, scores every occupancy the leader could induce:

* slot ``l`` keeps the top ``l`` nominees on the carrier, the leader
  running at the feedback-adjusted optimal SINR; slot 0 clears the carrier
  and runs at the interference-free optimum.  Slots are scored up to the
  stay limit, the largest occupancy whose last nominee still prefers
  staying at the leader's unconstrained optimum;
* one boundary cap covers every slot: when the slot's power would let
  nominee ``l+1`` creep back in, the power is raised to that nominee's
  indifference boundary (the slot is infeasible when the boundary is out of
  reach); otherwise, when it would push nominee ``l`` itself off, it drops
  to nominee ``l``'s boundary.  A capped slot's value is re-read there.

The best slot across carriers fixes the leader's action.  Follower rows
are then assigned from the winning occupancy: kept nominees share the
winning carrier, pushed nominees move to their second-best carrier, and
everyone else stays on their own best.  That is each follower's best
response, except at a boundary slot: there the pushed nominee is exactly
indifferent between carriers, its assigned row and its
:func:`model.respond` row tie in utility, and the solver keeps it off the
leader's carrier.

:func:`dense_batch` solves every trial of a batch at once;
:func:`solve_dense` is its one-instance call, with the slot table as
diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .efficiency import EfficiencyModel, optimal_sinr_with_feedback
from .model import (EquilibriumResult, NetworkInstance, _heard, make_result, rank_carriers,
                    stack_instances)

__all__ = ["CarrierCandidates", "dense_batch", "solve_dense"]

# boundary-cap steps by code: 0 none, 1 raise, 2 drop, 3 infeasible
_REPLACEMENTS = np.array(
    [None, "raise_to_boundary", "drop_to_boundary", "infeasible"], dtype=object
)


@dataclass(frozen=True, eq=False)
class CarrierCandidates:
    """One carrier's row of the leader's slot table.

    ``followers`` lists the carrier's nominees strongest ratio first;
    ``theta`` (best-to-second gain ratio, ``inf`` past the float range),
    ``eta`` (cumulative interference ratio), ``sinr_targets``,
    ``stays``, ``boundary_powers`` and ``boundary_values`` are indexed by
    nominee rank, so entry ``i`` belongs to slot ``i+1``.  ``stays[i]`` is
    that slot's stay test (its last nominee still prefers this carrier at
    the leader's unconstrained shared optimum: that power is below its
    boundary) and ``stay_limit`` the largest slot passing it; a scored slot
    failing it is dropped by the cap.  ``slot_powers``, ``slot_values`` and
    ``replacements`` are indexed by slot ``l = 0..stay_limit``, slot 0
    being the cleared carrier: powers and values are after the boundary
    cap, and ``replacements[l]`` names its step (``None``,
    ``"raise_to_boundary"``, ``"drop_to_boundary"`` or ``"infeasible"``).
    An infeasible slot keeps its uncapped power and value and never wins.
    """

    carrier: int
    followers: tuple
    theta: np.ndarray
    eta: np.ndarray
    sinr_targets: np.ndarray
    stays: np.ndarray
    stay_limit: int
    slot_powers: np.ndarray
    slot_values: np.ndarray
    boundary_powers: np.ndarray
    boundary_values: np.ndarray
    replacements: tuple


def dense_batch(batch: NetworkInstance, model: EfficiencyModel):
    """Dense-regime equilibrium of every trial: the allocations ``(T, F+1,
    K)`` and the slot tables, a dict of arrays with the trial axis first,
    each as wide as the batch's busiest carrier needs (at most ``F+2``)."""
    gamma, sigma2 = model.gamma, batch.sigma2[:, :, None]
    trials, carriers, count = batch.trials, batch.carriers, batch.followers
    trial, followers = np.arange(trials)[:, None], np.arange(count)
    g0, h0, rate0 = batch.g0[:, :, None], batch.h0[:, :, None], batch.rates[:, :1, None]
    best, second = (order[:, 1:] for order in rank_carriers(batch))
    # the gains on those carriers: a follower's two largest
    gb, gs = batch.gf[trial, followers, best], batch.gf[trial, followers, second]

    # row k, column l >= 1: carrier k's l-th nominee, strongest ratio first
    # and ties to the lower follower index; column 0 is the solo slot.
    # Columns past a carrier's nominees are NaN padding, and the last one
    # always is, so every slot has a next nominee.  The key gs / gb lies in
    # (0, 1], where gb / gs overflows on a subnormal gs
    nominees = np.lexsort((gs / gb, best), axis=-1)
    counts = np.bincount((best + carriers * trial).ravel(), minlength=trials * carriers)
    counts = counts.reshape(trials, carriers)
    starts = counts.cumsum(axis=1) - counts
    ks = best[trial, nominees]
    cols = followers + 1 - starts[trial, ks]
    # each nominee's cell in the flattened (T, K, width) table
    width = int(counts.max()) + 2
    cells = (trial * carriers + ks) * width + cols

    def table(values, fill=np.nan):
        out = np.empty(trials * carriers * width)
        out.fill(fill)
        out[cells] = values
        return out.reshape(trials, carriers, width)

    gb_t, gs_t = table(gb[trial, nominees]), table(gs[trial, nominees])
    # a subnormal gb or g0 can overflow eta or the feedback: no SINR target
    # exists, and the NaN left in its place keeps the slot from being scored
    with np.errstate(over="ignore"):
        eta = table(batch.hf[trial, nominees, ks] / gb[trial, nominees], 0.0).cumsum(axis=-1)
        feedback = batch.h0[trial, ks] * gamma * eta.take(cells) / batch.g0[trial, ks]
    targets = table(np.array([optimal_sinr_with_feedback(model, c) if c < np.inf else np.nan
                              for c in feedback.ravel().tolist()]).reshape(feedback.shape))
    targets[:, :, 0] = gamma

    # indifference boundaries: leader power at which a nominee stops
    # preferring this carrier over its second-best; with zero cross gain,
    # or past the float range (a tiny gs), it is out of reach (x/0 and the
    # overflow are inf).  A nominee whose two gains tie stays (ties go to
    # the lower index, its best) until the leader is heard at all: its
    # boundary is 0, or out of reach with zero cross gain
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tied = np.where(h0 > 0.0, 0.0, np.inf)
        boundary = np.where(gb_t <= gs_t, tied, sigma2 * (gb_t - gs_t) / (h0 * gs_t))
        theta = gb_t / gs_t
    # leader value at a boundary, with the nominees ranked above it sharing
    at = np.where((boundary > 0.0) & (boundary < np.inf), boundary, np.nan)[:, :, 1:]
    above = eta[:, :, :-1]
    # a boundary near the float range can overflow the SINR; f(inf) = 1
    with np.errstate(over="ignore"):
        sinr = g0 * at / (sigma2 * (1.0 + gamma * above) + gamma * above * h0 * at)
    boundary_values = np.empty_like(boundary)
    boundary_values[:, :, 0] = np.nan
    boundary_values[:, :, 1:] = rate0 * model.value(sinr) / at

    # each slot's shared optimum: the leader's gain net of the nominees'
    # feedback, and the received power its SINR target needs
    net_gain = g0 - targets * gamma * eta * h0
    # a subnormal g0 can overflow the power, or a huge eta the received
    # power; such a slot's value is below any normal carrier's, so it never wins
    with np.errstate(over="ignore", divide="ignore"):
        received = targets * (1.0 + gamma * eta) * sigma2
        powers = (received / net_gain)[:, :, :-1]
    values = (model.value(targets) * net_gain * rate0 / received)[:, :, :-1]
    # the stay test, "the last nominee still prefers this carrier at the
    # slot's uncapped power", is that power below the nominee's boundary
    stays = powers < boundary[:, :, :-1]
    slot = np.arange(width - 1)
    stay_limit = np.where(stays, slot, 0).max(axis=-1)

    # the one cap rule, against the next nominee's boundary (raise) and the
    # slot's own (drop; none for slot 0)
    below = powers < boundary[:, :, 1:]
    infeasible = below & (boundary[:, :, 1:] == np.inf)
    raised, dropped = below & ~infeasible, ~below & (powers > boundary[:, :, :-1])
    codes = raised + 2 * dropped + 3 * infeasible
    powers = codes.choose((powers, boundary[:, :, 1:], boundary[:, :, :-1], powers))
    values = codes.choose((values, boundary_values[:, :, 1:], boundary_values[:, :, :-1], values))

    scored = slot <= stay_limit[:, :, None]
    # a cap can land on a degenerate boundary (exactly tied gains), and
    # such a slot carries no usable value
    usable = scored & ~infeasible & np.isfinite(values)

    # slot-major scan: exact ties go to fewer shared slots, then lower
    # carrier.  K >= F+1 leaves some carrier without a nominee, and its
    # slot 0 is always usable
    scan = np.where(usable, values, -np.inf).swapaxes(1, 2).reshape(trials, -1)
    winner = scan.argmax(axis=1)
    slots, k_hat = winner // carriers, winner % carriers
    rows = trial[:, 0]
    alloc = np.zeros(batch.gains.shape)
    leader = powers[rows, k_hat, slots]
    alloc[rows, 0, k_hat] = leader
    # kept nominees share k_hat, pushed ones take their second-best carrier
    shared = best == k_hat[:, None]
    kept = shared & (cols[trial, nominees.argsort(axis=1)] <= slots[:, None])
    moved = np.where(shared & ~kept, second, best)
    denom = batch.sigma2 + np.where(kept, _heard(batch.h0[rows, k_hat], leader)[:, None], 0.0)
    alloc[trial, followers + 1, moved] = gamma * denom / batch.gf[trial, followers, moved]
    tables = dict(
        nominees=nominees, counts=counts, starts=starts, theta=theta, eta=eta,
        targets=targets, stays=stays, stay_limit=stay_limit, powers=powers, values=values,
        boundary=boundary, boundary_values=boundary_values, codes=codes, winner_slots=slots,
    )
    return alloc, tables


def solve_dense(instance: NetworkInstance, model: EfficiencyModel) -> EquilibriumResult:
    """Hierarchical equilibrium of the dense-regime game.

    ``diagnostics["candidate_table"]`` is the slot table, one
    :class:`CarrierCandidates` per carrier, and ``diagnostics["winner_slots"]``
    the winning occupancy ``s``.  The winning carrier is
    ``active_carriers[0]``, and that carrier's row holds the winning value,
    ``slot_values[s]``, and the cap that set the winning power,
    ``replacements[s]``.
    """
    alloc, tables = dense_batch(stack_instances((instance,)), model)
    t = {name: value[0] for name, value in tables.items()}

    def record(k, start, count, limit):
        nominee, scored_slots = slice(1, count + 1), slice(0, limit + 1)
        return CarrierCandidates(
            carrier=k,
            followers=tuple(t["nominees"][start : start + count].tolist()),
            theta=t["theta"][k, nominee],
            eta=t["eta"][k, nominee],
            sinr_targets=t["targets"][k, nominee],
            stays=t["stays"][k, nominee],
            stay_limit=limit,
            slot_powers=t["powers"][k, scored_slots],
            slot_values=t["values"][k, scored_slots],
            boundary_powers=t["boundary"][k, nominee],
            boundary_values=t["boundary_values"][k, nominee],
            replacements=tuple(_REPLACEMENTS[t["codes"][k, scored_slots]]),
        )

    diagnostics = {
        "candidate_table": tuple(map(record, range(instance.carriers), t["starts"].tolist(),
                                     t["counts"].tolist(), t["stay_limit"].tolist())),
        "winner_slots": int(t["winner_slots"]),
    }
    return make_result(instance, model, alloc[0], "dense", diagnostics)
