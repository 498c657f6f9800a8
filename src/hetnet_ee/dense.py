"""The Stackelberg game by backward induction: the leader commits to a row,
and every follower best-responds to it (:func:`model.respond`).

:func:`stackelberg_batch` is the one core of both regimes, which pick only
the leader's row.  A sparse leader hears no follower and best-responds to
noise alone.  A dense leader anticipates the followers' reactions.  Each
follower nominates its carrier at zero leader power, and
:func:`model.switches` gives the least leader power there that moves it to
its rival carrier; a carrier's nominees are ranked by that switch, latest
first.  One slot table (:func:`dense_batch`), a row per carrier, scores
every occupancy the leader could induce:

* slot ``l`` keeps the top ``l`` nominees on the carrier, the leader
  running at the feedback-adjusted optimal SINR; slot 0 clears the carrier
  and runs at the interference-free optimum.  Slot ``l`` holds from
  nominee ``l+1``'s switch up to nominee ``l``'s, and slots are scored up
  to the stay limit, the largest occupancy whose last nominee still stays
  at the leader's unconstrained optimum;
* one cap covers every slot: when the slot's power would let nominee
  ``l+1`` creep back in, the power is raised to that nominee's switch (the
  slot is infeasible unless that switch is below nominee ``l``'s), and its
  value is re-read there.  A slot whose power would push nominee ``l``
  off is infeasible too: below that switch it does no better than slot
  ``l-1`` at it.

The best slot fixes the leader's row, exact ties going to the lower
carrier, then to fewer shared slots.  :func:`solve_dense` is the core's
dense regime on a batch of one, with each carrier's scored slots as
diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .efficiency import EfficiencyModel, optimal_sinr_with_feedback
from .model import (CONVERGED, OVERFLOW, STOPS, EquilibriumResult, NetworkInstance, best_response,
                    hears_followers, make_result, respond, stack_instances, switches)

__all__ = ["CarrierCandidates", "dense_batch", "stackelberg_batch", "solve_dense"]

# cap steps by code: 0 none, 1 raise, 2 infeasible
_REPLACEMENTS = np.array([None, "raise_to_boundary", "infeasible"], dtype=object)


@dataclass(frozen=True, eq=False)
class CarrierCandidates:
    """One carrier's scored slots, ``l = 0..stay_limit``, slot 0 being the
    cleared carrier; the rest of its row is :func:`dense_batch`'s.

    ``stay_limit`` is the largest slot passing its stay test.
    ``slot_powers`` and ``slot_values`` are after the cap, and
    ``replacements[l]`` names its step (``None``, ``"raise_to_boundary"``
    or ``"infeasible"``).  An infeasible slot keeps its uncapped power and
    value and never wins.
    """

    stay_limit: int
    slot_powers: np.ndarray
    slot_values: np.ndarray
    replacements: tuple


def dense_batch(batch: NetworkInstance, model: EfficiencyModel):
    """The dense-regime leader's row of every trial, ``(T, K)``, and the slot
    tables that chose it, a dict of arrays with the trial axis first:
    ``nominees`` ``(T, F)``, each carrier's ranked run of ``counts`` from
    ``starts`` ``(T, K)``; ``stay_limit`` ``(T, K)``, the largest slot passing
    its stay test; ``winner_slots`` ``(T,)``.  The others hold a row per
    carrier, column ``l`` for slot ``l``: ``stays``, ``powers``, ``values``
    (both after the cap) and ``codes`` (its step: 0 none, 1 raise, 2
    infeasible) up to the busiest carrier's last slot, and ``eta``,
    ``targets``, ``boundary`` (the switch of slot ``l``'s last nominee) and
    ``boundary_values`` (the leader's value there) one column further."""
    gamma, sigma2 = model.gamma, batch.sigma2[:, :, None]
    trials, carriers, count = batch.trials, batch.carriers, batch.followers
    trial, followers = np.arange(trials)[:, None], np.arange(count)
    g0, h0, rate0 = batch.g0[:, :, None], batch.h0[:, :, None], batch.rates[:, :1, None]
    best, rival, switch = switches(batch)
    gb, gs = batch.gf[trial, followers, best], batch.gf[trial, followers, rival]

    # row k, column l >= 1: carrier k's l-th nominee, latest switch first,
    # then (every switch is inf without cross gain) the smaller gs / gb, then
    # the lower follower index; column 0 is the solo slot.  Columns past a
    # carrier's nominees are NaN padding, and the last one always is, so
    # every slot has a next nominee
    nominees = np.lexsort((gs / gb, -switch, best), axis=-1)
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

    # a subnormal gb or g0 overflows eta or the feedback, which is 0 * inf
    # for an infinite eta without leader cross gain: no SINR target exists,
    # and the NaN left in its place keeps the slot from being scored
    with np.errstate(over="ignore", invalid="ignore"):
        eta = table(batch.hf[trial, nominees, ks] / gb[trial, nominees], 0.0).cumsum(axis=-1)
        feedback = batch.h0[trial, ks] * gamma * eta.take(cells) / batch.g0[trial, ks]
    targets = table(np.array([optimal_sinr_with_feedback(model, c) if c < np.inf else np.nan
                              for c in feedback.ravel().tolist()]).reshape(feedback.shape))
    targets[:, :, 0] = gamma

    # the switches by nominee rank; slot 0 keeps no nominee, so none bounds it
    boundary = table(switch[trial, nominees])
    boundary[:, :, 0] = np.inf
    # leader value at a switch, with the nominees ranked above it sharing
    at = np.where(boundary < np.inf, boundary, np.nan)[:, :, 1:]
    above = eta[:, :, :-1]
    # a switch near the float range can overflow the SINR, f(inf) = 1, or
    # both its sides, and the NaN left keeps a raise to it from winning
    with np.errstate(over="ignore", invalid="ignore"):
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

    # slot l holds on [next switch, own switch).  The stay test, "the last
    # nominee stays at the slot's uncapped power", is that power below its
    # own switch; slot 0 has no last nominee and always passes
    own, nxt = boundary[:, :, :-1], boundary[:, :, 1:]
    stays = powers < own
    stays[:, :, 0] = True
    stay_limit = np.where(stays, np.arange(width - 1), 0).max(axis=-1)
    # the one cap: raise to the next switch where it is below the own
    below = powers < nxt
    raised = below & (nxt < own)
    infeasible = ~stays | below & ~raised
    codes = raised + 2 * infeasible
    powers = np.where(raised, nxt, powers)
    values = np.where(raised, boundary_values[:, :, 1:], values)

    # carrier-major scan: exact ties go to the lower carrier, then to fewer
    # shared slots.  K >= F+1 leaves some carrier without a nominee, and its
    # slot 0 is always feasible
    scan = np.where(~infeasible & np.isfinite(values), values, -np.inf).reshape(trials, -1)
    k_hat, slots = np.divmod(scan.argmax(axis=1), width - 1)
    leader = np.zeros((trials, carriers))
    leader[trial[:, 0], k_hat] = powers[trial[:, 0], k_hat, slots]
    return leader, dict(
        nominees=nominees, counts=counts, starts=starts, eta=eta, targets=targets, stays=stays,
        stay_limit=stay_limit, powers=powers, values=values,
        boundary=boundary, boundary_values=boundary_values, codes=codes, winner_slots=slots,
    )


def stackelberg_batch(batch: NetworkInstance, model: EfficiencyModel, regime: str):
    """Every trial's Stackelberg equilibrium: the regime's leader row and
    every follower's :func:`model.respond` row to it.  Returns the allocations
    ``(T, F+1, K)``, the stop codes ``(T,)`` (``"overflow"`` past the float
    range, else ``"converged"``) and the slot tables of :func:`dense_batch`,
    an empty dict in the sparse regime."""
    if batch.carriers < 2:
        raise ValueError("a stackelberg leader needs two carriers to choose from")
    leader, tables = (dense_batch(batch, model) if hears_followers(regime)
                      else (best_response(batch.g0, batch.sigma2, model.gamma)[0], {}))
    alloc = np.concatenate([leader[:, None], respond(batch, leader, model.gamma)[0]], axis=1)
    stop = np.where(np.isfinite(alloc).all(axis=(1, 2)), CONVERGED, OVERFLOW)
    return alloc, stop, tables


def solve_dense(instance: NetworkInstance, model: EfficiencyModel) -> EquilibriumResult:
    """Hierarchical equilibrium of the dense-regime game.

    ``diagnostics["candidate_table"]`` holds each carrier's scored slots, one
    :class:`CarrierCandidates` per carrier, and ``diagnostics["winner_slots"]``
    the winning occupancy ``s``: the winning carrier, ``active_carriers[0]``,
    holds the winning value, ``slot_values[s]``, and the cap that set the
    winning power, ``replacements[s]``.  ``diagnostics["stop"]`` is
    ``"converged"``, or ``"overflow"`` when a power passes the float range.
    """
    alloc, (stop,), tables = stackelberg_batch(stack_instances((instance,)), model, "dense")
    powers, values, codes = tables["powers"][0], tables["values"][0], tables["codes"][0]
    candidate_table = tuple(
        CarrierCandidates(limit, powers[k, :limit + 1], values[k, :limit + 1],
                          tuple(_REPLACEMENTS[codes[k, :limit + 1]]))
        for k, limit in enumerate(tables["stay_limit"][0].tolist()))
    diagnostics = {"candidate_table": candidate_table,
                   "winner_slots": int(tables["winner_slots"][0]), "stop": STOPS[stop]}
    return make_result(instance, model, alloc[0], "dense", diagnostics)
