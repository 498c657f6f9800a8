"""Equilibrium for dense deployments, where small cells interfere back.

The follower side is simple: given the leader's powers, each follower
transmits on its interference-adjusted best carrier at the power that puts
its SINR exactly at the optimal operating point (:func:`model.respond`).

The leader side anticipates those reactions.  For each carrier the solver
enumerates every candidate occupancy it could induce there:

* shared slots: the top ``l`` nominees (followers whose best carrier it
  is, ranked by their best-to-second gain ratio) stay on the carrier and
  the leader runs at the feedback-adjusted optimal SINR; computed for each
  ``l`` up to the stay limit, the largest occupancy whose last nominee
  still prefers staying at the leader's unconstrained optimum;
* boundary caps: when the leader's unconstrained power would let the next
  nominee creep back in (or push a wanted nominee off), the power is
  clamped to the nominee's indifference boundary and the candidate value
  is re-read there;
* a solo candidate: the leader clears the carrier entirely, transmitting
  at its interference-free optimum or, if that would not repel the top
  nominee, just at the nominee's indifference boundary.

The best candidate across carriers fixes the leader's action.  Follower
rows are then assigned from the winning occupancy: kept nominees share the
winning carrier, pushed nominees move to their second-best carrier, and
everyone else stays on their own best.  That is each follower's best
response, except at a boundary candidate: there the pushed nominee is
exactly indifferent between carriers, its assigned row and its
:func:`model.respond` row tie in utility, and the solver keeps it off the
leader's carrier.  Only the degenerate fallback (no usable candidate on
any carrier) calls :func:`model.respond` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .efficiency import EfficiencyModel, optimal_sinr_with_feedback
from .model import (
    EquilibriumResult,
    NetworkInstance,
    empty_allocation,
    make_result,
    rank_carriers,
    respond,
)

__all__ = ["CarrierCandidates", "solve_dense"]


@dataclass(frozen=True)
class CarrierCandidates:
    """Per-carrier bookkeeping of the leader's candidate actions.

    ``followers`` lists the carrier's nominees strongest ratio first;
    arrays indexed by nominee rank (``theta``, ``eta``, ``sinr_targets``,
    ``stays``, ``boundary_powers``, ``boundary_values``) cover all nominees.
    ``stays[l-1]`` is the stay test of slot ``l`` (its nominee still
    prefers this carrier at the leader's unconstrained shared optimum) and
    ``stay_limit`` the largest ``l`` passing it.  ``slot_values`` and
    ``slot_powers`` cover shared slots ``1..stay_limit`` after boundary
    caps; ``replacements[l-1]`` records what step the cap logic took for
    slot ``l`` (``None``, ``"raise_to_boundary"``, ``"drop_to_boundary"``
    or ``"infeasible"``).  The solo candidate is ``nan`` when the carrier
    cannot be cleared (zero cross gain onto its nominees).
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
    solo_power: float
    solo_value: float


def _shared_power(gamma, target, eta, sigma2, g0k, h0k):
    # leader power hitting `target` when nominees with cumulative ratio
    # `eta` share the carrier; reduces to gamma*sigma2/g0k bit-for-bit when
    # eta == 0, which the sparse solver relies on
    return target * (1.0 + gamma * eta) * sigma2 / (g0k - gamma * target * eta * h0k)


def _shared_value(model, gamma, target, eta, sigma2, g0k, h0k, rate):
    return (
        model.value(target)
        * (g0k - target * gamma * eta * h0k)
        * rate
        / (target * (1.0 + gamma * eta) * sigma2)
    )


def _boundary_value(model, gamma, eta_prev, sigma2, g0k, h0k, rate, power):
    # leader utility at a nominee's indifference power, with the nominees
    # ranked above it (cumulative ratio eta_prev) still sharing
    sinr = g0k * power / (sigma2 * (1.0 + gamma * eta_prev) + gamma * eta_prev * h0k * power)
    return rate * model.value(sinr) / power


def _build_carrier(instance, model, gamma, k, best, second) -> CarrierCandidates:
    # best/second: every follower's best and second-best carrier
    sigma2 = instance.sigma2
    g0k = float(instance.g0[k])
    h0k = float(instance.h0[k])
    rate0 = float(instance.rates[0])

    rows = np.flatnonzero(best == k)
    gb = instance.gf[rows, k]
    gs = instance.gf[rows, second[rows]]
    # strongest ratio first, ties to the lower follower index
    order = np.argsort(-(gb / gs), kind="stable")
    rows, gb, gs = rows[order], gb[order], gs[order]
    theta = gb / gs
    nominees = tuple(rows.tolist())
    count = len(nominees)

    eta = np.zeros(count)
    targets = np.zeros(count)
    acc = 0.0
    for i, f in enumerate(nominees):
        acc = acc + instance.hf[f, k] / instance.gf[f, k]
        eta[i] = acc
        feedback = h0k * gamma * eta[i] / g0k
        targets[i] = optimal_sinr_with_feedback(model, feedback)

    # indifference boundaries: leader power at which nominee i stops
    # preferring this carrier over its second-best
    boundary_powers = np.zeros(count)
    boundary_values = np.full(count, math.nan)
    for i in range(count):
        if gb[i] <= gs[i]:
            boundary_powers[i] = 0.0
        elif h0k == 0.0:
            boundary_powers[i] = math.inf
        else:
            boundary_powers[i] = sigma2 * (gb[i] - gs[i]) / (h0k * gs[i])
        if 0.0 < boundary_powers[i] < math.inf:
            eta_prev = eta[i - 1] if i > 0 else 0.0
            boundary_values[i] = _boundary_value(
                model, gamma, eta_prev, sigma2, g0k, h0k, rate0, boundary_powers[i]
            )

    stays = gb * (g0k - targets * gamma * eta * h0k) > gs * (g0k + h0k * targets)
    passing = np.flatnonzero(stays)
    stay_limit = int(passing[-1]) + 1 if passing.size else 0

    slot_powers = np.zeros(stay_limit)
    slot_values = np.zeros(stay_limit)
    replacements = [None] * stay_limit
    for l in range(1, stay_limit + 1):
        slot_powers[l - 1] = _shared_power(gamma, targets[l - 1], eta[l - 1], sigma2, g0k, h0k)
        slot_values[l - 1] = _shared_value(
            model, gamma, targets[l - 1], eta[l - 1], sigma2, g0k, h0k, rate0
        )
    for l in range(1, stay_limit + 1):
        if l < count and slot_powers[l - 1] < boundary_powers[l]:
            # optimum sits where nominee l+1 would creep back in; raise the
            # power to its indifference boundary (drop the slot entirely if
            # that boundary is unreachable)
            if math.isinf(boundary_powers[l]):
                replacements[l - 1] = "infeasible"
            else:
                slot_powers[l - 1] = boundary_powers[l]
                slot_values[l - 1] = boundary_values[l]
                replacements[l - 1] = "raise_to_boundary"
        elif slot_powers[l - 1] > boundary_powers[l - 1]:
            # optimum would push nominee l itself off; fall back to its
            # boundary, where only the nominees above it share
            slot_powers[l - 1] = boundary_powers[l - 1]
            slot_values[l - 1] = boundary_values[l - 1]
            replacements[l - 1] = "drop_to_boundary"

    # solo candidate: carrier cleared of nominees entirely
    solo_unconstrained = _shared_power(gamma, gamma, 0.0, sigma2, g0k, h0k)
    if count == 0 or boundary_powers[0] <= solo_unconstrained:
        solo_power = solo_unconstrained
        solo_value = _shared_value(model, gamma, gamma, 0.0, sigma2, g0k, h0k, rate0)
    elif math.isinf(boundary_powers[0]):
        solo_power = math.nan
        solo_value = math.nan
    else:
        solo_power = boundary_powers[0]
        solo_value = boundary_values[0]

    return CarrierCandidates(
        carrier=k,
        followers=nominees,
        theta=theta,
        eta=eta,
        sinr_targets=targets,
        stays=stays,
        stay_limit=stay_limit,
        slot_powers=slot_powers,
        slot_values=slot_values,
        boundary_powers=boundary_powers,
        boundary_values=boundary_values,
        replacements=tuple(replacements),
        solo_power=solo_power,
        solo_value=solo_value,
    )


def solve_dense(instance: NetworkInstance, model: EfficiencyModel) -> EquilibriumResult:
    """Hierarchical equilibrium of the dense-regime game.

    Diagnostics carry the full candidate table, the winning carrier and
    occupancy, and which boundary cap (if any) produced the winning power.
    """
    if instance.carriers < 2:
        raise ValueError("the dense equilibrium needs at least two carriers")
    gamma = model.gamma
    best, second = rank_carriers(instance)

    table = tuple(
        _build_carrier(instance, model, gamma, k, best[1:], second[1:])
        for k in range(instance.carriers)
    )

    # stay-test consistency audit (diagnostic only): the test should hold
    # at every slot up to the stay limit, not just at the limit itself
    violations = tuple(
        (cc.carrier, l) for cc in table for l in range(1, cc.stay_limit + 1) if not cc.stays[l - 1]
    )

    # (value, slots, carrier, power, kind); a cap can land on a degenerate
    # boundary (exactly tied gains), and such a slot carries no usable value
    candidates = [
        (cc.slot_values[l - 1], l, cc.carrier, cc.slot_powers[l - 1], "shared")
        for cc in table
        for l in range(1, cc.stay_limit + 1)
        if cc.replacements[l - 1] != "infeasible" and math.isfinite(cc.slot_values[l - 1])
    ]
    candidates += [
        (cc.solo_value, 0, cc.carrier, cc.solo_power, "solo")
        for cc in table
        if math.isfinite(cc.solo_value)
    ]
    # exact ties resolved toward fewer shared slots, then lower carrier
    winner = max(candidates, key=lambda c: (c[0], -c[1], -c[2]), default=None)

    diagnostics = {
        "solver": "dense_candidate_search",
        "sinr_target": gamma,
        "candidate_table": table,
        "stay_test_violations": violations,
    }

    alloc = empty_allocation(instance)
    if winner is None:
        # every carrier degenerate (no clearable carrier, no stable slot);
        # fall back to the leader's interference-free optimum on its best
        # own-gain carrier and let followers respond
        b0 = int(best[0])
        alloc[0, b0] = gamma * instance.sigma2 / instance.g0[b0]
        alloc[1:] = respond(instance, alloc[0], gamma)[0]
        diagnostics.update(
            {"winner_carrier": b0, "winner_slots": None, "degenerate_fallback": True}
        )
        return make_result(instance, model, alloc, "dense", diagnostics)

    value, slots, k_hat, leader_power, kind = winner
    cc = table[k_hat]
    alloc[0, k_hat] = leader_power
    denom_shared = instance.sigma2 + instance.h0[k_hat] * leader_power
    for i, f in enumerate(cc.followers):
        if i < slots:
            alloc[f + 1, k_hat] = gamma * denom_shared / instance.gf[f, k_hat]
        else:
            s = second[f + 1]
            alloc[f + 1, s] = gamma * instance.sigma2 / instance.gf[f, s]
    for f in range(instance.followers):
        if best[f + 1] != k_hat:
            b = best[f + 1]
            alloc[f + 1, b] = gamma * instance.sigma2 / instance.gf[f, b]

    replacement = cc.replacements[slots - 1] if kind == "shared" else None
    diagnostics.update(
        {
            "winner_carrier": k_hat,
            "winner_slots": slots,
            "winner_value": value,
            "winner_kind": kind,
            "winner_replacement": replacement,
            "winner_stay_limit_original": cc.stay_limit,
            "winner_sinr_target": (
                float(cc.sinr_targets[slots - 1])
                if kind == "shared" and replacement is None
                else None
            ),
        }
    )
    return make_result(instance, model, alloc, "dense", diagnostics)

