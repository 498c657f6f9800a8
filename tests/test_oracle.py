"""Tests for the deviation oracles."""

import ast
import io
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetnet_ee import (
    DeviationReport,
    EfficiencyModel,
    NetworkInstance,
    brute_force_stackelberg,
    sample_instance,
    solve_best_channel,
    solve_dense,
    solve_nash,
    solve_sparse,
    utility,
    verify_follower,
    verify_leader_stackelberg,
    verify_nash,
)
from hetnet_ee.model import (
    all_utilities, denominators, leader_interference, respond, sample_batch, stack_instances,
    switches,
)
from hetnet_ee import cli, efficiency, harness, oracle
from hetnet_ee.oracle import TOL, stackelberg_checks
from conftest import edge_cases, random_instance


# Reference searches that spell every candidate out as a full (N, K)
# action row and take the followers from `respond`; the unilateral
# references sweep a geometric power grid.

def _ref_actions(instance, carrier_powers):
    """(N, K) leader actions, column k holding carrier_powers[k]."""
    n = len(next(iter(carrier_powers.values())))
    actions = np.zeros((n, instance.carriers))
    for k, powers in carrier_powers.items():
        actions[:, k] = powers
    return actions


def _ref_sweep(instance, model, actions, interference):
    sinr = instance.g0 * actions / (instance.sigma2 + interference)
    return float(instance.rates[0]) * model.value(sinr).sum(axis=-1) / actions.sum(axis=-1)


def _ref_bilevel(instance, model, regime, actions):
    if regime == "dense":
        interference = leader_interference(instance, respond(instance, actions, model.gamma)[0],
                                           "dense")
    else:
        interference = 0.0
    return _ref_sweep(instance, model, actions, interference)


def _ref_grid(center, grid_size):
    return np.geomspace(center / 1e4, center * 1e4, grid_size)


def _ref_best_carrier(instance, grid, score):
    best = (-np.inf, 0, float(grid[0]))
    for k in range(instance.carriers):
        utilities = score(_ref_actions(instance, {k: grid}))
        i = int(np.argmax(utilities))
        if utilities[i] > best[0]:
            best = (float(utilities[i]), k, float(grid[i]))
    return best


# The scalar reference certificate: the leader check of the oracle module
# docstring, one carrier, interval and candidate at a time, in plain float
# arithmetic.  Follower choices come from comparing scores as `respond`
# does, and switching powers from a bisection on float values; the batched
# certificate must reproduce it bit for bit.

def ref_picks(gf, sigma2, h0, k, p):
    """Whether a follower with gains ``gf`` picks carrier ``k`` when the
    leader puts ``p`` on ``k`` alone: the best score wins, ties to the
    lower carrier."""
    score = gf[k] / (sigma2 + h0[k] * p)
    for j, g in enumerate(gf):
        if j != k and (g / sigma2 > score or (g / sigma2 == score and j < k)):
            return False
    return True


def ref_switching_power(stays):
    """The least float power at which ``stays`` fails, ``inf`` when it
    holds up to the largest float."""
    lo, hi = 0.0, sys.float_info.max
    if stays(hi):
        return math.inf
    while True:
        mid = lo / 2.0 + hi / 2.0
        if not lo < mid < hi:
            mid = math.nextafter(lo, math.inf)
            if mid == hi:
                return hi
        lo, hi = (mid, hi) if stays(mid) else (lo, mid)


def ref_golden(model, c):
    """The oracle's golden-section steps on ``f(x) (1 - c x) / x``, one
    point at a time."""
    def phi(x):
        return model.value(x) * (1.0 - c * x) / x

    lo, hi = 0.0, float(model.m) if c == 0.0 else min(float(model.m), 1.0 / c)
    x1, x2 = hi - oracle.GOLDEN * (hi - lo), lo + oracle.GOLDEN * (hi - lo)
    f1, f2 = phi(x1), phi(x2)
    for _ in range(oracle.GOLDEN_STEPS):
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - oracle.GOLDEN * (hi - lo)
            f1 = phi(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + oracle.GOLDEN * (hi - lo)
            f2 = phi(x2)
    return x1 if f1 >= f2 else x2


def ref_leader_certificate(instance, model, regime):
    """(best utility, deviating action) of the leader check."""
    rate, sigma2, gamma = float(instance.rates[0]), float(instance.sigma2), model.gamma
    g0, h0 = instance.g0.tolist(), instance.h0.tolist()
    gf, hf = instance.gf.tolist(), instance.hf.tolist()
    # in the sparse regime no follower reaches the leader's receiver
    followers = range(instance.followers if regime == "dense" else 0)
    best, action = -math.inf, None
    for k in range(instance.carriers):
        nominees = [f for f in followers if ref_picks(gf[f], sigma2, h0, k, 0.0)]
        switch = {f: ref_switching_power(lambda p, f=f: ref_picks(gf[f], sigma2, h0, k, p))
                  for f in nominees}
        ranked = sorted(nominees, key=switch.get)
        ends = [switch[f] for f in ranked]
        # interval j: [ends[j-1], ends[j]), the followers ranked j and up on k
        etas = [0.0] * (len(ranked) + 1)
        for j in reversed(range(len(ranked))):
            etas[j] = etas[j + 1] + hf[ranked[j]][k] / gf[ranked[j]][k]
        candidates = []
        for lower, upper, eta in zip([0.0] + ends, ends + [math.inf], etas):
            a, b = sigma2 * (1.0 + gamma * eta), gamma * eta * h0[k]
            c = b / g0[k]
            if lower < upper and math.isfinite(a) and math.isfinite(c):
                x = ref_golden(model, c)
                if g0[k] - b * x != 0.0:
                    candidates.append(a * x / (g0[k] - b * x))
        for f in followers:
            s = switch.get(f, 0.0)
            if 0.0 < s < math.inf:
                candidates += [math.nextafter(s, 0.0), s, math.nextafter(s, math.inf)]
        for p in candidates:
            if not 0.0 < p < math.inf:
                continue
            denom = sigma2 + h0[k] * p
            interference = 0.0
            for f in followers:
                if ref_picks(gf[f], sigma2, h0, k, p):
                    interference += gamma * denom / gf[f][k] * hf[f][k]
            u = rate * model.value(g0[k] * p / (sigma2 + interference)) / p
            if u > best:
                best, action = u, {"carrier": k, "power": p, "source": "exact"}
    return best, action


def ref_leader_respond(instance, interference, gamma):
    """The leader's closed-form response to fixed interference, spelled out
    apart from the shared best-response rule."""
    k = int(np.argmax(instance.g0 / (instance.sigma2 + interference)))
    return k, gamma * (instance.sigma2 + interference[k]) / instance.g0[k]


def ref_nash_leader(instance, model, allocation, regime, grid_size=300):
    """(best utility, deviating action) of the unilateral leader search."""
    fixed = (leader_interference(instance, allocation[1:], "dense") if regime == "dense"
             else np.zeros(instance.carriers))

    def score(actions):
        return _ref_sweep(instance, model, actions, fixed)

    center = model.gamma * instance.sigma2 / float(instance.g0.max())
    best, k, p = _ref_best_carrier(instance, _ref_grid(center, grid_size), score)
    action = {"carrier": k, "power": p, "source": "grid"}
    k, p = ref_leader_respond(instance, fixed, model.gamma)
    closed = float(score(_ref_actions(instance, {k: [p]}))[0])
    if closed > best:
        best, action = closed, {"carrier": k, "power": float(p), "source": "closed_form"}
    return best, action


def ref_brute_force(instance, model, regime):
    _, action = ref_leader_certificate(instance, model, regime)
    allocation = np.zeros((instance.players, instance.carriers))
    allocation[0, action["carrier"]] = action["power"]
    allocation[1:] = respond(instance, allocation[0], model.gamma)[0]
    return allocation


class TestVerifyFollower:
    def test_equilibrium_passes_exactly(self, model):
        rng = np.random.default_rng(50)
        for _ in range(15):
            inst = random_instance(rng)
            res = solve_sparse(inst, model)
            for f in range(inst.followers):
                rep = verify_follower(inst, model, f, res.allocation, tol=1e-6)
                assert rep.passed
                assert rep.relative_gain <= 1e-9

    def test_halved_power_fails(self, model):
        inst = sample_instance(4, 2, seed=60)
        res = solve_sparse(inst, model)
        broken = res.allocation.copy()
        broken[1] *= 0.5
        rep = verify_follower(inst, model, 0, broken, tol=1e-6)
        assert not rep.passed
        assert rep.relative_gain > 1e-3

    def test_silent_follower_fails(self, model):
        inst = sample_instance(4, 2, seed=61)
        res = solve_sparse(inst, model)
        silent = res.allocation.copy()
        silent[2] = 0.0
        rep = verify_follower(inst, model, 1, silent, tol=1e-6)
        assert not rep.passed
        assert rep.claimed_utility == 0.0
        assert np.isinf(rep.relative_gain)

    def test_best_deviation_is_the_bound(self, model):
        """A silent follower's best deviation is the exact bound, attained
        by its best response."""
        rng = np.random.default_rng(51)
        for _ in range(10):
            inst = random_instance(rng)
            alloc = np.zeros((inst.players, inst.carriers))
            alloc[0, 0] = 1.0
            rep = verify_follower(inst, model, 0, alloc)
            assert rep.deviating_action["source"] == "bound"
            k, p = rep.deviating_action["carrier"], rep.deviating_action["power"]
            alloc[1, k] = p
            attained = utility(inst, model, 1, alloc, "dense")
            assert attained == pytest.approx(rep.best_found_utility, rel=1e-14, abs=0.0)

    def test_slightly_perturbed_power_fails_at_the_default(self, model):
        """A power off the optimum by 1e-5 loses about 4e-11 of utility, a
        second-order loss that the 1e-12 default sees and 1e-6 does not."""
        rng = np.random.default_rng(64)
        for seed in range(20):
            inst = sample_instance(5, 4, snr_db=float(rng.uniform(-5.0, 25.0)), seed=seed)
            allocation = solve_dense(inst, model).allocation
            for f in range(inst.followers):
                assert verify_follower(inst, model, f, allocation).passed
                moved = allocation.copy()
                moved[f + 1] *= 1.0 + 1e-5
                rep = verify_follower(inst, model, f, moved)
                assert rep.tolerance == 1e-12 and not rep.passed
                assert 1e-11 < rep.relative_gain < 1e-10
                assert verify_follower(inst, model, f, moved, tol=1e-6).passed


class TestVerifyLeader:
    def test_sparse_equilibrium_passes(self, model):
        rng = np.random.default_rng(52)
        for _ in range(15):
            inst = random_instance(rng)
            res = solve_sparse(inst, model)
            rep = verify_leader_stackelberg(inst, model, res.allocation, "sparse")
            assert rep.passed, rep.relative_gain

    def test_dense_equilibrium_passes(self, model):
        rng = np.random.default_rng(53)
        for _ in range(15):
            inst = random_instance(rng, k_range=(2, 6), f_range=(1, 5))
            res = solve_dense(inst, model)
            rep = verify_leader_stackelberg(inst, model, res.allocation, "dense")
            assert rep.passed, rep.relative_gain

    def test_second_best_carrier_fails(self, model):
        # moving the leader to its second-best carrier cuts its utility by
        # the gain ratio, which the oracle must detect
        inst = NetworkInstance(g0=[4.0, 2.0, 1.0], gf=[[1.0, 1.0, 3.0]],
                               h0=[0.5, 0.5, 0.5], hf=np.zeros((1, 3)), sigma2=1.0)
        res = solve_sparse(inst, model)
        moved = np.zeros_like(res.allocation)
        moved[1] = res.allocation[1]
        moved[0, 1] = res.allocation[0, 0] * 4.0 / 2.0  # same SINR on carrier 1
        rep = verify_leader_stackelberg(inst, model, moved, "sparse")
        assert not rep.passed
        assert rep.relative_gain > 0.5  # ratio 4/2 - 1

    def test_claim_above_the_certificate_fails(self, model):
        """The leader check is exact, so a claim above its certificate is
        not the leader's utility with every follower responding: moving a
        follower off the leader's carrier (to its best other one, at the
        operating SINR there) raises the leader's claim past what any
        leader action earns, and the check fails."""
        inst = sample_instance(5, 4, snr_db=10.0, seed=0)
        allocation = solve_dense(inst, model).allocation.copy()
        k0 = int(np.flatnonzero(allocation[0])[0])
        f = next(f for f in range(inst.followers) if allocation[f + 1, k0] > 0.0)
        k = int(np.argmax(np.where(np.arange(inst.carriers) == k0, -np.inf, inst.gf[f])))
        allocation[f + 1] = 0.0
        allocation[f + 1, k] = model.gamma * inst.sigma2 / inst.gf[f, k]
        rep = verify_leader_stackelberg(inst, model, allocation, "dense")
        assert rep.relative_gain == pytest.approx(-0.132, abs=1e-3)
        assert not rep.passed
        assert not verify_leader_stackelberg(inst, model, allocation, "dense", tol=0.1).passed
        assert verify_leader_stackelberg(inst, model, allocation, "dense", tol=0.2).passed
        checks = stackelberg_checks(stack_instances([inst]), model, allocation[None], "dense")
        assert [r.passed for r in checks.reports(0)] == checks.passed[0].tolist()
        # the moved follower left its best response; the others still hold theirs
        assert checks.passed[0].tolist() == [False] + [g != f for g in range(inst.followers)]


class TestVerifyNash:
    def test_converged_nash_passes(self, model):
        rng = np.random.default_rng(54)
        for _ in range(10):
            inst = random_instance(rng, k_range=(2, 6), f_range=(1, 4))
            res, report = solve_nash(inst, model, "dense")
            if not report.converged:
                continue
            for rep in verify_nash(inst, model, res.allocation, "dense"):
                assert rep.passed

    def test_stackelberg_action_is_not_a_nash_best_response(self, model):
        """Committing above the simultaneous-move optimum is the whole point
        of leading; the unilateral check must flag it."""
        inst = NetworkInstance(g0=[2.0, 1.0], gf=[[3.0, 1.0]], h0=[1.0, 0.5],
                               hf=[[1.0, 0.2]], sigma2=1.0)
        res = solve_dense(inst, model)
        reports = verify_nash(inst, model, res.allocation, "dense")
        assert not reports[0].passed  # the leader would cut back to its solo optimum
        assert reports[1].passed  # the follower is already best-responding

    def test_trivial_single_player_game(self, model):
        inst = NetworkInstance(g0=[1.0, 2.0], gf=np.zeros((0, 2)), h0=[0, 0],
                               hf=np.zeros((0, 2)), sigma2=1.0)
        res, _ = solve_nash(inst, model, "dense")
        reports = verify_nash(inst, model, res.allocation, "dense")
        assert len(reports) == 1 and reports[0].passed


class TestBruteForce:
    def test_matches_sparse_solver_within_grid_error(self, model):
        """No grid error is left: the exact search attains the closed form."""
        rng = np.random.default_rng(55)
        for _ in range(10):
            inst = random_instance(rng, k_range=(2, 5), f_range=(1, 3))
            closed = solve_sparse(inst, model)
            forced = brute_force_stackelberg(inst, model, "sparse")
            u_closed = closed.utilities[0]
            u_forced = utility(inst, model, 0, forced, "sparse")
            assert abs(u_forced - u_closed) <= 1e-12 * u_closed

    def test_matches_the_dense_solver(self, model):
        rng = np.random.default_rng(56)
        for _ in range(40):
            inst = random_instance(rng, k_range=(2, 6), f_range=(1, 5), mean_cross=1.0)
            target = solve_dense(inst, model).utilities[0]
            forced = brute_force_stackelberg(inst, model, "dense")
            assert abs(utility(inst, model, 0, forced, "dense") - target) <= 1e-12 * target

    def test_dense_reduces_to_sparse_without_cross_gains(self, model):
        inst = sample_instance(4, 2, mean_cross=0.0, seed=70)
        a = brute_force_stackelberg(inst, model, "dense")
        b = brute_force_stackelberg(inst, model, "sparse")
        assert np.array_equal(a, b)

    def test_reproducible(self, model):
        inst = sample_instance(4, 2, seed=71)
        a = brute_force_stackelberg(inst, model, "dense")
        b = brute_force_stackelberg(inst, model, "dense")
        assert np.array_equal(a, b)


class TestReportSemantics:
    def test_tighter_tolerance_never_rescues_a_failure(self, model):
        """Passes can only turn into failures as the tolerance shrinks."""
        rng = np.random.default_rng(57)
        inst = random_instance(rng)
        res = solve_sparse(inst, model)
        broken = res.allocation.copy()
        broken[1] *= 1.2
        gains = [
            verify_follower(inst, model, 0, broken, tol=t).passed
            for t in (1e-1, 1e-3, 1e-6, 1e-9)
        ]
        # once False, stays False
        assert gains == sorted(gains, reverse=True)

    def test_verdict_matches_gain(self, model):
        inst = sample_instance(4, 2, seed=72)
        res = solve_sparse(inst, model)
        rep = verify_leader_stackelberg(inst, model, res.allocation, "sparse")
        assert rep.passed == (abs(rep.relative_gain) <= rep.tolerance)


def _assert_same_search(report, claimed, best, action):
    """The reference's best utility and deviating action bit for bit, and
    its verdict, two-sided as the exact check's is."""
    assert report.deviating_action == action
    assert report.best_found_utility == best
    gain = (best - claimed) / claimed if claimed > 0.0 else (np.inf if best > 0.0 else 0.0)
    assert report.relative_gain == gain
    assert report.passed == (abs(gain) <= report.tolerance)


def _assert_near_search(report, inst, allocation, regime, claimed, best, action):
    """The exact bound against a grid and closed-form reference: its best
    to 1e-14 relative (so never below it by more), its carrier where the
    best gain ratio is unique, and its verdict at the report's tolerance."""
    assert report.deviating_action["source"] == "bound"
    assert abs(report.best_found_utility - best) <= 1e-14 * best
    row = report.player
    ratios = np.sort(inst.gains[row] / denominators(inst, allocation, regime)[row])
    if ratios.size < 2 or ratios[-2] < ratios[-1] * (1.0 - 1e-12):
        assert report.deviating_action["carrier"] == action["carrier"]
    gain = (best - claimed) / claimed if claimed > 0.0 else (np.inf if best > 0.0 else 0.0)
    assert report.passed == (gain <= report.tolerance)


def _assert_matches_reference(inst, model, allocation, regime):
    claimed = utility(inst, model, 0, allocation, regime)
    report = verify_leader_stackelberg(inst, model, allocation, regime)
    _assert_same_search(report, claimed, *ref_leader_certificate(inst, model, regime))
    nash = verify_nash(inst, model, allocation, regime)[0]
    _assert_near_search(nash, inst, allocation, regime, claimed,
                        *ref_nash_leader(inst, model, allocation, regime))


class TestBlockScorer:
    """The batched leader certificate against the scalar reference."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=edge_cases())
    def test_edge_cases_match_the_reference(self, case):
        inst, model, regime = case
        solve = solve_dense if regime == "dense" else solve_sparse
        allocation = solve(inst, model).allocation
        for scale in (1.0, 1.05):
            perturbed = allocation.copy()
            perturbed[0] *= scale
            _assert_matches_reference(inst, model, perturbed, regime)
        assert np.array_equal(brute_force_stackelberg(inst, model, regime),
                              ref_brute_force(inst, model, regime))

    def test_perturbed_dense_leaders_match_the_reference(self, model):
        rng = np.random.default_rng(90)
        for seed in range(500):
            inst = sample_instance(5, 4, snr_db=float(rng.uniform(-5.0, 25.0)), seed=seed)
            allocation = solve_dense(inst, model).allocation.copy()
            allocation[0] *= float(rng.choice([0.9, 0.99, 1.0, 1.001, 1.05, 1.5]))
            claimed = utility(inst, model, 0, allocation, "dense")
            report = verify_leader_stackelberg(inst, model, allocation, "dense")
            _assert_same_search(report, claimed, *ref_leader_certificate(inst, model, "dense"))
            if seed % 5 == 0:
                nash = verify_nash(inst, model, allocation, "dense")[0]
                _assert_near_search(nash, inst, allocation, "dense", claimed,
                                    *ref_nash_leader(inst, model, allocation, "dense"))
                assert np.array_equal(brute_force_stackelberg(inst, model, "dense"),
                                      ref_brute_force(inst, model, "dense"))

    def test_row_pieces_match_the_reference(self, model):
        """A batch cut into pieces of trials, down to one trial, checks each
        trial as the whole batch does, as one instance does and as the
        reference does."""
        rng = np.random.default_rng(96)
        batch = sample_batch(6, 4, seeds=list(range(40)), snr_db=rng.uniform(-30.0, 60.0, 40),
                             mean_cross=2.0)
        instances = [batch.instance(t) for t in range(batch.trials)]
        for regime in ("dense", "sparse"):
            solve = solve_dense if regime == "dense" else solve_sparse
            allocation = np.array([solve(inst, model).allocation for inst in instances])
            allocation[::3, 0] *= 1.01
            whole = stackelberg_checks(batch, model, allocation, regime)
            for size in (1, 7, 40):
                for start in range(0, batch.trials, size):
                    piece = stackelberg_checks(stack_instances(instances[start:start + size]),
                                               model, allocation[start:start + size], regime)
                    for t in range(piece.claims.size):
                        assert piece.reports(t) == whole.reports(start + t)
            for t, inst in enumerate(instances):
                reports = whole.reports(t)
                assert reports[0] == verify_leader_stackelberg(inst, model, allocation[t], regime)
                assert reports[1:] == verify_nash(inst, model, allocation[t], "dense")[1:]
                assert reports[1:] == [verify_follower(inst, model, f, allocation[t])
                                       for f in range(inst.followers)]
                _assert_same_search(reports[0], reports[0].claimed_utility,
                                    *ref_leader_certificate(inst, model, regime))

    def test_overflowing_follower_power_off_its_carrier(self, model):
        """A subnormal gain makes the follower power there overflow; the
        follower never picks that carrier, so it must add nothing."""
        inst = NetworkInstance(g0=[1.0, 2.0, 1.5], gf=[[1.0, 1e-310, 0.5]], h0=[0.5] * 3,
                               hf=[[0.3] * 3], sigma2=0.1)
        allocation = solve_dense(inst, model).allocation
        _assert_matches_reference(inst, model, allocation, "dense")

    def test_follower_choice_is_respond_on_tied_gains(self):
        """Integer gains, unit noise and integer powers make scores tie
        exactly; the stay test must break every tie as `respond` does."""
        rng = np.random.default_rng(91)
        gamma = EfficiencyModel(m=2).gamma
        for _ in range(200):
            k = int(rng.integers(2, 7))
            f = int(rng.integers(1, k))
            inst = NetworkInstance(
                g0=rng.integers(1, 4, k), gf=rng.integers(1, 4, (f, k)),
                h0=rng.integers(0, 3, k), hf=rng.integers(0, 3, (f, k)), sigma2=1.0)
            carrier, rival, switch = switches(inst)
            levels = np.arange(6.0)
            # leader alone on carrier k at each level: a follower leaves its
            # carrier from its switch on, and stays put off it
            on = np.arange(k)[:, None, None] == carrier
            picked = np.where(on & (levels[:, None] >= switch), rival, carrier)
            actions = np.zeros((k, levels.size, k))
            actions[np.arange(k), :, np.arange(k)] = levels
            _, carriers = respond(inst, actions, gamma)
            assert np.array_equal(picked, carriers)


class TestExactCertificate:
    """The leader check finds the leader's optimum, so a solver output
    reads no gain and a small push off it fails."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=edge_cases())
    def test_solver_outputs_read_no_gain(self, case):
        inst, model, regime = case
        solve = solve_dense if regime == "dense" else solve_sparse
        allocation = solve(inst, model).allocation
        report = verify_leader_stackelberg(inst, model, allocation, regime)
        assert abs(report.relative_gain) <= 1e-12
        assert all(abs(r.relative_gain) <= 1e-12
                   for r in verify_nash(inst, model, allocation, "dense")[1:])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=edge_cases(), sign=st.sampled_from([-1.0, 1.0]))
    def test_pushed_leader_fails_at_the_default(self, case, sign):
        """The leader's power moved by 1e-4, every follower re-responding."""
        inst, model, regime = case
        solve = solve_dense if regime == "dense" else solve_sparse
        allocation = solve(inst, model).allocation
        pushed = np.zeros_like(allocation)
        pushed[0] = allocation[0] * (1.0 + sign * 1e-4)
        pushed[1:] = respond(inst, pushed[0], model.gamma)[0]
        report = verify_leader_stackelberg(inst, model, pushed, regime)
        assert report.tolerance == TOL and not report.passed, report

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=edge_cases())
    def test_no_grid_action_beats_the_certificate(self, case):
        """Single-carrier actions on a 1200-point grid over eight decades,
        scored through `respond`, stay within rounding of the best found."""
        inst, model, regime = case
        report = verify_leader_stackelberg(inst, model, solve_dense(inst, model).allocation
                                           if regime == "dense" else
                                           solve_sparse(inst, model).allocation, regime)
        center = model.gamma * inst.sigma2 / float(inst.g0.max())
        grid, _, _ = _ref_best_carrier(
            inst, _ref_grid(center, 1200),
            lambda actions: _ref_bilevel(inst, model, regime, actions))
        assert grid <= report.best_found_utility * (1.0 + 1e-13)


def _bracketed(gk, bar, sigma2, h0, switch):
    """Whether ``switch`` lies within 8 ulps of ``gk / bar / h0`` of the
    closed form, the bracket the search starts from (else it searches all
    powers)."""
    quiet = gk / bar
    guess, spread = ((quiet - sigma2) / h0, quiet / h0 * 2.0**-49) if h0 else (math.inf,) * 2
    return 0.0 <= guess - spread < switch <= guess + spread < math.inf


class TestLeaderSearches:
    """The certificate's two searches match the scalar references bit for
    bit: the golden section searches each distinct coefficient once, and a
    switching power starts from the closed form's bracket where the stay
    test confirms it."""

    @pytest.mark.parametrize("m", [2, 10])
    def test_repeated_trials_match_the_reference(self, m, monkeypatch):
        model = EfficiencyModel(m=m)
        rows = [sample_instance(5, 4, snr_db=snr, seed=seed)
                for snr, seed in ((-5.0, 3), (10.0, 4), (25.0, 5))]
        rows += rows[::-1] + rows
        coefficients = []

        def spy(model, c, meet=False):
            coefficients.append(c)
            return golden(model, c, meet)

        golden = oracle._golden
        monkeypatch.setattr(oracle, "_golden", spy)
        best, carriers, powers = oracle._leader(stack_instances(rows), model, "dense")
        nonzero = coefficients[0][coefficients[0] != 0.0]
        assert 0 < np.unique(nonzero).size < nonzero.size
        for t, inst in enumerate(rows):
            ref_best, action = ref_leader_certificate(inst, model, "dense")
            assert (best[t, 0], carriers[t, 0], powers[t, 0]) == (
                ref_best, action["carrier"], action["power"]), t

    @pytest.mark.parametrize("m", [2, 10])
    @pytest.mark.parametrize("n", [1, 2, 7, 113, 300])
    def test_golden_is_the_scalar_search(self, m, n):
        rng = np.random.default_rng(n)
        model = EfficiencyModel(m=m)
        # zeros, coefficients about 1/m (where the bracket's end turns from
        # m to 1/c) and others, drawn with repeats
        near = np.nextafter(1.0 / m, [0.0, np.inf, np.inf]) * [1.0, 1.0, 1.0 + 1e-12]
        pool = np.concatenate([[0.0, 1.0 / m], near, rng.uniform(0.0, 2.0, 6),
                               rng.exponential(1e-3, 4)])
        c = rng.choice(pool, n)
        x, peak = oracle._golden(model, c)
        for ci, xi, pi in zip(c.tolist(), x.tolist(), peak.tolist()):
            ref = ref_golden(model, ci)
            assert (xi, pi) == (ref, model.value(ref) * (1.0 - ci * ref) / ref), ci

    def test_switching_powers_match_the_reference(self):
        # one follower with gains (gk, bar * s) on two carriers, noise s and
        # leader cross gain h0 on carrier 0; nearly indifferent at zero
        # power: gk / bar is s times 1 + 2**-e
        cases = [(0.37 * s * (1.0 + 2.0**-e), 0.37, s, 0.5)
                 for e in range(10, 51, 4) for s in (1e-3, 1.0, 7.3)]
        cases += [(2.0, 1.0, 1.0, 0.0), (2.0, 1.5, 0.5, 0.0)]  # h0 = 0: never leaves
        cases += [(3e-310, 1e-310, 1.0, 0.25), (3e-310, 1e-310, 1.0, 1e-300),
                  (7 * 5e-324, 3 * 5e-324, 1.0, 0.3)]  # subnormal gains
        cases += [(1e300, 5e299, 1.0, 1e-300), (1e300, 5e299, 1.0, 1.0),
                  (1e300, 1e-10, 1e300, 3.0),
                  (2e-300, 1.0, 1e-300, 1e300)]  # the closed form underflows to 0
        instances = [NetworkInstance(g0=[1.0, 1.0], gf=[[gk, bar * s]], h0=[h0, 1.0],
                                     hf=[[0.0, 0.0]], sigma2=s) for gk, bar, s, h0 in cases]
        gains = [inst.gf[0].tolist() for inst in instances]
        # each stays at zero power, and carrier 0 wins a tie
        assert all(ref_picks(gf, s, [h0], 0, 0.0) for gf, (_, _, s, h0) in zip(gains, cases))
        refs = [ref_switching_power(lambda p, gf=gf, s=s, h0=h0: ref_picks(gf, s, [h0], 0, p))
                for gf, (_, _, s, h0) in zip(gains, cases)]
        bars = [math.nextafter(gf[1] / s, -math.inf) for gf, (_, _, s, _) in zip(gains, cases)]
        assert {_bracketed(gf[0], bar, s, h0, ref) for gf, bar, (_, _, s, h0), ref
                in zip(gains, bars, cases, refs)} == {True, False}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            carrier, rival, together = switches(stack_instances(instances))
            alone = [switches(inst)[2][0] for inst in instances]
        assert carrier.tolist() == [[0]] * len(cases) and rival.tolist() == [[1]] * len(cases)
        assert together[:, 0].tolist() == alone == refs

    def test_verify_leaves_numpy_ma_unloaded(self):
        # the golden search dedups with its own argsort: np.unique can
        # import numpy.ma, depending on the options it is called with
        code = (
            "import sys\n"
            "from hetnet_ee import harness\n"
            "config = harness.ScenarioConfig(carriers=(5,), followers=4, trials=6, seed=3,\n"
            "                                schemes=('stackelberg',), verify_fraction=1.0)\n"
            "rows = [r.verified for r in harness.run_sweep(config)]\n"
            "print(len(rows), set(rows), 'numpy.ma' in sys.modules)\n"
        )
        src = str(Path(oracle.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.split() == [str(7 * 6 * 5), "{'pass'}", "False"]


def _lemma_utility(inst, model, regime, leader):
    """The leader's utility under ``leader`` powers with every follower
    responding, scored apart from the oracle's block sweep."""
    allocation = np.vstack([leader, respond(inst, leader, model.gamma)[0]])
    return float(all_utilities(inst, model, allocation, regime)[0])


class TestSingleBandLemma:
    """A multi-carrier leader action never beats its best single-carrier
    part, which is why the leader check scores single carriers only."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=edge_cases(), seed=st.integers(0, 2**32))
    def test_no_split_beats_its_best_part(self, case, seed):
        inst, model, regime = case
        rng = np.random.default_rng(seed)
        center = model.gamma * inst.sigma2 / float(inst.g0.max())
        for _ in range(20):
            width = int(rng.integers(2, min(3, inst.carriers) + 1))
            support = rng.choice(inst.carriers, size=width, replace=False)
            leader = np.zeros(inst.carriers)
            leader[support] = center * 10.0 ** rng.uniform(-4.0, 4.0, width)
            parts = []
            for k in support:
                part = np.zeros(inst.carriers)
                part[k] = leader[k]
                parts.append(_lemma_utility(inst, model, regime, part))
            best = max(parts)
            assert _lemma_utility(inst, model, regime, leader) <= best + 4 * np.spacing(best)


class TestPeakEfficiency:
    """``phi* = max f(x)/x``, the constant of the unilateral bound."""

    @pytest.mark.parametrize("m", [2, 3, 5, 10, 50, 100])
    def test_is_f_over_x_at_gamma(self, m):
        # rounding in f spreads its values near the flat peak by up to about
        # m/4 ulps, so the search's best and f(gamma)/gamma differ by that
        model = EfficiencyModel(m=m)
        expected = model.value(model.gamma) / model.gamma
        assert abs(oracle._peak_efficiency(model) - expected) <= 16 * np.spacing(expected)

    @pytest.mark.parametrize("m", [2, 3, 5, 10, 100, 1000])
    def test_is_the_scalar_search_bit_for_bit(self, m):
        """One point at a time until the points meet, as the batched search
        runs it for one cell."""
        model = EfficiencyModel(m=m)
        lo, hi = 0.0, float(m)
        c, d = hi - oracle.GOLDEN * (hi - lo), lo + oracle.GOLDEN * (hi - lo)
        fc, fd = model.value(c) / c, model.value(d) / d
        while lo < c < d < hi:
            if fc >= fd:
                hi, d, fd = d, c, fc
                c = hi - oracle.GOLDEN * (hi - lo)
                fc = model.value(c) / c
            else:
                lo, c, fc = c, d, fd
                d = lo + oracle.GOLDEN * (hi - lo)
                fd = model.value(d) / d
        assert oracle._peak_efficiency(model) == max(fc, fd)

    def test_does_not_use_the_newton_root(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the oracle must not solve for the optimal SINR")

        monkeypatch.setattr(efficiency, "optimal_sinr_with_feedback", forbidden)
        monkeypatch.setattr(efficiency, "optimal_sinr", forbidden)
        oracle._peak_efficiency.cache_clear()
        assert oracle._peak_efficiency(EfficiencyModel(m=7)) > 0.0

    def test_cached_at_the_first_check_not_at_import(self):
        code = (
            "from hetnet_ee import EfficiencyModel, sample_instance, verify_follower\n"
            "from hetnet_ee.oracle import _peak_efficiency as peak\n"
            "import numpy as np\n"
            "before = peak.cache_info().currsize\n"
            "inst, model = sample_instance(3, 1, seed=1), EfficiencyModel(m=2)\n"
            "for _ in range(3):\n"
            "    verify_follower(inst, model, 0, np.ones((2, 3)))\n"
            "info = peak.cache_info()\n"
            "print(before, info.currsize, info.misses)\n"
        )
        src = str(Path(oracle.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == ["0", "1", "1"]


# Reference unilateral checks as they stood before the exact bound: the
# follower sweep over carriers x grid powers with its closed form re-scored
# through a copied allocation, and the leader sweep against fixed
# interference with its own closed form.  The bound must reproduce their
# best utility to 1e-14, their carrier and their verdicts.

def ref_report(player, claimed, best, action, tol):
    gain = (best - claimed) / claimed if claimed > 0.0 else (np.inf if best > 0.0 else 0.0)
    return DeviationReport(player, claimed, best, gain, action, tol, gain <= tol)


def ref_verify_follower(instance, model, f, allocation, grid_size=300, tol=1e-6):
    allocation = np.asarray(allocation, dtype=float)
    gamma = model.gamma
    claimed = utility(instance, model, f + 1, allocation, "dense")
    rate = float(instance.rates[f + 1])
    denom = instance.sigma2 + instance.h0 * allocation[0]
    grid = _ref_grid(gamma * instance.sigma2 / float(instance.gf[f].max()), grid_size)
    utilities = rate * model.value(instance.gf[f][:, None] * grid[None, :] / denom[:, None])
    utilities = utilities / grid[None, :]
    best_k, best_i = np.unravel_index(int(np.argmax(utilities)), utilities.shape)
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
    return ref_report(f + 1, claimed, best, action, tol)


def ref_verify_nash(instance, model, allocation, regime, grid_size=300, tol=TOL):
    allocation = np.asarray(allocation, dtype=float)
    claimed = utility(instance, model, 0, allocation, regime)
    best, action = ref_nash_leader(instance, model, allocation, regime, grid_size)
    return [ref_report(0, claimed, best, action, tol)] + [
        ref_verify_follower(instance, model, f, allocation, grid_size, tol)
        for f in range(instance.followers)
    ]


def _assert_unilateral_matches(inst, model, allocation, regime, grid_size=300):
    reports = verify_nash(inst, model, allocation, regime)
    pairs = list(zip(reports, ref_verify_nash(inst, model, allocation, regime, grid_size)))
    followers = [verify_follower(inst, model, f, allocation) for f in range(inst.followers)]
    assert verify_nash(inst, model, allocation, "dense")[1:] == followers
    for f, report in enumerate(followers):
        assert report.tolerance == TOL
        pairs.append((report, ref_verify_follower(inst, model, f, allocation, grid_size)))
    assert [r.tolerance for r in reports] == [TOL] * inst.players
    for report, ref in pairs:
        assert (report.player, report.claimed_utility) == (ref.player, ref.claimed_utility)
        _assert_near_search(report, inst, allocation, regime, ref.claimed_utility,
                            ref.best_found_utility, ref.deviating_action)


class TestUnilateral:
    """`verify_follower` and `verify_nash` share one exact check, which
    matches the grid and closed-form reference to 1e-14."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=edge_cases())
    def test_edge_cases_match_the_reference(self, case):
        inst, model, regime = case
        if regime == "dense":
            allocation = solve_dense(inst, model).allocation
        else:
            allocation = solve_sparse(inst, model).allocation
        _assert_unilateral_matches(inst, model, allocation, regime)
        nash, _ = solve_nash(inst, model, regime)
        _assert_unilateral_matches(inst, model, nash.allocation, regime, grid_size=120)
        perturbed = allocation.copy()
        perturbed[0] *= 1.05
        perturbed[1:] *= 0.9
        _assert_unilateral_matches(inst, model, perturbed, regime)

    def test_perturbed_dense_solutions_match_the_reference(self, model):
        rng = np.random.default_rng(93)
        for seed in range(200):
            inst = sample_instance(5, 4, snr_db=float(rng.uniform(-30.0, 60.0)), seed=seed)
            allocation = solve_dense(inst, model).allocation.copy()
            allocation *= rng.choice([0.5, 0.999, 1.0, 1.001, 2.0], size=(inst.players, 1))
            _assert_unilateral_matches(inst, model, allocation, ("dense", "sparse")[seed % 2])

    def test_pushed_nash_follower_fails_at_the_default(self, model):
        """A follower's power in a converged Nash run pushed by a factor
        1 + 1e-4 loses a second-order share of its utility: far below 1e-3,
        far above the default."""
        converged = 0
        for seed in range(200):
            inst = sample_instance(5, 4, snr_db=10.0, seed=seed)
            nash, report = solve_nash(inst, model, "dense")
            if not report.converged:
                continue
            converged += 1
            assert all(r.passed for r in verify_nash(inst, model, nash.allocation, "dense"))
            f = seed % inst.followers + 1
            pushed = nash.allocation.copy()
            pushed[f] *= 1.0 + 1e-4
            assert not verify_nash(inst, model, pushed, "dense")[f].passed
            assert verify_nash(inst, model, pushed, "dense", tol=1e-3)[f].passed
        assert converged >= 150

    def test_tied_integer_gains_match_the_reference(self):
        """Integer gains, unit noise and integer powers tie carriers and
        grid points exactly; multi-carrier rows are claims the bound covers."""
        rng = np.random.default_rng(94)
        model = EfficiencyModel(m=2)
        for _ in range(200):
            k = int(rng.integers(2, 7))
            f = int(rng.integers(0, k))
            inst = NetworkInstance(
                g0=rng.integers(1, 4, k), gf=rng.integers(1, 4, (f, k)),
                h0=rng.integers(0, 3, k), hf=rng.integers(0, 3, (f, k)), sigma2=1.0)
            allocation = rng.integers(0, 3, (f + 1, k)).astype(float)
            for regime in ("dense", "sparse"):
                _assert_unilateral_matches(inst, model, allocation, regime, grid_size=100)


@pytest.mark.parametrize("regime", ["dense", "sparse"])
def test_subnormal_gains_raise_no_warning(model, regime):
    """A subnormal g0 on follower 0's best carrier overflows its feedback
    and its slot powers, and subnormal follower gains overflow follower
    powers off their carriers; every solver and oracle must discard those
    values silently, and the equilibrium must still certify.  With gains
    near the float floor and loud noise, a best deviation on a subnormal
    gain has a power past the float range: it reads inf, silently."""
    inst = NetworkInstance(g0=[1.0, 1e-310, 1.5, 0.7],
                           gf=[[1.0, 2.0, 1e-310, 0.5], [1e-310, 0.3, 1.0, 2.0]],
                           h0=[0.5] * 4, hf=[[0.3] * 4] * 2, sigma2=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = (solve_dense if regime == "dense" else solve_sparse)(inst, model)
        nash, report = solve_nash(inst, model, regime)
        solve_best_channel(inst, model, regime)
        assert np.all(np.isfinite(result.allocation))
        assert verify_leader_stackelberg(inst, model, result.allocation, regime).passed
        assert all(verify_follower(inst, model, f, result.allocation).passed
                   for f in range(inst.followers))
        assert report.converged
        assert all(r.passed for r in verify_nash(inst, model, nash.allocation, regime))
        brute_force_stackelberg(inst, model, regime)

    faint = NetworkInstance(g0=[1e-300, 1e-310, 1e-300], gf=[[1.0, 2.0, 0.5], [0.3, 1.0, 2.0]],
                            h0=[0.5] * 3, hf=[[0.3] * 3] * 2, sigma2=1e6)
    # the followers' loud rows bury carriers 0 and 2 for the leader, whose
    # best ratio is then on the subnormal carrier 1
    loud = np.array([[1e-300, 0.0, 0.0], [1e300, 0.0, 0.0], [0.0, 0.0, 1e300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = (solve_dense if regime == "dense" else solve_sparse)(faint, model)
        nash, _ = solve_nash(faint, model, regime)
        for allocation in (result.allocation, nash.allocation, loud):
            verify_leader_stackelberg(faint, model, allocation, regime)
            verify_nash(faint, model, allocation, "dense")
            reports = verify_nash(faint, model, allocation, regime)
        stackelberg_checks(stack_instances([faint]), model, result.allocation[None], regime)
        brute_force_stackelberg(faint, model, regime)
    assert regime == "sparse" or reports[0].deviating_action == {
        "carrier": 1, "power": np.inf, "source": "bound"}
    assert verify_leader_stackelberg(faint, model, result.allocation, regime).passed


class TestIndependence:
    """The oracles share no code path with the solvers they check."""

    def test_oracle_imports_no_solver(self):
        tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names.update((node.module or "").split("."))
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                names.update(part for alias in node.names for part in alias.name.split("."))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                names.add(node.id if isinstance(node, ast.Name) else node.attr)
        assert not names & {"dense", "sparse", "baselines", "optimal_sinr_with_feedback",
                            "optimal_sinr"}

    def test_verify_never_roots_inside_the_oracle(self, tmp_path, monkeypatch):
        """`verify` prints the same with the Newton root raising whenever an
        oracle frame is on the stack.  It runs no solver either: its only
        roots are the model's `gamma`, at feedback 0, which the oracles read
        as the followers' operating point and the rebuild as every
        follower's SINR target."""
        path = tmp_path / "run.csv"
        records = []
        for regime in ("dense", "sparse"):
            config = harness.ScenarioConfig(
                carriers=(3, 5), followers=2, m_exponent=3, snr_db=(-10.0, 20.0), trials=3,
                seed=5, regime=regime, schemes=("stackelberg", "nash"), verify_fraction=0.0,
                output_path=str(path))
            records += list(harness.run_sweep(config))
        harness.write_records(records, path)

        def verify():
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main(["verify", "--input", str(path), "--m-exponent", "3"])
            return code, out.getvalue()

        expected = verify()
        root, calls = efficiency.optimal_sinr_with_feedback, []

        def guarded(*args):
            calls.append(args)
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code.co_filename == oracle.__file__:
                    raise AssertionError("an oracle solved for an operating point")
                frame = frame.f_back
            return root(*args)

        monkeypatch.setattr(efficiency, "optimal_sinr_with_feedback", guarded)
        assert verify() == expected and calls
        assert all(feedback == 0.0 for _, feedback in calls), calls
        assert expected[0] == 0 and "verified 144 checks, 0 failures" in expected[1]
