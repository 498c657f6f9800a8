"""Tests for the dense-regime solver and the follower best-response map.

The worked example (K=2, F=1, g0=(2,1), gf=(3,1), h0=(1,0.5), hf=(1,0.2),
sigma2=1, m=2) was traced end to end with 40-digit mpmath and certified by
a 200k-point bi-level grid search before the solver existed; its candidate
numbers are frozen below.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hetnet_ee import (
    NetworkInstance,
    optimal_sinr,
    sample_instance,
    solve_dense,
    solve_sparse,
    utility,
)
from hetnet_ee.model import rank_carriers, respond, sinr
from conftest import random_instance

GAMMA = 1.2564312086261697


def worked_instance():
    return NetworkInstance(g0=[2.0, 1.0], gf=[[3.0, 1.0]], h0=[1.0, 0.5],
                           hf=[[1.0, 0.2]], sigma2=1.0)


class TestFollowerBestResponse:
    def test_idle_leader_means_best_own_carrier(self, model):
        inst = worked_instance()
        rows, _ = respond(inst, np.zeros(2), optimal_sinr(model))
        assert_allclose(rows[0], [GAMMA / 3.0, 0.0], rtol=1e-9)

    def test_strong_leader_pushes_to_weak_carrier(self, model):
        # ratios 3/11 vs 1/1: the weak carrier wins
        inst = NetworkInstance(g0=[1.0, 1.0], gf=[[3.0, 1.0]], h0=[1.0, 0.0],
                               hf=[[0.0, 0.0]], sigma2=1.0)
        row = respond(inst, [10.0, 0.0], optimal_sinr(model))[0][0]
        assert row[0] == 0.0
        assert_allclose(row[1], GAMMA, rtol=1e-9)

    def test_achieves_target_sinr_exactly(self, model):
        inst = worked_instance()
        rng = np.random.default_rng(0)
        gamma = optimal_sinr(model)
        for _ in range(20):
            p0 = rng.uniform(0, 5, size=2)
            alloc = np.zeros((2, 2))
            alloc[0] = p0
            alloc[1] = respond(inst, p0, gamma)[0][0]
            k = int(np.argmax(alloc[1]))
            assert abs(sinr(inst, alloc, "dense")[1, k] / gamma - 1) < 1e-12

    def test_dominates_grid_alternatives(self, model):
        """No (carrier, power) grid cell beats the closed form."""
        rng = np.random.default_rng(1)
        for _ in range(10):
            inst = random_instance(rng, k_range=(2, 5), f_range=(1, 3))
            p0 = rng.uniform(0, 3, size=inst.carriers)
            f = int(rng.integers(inst.followers))
            alloc = np.zeros((inst.players, inst.carriers))
            alloc[0] = p0
            alloc[f + 1] = respond(inst, p0, optimal_sinr(model))[0][f]
            best = utility(inst, model, f + 1, alloc, "dense")
            for k in range(inst.carriers):
                for p in np.geomspace(1e-3, 1e3, 200):
                    trial = alloc.copy()
                    trial[f + 1] = 0.0
                    trial[f + 1, k] = p
                    assert utility(inst, model, f + 1, trial, "dense") <= best * (1 + 1e-9)


class TestWorkedExample:
    """Frozen five-step trace (mpmath) and its grid-certified optimum."""

    def test_candidate_table_numbers(self, model):
        res = solve_dense(worked_instance(), model)
        table = res.diagnostics["candidate_table"]
        c0 = table[0]
        assert c0.followers == (0,)
        assert_allclose(c0.theta, [3.0], rtol=1e-15)
        assert_allclose(c0.eta, [1.0 / 3.0], rtol=1e-15)
        assert_allclose(c0.sinr_targets, [0.90095508427324318], rtol=1e-9)
        assert c0.stay_limit == 1
        assert_allclose(c0.slot_values, [0.44762080774651047], rtol=1e-9)
        assert_allclose(c0.slot_powers, [0.78776580780546225], rtol=1e-9)
        assert_allclose(c0.boundary_powers, [2.0], rtol=1e-12)
        assert_allclose(c0.boundary_values, [0.48185209242521708], rtol=1e-9)
        # the carrier without nominees offers the interference-free optimum
        c1 = table[1]
        assert c1.followers == ()
        assert_allclose(c1.solo_power, GAMMA, rtol=1e-9)
        assert_allclose(c1.solo_value, 0.40726437758907375, rtol=1e-9)

    def test_equilibrium_clears_the_strong_carrier(self, model):
        # pushing the nominee off at its indifference power (0.4819) beats
        # sharing (0.4476) and the weak carrier (0.4073)
        res = solve_dense(worked_instance(), model)
        assert res.diagnostics["winner_carrier"] == 0
        assert res.diagnostics["winner_kind"] == "solo"
        assert_allclose(res.allocation[0], [2.0, 0.0], rtol=1e-12)
        assert_allclose(res.allocation[1], [0.0, GAMMA], rtol=1e-9)
        assert_allclose(res.utilities, [0.48185209242521708, 0.40726437758907375],
                        rtol=1e-9)

    def test_pushed_nominee_is_exactly_indifferent(self, model):
        res = solve_dense(worked_instance(), model)
        inst = worked_instance()
        stay = res.allocation.copy()
        stay[1] = 0.0
        stay[1, 0] = GAMMA * (1.0 + 1.0 * 2.0) / 3.0
        assert_allclose(utility(inst, model, 1, stay, "dense"),
                        res.utilities[1], rtol=1e-9)


class TestStepThreeFailure:
    def test_marginal_nominee_is_pushed_off(self, model):
        # near-unit gain ratio with strong leader cross gain: the nominee
        # cannot be kept, the leader takes the carrier quasi-alone
        inst = NetworkInstance(g0=[2.0, 1.0], gf=[[1.01, 1.0]], h0=[5.0, 0.1],
                               hf=[[0.8, 0.1]], sigma2=1.0)
        res = solve_dense(inst, model)
        table = res.diagnostics["candidate_table"]
        assert table[0].stay_limit == 0
        assert res.diagnostics["winner_carrier"] == 0
        assert res.diagnostics["winner_slots"] == 0
        assert res.active_carriers[1] == 1  # second-best carrier
        assert_allclose(res.allocation[1, 1], GAMMA, rtol=1e-9)

    def test_boundary_raise_at_the_stay_limit(self, model):
        # two nominees: a high-ratio quiet one worth keeping and a loud
        # low-ratio one that must stay off.  The shared optimum (1.27)
        # sits below the loud nominee's indifference power (3.0), so the
        # leader must overshoot to exactly that boundary or the loud
        # nominee would crash the carrier.
        inst = NetworkInstance(
            g0=[1.0, 0.5, 0.4],
            gf=[[10.0, 1.0, 0.5], [1.9, 1.0, 0.9]],
            h0=[0.3, 0.0, 0.0],
            hf=[[0.1, 0.0, 0.0], [95.0, 0.0, 0.0]],
            sigma2=1.0,
        )
        res = solve_dense(inst, model)
        d = res.diagnostics
        assert d["winner_kind"] == "shared"
        assert d["winner_replacement"] == "raise_to_boundary"
        assert_allclose(res.allocation[0], [3.0, 0.0, 0.0], rtol=1e-12)
        assert res.active_carriers == (0, 0, 1)
        # at the raised power the parked nominee has no strict incentive
        trial = res.allocation.copy()
        trial[2] = respond(inst, res.allocation[0], optimal_sinr(model))[0][1]
        assert_allclose(utility(inst, model, 2, trial, "dense"),
                        res.utilities[2], rtol=1e-12)

    def test_unkeepable_nominee_with_high_boundary(self, model):
        # heavy cross interference back onto the leader makes sharing
        # worthless, yet the nominee's indifference power sits above the
        # leader's solo optimum; the leader must overshoot to exactly that
        # boundary to keep the carrier clear
        inst = NetworkInstance(g0=[1.0, 0.4], gf=[[1.9, 1.0]], h0=[0.5, 0.0],
                               hf=[[3.0, 0.0]], sigma2=1.0)
        res = solve_dense(inst, model)
        c0 = res.diagnostics["candidate_table"][0]
        assert c0.stay_limit == 0
        assert res.diagnostics["winner_kind"] == "solo"
        boundary = 1.0 * (1.9 - 1.0) / (0.5 * 1.0)
        assert boundary > GAMMA / 1.0  # above the unconstrained optimum
        assert_allclose(res.allocation[0, 0], boundary, rtol=1e-12)
        assert res.active_carriers[1] == 1


class TestReductionToSparse:
    def test_worked_case_bitwise(self, model):
        inst = NetworkInstance(g0=[2.0, 1.0], gf=[[3.0, 1.0]], h0=[1.0, 0.5],
                               hf=np.zeros((1, 2)), sigma2=1.0)
        assert np.array_equal(solve_dense(inst, model).allocation,
                              solve_sparse(inst, model).allocation)

    def test_random_instances_bitwise(self, model):
        rng = np.random.default_rng(42)
        for _ in range(60):
            base = random_instance(rng, k_range=(2, 8), f_range=(1, 4))
            inst = NetworkInstance(g0=base.g0, gf=base.gf, h0=base.h0,
                                   hf=np.zeros_like(base.hf), sigma2=base.sigma2)
            dense = solve_dense(inst, model)
            sparse = solve_sparse(inst, model)
            assert np.array_equal(dense.allocation, sparse.allocation)
            assert_allclose(dense.utilities, sparse.utilities, rtol=1e-9)


class TestEquilibriumStructure:
    def test_single_band_rows(self, model):
        rng = np.random.default_rng(7)
        for _ in range(60):
            inst = random_instance(rng, k_range=(2, 6), f_range=(1, 5),
                                   mean_cross=float(rng.choice([0.1, 0.5, 1.0])))
            res = solve_dense(inst, model)
            assert np.all((res.allocation > 0).sum(axis=1) == 1)

    def test_rows_are_best_responses(self, model):
        """Each follower row matches its best response, except at a
        boundary candidate where the pushed nominee is exactly indifferent
        and either carrier attains the optimum."""
        rng = np.random.default_rng(8)
        for _ in range(80):
            inst = random_instance(rng, k_range=(2, 6), f_range=(1, 5),
                                   mean_cross=float(rng.choice([0.1, 0.5, 1.0])))
            res = solve_dense(inst, model)
            responses, _ = respond(inst, res.allocation[0], res.diagnostics["sinr_target"])
            for f in range(inst.followers):
                br = responses[f]
                if np.array_equal(br, res.allocation[f + 1]):
                    continue
                trial = res.allocation.copy()
                trial[f + 1] = br
                u_br = utility(inst, model, f + 1, trial, "dense")
                assert_allclose(res.utilities[f + 1], u_br, rtol=1e-12)

    def test_shared_followers_hit_target_sinr(self, model):
        rng = np.random.default_rng(9)
        gamma = optimal_sinr(model)
        for _ in range(40):
            inst = random_instance(rng, k_range=(2, 6), f_range=(1, 5))
            res = solve_dense(inst, model)
            for f in range(inst.followers):
                k = res.active_carriers[f + 1]
                assert abs(sinr(inst, res.allocation, "dense")[f + 1, k] / gamma - 1) < 1e-12

    def test_leader_sinr_matches_target_on_clean_shared_win(self, model):
        rng = np.random.default_rng(10)
        seen = 0
        for _ in range(300):
            inst = random_instance(rng, k_range=(2, 6), f_range=(1, 5),
                                   mean_cross=0.2)
            res = solve_dense(inst, model)
            d = res.diagnostics
            if d["winner_kind"] == "shared" and d["winner_replacement"] is None:
                seen += 1
                k = d["winner_carrier"]
                assert_allclose(sinr(inst, res.allocation, "dense")[0, k],
                                d["winner_sinr_target"], rtol=1e-9)
        assert seen > 0

    def test_no_carrier_switch_improves_a_follower(self, model):
        """Closed-form carrier stability given the final leader power."""
        rng = np.random.default_rng(11)
        gamma = optimal_sinr(model)
        for _ in range(40):
            inst = random_instance(rng, k_range=(2, 6), f_range=(1, 5))
            res = solve_dense(inst, model)
            for f in range(inst.followers):
                claimed = res.utilities[f + 1]
                for k in range(inst.carriers):
                    denom = inst.sigma2 + inst.h0[k] * res.allocation[0, k]
                    trial = res.allocation.copy()
                    trial[f + 1] = 0.0
                    trial[f + 1, k] = gamma * denom / inst.gf[f, k]
                    alt = utility(inst, model, f + 1, trial, "dense")
                    assert alt <= claimed * (1 + 1e-12)


class TestCandidateTable:
    def test_table_invariants(self, model):
        rng = np.random.default_rng(12)
        for _ in range(60):
            inst = random_instance(rng, k_range=(2, 6), f_range=(1, 5),
                                   mean_cross=float(rng.choice([0.1, 0.5, 1.0])))
            res = solve_dense(inst, model)
            gamma = res.diagnostics["sinr_target"]
            for cc in res.diagnostics["candidate_table"]:
                if len(cc.followers) > 1:
                    assert np.all(np.diff(cc.theta) <= 0)
                    assert np.all(np.diff(cc.eta) >= 0)
                # retained shared candidates keep positive leader power,
                # equivalently feedback * target < 1
                g0k, h0k = inst.g0[cc.carrier], inst.h0[cc.carrier]
                for l in range(1, cc.stay_limit + 1):
                    if cc.replacements[l - 1] == "infeasible":
                        continue
                    assert cc.slot_powers[l - 1] > 0.0
                    assert g0k - gamma * cc.sinr_targets[l - 1] * cc.eta[l - 1] * h0k > 0.0

    def test_stay_tests_match_scalar_reference(self, model):
        rng = np.random.default_rng(14)
        for _ in range(60):
            inst = random_instance(rng, k_range=(2, 6), f_range=(1, 5),
                                   mean_cross=float(rng.choice([0.1, 0.5, 2.0])))
            res = solve_dense(inst, model)
            gamma = res.diagnostics["sinr_target"]
            second = rank_carriers(inst)[1]
            violations = []
            for cc in res.diagnostics["candidate_table"]:
                g0k, h0k = inst.g0[cc.carrier], inst.h0[cc.carrier]
                expected = [
                    inst.gf[f, cc.carrier] * (g0k - t * gamma * e * h0k)
                    > inst.gf[f, second[f + 1]] * (g0k + h0k * t)
                    for f, t, e in zip(cc.followers, cc.sinr_targets, cc.eta)
                ]
                assert cc.stays.tolist() == expected
                assert cc.stay_limit == max(
                    (l for l, ok in enumerate(expected, 1) if ok), default=0
                )
                violations += [(cc.carrier, l) for l in range(1, cc.stay_limit + 1)
                               if not expected[l - 1]]
            assert res.diagnostics["stay_test_violations"] == tuple(violations)

    def test_stay_violation_below_the_limit_is_reported(self, model):
        inst = sample_instance(5, 4, snr_db=15.952782902176622, seed=646)
        res = solve_dense(inst, model)
        cc = res.diagnostics["candidate_table"][3]
        assert res.diagnostics["stay_test_violations"] == ((3, 1),)
        assert cc.stay_limit >= 2 and not cc.stays[0]

    def test_stay_violations_reported_not_raised(self, model):
        rng = np.random.default_rng(13)
        for _ in range(40):
            inst = random_instance(rng, k_range=(2, 6), f_range=(1, 5))
            res = solve_dense(inst, model)
            assert isinstance(res.diagnostics["stay_test_violations"], tuple)

    def test_needs_two_carriers(self, model):
        inst = NetworkInstance(g0=[1.0], gf=np.zeros((0, 1)), h0=[0.0],
                               hf=np.zeros((0, 1)), sigma2=1.0)
        with pytest.raises(ValueError):
            solve_dense(inst, model)

    def test_no_followers_at_all(self, model):
        inst = NetworkInstance(g0=[1.0, 4.0, 2.0], gf=np.zeros((0, 3)),
                               h0=[0.1, 0.2, 0.3], hf=np.zeros((0, 3)), sigma2=2.0)
        res = solve_dense(inst, model)
        assert res.active_carriers == (1,)
        assert_allclose(res.allocation[0, 1], GAMMA * 2.0 / 4.0, rtol=1e-9)
