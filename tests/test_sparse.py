"""Tests for the closed-form sparse-regime equilibrium."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hetnet_ee import (
    NetworkInstance,
    optimal_sinr,
    sample_instance,
    solve_sparse,
    utility,
)
from hetnet_ee.model import sinr
from conftest import random_instance

GAMMA = 1.2564312086261697


class TestWorkedBranches:
    """Hand-derived allocations for each follower branch (sigma2=1, m=2)."""

    def test_leader_on_best_carrier(self, model):
        inst = NetworkInstance(g0=[2.0, 1.0], gf=[[1.0, 3.0]], h0=[1.0, 0.0],
                               hf=np.zeros((1, 2)), sigma2=1.0)
        res = solve_sparse(inst, model)
        assert_allclose(res.allocation[0], [GAMMA / 2.0, 0.0], rtol=1e-9)
        assert res.active_carriers[0] == 0

    def test_follower_free_on_own_best(self, model):
        # follower's best carrier differs from the leader's
        inst = NetworkInstance(g0=[2.0, 1.0], gf=[[1.0, 3.0]], h0=[1.0, 0.0],
                               hf=np.zeros((1, 2)), sigma2=1.0)
        res = solve_sparse(inst, model)
        assert_allclose(res.allocation[1], [0.0, GAMMA / 3.0], rtol=1e-9)
        assert res.diagnostics["follower_branches"] == ("free",)

    def test_follower_stays_through_interference(self, model):
        # ratio 3 >= 1 + 0.5*gamma, so the follower absorbs the leader's
        # interference: power gamma*(g0 + gamma*h0)/(g0*gf)
        inst = NetworkInstance(g0=[2.0, 1.0], gf=[[3.0, 1.0]], h0=[1.0, 0.0],
                               hf=np.zeros((1, 2)), sigma2=1.0)
        res = solve_sparse(inst, model)
        assert res.diagnostics["follower_branches"] == ("stay",)
        assert_allclose(res.allocation[1, 0], 0.68191363321035948, rtol=1e-9)

    def test_follower_moves_to_second_best(self, model):
        # ratio 1.5 < 1 + 0.5*gamma = 1.6282
        inst = NetworkInstance(g0=[2.0, 1.0], gf=[[1.5, 1.0]], h0=[1.0, 0.0],
                               hf=np.zeros((1, 2)), sigma2=1.0)
        res = solve_sparse(inst, model)
        assert res.diagnostics["follower_branches"] == ("move",)
        assert_allclose(res.allocation[1], [0.0, GAMMA], rtol=1e-9)

    def test_threshold_equality_stays(self, model):
        # construct an exact float tie between ratio and threshold; both
        # branches give equal utility and the solver must keep the shared
        # carrier deterministically
        gamma = optimal_sinr(model)
        ratio = 1.0 + gamma  # threshold for g0=h0=1
        inst = NetworkInstance(g0=[1.0, 0.9], gf=[[ratio, 1.0]], h0=[1.0, 0.0],
                               hf=np.zeros((1, 2)), sigma2=1.0)
        res = solve_sparse(inst, model)
        assert res.diagnostics["follower_branches"] == ("stay",)
        stay_u = res.utilities[1]
        moved = res.allocation.copy()
        moved[1] = [0.0, gamma / 1.0]
        assert_allclose(utility(inst, model, 1, moved, "sparse"), stay_u, rtol=1e-12)

    def test_needs_two_carriers(self, model):
        inst = NetworkInstance(g0=[1.0], gf=np.zeros((0, 1)), h0=[0.0],
                               hf=np.zeros((0, 1)), sigma2=1.0)
        with pytest.raises(ValueError):
            solve_sparse(inst, model)


class TestEquilibriumStructure:
    def test_single_band_rows(self, model):
        rng = np.random.default_rng(101)
        for _ in range(50):
            inst = random_instance(rng)
            res = solve_sparse(inst, model)
            assert np.all((res.allocation > 0).sum(axis=1) == 1)

    def test_everyone_hits_the_target_sinr(self, model):
        rng = np.random.default_rng(102)
        gamma = optimal_sinr(model)
        for _ in range(30):
            inst = random_instance(rng)
            res = solve_sparse(inst, model)
            k0 = res.active_carriers[0]
            assert abs(sinr(inst, res.allocation, "sparse")[0, k0] / gamma - 1) < 1e-12
            for f in range(inst.followers):
                kf = res.active_carriers[f + 1]
                assert abs(sinr(inst, res.allocation, "sparse")[f + 1, kf] / gamma - 1) < 1e-12

    def test_follower_prefers_its_carrier_closed_form(self, model):
        """No single-carrier target-SINR alternative beats the assigned one."""
        rng = np.random.default_rng(103)
        gamma = optimal_sinr(model)
        for _ in range(30):
            inst = random_instance(rng)
            res = solve_sparse(inst, model)
            for f in range(inst.followers):
                claimed = res.utilities[f + 1]
                for k in range(inst.carriers):
                    denom = inst.sigma2 + inst.h0[k] * res.allocation[0, k]
                    trial = res.allocation.copy()
                    trial[f + 1] = 0.0
                    trial[f + 1, k] = gamma * denom / inst.gf[f, k]
                    alt = utility(inst, model, f + 1, trial, "sparse")
                    assert alt <= claimed * (1 + 1e-12)

    def test_noise_scaling(self, model):
        """sigma2 -> c*sigma2 scales powers by c and utilities by 1/c."""
        inst = sample_instance(5, 3, seed=404)
        scaled = NetworkInstance(g0=inst.g0, gf=inst.gf, h0=inst.h0, hf=inst.hf,
                                 sigma2=3.0 * inst.sigma2)
        res = solve_sparse(inst, model)
        res_scaled = solve_sparse(scaled, model)
        assert res.active_carriers == res_scaled.active_carriers
        assert_allclose(res_scaled.allocation, 3.0 * res.allocation, rtol=1e-12)
        assert_allclose(res_scaled.utilities, res.utilities / 3.0, rtol=1e-12)
