"""Tests for the Nash best-response dynamics and best-channel baselines."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hetnet_ee import (
    NetworkInstance,
    optimal_sinr,
    sample_instance,
    solve_best_channel,
    solve_nash,
    verify_nash,
)
from hetnet_ee.model import respond
from conftest import random_instance

GAMMA = 1.2564312086261697


class TestNashDynamics:
    def test_leader_alone_converges_immediately(self, model):
        inst = NetworkInstance(g0=[1.0, 4.0], gf=np.zeros((0, 2)), h0=[0, 0],
                               hf=np.zeros((0, 2)), sigma2=1.0)
        res, report = solve_nash(inst, model, "dense")
        assert report.converged
        assert_allclose(res.allocation[0], [0.0, GAMMA / 4.0], rtol=1e-9)

    def test_sparse_regime_followers_best_respond(self, model):
        """At the sparse fixed point every follower row is the exact
        best-response map applied to the final leader row."""
        rng = np.random.default_rng(31)
        gamma = optimal_sinr(model)
        for _ in range(20):
            inst = random_instance(rng)
            res, report = solve_nash(inst, model, "sparse")
            assert report.converged
            responses, _ = respond(inst, res.allocation[0], gamma)
            assert np.array_equal(responses, res.allocation[1:])

    def test_fixed_point_of_every_best_response(self, model):
        """Recomputing each player's target-SINR response against the
        converged profile reproduces its row within the iteration tol."""
        rng = np.random.default_rng(30)
        gamma = optimal_sinr(model)
        tol = 1e-10
        checked = 0
        for _ in range(20):
            inst = random_instance(rng, k_range=(2, 6), f_range=(1, 4))
            res, report = solve_nash(inst, model, "dense", tol=tol)
            if not report.converged:
                continue
            checked += 1
            alloc = res.allocation
            interference = np.einsum("fk,fk->k", inst.hf, alloc[1:])
            k = int(np.argmax(inst.g0 / (inst.sigma2 + interference)))
            leader = np.zeros(inst.carriers)
            leader[k] = gamma * (inst.sigma2 + interference[k]) / inst.g0[k]
            assert np.abs(leader - alloc[0]).max() <= tol
            responses, _ = respond(inst, alloc[0], gamma)
            assert np.abs(responses - alloc[1:]).max() <= tol
        assert checked >= 15

    def test_converged_points_survive_deviation_search(self, model):
        rng = np.random.default_rng(32)
        checked = 0
        for _ in range(25):
            inst = random_instance(rng, k_range=(2, 6), f_range=(1, 4))
            res, report = solve_nash(inst, model, "dense")
            if not report.converged:
                continue
            checked += 1
            for rep in verify_nash(inst, model, res.allocation, "dense"):
                assert rep.passed, (rep.player, rep.relative_gain)
        assert checked >= 20

    def test_rows_stay_single_band(self, model):
        rng = np.random.default_rng(33)
        inst = random_instance(rng)
        res, _ = solve_nash(inst, model, "dense")
        assert np.all((res.allocation > 0).sum(axis=1) <= 1)

    def test_report_consistency(self, model):
        inst = random_instance(np.random.default_rng(34))
        res, report = solve_nash(inst, model, "dense", tol=1e-10)
        if report.converged:
            assert report.final_change <= 1e-10
        assert res.diagnostics["iteration_report"] is report

    def test_max_iter_validation(self, model):
        inst = random_instance(np.random.default_rng(35))
        with pytest.raises(ValueError):
            solve_nash(inst, model, "dense", max_iter=0)


class TestBestChannel:
    def test_distinct_carriers_isolated_optima(self, model):
        inst = NetworkInstance(g0=[4.0, 1.0, 1.0], gf=[[1.0, 3.0, 1.0]],
                               h0=[1.0, 1.0, 1.0], hf=[[1.0, 1.0, 1.0]], sigma2=1.0)
        res, report = solve_best_channel(inst, model, "dense")
        assert report.converged
        assert_allclose(res.allocation[0], [GAMMA / 4.0, 0, 0], rtol=1e-9)
        assert_allclose(res.allocation[1], [0, GAMMA / 3.0, 0], rtol=1e-9)

    def test_shared_carrier_one_way_interference(self, model):
        # hf = 0: leader settles first, the follower simply raises power
        inst = NetworkInstance(g0=[4.0, 1.0], gf=[[3.0, 1.0]], h0=[2.0, 0.0],
                               hf=np.zeros((1, 2)), sigma2=1.0)
        res, report = solve_best_channel(inst, model, "dense")
        assert report.converged
        p0 = GAMMA / 4.0
        assert_allclose(res.allocation[0, 0], p0, rtol=1e-12)
        assert_allclose(res.allocation[1, 0], GAMMA * (1.0 + 2.0 * p0) / 3.0, rtol=1e-12)

    def test_shared_carrier_two_way_feedback_matches_linear_solve(self, model):
        """The converged powers solve the 2x2 affine target system."""
        g0, gf, h0, hf = 4.0, 3.0, 2.0, 0.5
        inst = NetworkInstance(g0=[g0, 1.0], gf=[[gf, 1.0]], h0=[h0, 0.0],
                               hf=[[hf, 0.0]], sigma2=1.0)
        gamma = optimal_sinr(model)
        res, report = solve_best_channel(inst, model, "dense")
        assert report.converged
        a = np.array([[g0, -gamma * hf], [-gamma * h0, gf]])
        b = np.array([gamma, gamma])
        expected = np.linalg.solve(a, b)
        assert_allclose([res.allocation[0, 0], res.allocation[1, 0]], expected,
                        rtol=1e-9)

    def test_runaway_interference_reports_divergence(self, model):
        # gamma^2 * h0 * hf / (g0 * gf) > 1: the power recursion has no
        # finite fixed point
        inst = NetworkInstance(g0=[1.0, 0.1], gf=[[1.0, 0.1]], h0=[1.0, 0.0],
                               hf=[[1.0, 0.0]], sigma2=1.0)
        res, report = solve_best_channel(inst, model, "dense")
        assert not report.converged
        assert np.all(np.isfinite(res.allocation))

    def test_divergence_overflows_without_warning(self, model):
        # the leader power overflows near the float limit before the
        # iterate turns non-finite; the run reports the last finite one
        inst = sample_instance(5, 4, mean_cross=0.5, snr_db=-5.0, seed=189)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res, report = solve_best_channel(inst, model, "dense")
        assert not report.converged and report.iterations == 352
        assert np.all(np.isfinite(res.allocation)) and np.all(np.isfinite(res.utilities))

    def test_carriers_stay_pinned(self, model):
        rng = np.random.default_rng(36)
        for _ in range(10):
            inst = random_instance(rng)
            res, report = solve_best_channel(inst, model, "dense")
            pins = res.diagnostics["pinned_carriers"]
            for n in range(inst.players):
                assert pins[n] == int(np.argmax(inst.gains[n]))
                nz = np.nonzero(res.allocation[n])[0]
                assert list(nz) == [pins[n]]
