"""Tests for the dense-regime solver and the follower best-response map.

The worked example (K=2, F=1, g0=(2,1), gf=(3,1), h0=(1,0.5), hf=(1,0.2),
sigma2=1, m=2) was traced end to end with 40-digit mpmath and certified by
a 200k-point bi-level grid search before the solver existed; its candidate
numbers are frozen below.
"""

import math
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

from hetnet_ee import (
    EfficiencyModel,
    NetworkInstance,
    optimal_sinr,
    sample_instance,
    solve_best_channel,
    solve_dense,
    solve_nash,
    solve_sparse,
    utility,
    verify_follower,
    verify_leader_stackelberg,
)
from hetnet_ee import dense, harness
from hetnet_ee.dense import dense_batch, stackelberg_batch
from hetnet_ee.efficiency import optimal_sinr_with_feedback
from hetnet_ee.model import respond, sample_batch, sinr, stack_instances
from conftest import edge_cases, extreme_batch, random_instance

GAMMA = 1.2564312086261697


def slot_tables(instance, model):
    """:func:`dense_batch`'s tables for one instance, at trial 0."""
    _, tables = dense_batch(stack_instances((instance,)), model)
    return {name: value[0] for name, value in tables.items()}


def nominee_row(tables, k):
    """Carrier ``k``'s ranked ``nominees`` and, under the same names, the
    columns of :func:`slot_tables` that hold one entry per nominee: entry
    ``i`` is slot ``i+1``."""
    start, count = tables["starts"][k], tables["counts"][k]
    row = {name: tables[name][k, 1:count + 1]
           for name in ("eta", "targets", "stays", "boundary", "boundary_values")}
    return dict(row, nominees=tuple(tables["nominees"][start:start + count].tolist()))


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
        tables = slot_tables(worked_instance(), model)
        c0, row0 = table[0], nominee_row(tables, 0)
        assert row0["nominees"] == (0,)
        assert_allclose(row0["eta"], [1.0 / 3.0], rtol=1e-15)
        assert_allclose(row0["targets"], [0.90095508427324318], rtol=1e-9)
        assert c0.stay_limit == 1
        assert_allclose(c0.slot_values[1], 0.44762080774651047, rtol=1e-9)
        assert_allclose(c0.slot_powers[1], 0.78776580780546225, rtol=1e-9)
        assert_allclose(row0["boundary"], [2.0], rtol=1e-12)
        assert_allclose(row0["boundary_values"], [0.48185209242521708], rtol=1e-9)
        # the carrier without nominees offers the interference-free optimum
        c1 = table[1]
        assert nominee_row(tables, 1)["nominees"] == ()
        assert_allclose(c1.slot_powers[0], GAMMA, rtol=1e-9)
        assert_allclose(c1.slot_values[0], 0.40726437758907375, rtol=1e-9)

    def test_equilibrium_clears_the_strong_carrier(self, model):
        # pushing the nominee off at its indifference power (0.4819) beats
        # sharing (0.4476) and the weak carrier (0.4073)
        res = solve_dense(worked_instance(), model)
        assert res.active_carriers[0] == 0
        assert res.diagnostics["winner_slots"] == 0  # solo
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
        assert res.active_carriers[0] == 0
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
        slots = res.diagnostics["winner_slots"]
        assert slots > 0  # shared
        winner = res.diagnostics["candidate_table"][res.active_carriers[0]]
        assert winner.replacements[slots] == "raise_to_boundary"
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
        assert res.diagnostics["winner_slots"] == 0  # solo
        boundary = 1.0 * (1.9 - 1.0) / (0.5 * 1.0)
        assert boundary > GAMMA / 1.0  # above the unconstrained optimum
        assert_allclose(res.allocation[0, 0], boundary, rtol=1e-12)
        assert res.active_carriers[1] == 1

    def test_tied_nominee_without_cross_gain_cannot_be_pushed(self, model):
        # the follower's gains tie on every carrier and the leader's cross
        # gain is zero, so its scores tie at every leader power and it stays
        # on carrier 0 (ties go to the lower index); the leader must pay for
        # its interference there or take carrier 1
        inst = NetworkInstance(g0=[2.0, 1.0, 1.0, 1.0], gf=[[1.0] * 4], h0=[0.0] * 4,
                               hf=[[1.0, 0.0, 0.0, 0.0]], sigma2=1.0)
        res = solve_dense(inst, model)
        c0 = res.diagnostics["candidate_table"][0]
        boundary = nominee_row(slot_tables(inst, model), 0)["boundary"]
        assert boundary.tolist() == [np.inf] and c0.stay_limit == 1
        assert c0.replacements[0] == "infeasible"
        assert res.active_carriers == (1, 0)
        assert np.array_equal(res.allocation[1:], respond(inst, res.allocation[0], model.gamma)[0])
        report = verify_leader_stackelberg(inst, model, res.allocation, "dense")
        assert abs(report.relative_gain) <= 1e-15 and report.passed


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

    @pytest.mark.parametrize("m", [2, 10])
    def test_batches_bitwise(self, m):
        """Sampled batches without cross gains, and integer gains with h0 =
        hf = 0, whose exact ties both solvers break to the lower carrier."""
        model, rng = EfficiencyModel(m=m), np.random.default_rng(m)
        for k in range(2, 8):
            for f in range(k):
                n, base = 100, 1_000 * k + 100 * f
                sampled = sample_batch(k, f, seeds=range(base, base + n),
                                       snr_db=rng.uniform(-30.0, 60.0, n), mean_cross=0.0)
                integer = NetworkInstance(
                    g0=rng.integers(1, 4, (n, k)), gf=rng.integers(1, 4, (n, f, k)),
                    h0=np.zeros((n, k)), hf=np.zeros((n, f, k)),
                    sigma2=10.0 ** (-rng.uniform(-30.0, 60.0, (n, 1)) / 10.0))
                for batch in (sampled, integer):
                    assert stackelberg_batch(batch, model, "dense")[0].tobytes() == \
                        stackelberg_batch(batch, model, "sparse")[0].tobytes(), (k, f)


@pytest.mark.parametrize("solve", [solve_sparse, solve_dense])
def test_single_carrier_is_rejected(solve, model):
    # a valid instance (K >= F+1) that no leader can choose a carrier in
    with pytest.raises(ValueError, match="two carriers"):
        solve(sample_instance(1, 0, seed=0), model)


def test_diagnostics_key_sets(model):
    # only what the solver computes and neither the result, its report nor
    # the model states
    inst = sample_instance(5, 4, seed=3)
    assert solve_sparse(inst, model).diagnostics.keys() == {"stop"}
    assert solve_dense(inst, model).diagnostics.keys() == {"candidate_table", "winner_slots",
                                                           "stop"}
    for regime in ("dense", "sparse"):
        assert solve_nash(inst, model, regime)[0].diagnostics == {}
        assert solve_best_channel(inst, model, regime)[0].diagnostics.keys() == {
            "pinned_carriers", "feedback_gain"}


class TestEquilibriumStructure:
    def test_single_band_rows(self, model):
        rng = np.random.default_rng(7)
        for _ in range(60):
            inst = random_instance(rng, k_range=(2, 6), f_range=(1, 5),
                                   mean_cross=float(rng.choice([0.1, 0.5, 1.0])))
            res = solve_dense(inst, model)
            assert np.all((res.allocation > 0).sum(axis=1) == 1)

    def test_rows_are_best_responses(self, model):
        """Each follower row is its best response to the leader row, bit
        for bit, boundary slots included."""
        rng = np.random.default_rng(8)
        for _ in range(80):
            inst = random_instance(rng, k_range=(2, 6), f_range=(1, 5),
                                   mean_cross=float(rng.choice([0.1, 0.5, 1.0])))
            res = solve_dense(inst, model)
            responses, _ = respond(inst, res.allocation[0], model.gamma)
            assert responses.tobytes() == res.allocation[1:].tobytes()

    def test_rows_are_respond_on_the_criterion_5_set(self, model):
        """K=5, F=4, 500 trials at each of -5..25 dB, seeds 50,000 +
        1,000 SNR onward: every follower row is `respond`'s, raises to a
        switch included."""
        snr = np.repeat(np.arange(-5.0, 26.0, 5.0), 500)
        seeds = 50_000 + 1_000 * snr.astype(int) + np.tile(np.arange(500), 7)
        batch = sample_batch(5, 4, seeds=seeds.tolist(), snr_db=snr)
        alloc, _, tables = stackelberg_batch(batch, model, "dense")
        assert (tables["codes"][np.arange(batch.trials), alloc[:, 0].argmax(axis=1),
                                tables["winner_slots"]] == 1).sum() > 300
        responses, _ = respond(batch, alloc[:, 0], model.gamma)
        assert responses.tobytes() == alloc[:, 1:].tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=edge_cases())
    def test_rows_are_respond_on_edge_cases(self, case):
        inst, model, _ = case
        alloc = solve_dense(inst, model).allocation
        assert respond(inst, alloc[0], model.gamma)[0].tobytes() == alloc[1:].tobytes()

    def test_rows_are_respond_past_the_float_range(self, model):
        """The extreme-gain batches of seeds 0-2: where the leader's power
        passes the float range, the follower rows are still `respond`'s,
        bit for bit, and the trial does not converge."""
        for seed in range(3):
            batch = extreme_batch(seed)
            alloc, converged = harness.run_batch("stackelberg", batch, model, "dense")
            overflow = np.isinf(alloc[:, 0]).any(axis=1)
            assert overflow.sum() >= 5 and not converged[overflow].any()
            responses, _ = respond(batch, alloc[:, 0], model.gamma)
            assert responses.tobytes() == alloc[:, 1:].tobytes(), seed

    def test_tied_follower_stays_below_its_float_switch(self, model):
        # follower 0's gains tie, so it leaves carrier 0 once 1 + 3 p rounds
        # above 1; the leader's 1e-300-scale power there keeps it, and the
        # leader's claim must pay for its interference
        inst = NetworkInstance(g0=[1e300, 1.0, 1e-310], gf=[[1.0, 1.0, 1.0], [1.0, 1e-5, 1e-300]],
                               h0=[3.0, 3.0, 3.0], hf=[[0.5, 0.5, 0.5], [0.0, 0.0, 0.5]],
                               sigma2=1.0)
        res = solve_dense(inst, model)
        assert res.active_carriers[:2] == (0, 0)
        assert respond(inst, res.allocation[0], model.gamma)[0].tobytes() == \
            res.allocation[1:].tobytes()
        report = verify_leader_stackelberg(inst, model, res.allocation, "dense")
        assert report.passed and abs(report.relative_gain) <= 1e-12, report

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
            slots, k = res.diagnostics["winner_slots"], res.active_carriers[0]
            winner = res.diagnostics["candidate_table"][k]
            if slots and winner.replacements[slots] is None:
                seen += 1
                assert_allclose(sinr(inst, res.allocation, "dense")[0, k],
                                slot_tables(inst, model)["targets"][k, slots], rtol=1e-9)
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
            tables = slot_tables(inst, model)
            gamma = model.gamma
            for k, cc in enumerate(res.diagnostics["candidate_table"]):
                row = nominee_row(tables, k)
                # nominees rank latest switch first
                assert np.all(row["boundary"][:-1] >= row["boundary"][1:])
                assert np.all(np.diff(row["eta"]) >= 0)
                # retained shared candidates keep positive leader power,
                # equivalently feedback * target < 1
                g0k, h0k = inst.g0[k], inst.h0[k]
                for l in range(1, cc.stay_limit + 1):
                    if cc.replacements[l] == "infeasible":
                        continue
                    assert cc.slot_powers[l] > 0.0
                    assert g0k - gamma * row["targets"][l - 1] * row["eta"][l - 1] * h0k > 0.0

    def test_stay_tests_match_scalar_reference(self, model):
        """The stay test, read off the slot's own switch, is the scalar
        reference's inequality; a scored slot that fails it is infeasible."""
        rng = np.random.default_rng(14)
        for _ in range(60):
            inst = random_instance(rng, k_range=(2, 6), f_range=(1, 5),
                                   mean_cross=float(rng.choice([0.1, 0.5, 2.0])))
            res = solve_dense(inst, model)
            tables = slot_tables(inst, model)
            gamma = model.gamma
            second = reference_ranks(inst)[1]
            for k, cc in enumerate(res.diagnostics["candidate_table"]):
                row = nominee_row(tables, k)
                g0k, h0k = inst.g0[k], inst.h0[k]
                expected = [
                    inst.gf[f, k] * (g0k - t * gamma * e * h0k)
                    > inst.gf[f, second[f]] * (g0k + h0k * t)
                    for f, t, e in zip(row["nominees"], row["targets"], row["eta"])
                ]
                assert row["stays"].tolist() == expected
                assert cc.stay_limit == max(
                    (l for l, ok in enumerate(expected, 1) if ok), default=0
                )
                for l in range(1, cc.stay_limit + 1):
                    if not expected[l - 1]:
                        assert cc.replacements[l] == "infeasible"

    def test_stay_failure_below_the_limit_is_infeasible(self, model):
        # slot 1 peaks past its nominee's switch; a drop to that switch
        # would be slot 0 there, which does better at its own optimum
        inst = sample_instance(5, 4, snr_db=15.952782902176622, seed=646)
        cc = solve_dense(inst, model).diagnostics["candidate_table"][3]
        row = nominee_row(slot_tables(inst, model), 3)
        assert cc.stay_limit >= 2 and not row["stays"][0]
        assert cc.replacements[1] == "infeasible"
        assert cc.slot_powers[1] >= row["boundary"][0]
        assert cc.replacements[0] is None and cc.slot_powers[0] >= row["boundary"][0]
        assert cc.slot_values[0] >= row["boundary_values"][0]

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

    def test_subnormal_second_gain_raises_no_warning(self, model):
        # the best-to-second gain ratio and the SINR at the nominee's
        # boundary (2e304) are past the float range
        inst = NetworkInstance(g0=[1.0, 1.0], gf=[[1.0, 1e-310]], h0=[0.5, 0.5],
                               hf=[[0.5, 0.5]], sigma2=1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve_dense(inst, model)
            row = nominee_row(slot_tables(inst, model), 0)
            solve_sparse(inst, model)
            for regime in ("dense", "sparse"):
                solve_nash(inst, model, regime)
                solve_best_channel(inst, model, regime)
        assert row["nominees"] == (0,)
        assert_allclose(row["boundary"], [2e304], rtol=1e-12)
        assert res.active_carriers == (1, 0)
        assert verify_leader_stackelberg(inst, model, res.allocation, "dense").passed
        assert verify_follower(inst, model, 0, res.allocation).passed

    def test_table_is_as_wide_as_the_busiest_carrier(self, model, monkeypatch):
        # K=6, F=4: one trial's nominees all share carrier 0 (width F+2)
        # and all four are kept, so its winning slot is the table's last
        # but one; the others' busiest carrier holds one nominee (width 3)
        rows = []
        for seed, snr in ((1, -10.0), (4, 10.0), (3, 25.0), (5, 40.0)):
            base = sample_instance(6, 4, snr_db=snr, seed=seed, mean_cross=0.1)
            gf = base.gf.copy()
            top = 4.0 * gf.max(axis=1)
            if seed == 4:
                gf[:, 0] = top
            else:
                gf[np.arange(4), np.arange(4) + 1 + (seed == 5)] = top
            rows.append(NetworkInstance(g0=base.g0, gf=gf, h0=base.h0, hf=base.hf,
                                        sigma2=base.sigma2))
        leader, tables = dense_batch(stack_instances(rows), model)
        assert tables["eta"].shape == (4, 6, 6) and tables["counts"][1, 0] == 4
        assert tables["winner_slots"][1] == 4
        for t, inst in enumerate(rows):
            alone, alone_tables = dense_batch(stack_instances((inst,)), model)
            assert alone_tables["eta"].shape == (1, 6, 6 if t == 1 else 3)
            assert leader[t].tobytes() == alone[0].tobytes()
            # every table of the batch of one is the wide batch's, cut to its
            # width: each carrier's nominees and their slot columns, bit for bit
            for name, narrow in alone_tables.items():
                wide = tables[name][t]
                if wide.ndim == 2:
                    wide = wide[:, :narrow.shape[-1]]
                assert wide.dtype == narrow.dtype, name
                assert wide.tobytes() == narrow[0].tobytes(), name
            # solve_dense reads the same candidate table off the wide batch
            table = solve_dense(inst, model).diagnostics["candidate_table"]
            with monkeypatch.context() as patch:
                patch.setattr(dense, "dense_batch", lambda batch, model, t=t: (
                    leader[t:t + 1], {name: value[t:t + 1] for name, value in tables.items()}))
                wide = solve_dense(inst, model).diagnostics["candidate_table"]
            for narrow_row, wide_row in zip(table, wide, strict=True):
                for name, value in vars(narrow_row).items():
                    other = getattr(wide_row, name)
                    if isinstance(value, np.ndarray):
                        assert value.dtype == other.dtype
                        assert value.tobytes() == other.tobytes(), name
                    else:
                        assert value == other, name

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=edge_cases())
    def test_rows_are_the_batch_tables(self, case):
        """Each row is :func:`dense_batch`'s scored slots at trial 0, bit for bit."""
        inst, model, _ = case
        tables = slot_tables(inst, model)
        table = solve_dense(inst, model).diagnostics["candidate_table"]
        assert len(table) == inst.carriers
        for k, cc in enumerate(table):
            scored = slice(0, cc.stay_limit + 1)
            assert cc.stay_limit == tables["stay_limit"][k]
            assert cc.slot_powers.tobytes() == tables["powers"][k, scored].tobytes()
            assert cc.slot_values.tobytes() == tables["values"][k, scored].tobytes()
            names = (None, "raise_to_boundary", "infeasible")
            assert cc.replacements == tuple(names[c] for c in tables["codes"][k, scored])

    def test_ratios_past_the_float_range_are_ranked(self, model):
        # both ratios overflow; the larger one (follower 0) ranks first and
        # has the higher boundary, with the rows in either order
        gf = [[1.0, 1e-310, 1e-310], [1.0, 2e-310, 1e-310]]
        for rows in ([0, 1], [1, 0]):
            inst = NetworkInstance(g0=[1.0] * 3, gf=np.array(gf)[rows], h0=[0.5] * 3,
                                   hf=[[0.5] * 3] * 2, sigma2=1e-6)
            row = nominee_row(slot_tables(inst, model), 0)
            assert row["nominees"] == tuple(rows)
            assert_allclose(row["boundary"], [2e304, 1e304], rtol=1e-12)


def reference_ranks(instance):
    """Each follower's carrier and rival: its best and second-best scores
    ``g / sigma2``, ties to the lower carrier."""
    carrier, rival = [], []
    for gains in instance.gf.tolist():
        order = sorted(range(instance.carriers), key=lambda j: (-(gains[j] / instance.sigma2), j))
        carrier.append(order[0])
        rival.append(order[1])
    return carrier, rival


def _bits(x):
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _float(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def reference_switch(instance, f, k, rival):
    """The least float leader power on carrier ``k`` at which follower ``f``
    leaves it, by `respond`'s comparison: a walk over the floats in
    `math.nextafter`'s order from the closed form ``sigma2 (gk - gr) / (h0
    gr)``, in steps of 1, 2, 4, ... floats until the comparison flips, then
    halved back."""
    gains, sigma2, h0 = instance.gf[f].tolist(), instance.sigma2, float(instance.h0[k])

    def stays(p):
        score = gains[k] / (sigma2 + h0 * p)
        return all(score > g / sigma2 or (score == g / sigma2 and k < j)
                   for j, g in enumerate(gains) if j != k)

    if stays(sys.float_info.max):
        return math.inf
    gr = gains[rival]
    start = sigma2 * (gains[k] - gr) / (h0 * gr) if h0 * gr > 0.0 else 0.0
    start = min(start, sys.float_info.max) if start >= 0.0 else 0.0
    lo, hi = (_bits(start), None) if stays(start) else (None, _bits(start))
    step = 1
    while lo is None or hi is None:  # stays(0) holds, stays(max) does not
        probe = min(lo + step, _bits(sys.float_info.max)) if hi is None else max(hi - step, 0)
        lo, hi = (probe, hi) if stays(_float(probe)) else (lo, probe)
        step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if stays(_float(mid)) else (lo, mid)
    return _float(hi)


def reference_carrier(instance, model, k, carrier, rival, switch):
    """Scalar reference for one carrier's row of the slot table: nominees
    ranked one by one, slots scored and capped in per-nominee loops, and
    the solo candidate coded apart.  Shared slots are listed from 1."""
    gamma, sigma2 = model.gamma, instance.sigma2
    g0k, h0k, rate0 = float(instance.g0[k]), float(instance.h0[k]), float(instance.rates[0])

    def shared_power(target, eta):
        return target * (1.0 + gamma * eta) * sigma2 / (g0k - gamma * target * eta * h0k)

    def shared_value(target, eta):
        return (model.value(target) * (g0k - target * gamma * eta * h0k) * rate0
                / (target * (1.0 + gamma * eta) * sigma2))

    # latest switch first, then the smaller rival-to-best gain ratio
    rows = np.array(sorted((f for f in range(instance.followers) if carrier[f] == k),
                           key=lambda f: (-switch[f], instance.gf[f, rival[f]] / instance.gf[f, k],
                                          f)), dtype=int)
    gb = instance.gf[rows, k]
    count = len(rows)
    eta = np.cumsum(instance.hf[rows, k] / gb)
    targets = np.array(
        [optimal_sinr_with_feedback(model, c) for c in (h0k * gamma * eta / g0k).tolist()]
    )
    boundary_powers = np.array([switch[f] for f in rows], dtype=float)
    boundary_values = np.full(count, math.nan)
    for i in range(count):
        if boundary_powers[i] < math.inf:
            eta_prev = eta[i - 1] if i > 0 else 0.0
            power = boundary_powers[i]
            sinr_ = g0k * power / (sigma2 * (1.0 + gamma * eta_prev)
                                   + gamma * eta_prev * h0k * power)
            boundary_values[i] = rate0 * model.value(sinr_) / power
    stays = np.array([shared_power(t, e) < b
                      for t, e, b in zip(targets, eta, boundary_powers)], dtype=bool)
    passing = np.flatnonzero(stays)
    stay_limit = int(passing[-1]) + 1 if passing.size else 0
    slot_powers = np.zeros(stay_limit)
    slot_values = np.zeros(stay_limit)
    replacements = [None] * stay_limit
    for l in range(1, stay_limit + 1):
        slot_powers[l - 1] = shared_power(targets[l - 1], eta[l - 1])
        slot_values[l - 1] = shared_value(targets[l - 1], eta[l - 1])
        if not stays[l - 1]:
            replacements[l - 1] = "infeasible"
        elif l < count and slot_powers[l - 1] < boundary_powers[l]:
            if boundary_powers[l] < boundary_powers[l - 1]:
                slot_powers[l - 1] = boundary_powers[l]
                slot_values[l - 1] = boundary_values[l]
                replacements[l - 1] = "raise_to_boundary"
            else:
                replacements[l - 1] = "infeasible"
    solo_unconstrained = shared_power(gamma, 0.0)
    if count == 0 or boundary_powers[0] <= solo_unconstrained:
        solo_power, solo_value = solo_unconstrained, shared_value(gamma, 0.0)
    elif math.isinf(boundary_powers[0]):
        solo_power = solo_value = math.nan
    else:
        solo_power, solo_value = boundary_powers[0], boundary_values[0]
    return dict(carrier=k, nominees=tuple(rows.tolist()), eta=eta,
                targets=targets, stays=stays, stay_limit=stay_limit,
                slot_powers=slot_powers, slot_values=slot_values,
                boundary=boundary_powers, boundary_values=boundary_values,
                replacements=tuple(replacements), solo_power=solo_power,
                solo_value=solo_value)


def reference_dense(instance, model):
    """Scalar reference solve: the reference rows, the winner as the max
    over a candidate list keyed ``(value, -carrier, -slots)``, and the
    follower rows assigned one by one.  Returns ``(table, winner, alloc)``;
    ``winner`` is None in the degenerate fallback."""
    gamma = model.gamma
    carrier, rival = reference_ranks(instance)
    switch = [reference_switch(instance, f, carrier[f], rival[f])
              for f in range(instance.followers)]
    table = [reference_carrier(instance, model, k, carrier, rival, switch)
             for k in range(instance.carriers)]
    candidates = [
        (cc["slot_values"][l - 1], l, cc["carrier"], cc["slot_powers"][l - 1], "shared")
        for cc in table for l in range(1, cc["stay_limit"] + 1)
        if cc["replacements"][l - 1] != "infeasible" and math.isfinite(cc["slot_values"][l - 1])
    ]
    candidates += [(cc["solo_value"], 0, cc["carrier"], cc["solo_power"], "solo")
                   for cc in table if math.isfinite(cc["solo_value"])]
    winner = max(candidates, key=lambda c: (c[0], -c[2], -c[1]), default=None)
    alloc = np.zeros((instance.players, instance.carriers))
    if winner is None:
        b0 = int(np.argmax(instance.g0))
        alloc[0, b0] = gamma * instance.sigma2 / instance.g0[b0]
        alloc[1:] = respond(instance, alloc[0], gamma)[0]
        return table, None, alloc
    _, slots, k_hat, leader_power, kind = winner
    alloc[0, k_hat] = leader_power
    denom_shared = instance.sigma2 + instance.h0[k_hat] * leader_power
    for i, f in enumerate(table[k_hat]["nominees"]):
        if i < slots:
            alloc[f + 1, k_hat] = gamma * denom_shared / instance.gf[f, k_hat]
        else:
            s = rival[f]
            alloc[f + 1, s] = gamma * instance.sigma2 / instance.gf[f, s]
    for f in range(instance.followers):
        if carrier[f] != k_hat:
            b = carrier[f]
            alloc[f + 1, b] = gamma * instance.sigma2 / instance.gf[f, b]
    return table, winner, alloc


def assert_floats_agree(actual, expected):
    """Equal NaN pattern, and finite entries within 4e-16 relative: the
    table's success rates come from array powers, the reference's from
    scalar ones."""
    actual, expected = np.asarray(actual, float), np.asarray(expected, float)
    assert actual.shape == expected.shape
    assert np.array_equal(np.isnan(actual), np.isnan(expected))
    assert_allclose(actual, expected, rtol=4e-16, atol=0.0)


class TestScalarReferenceEquivalence:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(case=edge_cases())
    def test_matches_the_scalar_reference(self, case):
        inst, model, _ = case
        res = solve_dense(inst, model)
        table, winner, alloc = reference_dense(inst, model)
        d = res.diagnostics
        assert res.allocation.tobytes() == alloc.tobytes()
        # K >= F+1 leaves a carrier without nominees, whose solo slot wins
        # when nothing else does
        assert winner is not None
        value, slots, k_hat, _, kind = winner
        s = d["winner_slots"]
        assert (res.active_carriers[0], s, "shared" if s else "solo") == (k_hat, slots, kind)
        cc, tables = d["candidate_table"][k_hat], slot_tables(inst, model)
        assert_floats_agree(cc.slot_values[s], value)
        # a solo win names no replacement, whatever its cap did
        ref = table[k_hat]
        replacement = ref["replacements"][slots - 1] if slots else None
        capped = cc.replacements[s] if s else None
        assert capped == replacement
        assert cc.stay_limit == ref["stay_limit"]
        target = (float(ref["targets"][slots - 1])
                  if slots and replacement is None else None)
        assert (tables["targets"][k_hat, s] if s and capped is None else None) == target
        for k, (cc, ref) in enumerate(zip(d["candidate_table"], table, strict=True)):
            row = nominee_row(tables, k)
            assert (k, row["nominees"], cc.stay_limit) == (
                ref["carrier"], ref["nominees"], ref["stay_limit"])
            assert row["stays"].tolist() == ref["stays"].tolist()
            # slot 0 is the solo candidate; shared slots shift up by one
            assert cc.replacements[1:] == ref["replacements"]
            for name in ("eta", "targets", "boundary", "boundary_values"):
                assert_floats_agree(row[name], ref[name])
            solo_power, solo_value = ref["solo_power"], ref["solo_value"]
            if cc.replacements[0] == "infeasible":
                # the reference blanks an infeasible solo; the row keeps
                # its uncapped optimum
                assert math.isnan(solo_power) and math.isnan(solo_value)
                solo_power, solo_value = cc.slot_powers[0], cc.slot_values[0]
            assert_floats_agree(cc.slot_powers, [solo_power, *ref["slot_powers"]])
            assert_floats_agree(cc.slot_values, [solo_value, *ref["slot_values"]])


class TestLargeExponent:
    @pytest.mark.parametrize("m", [20, 50, 100])
    def test_solves_and_certifies(self, m):
        # seeds 4 (m=20), 3/28/38 (m=50) and 19/27/34 (m=100) need feedback
        # roots where the unreduced residual's rounding noise exceeds 1e-12,
        # so a bisection closed by an absolute residual check rejected them
        model = EfficiencyModel(m=m)
        for seed in range(40):
            inst = sample_instance(5, 4, snr_db=10.0, seed=seed)
            alloc = solve_dense(inst, model).allocation
            assert verify_leader_stackelberg(inst, model, alloc, "dense").passed, seed
            for f in range(inst.followers):
                assert verify_follower(inst, model, f, alloc).passed, (seed, f)
