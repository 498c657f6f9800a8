"""Tests for instances, SINR expressions, utilities, sampling, and the regime switch."""

import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import hetnet_ee
from hetnet_ee import EfficiencyModel, NetworkInstance, sample_instance, solve_dense, utility
from hetnet_ee import baselines, cli, dense, efficiency, harness, model as model_module, oracle
from hetnet_ee import sparse
from hetnet_ee.model import (
    REGIMES,
    _Hashed,
    _seed_states,
    _seed_words,
    all_utilities,
    best_response,
    denominators,
    empty_allocation,
    leader_interference,
    make_result,
    respond,
    sample_batch,
    sinr,
    stack_instances,
    switches,
)
from conftest import random_instance

GAMMA = 1.2564312086261697
PEAK_RATE = 0.40726437758907375  # f(gamma)/gamma for m=2, mpmath


def simple_instance(**overrides):
    kw = dict(g0=[2.0, 1.0], gf=[[3.0, 1.0]], h0=[1.0, 0.5],
              hf=[[1.0, 0.2]], sigma2=1.0)
    kw.update(overrides)
    return NetworkInstance(**kw)


class TestNetworkInstance:
    def test_too_few_carriers(self):
        with pytest.raises(ValueError, match="carriers"):
            NetworkInstance(g0=[1.0], gf=[[1.0]], h0=[0.0], hf=[[0.0]], sigma2=1.0)

    def test_nonpositive_signal_gain(self):
        with pytest.raises(ValueError):
            simple_instance(g0=[2.0, 0.0])

    def test_negative_cross_gain(self):
        with pytest.raises(ValueError):
            simple_instance(h0=[-1.0, 0.5])

    def test_bad_noise(self):
        with pytest.raises(ValueError):
            simple_instance(sigma2=0.0)

    @pytest.mark.parametrize("name, value", [
        ("gf", [[3.0, 1.0, 2.0]]), ("h0", [1.0]), ("hf", [[1.0, 0.2], [1.0, 0.2]]),
        ("rates", [1.0, 1.0, 1.0]), ("sigma2", [1.0, 2.0]),
    ])
    def test_wrong_shape(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must have shape"):
            simple_instance(**{name: value})

    @pytest.mark.parametrize("allocation, message", [
        (np.zeros((2, 3)), "allocation has wrong shape"),
        ([[1.0, 0.0], [0.0, -1.0]], "powers must be nonnegative"),
    ])
    def test_outcomes_checks_the_allocation(self, model, allocation, message):
        with pytest.raises(ValueError, match=message):
            model_module.outcomes(simple_instance(), model, allocation, "dense")

    def test_rates_default_to_one(self):
        inst = simple_instance()
        assert_allclose(inst.rates, [1.0, 1.0])

    def test_arrays_are_immutable(self):
        inst = simple_instance()
        with pytest.raises(ValueError):
            inst.g0[0] = 5.0

    def test_digest_tracks_content(self):
        a = sample_instance(4, 2, seed=11)
        b = sample_instance(4, 2, seed=11)
        c = sample_instance(4, 2, seed=12)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_equality_is_identity_and_hash_works(self):
        # array-holding dataclasses compare by identity; digest() compares content
        model = EfficiencyModel(m=2)
        a, b = sample_instance(5, 4, seed=1), sample_instance(5, 4, seed=1)
        ra, rb = solve_dense(a, model), solve_dense(b, model)
        ca, cb = ra.diagnostics["candidate_table"][0], rb.diagnostics["candidate_table"][0]
        for x, y in ((a, b), (ra, rb), (ca, cb)):
            assert x == x and x != y
            assert len({hash(x), hash(y)}) == 2 and {x: 1}[x] == 1


def simple_batch(**overrides):
    """Three trials of :func:`simple_instance`'s data, stacked on a leading
    axis by the constructor, with ``overrides`` in the middle trial only."""
    base = dict(g0=[2.0, 1.0], gf=[[3.0, 1.0]], h0=[1.0, 0.5], hf=[[1.0, 0.2]], sigma2=[1.0],
                rates=[1.0, 1.0])
    rows = (base, {**base, **overrides}, base)
    return NetworkInstance(**{name: [row[name] for row in rows] for name in base})


class TestBatchInstance:
    """The constructor checks a batch as it checks one instance."""

    def test_rows_are_the_instances(self):
        batch = simple_batch(sigma2=[3.0])
        assert batch.trials == 3 and batch.gains.shape == (3, 2, 2)
        assert batch.sigma2.shape == (3, 1)
        row = batch.instance(1)
        assert row.sigma2 == 3.0 and row.trials == 1
        assert row.digest() == simple_instance(sigma2=3.0).digest() == batch.digests()[1]

    def test_too_few_carriers(self):
        with pytest.raises(ValueError, match="carriers"):
            NetworkInstance(g0=[[1.0]] * 3, gf=[[[1.0]]] * 3, h0=[[0.0]] * 3,
                            hf=[[[0.0]]] * 3, sigma2=[[1.0]] * 3)

    @pytest.mark.parametrize("name,value,match", [
        ("g0", [2.0, 0.0], "signal gains"),
        ("gf", [[3.0, -1.0]], "signal gains"),
        ("h0", [-1.0, 0.5], "cross gains"),
        ("hf", [[1.0, -0.2]], "cross gains"),
        ("sigma2", [0.0], "sigma2"),
        ("sigma2", [np.inf], "sigma2"),
        ("sigma2", [np.nan], "sigma2"),
        ("rates", [1.0, 0.0], "rates"),
    ], ids=["signal_gain", "follower_gain", "cross_gain", "follower_cross_gain", "zero_noise",
            "infinite_noise", "nan_noise", "rate"])
    def test_bad_value_in_one_trial(self, name, value, match):
        with pytest.raises(ValueError, match=match):
            simple_batch(**{name: value})

    def test_empty_batch_has_no_digests(self):
        batch = sample_batch(3, 1, seeds=[], snr_db=[])
        assert batch.trials == 0 and batch.digests() == []

    def test_stacking_nothing_is_rejected(self):
        with pytest.raises(ValueError, match="no instances to stack"):
            stack_instances([])

    def test_arrays_are_immutable(self):
        batches = (simple_batch(), stack_instances([simple_instance()] * 3),
                   stack_instances([simple_instance()]))
        for batch in batches + (batches[0].instance(1), batches[1].instance(2)):
            for name in ("g0", "gf", "h0", "hf", "gains", "rates"):
                with pytest.raises(ValueError):
                    getattr(batch, name).flat[0] = 5.0
        for batch in batches:
            with pytest.raises(ValueError):
                batch.sigma2[0, 0] = 5.0


class TestSinr:
    def test_sparse_leader_arithmetic(self, model):
        inst = simple_instance()
        alloc = empty_allocation(inst)
        alloc[0, 0] = 0.5
        assert sinr(inst, alloc, "sparse")[0, 0] == 1.0  # 2 * 0.5 / 1

    def test_zero_power_zero_sinr(self, model):
        inst = simple_instance()
        alloc = empty_allocation(inst)
        assert sinr(inst, alloc, "sparse")[0, 0] == 0.0
        assert sinr(inst, alloc, "dense")[1, 1] == 0.0

    def test_common_scaling_cancels(self):
        inst = simple_instance(sigma2=1.0)
        scaled = simple_instance(sigma2=3.0)
        alloc = empty_allocation(inst)
        alloc[0, 0] = 0.7
        alloc3 = alloc * 3.0
        assert_allclose(sinr(inst, alloc, "sparse")[0, 0],
                        sinr(scaled, alloc3, "sparse")[0, 0], rtol=1e-15)

    def test_follower_hits_target_at_closed_form_power(self, model):
        # power gamma*sigma2/gf with an idle leader puts the SINR at gamma
        inst = simple_instance()
        alloc = empty_allocation(inst)
        alloc[1, 0] = GAMMA / 3.0
        assert_allclose(sinr(inst, alloc, "dense")[1, 0], GAMMA, rtol=1e-12)

    def test_follower_leader_interference(self):
        inst = simple_instance()
        alloc = empty_allocation(inst)
        alloc[0, 0] = 2.0
        alloc[1, 0] = 1.0
        # 3 * 1 / (1 + 1*2)
        assert_allclose(sinr(inst, alloc, "dense")[1, 0], 1.0, rtol=1e-15)

    def test_dense_leader_counts_cross_interference(self):
        inst = simple_instance(g0=[2.0, 1.0], hf=[[1.0, 0.0]])
        alloc = empty_allocation(inst)
        alloc[0, 0] = 1.0
        alloc[1, 0] = 1.0
        assert_allclose(sinr(inst, alloc, "dense")[0, 0], 1.0, rtol=1e-15)  # 2/(1+1)
        alloc[1, 0] = 0.0
        assert sinr(inst, alloc, "dense")[0, 0] == sinr(inst, alloc, "sparse")[0, 0]

    def test_dense_equals_sparse_without_followers_transmitting(self):
        inst = simple_instance(hf=[[0.0, 0.0]])
        alloc = empty_allocation(inst)
        alloc[0, 1] = 4.2
        alloc[1, 0] = 9.9
        assert sinr(inst, alloc, "dense")[0, 1] == sinr(inst, alloc, "sparse")[0, 1]

    def test_rejects_unknown_regime(self):
        inst = simple_instance()
        with pytest.raises(ValueError, match="regime"):
            sinr(inst, empty_allocation(inst), "mixed")


def sinr_reference(inst, alloc, player, regime):
    """Reference SINR row of one player, computed on its own."""
    if player == 0:
        interference = np.einsum("fk,fk->k", inst.hf, alloc[1:]) if regime == "dense" else 0.0
        return inst.g0 * alloc[0] / (inst.sigma2 + interference)
    return inst.gf[player - 1] * alloc[player] / (inst.sigma2 + inst.h0 * alloc[0])


def utility_reference(inst, model, player, alloc, regime):
    """Reference utility of one player; an all-zero row is worth 0."""
    total = float(alloc[player].sum())
    if total == 0.0:
        return 0.0
    successes = float(model.value(sinr_reference(inst, alloc, player, regime)).sum())
    return float(inst.rates[player]) * successes / total


def random_allocation(rng, inst):
    """Sparse random powers with about a third of the rows all zero."""
    alloc = rng.uniform(0.0, 3.0, size=(inst.players, inst.carriers))
    alloc *= rng.uniform(size=alloc.shape) < 0.5
    alloc *= (rng.uniform(size=inst.players) < 0.67)[:, None]
    return alloc


class TestWholeInstance:
    """The all-player arrays equal the per-player reference bit for bit."""

    @pytest.mark.parametrize("regime", ["sparse", "dense"])
    def test_matches_per_player_reference(self, regime):
        rng = np.random.default_rng(31)
        model = EfficiencyModel(m=3)
        for _ in range(60):
            base = random_instance(rng, k_range=(1, 8), f_range=(0, 6),
                                   mean_cross=float(rng.choice([0.0, 0.5, 2.0])))
            inst = NetworkInstance(base.g0, base.gf, base.h0, base.hf, base.sigma2,
                                   rates=rng.uniform(0.5, 4.0, base.players))
            alloc = random_allocation(rng, inst)
            matrix = sinr(inst, alloc, regime)
            utilities = all_utilities(inst, model, alloc, regime)
            assert matrix.shape == (inst.players, inst.carriers)
            for n in range(inst.players):
                assert np.array_equal(matrix[n], sinr_reference(inst, alloc, n, regime))
                assert utilities[n] == utility_reference(inst, model, n, alloc, regime)
                assert utility(inst, model, n, alloc, regime) == utilities[n]

    def test_all_zero_allocation(self, model):
        inst = sample_instance(4, 3, seed=32)
        alloc = empty_allocation(inst)
        assert np.array_equal(sinr(inst, alloc, "dense"), np.zeros((4, 4)))
        assert np.array_equal(all_utilities(inst, model, alloc, "dense"), np.zeros(4))

    def test_no_followers(self, model):
        inst = NetworkInstance(g0=[1.0, 2.0], gf=np.zeros((0, 2)), h0=[0.5, 0.5],
                               hf=np.zeros((0, 2)), sigma2=1.0)
        alloc = np.array([[0.0, 0.7]])
        for regime in ("sparse", "dense"):
            assert np.array_equal(sinr(inst, alloc, regime), [[0.0, 1.4]])
            assert all_utilities(inst, model, alloc, regime).tolist() == [
                utility_reference(inst, model, 0, alloc, regime)
            ]

    def test_gains_stack_every_player(self):
        inst = sample_instance(5, 3, seed=33)
        assert np.array_equal(inst.gains, np.vstack([inst.g0, inst.gf]))
        with pytest.raises(ValueError):
            inst.gains[1, 0] = 5.0


def respond_loop(inst, p0, gamma):
    """Reference best response, one follower at a time."""
    rows = np.zeros((inst.followers, inst.carriers))
    for f in range(inst.followers):
        denom = inst.sigma2 + inst.h0 * p0
        k = int(np.argmax(inst.gf[f] / denom))
        rows[f, k] = gamma * denom[k] / inst.gf[f, k]
    return rows


class TestRespond:
    def test_matches_per_follower_loop(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            inst = random_instance(rng, f_range=(0, 5))
            # the leader idles on about half the carriers
            p0 = rng.uniform(0.0, 3.0, inst.carriers) * (rng.uniform(size=inst.carriers) < 0.5)
            rows, carriers = respond(inst, p0, GAMMA)
            assert np.array_equal(rows, respond_loop(inst, p0, GAMMA))
            assert np.array_equal(carriers, np.argmax(rows, axis=1))

    def test_no_followers(self):
        inst = NetworkInstance(g0=[1.0, 2.0], gf=np.zeros((0, 2)), h0=[0.5, 0.5],
                               hf=np.zeros((0, 2)), sigma2=1.0)
        rows, carriers = respond(inst, np.ones((3, 2)), GAMMA)
        assert rows.shape == (3, 0, 2) and carriers.shape == (3, 0)
        assert np.array_equal(leader_interference(inst, rows, "dense"), np.zeros((3, 2)))

    def test_tied_gains_pick_the_lowest_index(self):
        inst = NetworkInstance(g0=[1.0, 1.0, 1.0], gf=[[2.0, 3.0, 3.0], [1.0, 1.0, 1.0]],
                               h0=[0.0, 0.0, 0.0], hf=np.zeros((2, 3)), sigma2=1.0)
        rows, carriers = respond(inst, [5.0, 0.0, 0.0], GAMMA)
        assert carriers.tolist() == [1, 0]
        assert_allclose(rows, [[0.0, GAMMA / 3.0, 0.0], [GAMMA, 0.0, 0.0]], rtol=1e-15)

    def test_batched_rows_equal_single_calls(self):
        rng = np.random.default_rng(22)
        inst = sample_instance(6, 4, seed=23)
        p0 = rng.uniform(0.0, 2.0, size=(5, 7, inst.carriers))
        rows, carriers = respond(inst, p0, GAMMA)
        interference = leader_interference(inst, rows, "dense")
        assert rows.shape == (5, 7, 4, 6) and interference.shape == (5, 7, 6)
        for idx in np.ndindex(5, 7):
            single, chosen = respond(inst, p0[idx], GAMMA)
            assert np.array_equal(rows[idx], single)
            assert np.array_equal(carriers[idx], chosen)
            assert np.array_equal(interference[idx], leader_interference(inst, single, "dense"))


class TestLeaderRespond:
    """The leader's move is :func:`best_response` to its row of denominators."""

    def test_hits_gamma_on_the_best_adjusted_carrier(self, model):
        inst = simple_instance(hf=[[1.0, 0.0]])
        alloc = empty_allocation(inst)
        alloc[1, 0] = 3.0  # interference 3 on carrier 0: 2/4 < 1/1
        powers, k = best_response(inst.g0, denominators(inst, alloc, "dense")[0], GAMMA)
        assert k == 1 and powers.tolist() == [0.0, GAMMA]
        alloc[0] = powers
        assert_allclose(sinr(inst, alloc, "dense")[0, k], GAMMA, rtol=1e-15)

    def test_ties_pick_the_lowest_index(self):
        inst = simple_instance(g0=[1.0, 2.0])
        assert best_response(inst.g0, inst.sigma2 + np.array([0.0, 1.0]), GAMMA)[1] == 0

    def test_sparse_leader_sees_noise_only(self):
        inst = simple_instance()
        alloc = empty_allocation(inst)
        alloc[1] = [5.0, 5.0]
        assert denominators(inst, alloc, "sparse")[0].tolist() == [inst.sigma2] * 2
        assert_allclose(denominators(inst, alloc, "dense")[0], [6.0, 2.0], rtol=1e-15)

    def test_subnormal_gain_gets_an_exact_zero(self):
        """A power off the chosen carrier is zero before the division, so a
        subnormal gain there can neither overflow nor warn."""
        powers, k = best_response(np.array([1.0, 1e-310, 0.5]), np.full(3, 1e10), GAMMA)
        assert k == 0 and powers[1:].tolist() == [0.0, 0.0]
        assert powers[0] == GAMMA * 1e10


class TestUtility:
    def test_zero_row_is_zero(self, model):
        inst = simple_instance()
        assert utility(inst, model, 0, empty_allocation(inst), "dense") == 0.0

    def test_single_carrier_peak_form(self, model):
        # at SINR gamma the leader's utility is f(gamma) * g0 / (gamma*sigma2)
        inst = simple_instance()
        alloc = empty_allocation(inst)
        alloc[0, 0] = GAMMA * inst.sigma2 / inst.g0[0]
        assert_allclose(utility(inst, model, 0, alloc, "sparse"),
                        PEAK_RATE * inst.g0[0] / inst.sigma2, rtol=1e-9)

    def test_linear_in_rate(self, model):
        inst = simple_instance()
        double = simple_instance(rates=[2.0, 2.0])
        alloc = empty_allocation(inst)
        alloc[0, 0] = 0.9
        alloc[1, 1] = 0.4
        for player in (0, 1):
            assert_allclose(2 * utility(inst, model, player, alloc, "dense"),
                            utility(double, model, player, alloc, "dense"), rtol=1e-15)

    @pytest.mark.parametrize("player", [0, 1])
    def test_unimodal_in_own_power(self, model, player):
        """Rises then falls along a geometric power sweep on one carrier."""
        inst = simple_instance()
        alloc = empty_allocation(inst)
        alloc[0, 0] = 0.3  # fixed leader background for the follower case
        values = []
        for p in np.geomspace(1e-4, 1e4, 400):
            trial = alloc.copy()
            trial[player, 0] = p
            values.append(utility(inst, model, player, trial, "dense"))
        values = np.array(values)
        rising = np.diff(values) > 0
        # a single switch from rising to falling
        assert rising[0] and not rising[-1]
        assert int((np.diff(rising.astype(int)) != 0).sum()) == 1

    def test_result_utilities_recompute(self, model):
        rng = np.random.default_rng(3)
        inst = sample_instance(5, 3, seed=77)
        alloc = empty_allocation(inst)
        alloc[:, :] = rng.uniform(0.0, 2.0, size=alloc.shape)
        res = make_result(inst, model, alloc, "dense")
        again = all_utilities(inst, model, res.allocation, "dense")
        assert_allclose(res.utilities, again, rtol=1e-9)


def rank_reference(gains):
    """Best carrier by argmax, second by argmax over the others."""
    best = int(np.argmax(gains))
    rest = np.delete(np.arange(gains.size), best)
    return best, int(rest[np.argmax(gains[rest])])


class TestRankCarriers:
    """Each follower's carrier and rival from `switches`: its best and
    second-best carriers at zero leader power, ties to the lower index."""

    def test_simple(self):
        carrier, rival, _ = switches(simple_instance())
        assert (carrier[0], rival[0]) == (0, 1)

    def test_middle_best(self):
        inst = NetworkInstance(g0=[1.0, 3.0, 2.0], gf=[[1.0, 3.0, 2.0]],
                               h0=[0, 0, 0], hf=[[0, 0, 0]], sigma2=1.0)
        carrier, rival, _ = switches(inst)
        assert (carrier[0], rival[0]) == (1, 2)

    def test_tie_breaks_to_lower_index(self):
        carrier, rival, _ = switches(simple_instance(gf=[[2.0, 2.0]]))
        assert (carrier[0], rival[0]) == (0, 1)

    def test_single_carrier_rejected(self, model):
        inst = NetworkInstance(g0=[1.0], gf=np.zeros((0, 1)), h0=[0.0],
                               hf=np.zeros((0, 1)), sigma2=1.0)
        with pytest.raises(ValueError, match="two carriers"):
            switches(inst)

    def test_follower_rows_and_ties(self):
        # ties for best (row 1), for second (rows 0 and 2), and all-equal (row 3)
        inst = NetworkInstance(g0=np.ones(5),
                               gf=[[3.0, 1.0, 2.0, 2.0, 0.5], [1.0, 3.0, 3.0, 2.0, 0.5],
                                   [4.0, 1.0, 1.0, 1.0, 0.5], [5.0, 5.0, 5.0, 5.0, 5.0]],
                               h0=np.zeros(5), hf=np.zeros((4, 5)), sigma2=1.0)
        carrier, rival, _ = switches(inst)
        assert carrier.tolist() == [0, 1, 0, 0]
        assert rival.tolist() == [2, 2, 1, 1]

    def test_matches_per_player_reference(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            k = int(rng.integers(2, 9))
            f = int(rng.integers(0, k))
            # small integer gains tie often, for best and for second place
            gains = rng.integers(1, 4, size=(f, k)).astype(float)
            inst = NetworkInstance(np.ones(k), gains, np.zeros(k), np.zeros((f, k)), 1.0)
            carrier, rival, _ = switches(inst)
            for n in range(inst.followers):
                assert (carrier[n], rival[n]) == rank_reference(gains[n])


class TestSampling:
    def test_deterministic_in_seed(self):
        a = sample_instance(6, 3, mean_cross=0.4, snr_db=7.0, seed=123)
        b = sample_instance(6, 3, mean_cross=0.4, snr_db=7.0, seed=123)
        assert np.array_equal(a.g0, b.g0) and np.array_equal(a.hf, b.hf)
        assert a.sigma2 == b.sigma2

    def test_gain_means(self):
        # law of large numbers on 1e5 draws
        inst = sample_instance(500, 200, mean_signal=2.0, mean_cross=0.25,
                               snr_db=0.0, seed=5)
        assert inst.gf.size == 100_000
        assert abs(inst.gf.mean() / 2.0 - 1.0) < 0.02
        assert abs(inst.hf.mean() / 0.25 - 1.0) < 0.02

    def test_zero_cross_mean_gives_exact_zeros(self):
        inst = sample_instance(4, 2, mean_cross=0.0, seed=9)
        assert np.all(inst.h0 == 0.0) and np.all(inst.hf == 0.0)

    def test_noise_follows_snr(self):
        inst = sample_instance(3, 1, mean_signal=2.0, snr_db=20.0, seed=1)
        assert_allclose(inst.sigma2, 0.02, rtol=1e-12)

    def test_invalid_means(self):
        with pytest.raises(ValueError):
            sample_instance(3, 1, mean_signal=0.0, seed=1)
        with pytest.raises(ValueError):
            sample_instance(3, 1, mean_cross=-0.1, seed=1)
        with pytest.raises(ValueError):
            sample_batch(3, 1, seeds=[1], snr_db=[0.0], mean_cross=-0.1)

    def test_draws_match_the_generator_reference(self):
        # one default_rng per instance drawing g0, gf, h0, hf in that order
        rng = np.random.default_rng(77)
        ref = (rng.exponential(2.0, 4), rng.exponential(2.0, (2, 4)),
               rng.exponential(0.5, 4), rng.exponential(0.5, (2, 4)))
        inst = sample_instance(4, 2, mean_signal=2.0, mean_cross=0.5, seed=77)
        for name, arr in zip(("g0", "gf", "h0", "hf"), ref):
            assert getattr(inst, name).tobytes() == arr.tobytes(), name

    @pytest.mark.parametrize("mean_cross,rates", [(0.5, None), (0.0, (1.0, 2.0, 3.0))])
    def test_batch_rows_are_the_single_draws(self, mean_cross, rates):
        seeds, snrs = [5, 6, 7], [-30.0, 0.0, 60.0]
        batch = sample_batch(4, 2, seeds=seeds, snr_db=snrs, mean_signal=2.0,
                             mean_cross=mean_cross, rates=rates)
        insts = [sample_instance(4, 2, mean_signal=2.0, mean_cross=mean_cross, snr_db=snr,
                                 rates=rates, seed=seed) for seed, snr in zip(seeds, snrs)]
        for source in (batch, stack_instances(insts)):
            for t, inst in enumerate(insts):
                row = source.instance(t)
                for name in ("g0", "gf", "h0", "hf", "rates"):
                    assert getattr(row, name).tobytes() == getattr(inst, name).tobytes(), name
                assert row.sigma2 == inst.sigma2
                assert source.digests()[t] == row.digest() == inst.digest()

    def test_rates_broadcast(self):
        inst = sample_instance(3, 2, rates=2.5, seed=4)
        assert_allclose(inst.rates, [2.5, 2.5, 2.5])
        inst = sample_instance(3, 2, rates=(1.0, 2.0, 3.0), seed=4)
        assert_allclose(inst.rates, [1.0, 2.0, 3.0])

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            sample_batch(3, 1, seeds=[-1], snr_db=[0.0])


# entropy words with both ends of the uint32 range drawn often
WORDS = st.sampled_from([0, 2**32 - 1]) | st.integers(0, 2**32 - 1)


class TestSeedHash:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rows=st.lists(st.lists(WORDS, min_size=1, max_size=6), min_size=1, max_size=4),
           n=st.sampled_from([2, 8]))
    def test_words_are_numpys_seed_sequence(self, rows, n):
        expected = [np.random.SeedSequence(row).generate_state(n) for row in rows]
        assert np.array_equal(_seed_words(rows, n), expected)

    def test_generator_state_is_pcg64s(self):
        # seeds of one, two, three and five words in one batch, the last past the pool's four
        seeds = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 1]
        sample_batch(3, 1, seeds=seeds, snr_db=[0.0] * len(seeds))  # registers _Hashed
        for seed, state in zip(seeds, _seed_states(seeds)):
            assert np.random.PCG64(_Hashed(state)).state == np.random.PCG64(seed).state, seed


def _regime_calls():
    """Every function that takes a regime, as a call of the regime alone."""
    inst, model = sample_instance(4, 2, seed=5), EfficiencyModel(m=2)
    batch, alloc = stack_instances([inst]), solve_dense(inst, model).allocation
    claims = np.ones(1, dtype=bool)
    calls = {}
    for scheme in harness.SCHEMES:
        calls[f"run_batch-{scheme}"] = lambda r, s=scheme: harness.run_batch(s, batch, model, r)
    for scheme in ("stackelberg", "nash"):  # the schemes that claim an equilibrium
        calls[f"verify_batch-{scheme}"] = lambda r, s=scheme: harness.verify_batch(
            s, batch, model, alloc[None], claims, r)
    calls.update({
        "stackelberg_batch": lambda r: dense.stackelberg_batch(batch, model, r),
        "nash_batch": lambda r: baselines.nash_batch(batch, model, r),
        "solve_nash": lambda r: baselines.solve_nash(inst, model, r),
        "best_channel_batch": lambda r: baselines.best_channel_batch(batch, model, r),
        "solve_best_channel": lambda r: baselines.solve_best_channel(inst, model, r),
        "hears_followers": model_module.hears_followers,
        "leader_interference": lambda r: leader_interference(inst, alloc[1:], r),
        "denominators": lambda r: denominators(inst, alloc, r),
        "sinr": lambda r: sinr(inst, alloc, r),
        "all_utilities": lambda r: all_utilities(inst, model, alloc, r),
        "utility": lambda r: utility(inst, model, 0, alloc, r),
        "outcomes": lambda r: model_module.outcomes(inst, model, alloc, r),
        "make_result": lambda r: make_result(inst, model, alloc, r),
        "stackelberg_checks": lambda r: oracle.stackelberg_checks(batch, model, alloc[None], r),
        "nash_checks": lambda r: oracle.nash_checks(batch, model, alloc[None], r),
        "verify_leader_stackelberg": lambda r: oracle.verify_leader_stackelberg(
            inst, model, alloc, r),
        "verify_nash": lambda r: oracle.verify_nash(inst, model, alloc, r),
        "brute_force_stackelberg": lambda r: oracle.brute_force_stackelberg(inst, model, r),
        "ScenarioConfig": lambda r: harness.ScenarioConfig(regime=r),
    })
    return calls


REGIME_CALLS = _regime_calls()
SOURCES = sorted(Path(hetnet_ee.__file__).parent.glob("*.py"))


class _RegimeTests(ast.NodeVisitor):
    """The enclosing function of each comparison with ``"dense"`` or
    ``"sparse"`` and each membership test in ``REGIMES``."""

    def __init__(self):
        self.scope, self.found = "<module>", []

    def visit_FunctionDef(self, node):
        outer, self.scope = self.scope, node.name
        self.generic_visit(node)
        self.scope = outer

    def visit_Compare(self, node):
        regimes = any(isinstance(x, ast.Constant) and x.value in REGIMES
                      for x in (node.left, *node.comparators))
        members = any(isinstance(op, (ast.In, ast.NotIn))
                      and "REGIMES" in (getattr(x, "id", None), getattr(x, "attr", None))
                      for op, x in zip(node.ops, node.comparators))
        if regimes or members:
            self.found.append(self.scope)
        self.generic_visit(node)


def regime_tests(source: str) -> list:
    visitor = _RegimeTests()
    visitor.visit(ast.parse(source))
    return visitor.found


class TestRegimeSwitch:
    """``model.hears_followers`` is the one place that reads a regime."""

    @pytest.mark.parametrize("name", sorted(REGIME_CALLS))
    def test_unknown_regime_is_rejected_everywhere(self, name):
        call = REGIME_CALLS[name]
        for regime in REGIMES:
            call(regime)
        message = "regime must be one of ('sparse', 'dense'), got 'Dense'"
        with pytest.raises(ValueError, match=re.escape(message)):
            call("Dense")

    def test_no_function_defaults_a_regime(self):
        modules = (baselines, cli, dense, efficiency, harness, model_module, oracle, sparse)
        takes = [fn for module in modules for fn in vars(module).values()
                 if inspect.isfunction(fn) and fn.__module__ == module.__name__
                 and "regime" in inspect.signature(fn).parameters]
        assert {dense.stackelberg_batch, baselines.nash_batch, baselines.solve_nash,
                baselines.best_channel_batch, baselines.solve_best_channel,
                harness.run_batch} <= set(takes)
        for fn in takes:
            default = inspect.signature(fn).parameters["regime"].default
            assert default is inspect.Parameter.empty, fn.__qualname__

    def test_the_guard_sees_every_form(self):
        source = ("def f(r):\n"
                  "    return r == 'dense', 'sparse' != r, r in REGIMES, r not in model.REGIMES\n")
        assert regime_tests(source) == ["f"] * 4

    def test_only_model_reads_a_regime(self):
        # read_records' malformed-row check is the one exception
        found = {path.stem: regime_tests(path.read_text(encoding="utf-8"))
                 for path in SOURCES if path.stem != "model"}
        assert {stem: scopes for stem, scopes in found.items() if scopes} == {
            "harness": ["read_records"]}

    def test_one_function_raises_the_regime_error(self):
        raising = [path.stem for path in SOURCES
                   for line in path.read_text(encoding="utf-8").splitlines()
                   if "regime must be one of" in line]
        assert raising == ["model"]


def package_imports(source: str) -> set:
    """The names of the package's modules that ``source`` imports, in any form."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("hetnet_ee.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.startswith("hetnet_ee"):
                module = module[len("hetnet_ee."):]
            elif node.level == 0:
                continue
            found |= ({module.split(".")[0]} if module
                      else {alias.name for alias in node.names})
    return found


class TestLayering:
    """The solvers and certificates sit below the comparison schemes: the
    stop table they share lives in ``model``."""

    def test_the_guard_sees_every_form(self):
        source = ("from .baselines import x\nfrom . import baselines\n"
                  "from hetnet_ee.dense import y\nimport hetnet_ee.oracle\n"
                  "from hetnet_ee import sparse\nimport numpy\nfrom numpy import zeros\n")
        assert package_imports(source) == {"baselines", "dense", "oracle", "sparse"}

    @pytest.mark.parametrize("stem", ["model", "efficiency", "dense", "sparse", "oracle"])
    def test_no_solver_imports_the_baselines(self, stem):
        (path,) = (path for path in SOURCES if path.stem == stem)
        assert "baselines" not in package_imports(path.read_text(encoding="utf-8"))
