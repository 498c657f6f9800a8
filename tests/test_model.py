"""Tests for instances, SINR expressions, utilities, and sampling."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hetnet_ee import EfficiencyModel, NetworkInstance, sample_instance, utility
from hetnet_ee.model import (
    all_utilities,
    empty_allocation,
    leader_interference,
    make_result,
    leader_respond,
    rank_carriers,
    respond,
    sinr,
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
        assert np.array_equal(leader_interference(inst, rows), np.zeros((3, 2)))

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
        interference = leader_interference(inst, rows)
        assert rows.shape == (5, 7, 4, 6) and interference.shape == (5, 7, 6)
        for idx in np.ndindex(5, 7):
            single, chosen = respond(inst, p0[idx], GAMMA)
            assert np.array_equal(rows[idx], single)
            assert np.array_equal(carriers[idx], chosen)
            assert np.array_equal(interference[idx], leader_interference(inst, single))


class TestLeaderRespond:
    def test_hits_gamma_on_the_best_adjusted_carrier(self, model):
        inst = simple_instance(hf=[[1.0, 0.0]])
        alloc = empty_allocation(inst)
        alloc[1, 0] = 3.0  # interference 3 on carrier 0: 2/4 < 1/1
        k, p = leader_respond(inst, leader_interference(inst, alloc[1:]), GAMMA)
        assert k == 1 and p == GAMMA
        alloc[0, k] = p
        assert_allclose(sinr(inst, alloc, "dense")[0, k], GAMMA, rtol=1e-15)

    def test_ties_pick_the_lowest_index(self):
        inst = simple_instance(g0=[1.0, 2.0])
        assert leader_respond(inst, np.array([0.0, 1.0]), GAMMA)[0] == 0


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
    def test_simple(self):
        inst = simple_instance(g0=[2.0, 1.0])
        best, second = rank_carriers(inst)
        assert (best[0], second[0]) == (0, 1)

    def test_middle_best(self):
        inst = NetworkInstance(g0=[1.0, 3.0, 2.0], gf=[[1.0, 1.0, 2.0]],
                               h0=[0, 0, 0], hf=[[0, 0, 0]], sigma2=1.0)
        best, second = rank_carriers(inst)
        assert (best[0], second[0]) == (1, 2)

    def test_tie_breaks_to_lower_index(self):
        inst = simple_instance(g0=[2.0, 2.0])
        best, second = rank_carriers(inst)
        assert (best[0], second[0]) == (0, 1)

    def test_single_carrier_rejected(self, model):
        inst = NetworkInstance(g0=[1.0], gf=np.zeros((0, 1)), h0=[0.0],
                               hf=np.zeros((0, 1)), sigma2=1.0)
        with pytest.raises(ValueError):
            rank_carriers(inst)

    def test_follower_rows_and_ties(self):
        # ties for best (row 1), for second (rows 0 and 2), and all-equal (row 3)
        inst = NetworkInstance(g0=[3.0, 1.0, 2.0, 2.0],
                               gf=[[1.0, 3.0, 3.0, 2.0], [4.0, 1.0, 1.0, 1.0],
                                   [5.0, 5.0, 5.0, 5.0]],
                               h0=np.zeros(4), hf=np.zeros((3, 4)), sigma2=1.0)
        best, second = rank_carriers(inst)
        assert best.tolist() == [0, 1, 0, 0]
        assert second.tolist() == [2, 2, 1, 1]

    def test_matches_per_player_reference(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            k = int(rng.integers(2, 9))
            f = int(rng.integers(0, k))
            # small integer gains tie often, for best and for second place
            gains = rng.integers(1, 4, size=(f + 1, k)).astype(float)
            inst = NetworkInstance(gains[0], gains[1:], np.zeros(k), np.zeros((f, k)), 1.0)
            best, second = rank_carriers(inst)
            for n in range(inst.players):
                assert (best[n], second[n]) == rank_reference(gains[n])


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

    def test_rates_broadcast(self):
        inst = sample_instance(3, 2, rates=2.5, seed=4)
        assert_allclose(inst.rates, [2.5, 2.5, 2.5])
        inst = sample_instance(3, 2, rates=(1.0, 2.0, 3.0), seed=4)
        assert_allclose(inst.rates, [1.0, 2.0, 3.0])
