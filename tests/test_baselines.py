"""Tests for the Nash best-response dynamics and best-channel baselines."""

import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

import hetnet_ee
from hetnet_ee import (
    NetworkInstance,
    optimal_sinr,
    sample_instance,
    solve_best_channel,
    solve_dense,
    solve_nash,
    solve_sparse,
    verify_nash,
)
from hetnet_ee import baselines, harness
from hetnet_ee.baselines import IterationReport, nash_batch
from hetnet_ee.model import (
    CONVERGED,
    STOPS,
    all_utilities,
    best_response,
    denominators,
    empty_allocation,
    hears_followers,
    leader_interference,
    make_result,
    respond,
    stack_instances,
)
from conftest import edge_cases, random_instance

GAMMA = 1.2564312086261697

# (seed, period) of K=5 F=4 dense Nash runs that cycle at 5 dB; seeds 88
# and 458 enter their cycle at sweep 19, the others by sweep 2
CYCLING = [(4, 2), (88, 2), (17, 3), (305, 4), (458, 5)]
CAPS = [1, 2, 3, 7, 999, 1000, 1001]


def cycling_instance(seed):
    return sample_instance(5, 4, mean_cross=0.5, snr_db=5.0, seed=seed)


def plain_iterate(step, alloc, max_iter, tol):
    """Reference fixed-point loop that runs every sweep, no cycle skip."""
    converged, sweeps, stop = False, 0, "cap"
    with np.errstate(over="ignore", invalid="ignore"):
        for sweeps in range(1, max_iter + 1):
            previous = alloc.copy()
            step(alloc)
            if not np.all(np.isfinite(alloc)):
                alloc, stop = previous, "overflow"
                break
            change = float(np.abs(alloc - previous).max())
            if change < tol * float(alloc.max()):
                converged, stop = True, "converged"
                break
    return alloc, IterationReport(converged, sweeps, stop)


def plain_batch_iterate(step, alloc, max_iter, tol):
    """:func:`plain_iterate` on the one-trial iterate of a ``solve_nash``
    call, returned as the batch loop returns it: the stop code and sweeps
    of each trial."""
    alloc, report = plain_iterate(step, alloc, max_iter, tol)
    run = STOPS.index(report.stop), report.iterations
    return alloc, *(np.array([value]) for value in run)


def batch_reports(stop, sweeps):
    """A batch core's per-trial arrays as one ``IterationReport`` per trial."""
    return [IterationReport(s == CONVERGED, n, STOPS[s])
            for s, n in zip(stop.tolist(), sweeps.tolist())]


def assert_same_run(fast, plain):
    (res, report), (ref, ref_report) = fast, plain
    assert res.allocation.tobytes() == ref.allocation.tobytes()
    assert res.utilities.tobytes() == ref.utilities.tobytes()
    assert res.active_carriers == ref.active_carriers
    assert report.converged == ref_report.converged
    assert report.iterations == ref_report.iterations
    expected_stop = {"cycle": "cap"}.get(report.stop, report.stop)
    assert ref_report.stop == expected_stop


def run_both(monkeypatch, solver, inst, model, regime, **kw):
    fast = solver(inst, model, regime, **kw)
    with monkeypatch.context() as m:
        m.setattr(baselines, "_iterate", plain_batch_iterate)
        plain = solver(inst, model, regime, **kw)
    return fast, plain


def near_critical_instance(model, b):
    """K=2, F=1, both pinned to carrier 0 with feedback gain ``b``."""
    c = math.sqrt(b) / model.gamma
    return NetworkInstance(g0=[1.0, 0.1], gf=[[1.0, 0.1]], h0=[c, 0.0], hf=[[c, 0.0]],
                           sigma2=1.0)


def best_channel_sweep(instance, gamma, regime):
    """Reference best-channel sweep: the leader at gamma against the current
    interference, then each follower in turn against the new leader row."""
    pins = instance.gains.argmax(axis=1).tolist()

    def step(alloc):
        k0 = pins[0]
        interference = (leader_interference(instance, alloc[1:], "dense") if regime == "dense"
                        else np.zeros(instance.carriers))
        alloc[0, k0] = gamma * (instance.sigma2 + interference[k0]) / instance.g0[k0]
        for f in range(instance.followers):
            k = pins[f + 1]
            denom = instance.sigma2 + instance.h0[k] * alloc[0, k]
            alloc[f + 1, k] = gamma * denom / instance.gf[f, k]

    return step


def power_iteration(instance, model, regime, max_iter=1000, tol=1e-10):
    """Reference best-channel solver: the sweep iterated from silence."""
    return plain_iterate(best_channel_sweep(instance, model.gamma, regime),
                         empty_allocation(instance), max_iter, tol)


def polish(step, alloc, max_iter=100_000):
    """Continue a sweep until no power moves by more than 1e-15 of the
    largest; the iteration's ``tol`` stops at 1e-10 of it."""
    alloc = alloc.copy()
    for _ in range(max_iter):
        previous = alloc.copy()
        step(alloc)
        if np.abs(alloc - previous).max() <= 1e-15 * alloc.max():
            return alloc
    raise AssertionError("reference sweep did not settle")


class TestCycleSkip:
    @pytest.mark.parametrize("seed,period", CYCLING)
    def test_matches_plain_loop_bit_for_bit(self, model, monkeypatch, seed, period):
        inst = cycling_instance(seed)
        for max_iter in CAPS:
            for tol in (1e-10, 0.0):
                fast, plain = run_both(monkeypatch, solve_nash, inst, model, "dense",
                                       max_iter=max_iter, tol=tol)
                assert_same_run(fast, plain)
        report = solve_nash(inst, model, "dense")[1]
        assert report.stop == "cycle" and report.iterations == 1000

    @pytest.mark.parametrize("seed,period", CYCLING)
    def test_iterate_repeats_with_the_period(self, model, seed, period):
        inst = cycling_instance(seed)
        last = solve_nash(inst, model, "dense")[0].allocation
        back = solve_nash(inst, model, "dense", max_iter=1000 - period)[0].allocation
        before = solve_nash(inst, model, "dense", max_iter=999)[0].allocation
        assert last.tobytes() == back.tobytes() != before.tobytes()

    def test_skips_almost_every_sweep(self, model, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return respond(*args)

        monkeypatch.setattr(baselines, "respond", counting)
        _, report = solve_nash(cycling_instance(4), model, "dense")
        assert report.iterations == 1000 and len(calls) < 60

    def test_exact_fixed_point_with_zero_tol_jumps_to_the_cap(self, model, monkeypatch):
        # tol=0 never converges; the sparse fixed point repeats with period 1
        inst = random_instance(np.random.default_rng(37))
        fast, plain = run_both(monkeypatch, solve_nash, inst, model, "sparse", tol=0.0)
        assert_same_run(fast, plain)
        report = fast[1]
        assert report.stop == "cycle" and report.iterations == 1000
        assert not report.converged

    def test_random_runs_match_plain_loop(self, model, monkeypatch):
        rng = np.random.default_rng(38)
        for _ in range(30):
            inst = random_instance(rng, k_range=(2, 6), f_range=(0, 4))
            for regime in ("dense", "sparse"):
                fast, plain = run_both(monkeypatch, solve_nash, inst, model, regime,
                                       max_iter=int(rng.integers(1, 200)))
                assert_same_run(fast, plain)

    def test_batch_rows_match_single_runs(self, model):
        # cycles of periods 2-5, entered at different sweeps, beside
        # converging runs: each row stops on its own
        rows = [cycling_instance(seed) for seed, _ in CYCLING]
        rows += [sample_instance(5, 4, mean_cross=0.5, snr_db=5.0, seed=s) for s in (1, 2)]
        batch = stack_instances(rows)
        for max_iter in CAPS:
            alloc, *run = nash_batch(batch, model, "dense", max_iter=max_iter)
            reports = batch_reports(*run)
            for t, inst in enumerate(rows):
                res, report = solve_nash(inst, model, "dense", max_iter=max_iter)
                assert alloc[t].tobytes() == res.allocation.tobytes(), (max_iter, t)
                assert reports[t] == report, (max_iter, t)
        assert {r.stop for r in reports} == {"cycle", "converged"}

    def test_stop_names(self, model):
        inst = cycling_instance(4)
        assert solve_nash(inst, model, "dense", max_iter=1)[1].stop == "cap"
        assert solve_nash(inst, model, "sparse")[1].stop == "converged"

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=edge_cases())
    def test_every_stop_is_a_named_stop(self, case):
        inst, model, _ = case
        for regime in ("dense", "sparse"):
            for solve in (solve_nash, solve_best_channel):
                assert solve(inst, model, regime)[1].stop in STOPS


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

    def test_converged_run_is_at_the_fixed_point_at_high_snr(self, model):
        # an absolute stop ended this 60 dB run after 7 sweeps, 8.6e-6 off
        inst = sample_instance(5, 4, snr_db=60.0, seed=116)
        res, report = solve_nash(inst, model, "dense")
        ref, ref_report = solve_nash(inst, model, "dense", tol=0.0)
        assert report.converged and ref_report.stop == "cycle"
        assert_allclose(res.utilities, ref.utilities, rtol=1e-10, atol=0.0)

    def test_rows_stay_single_band(self, model):
        rng = np.random.default_rng(33)
        inst = random_instance(rng)
        res, _ = solve_nash(inst, model, "dense")
        assert np.all((res.allocation > 0).sum(axis=1) <= 1)

    def test_report_consistency(self, model):
        inst = random_instance(np.random.default_rng(34))
        res, report = solve_nash(inst, model, "dense", tol=1e-10)
        # the report is the batch core's record of this run
        run = nash_batch(stack_instances((inst,)), model, "dense", tol=1e-10)[1:]
        assert report == batch_reports(*run)[0]

    def test_max_iter_validation(self, model):
        inst = random_instance(np.random.default_rng(35))
        with pytest.raises(ValueError):
            solve_nash(inst, model, "dense", max_iter=0)

    def test_unknown_regime_is_rejected(self, model):
        batch = stack_instances([random_instance(np.random.default_rng(35))])
        with pytest.raises(ValueError, match="regime must be one of"):
            nash_batch(batch, model, "mixed")


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

    def test_divergence_is_infeasible_without_warning(self, model):
        # a power iteration overflows here after 352 sweeps; the closed
        # form names the state instead
        inst = sample_instance(5, 4, mean_cross=0.5, snr_db=-5.0, seed=189)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res, report = solve_best_channel(inst, model, "dense")
        assert not report.converged and report.stop == "infeasible"
        assert report.iterations == 0 and res.diagnostics["feedback_gain"] >= 1.0
        assert np.all(np.isfinite(res.allocation)) and np.all(np.isfinite(res.utilities))

    @pytest.mark.parametrize("regime", ["dense", "sparse"])
    @pytest.mark.parametrize("gf, h0", [([[1.0, 0.5]], [0.5, 0.5]), ([[0.5, 1.0]], [0.5, 0.0])])
    def test_overflowing_power_is_named_without_warning(self, model, regime, gf, h0):
        # the leader's power gamma sigma2 / 2e-310 passes the float range; the
        # follower's carrier is another, or the leader's without cross gain
        inst = NetworkInstance(g0=[1e-310, 2e-310], gf=gf, h0=h0, hf=[[0.5, 0.5]], sigma2=1e6)
        normal = sample_instance(2, 1, snr_db=10.0, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res, report = solve_best_channel(inst, model, regime)
            alloc, stop, _, b = baselines.best_channel_batch(
                stack_instances([normal, inst]), model, regime)
            flags = harness.run_batch("best_channel", stack_instances([inst]), model, regime)[1]
        assert not report.converged and report.stop == "overflow"
        assert res.diagnostics["feedback_gain"] < 1.0 and not flags.any()
        # the leader's row is zeroed, the follower's is exact
        k = int(np.argmax(gf[0]))
        assert not res.allocation[0].any() and res.active_carriers == (None, k)
        assert_allclose(res.allocation[1, k], GAMMA * 1e6 / gf[0][k], rtol=1e-12)
        assert np.all(np.isfinite(res.utilities))
        # a trial beside it in a batch is untouched
        converged = stop == CONVERGED
        assert converged.tolist() == [True, False]
        single, _, _, _ = baselines.best_channel_batch(stack_instances([normal]), model, regime)
        assert alloc[0].tobytes() == single[0].tobytes()
        assert alloc[1].tobytes() == res.allocation.tobytes()

    @pytest.mark.parametrize("regime, feedback_gain", [("dense", math.nan), ("sparse", 0.0)])
    def test_nan_feedback_gain_is_named_overflow(self, model, regime, feedback_gain):
        # both players pin carrier 1; hf / gf there passes the float range,
        # and without cross gain the dense b is 0 * inf
        inst = NetworkInstance(g0=[1.0, 2.0], gf=[[1e-310, 2e-310]], h0=[0.0, 0.0],
                               hf=[[1.0, 1.0]], sigma2=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, stop, _, b = baselines.best_channel_batch(stack_instances([inst]), model, regime)
            res, report = solve_best_channel(inst, model, regime)
        assert [STOPS[s] for s in stop] == ["overflow"]
        assert not report.converged and report.stop == "overflow"
        assert np.array_equal(b, [feedback_gain], equal_nan=True)
        assert np.array_equal(res.diagnostics["feedback_gain"], feedback_gain, equal_nan=True)

    @pytest.mark.parametrize("b", [0.9, 0.99])
    def test_near_critical_feedback_reaches_the_fixed_point(self, model, b):
        inst = near_critical_instance(model, b)
        res, report = solve_best_channel(inst, model, "dense")
        assert report.converged and report.stop == "converged"
        gamma, c = Fraction(model.gamma), Fraction(float(inst.h0[0]))
        gain = gamma * gamma * c * c  # b as the inputs hold it, exactly
        p0 = gamma * (1 + gamma * c) / (1 - gain)  # A / (1 - b)
        assert abs(Fraction(float(res.allocation[0, 0])) / p0 - 1) <= 1e-14

    def test_just_past_critical_feedback_is_infeasible(self, model):
        inst = near_critical_instance(model, 1.0 + 1e-6)
        res, report = solve_best_channel(inst, model, "dense")
        assert not report.converged and report.stop == "infeasible"
        assert res.diagnostics["feedback_gain"] >= 1.0
        # leader and follower share carrier 0, the k0 coalition
        assert not res.allocation.any() and res.active_carriers == (None, None)
        assert np.array_equal(res.utilities, [0.0, 0.0])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=edge_cases())
    def test_matches_the_power_iteration(self, case):
        inst, model, regime = case
        ref, ref_report = power_iteration(inst, model, regime)
        res, report = solve_best_channel(inst, model, regime)
        b = res.diagnostics["feedback_gain"]
        assert report.converged == (b < 1.0)
        assert np.all(np.isfinite(res.utilities))
        if ref_report.converged != report.converged:
            # still creeping toward a fixed point that exists
            assert ref_report.stop == "cap" and b < 1.0
        if not report.converged:
            pins = inst.gains.argmax(axis=1)
            coalition = pins == pins[0]
            assert not res.allocation[coalition].any()
            assert res.allocation[~coalition].tobytes() == ref[~coalition].tobytes()
            return
        if regime == "sparse":
            assert res.allocation.tobytes() == ref.tobytes()
        # the closed form is a fixed point of the swept map ...
        moved = res.allocation.copy()
        best_channel_sweep(inst, model.gamma, regime)(moved)
        assert np.all(np.abs(moved - res.allocation) <= 1e-14 * res.allocation)
        # ... and the one the iteration approaches
        if ref_report.converged:
            polished = polish(best_channel_sweep(inst, model.gamma, regime), ref)
            ref_utilities = make_result(inst, model, polished, regime).utilities
            assert_allclose(res.utilities, ref_utilities, rtol=1e-7, atol=0.0)

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

    def test_sweep_leaves_numpy_ma_unloaded(self, tmp_path):
        # trials with several coupled-follower counts, grouped without np.unique
        code = (
            "import sys\n"
            "from hetnet_ee import harness\n"
            "config = harness.ScenarioConfig(carriers=(5,), followers=4, trials=20, seed=3,\n"
            "                                schemes=('best_channel',), verify_fraction=0.0,\n"
            f"                                output_path={str(tmp_path / 'run.csv')!r})\n"
            "rows = harness.write_records(harness.run_sweep(config), config.output_path)\n"
            "print(rows, 'numpy.ma' in sys.modules)\n"
        )
        src = str(Path(hetnet_ee.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.split() == [str(7 * 20 * 5), "False"]


def pure_equilibria(instance, model, regime):
    """Every pure Nash equilibrium of ``instance``, ``(N, F+1, K)``, and each
    one's carriers ``(N, F+1)``: all K^(F+1) carrier assignments, each at
    its target-SINR powers, kept where :func:`best_response` to
    :func:`denominators` picks every player's own carrier.

    Only the leader's carrier ``k0`` couples players.  Its followers need
    ``gamma (sigma2 + h0 p0) / gf`` and the leader ``p0 = gamma sigma2 (1 +
    gamma eta) / g0 / (1 - b)``, ``b = gamma^2 eta h0 / g0``, with ``eta``
    their summed ``hf / gf`` (0 in the sparse regime); ``b >= 1`` has no
    such powers."""
    gamma, sigma2, f = model.gamma, instance.sigma2, instance.followers
    carriers = np.indices((instance.carriers,) * instance.players).reshape(instance.players, -1).T
    n, k0, own = len(carriers), carriers[:, 0], carriers[:, 1:]
    rows, shared = np.arange(f), own == k0[:, None]
    eta = np.where(shared, instance.hf[rows, own] / instance.gf[rows, own], 0.0).sum(axis=1)
    eta *= hears_followers(regime)
    g0, h0 = instance.g0[k0], instance.h0[k0]
    b = gamma * gamma * eta * h0 / g0
    p0 = gamma * sigma2 * (1.0 + gamma * eta) / g0 / (1.0 - b)
    alloc = np.zeros((n, instance.players, instance.carriers))
    alloc[np.arange(n), 0, k0] = p0
    heard = sigma2 + np.where(shared, (h0 * p0)[:, None], 0.0)
    alloc[np.arange(n)[:, None], rows + 1, own] = gamma * heard / instance.gf[rows, own]
    alloc, carriers = alloc[b < 1.0], carriers[b < 1.0]
    _, chosen = best_response(instance.gains, denominators(instance, alloc, regime), gamma)
    stable = (chosen == carriers).all(axis=1)
    return alloc[stable], carriers[stable]


class TestStackelbergOverPureNash:
    @pytest.mark.parametrize("regime", ["dense", "sparse"])
    def test_leader_gets_at_least_every_pure_equilibrium(self, model, regime):
        """Criterion 5's shape (K=5, F=4, mean cross gain 0.5, m=2), 20
        seeded instances at each of -5..25 dB: no pure NE gives the leader
        more than the Stackelberg leader gets, to 1e-12 relative.  Every NE
        found passes the Nash oracle, and a converged Nash run lands on one."""
        solve = solve_dense if hears_followers(regime) else solve_sparse
        found = landed = 0
        for snr in range(-5, 26, 5):
            for seed in range(70_000 + 100 * snr, 70_020 + 100 * snr):
                inst = sample_instance(5, 4, snr_db=float(snr), seed=seed, mean_cross=0.5)
                equilibria, carriers = pure_equilibria(inst, model, regime)
                found += len(equilibria)
                leader = solve(inst, model).utilities[0]
                ne_leaders = all_utilities(inst, model, equilibria, regime)[:, 0]
                assert np.all(leader >= ne_leaders * (1.0 - 1e-12)), (snr, seed)
                for alloc in equilibria:
                    assert all(r.passed for r in verify_nash(inst, model, alloc, regime))
                res, report = solve_nash(inst, model, regime)
                if report.converged:
                    landed += 1
                    assert list(res.active_carriers) in carriers.tolist(), (snr, seed)
        assert found >= 100 and landed >= 100, (found, landed)
