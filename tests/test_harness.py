"""Tests for the Monte-Carlo sweep harness, CSV formats, and summaries."""

import dataclasses
import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hetnet_ee import (
    EfficiencyModel,
    NetworkInstance,
    ScenarioConfig,
    optimal_sinr,
    sample_instance,
    solve_best_channel,
    solve_dense,
    solve_nash,
    solve_sparse,
)
from hetnet_ee import dense, harness, oracle
from hetnet_ee.model import REGIMES, allocate, outcomes, stack_instances
from conftest import edge_cases, extreme_batch
from hetnet_ee.harness import (
    CSV_HEADER,
    SweepRecord,
    carrier_trend,
    config_from_values,
    load_config_file,
    paired_gap,
    read_records,
    run_sweep,
    summarize,
    write_records,
)


def tiny_config(**overrides):
    kw = dict(carriers=(3,), followers=1, snr_db=(0.0, 10.0), trials=3,
              seed=7, schemes=("stackelberg", "nash"), regime="dense",
              verify_fraction=0.0, output_path="sweep.csv")
    kw.update(overrides)
    return ScenarioConfig(**kw)


class TestScenarioConfig:
    def test_defaults_are_valid(self):
        cfg = ScenarioConfig()
        assert cfg.carriers == (5,) and cfg.trials == 500

    @pytest.mark.parametrize("bad", [
        dict(trials=0),
        dict(schemes=()),
        dict(schemes=("waterfilling",)),
        dict(regime="duplex"),
        dict(carriers=(2,), followers=4),
        dict(verify_fraction=1.5),
        dict(carriers=(1,), followers=0),
        dict(mean_signal=0.0),
        dict(mean_signal=-1.0),
        dict(mean_signal=math.inf),
        dict(mean_signal=math.nan),
        dict(mean_cross=-0.5),
        dict(mean_cross=math.inf),
        dict(mean_cross=math.nan),
        dict(rates=0.0),
        dict(rates=math.inf),
        dict(rates=(1.0, -2.0)),
        dict(rates=(1.0, math.nan)),
        dict(rates=(1.0, 2.0, 3.0)),
        dict(carriers=()),
        dict(snr_db=()),
        dict(schemes=("nash", "nash")),
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            tiny_config(**bad)


    def test_rejects_a_nonpositive_snr_step(self):
        with pytest.raises(ValueError, match="SNR step must be positive"):
            config_from_values({}, {"snr_db": "0:10:0"})

    @pytest.mark.parametrize("text, points", [
        ("-5:25:5", (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0)),
        ("0:1:0.1", (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)),
        ("0.5:2:0.7", (0.5, 1.2, 1.9)),
        ("10:10:1", (10.0,)),
    ])
    def test_snr_range_points(self, text, points):
        assert config_from_values({}, {"snr_db": text}).snr_db == points

    @pytest.mark.parametrize("rates", [2.0, (1.0, 2.0)])
    def test_accepts_rates_that_fit(self, rates):
        assert tiny_config(rates=rates).rates == rates


class TestRunSweep:
    def test_record_count_and_shape(self):
        cfg = tiny_config()
        records = list(run_sweep(cfg))
        # points(2) * trials(3) * schemes(2) * players(2)
        assert len(records) == 2 * 3 * 2 * 2
        assert all(r.carriers == 3 and r.followers == 1 for r in records)

    def test_paired_schemes_share_the_instance(self):
        records = list(run_sweep(tiny_config()))
        by_trial = {}
        for r in records:
            by_trial.setdefault((r.snr_db, r.trial), set()).add(r.instance_digest)
        assert all(len(digests) == 1 for digests in by_trial.values())

    def test_single_point_leader_utility(self):
        """F=0, one trial: the lone record carries the closed-form value."""
        cfg = tiny_config(carriers=(4,), followers=0, snr_db=(10.0,), trials=1,
                          schemes=("stackelberg",))
        records = list(run_sweep(cfg))
        assert len(records) == 1
        r = records[0]
        inst = sample_instance(4, 0, mean_signal=cfg.mean_signal,
                               mean_cross=cfg.mean_cross, snr_db=10.0, seed=r.seed)
        model = EfficiencyModel(m=2)
        gamma = optimal_sinr(model)
        b0 = int(np.argmax(inst.g0))
        expected = model.value(gamma) * inst.g0[b0] / (gamma * inst.sigma2)
        assert_allclose(r.utility, expected, rtol=1e-12)
        assert r.active_carrier == b0 and r.converged

    def test_trial_seeds_differ(self):
        records = list(run_sweep(tiny_config()))
        seeds = {(r.snr_db, r.trial): r.seed for r in records}
        assert len(set(seeds.values())) == len(seeds)

    def test_verification_marks_records(self):
        cfg = tiny_config(verify_fraction=1.0, trials=2)
        records = list(run_sweep(cfg))
        stackelberg = [r for r in records if r.scheme == "stackelberg"]
        assert all(r.verified == "pass" for r in stackelberg)
        best = [r for r in records if r.scheme == "best_channel"]
        assert all(r.verified == "" for r in best)

    def test_unconverged_nash_is_not_verified(self):
        # two of these Nash runs cycle without converging
        cfg = tiny_config(carriers=(5,), followers=4, snr_db=(0.0, 10.0, 20.0), trials=8,
                          seed=9, verify_fraction=1.0)
        records = list(run_sweep(cfg))
        stuck = {(r.snr_db, r.trial) for r in records if not r.converged}
        assert len(stuck) == 2
        for r in records:
            assert r.verified == ("pass" if r.converged else ""), r

    def test_scheme_errors_propagate(self, monkeypatch):
        def broken(batch, model):
            raise ZeroDivisionError("solver bug")

        # sweeps run the dense stackelberg leader through the slot table
        monkeypatch.setattr(dense, "dense_batch", broken)
        with pytest.raises(ZeroDivisionError, match="solver bug"):
            list(run_sweep(tiny_config()))

    def test_large_exponent_sweep_has_no_nan_rows(self):
        records = list(run_sweep(ScenarioConfig(m_exponent=50, trials=20, seed=3)))
        assert len(records) == 7 * 20 * 3 * 5
        assert not any(math.isnan(r.utility) for r in records)


# sweeps whose CSV bytes are pinned: all three schemes, a quarter of the
# trials certified, SNR from -30 to 60 dB, m = 2 and 5; the dense one has
# cycling Nash runs (those of test_unconverged_nash_is_not_verified), the
# sparse one per-player rates, and the wide one the K=64 F=32 sparse shape
# that writes 33 rows per scheme-trial
GOLDEN = {
    "dense": (
        dict(carriers=(5, 7), followers=4, snr_db=(0.0, 10.0, 20.0, -30.0, 60.0), trials=8,
             seed=9, m_exponent=2, regime="dense", verify_fraction=0.25),
        "24425f761a5c5812273fe2d59b27b2f1ecdcbd5125dea3ef94641630d86e864c",
    ),
    "sparse": (
        dict(carriers=(3, 6), followers=2, snr_db=(-30.0, 0.0, 25.0, 60.0), trials=10, seed=4,
             m_exponent=5, regime="sparse", mean_cross=2.0, rates=(1.0, 2.0, 0.5),
             verify_fraction=0.25),
        "d859f97ce65137632eedecdbcfb1f07118b189f9d8e3f041f7eeb4448d65a718",
    ),
    "wide": (
        dict(carriers=(64,), followers=32, snr_db=(0.0, 10.0, 20.0), trials=2, regime="sparse",
             verify_fraction=0.25),
        "93950d791148a8e02eb2313297d97013796e878235b34f9c1bc78ff594afecc9",
    ),
    # a base seed of three 32-bit words: each trial hashes five entropy words,
    # one past numpy's four-word pool
    "big_seed": (
        dict(carriers=(5,), followers=4, snr_db=(0.0, 20.0, -30.0), trials=6, seed=2**64 + 5,
             regime="dense", verify_fraction=0.25),
        "d49900d001afb16e402385b28e881d5fa855e8f54c9aa81eb79e63aebaa951ad",
    ),
}


def sweep_sha(tmp_path, **kw):
    path = tmp_path / "golden.csv"
    write_records(run_sweep(ScenarioConfig(output_path=str(path), **kw)), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestBatchedSweep:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_bytes(self, tmp_path, name):
        kw, sha = GOLDEN[name]
        records = list(run_sweep(ScenarioConfig(**kw)))
        assert {r.verified for r in records} >= {"pass", ""}
        if name == "dense":
            assert not all(r.converged for r in records if r.scheme == "nash")
        assert sweep_sha(tmp_path, **kw) == sha

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    @pytest.mark.parametrize("size", [1, 7, 5])
    def test_bytes_do_not_depend_on_the_chunks(self, tmp_path, monkeypatch, name, size):
        kw, sha = GOLDEN[name]
        # every trial alone, the largest carrier count in chunks of 7 by
        # the cell cap, or every carrier count in chunks of 5 by the trial cap
        cells = max(kw["carriers"]) * (kw["followers"] + 2)
        if size == 5:
            monkeypatch.setattr(harness, "CHUNK_TRIALS", size)
            assert harness.CHUNK_CELLS // cells > size
        else:
            monkeypatch.setattr(harness, "CHUNK_CELLS", 1 if size == 1 else size * cells)
        sizes = []

        # the sweep samples each chunk from its slice of the trial seeds
        def spy(*args, seeds, **kwargs):
            sizes.append(len(seeds))
            return sample(*args, seeds=seeds, **kwargs)

        sample = harness.sample_batch
        monkeypatch.setattr(harness, "sample_batch", spy)
        assert sweep_sha(tmp_path, **kw) == sha
        # a plan shorter than the chunk is one chunk
        plan = kw["trials"] * len(kw["snr_db"])
        assert min(size, plan) in sizes and (size > 1 or set(sizes) == {1})
        # the trial cap binds on every carrier count
        assert size != 5 or max(sizes) == 5

    @pytest.mark.parametrize("carriers, followers", [(5, 4), (20, 12), (64, 32), (128, 127),
                                                     (256, 255)])
    def test_chunks_are_capped_by_trials_and_by_cells(self, carriers, followers):
        sizes = [len(chunk) for chunk in harness.chunked(range(1000), carriers, followers)]
        assert sum(sizes) == 1000 and min(sizes) >= 1 and max(sizes) <= harness.CHUNK_TRIALS
        # small shapes are capped by trials, wide ones by cells (K=64, F=32
        # past the old three trials), super-dense ones hold one trial
        expected = {(5, 4): harness.CHUNK_TRIALS, (20, 12): harness.CHUNK_CELLS // 280,
                    (64, 32): harness.CHUNK_CELLS // 2176}.get((carriers, followers), 1)
        assert sizes[0] == expected and set(sizes[:-1]) <= {expected}
        assert harness.CHUNK_CELLS // 2176 > 3

    def test_failed_sweep_keeps_the_rows_before_its_failing_chunk(self, tmp_path, monkeypatch):
        kw, sha = GOLDEN["dense"]
        # K=5 chunks of 7 trials; the first K=5 chunk is the first 7 * 3 * 5 rows
        monkeypatch.setattr(harness, "CHUNK_CELLS", 7 * 5 * (kw["followers"] + 2))
        good = tmp_path / "good.csv"
        write_records(run_sweep(ScenarioConfig(**kw)), good)
        assert hashlib.sha256(good.read_bytes()).hexdigest() == sha
        calls = []

        def second_raises(batch, model):
            calls.append(batch.trials)
            if len(calls) == 2:
                raise ZeroDivisionError("solver bug")
            return dense_batch(batch, model)

        dense_batch = dense.dense_batch
        monkeypatch.setattr(dense, "dense_batch", second_raises)
        failed = tmp_path / "failed.csv"
        with pytest.raises(ZeroDivisionError, match="solver bug"):
            write_records(run_sweep(ScenarioConfig(**kw)), failed)
        assert calls == [7, 7]
        lines = good.read_bytes().splitlines(keepends=True)
        assert failed.read_bytes() == b"".join(lines[:1 + 7 * 3 * 5])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=edge_cases())
    def test_batch_rows_equal_single_runs(self, case):
        inst, model, regime = case
        k, f = inst.carriers, inst.followers
        # the edge case between two drawn instances of its shape
        rows = [sample_instance(k, f, snr_db=snr, seed=seed) for snr, seed in ((-10.0, 1), (40.0, 2))]
        rows.insert(1, inst)
        batch = stack_instances(rows)
        # stackelberg has no report: it converges when every power is finite
        stackelberg = solve_sparse if regime == "sparse" else solve_dense
        single = {
            "stackelberg": lambda instance: (stackelberg(instance, model), None),
            "nash": lambda instance: solve_nash(instance, model, regime),
            "best_channel": lambda instance: solve_best_channel(instance, model, regime),
        }
        for scheme in harness.SCHEMES:
            alloc, converged = harness.run_batch(scheme, batch, model, regime)
            utilities, active = outcomes(batch, model, alloc, regime)
            for t, instance in enumerate(rows):
                result, report = single[scheme](instance)
                assert alloc[t].tobytes() == result.allocation.tobytes(), (scheme, t)
                assert utilities[t].tobytes() == result.utilities.tobytes(), (scheme, t)
                assert [None if c < 0 else c for c in active[t].tolist()] == list(
                    result.active_carriers)
                finite = np.isfinite(result.allocation).all()
                assert converged[t] == (finite if report is None else report.converged)


    @staticmethod
    def assert_rows_rebuild(batch, model, regime):
        """Every scheme's allocation is its carriers and its leader's power:
        the leader's row holds that power on its carrier, and each follower's
        row is `target_powers` on its carrier against that row (`allocate`),
        bit for bit, with no RuntimeWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for scheme in harness.SCHEMES:
                alloc, _ = harness.run_batch(scheme, batch, model, regime)
                active = outcomes(batch, model, alloc, regime)[1]
                again = allocate(batch, model.gamma, active, alloc[:, 0].max(axis=-1))
                assert again.tobytes() == alloc.tobytes(), scheme

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=edge_cases())
    def test_allocations_rebuild_from_carriers_and_leader_power(self, case):
        inst, model, regime = case
        self.assert_rows_rebuild(stack_instances([inst]), model, regime)

    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("seed", range(3))
    def test_allocations_rebuild_past_the_float_range(self, model, seed, regime):
        self.assert_rows_rebuild(extreme_batch(seed), model, regime)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=edge_cases())
    def test_batch_rows_are_certified(self, case):
        """Every claim of every scheme on `edge_cases`, converged Nash runs
        included, passes at the one default tolerance."""
        inst, model, regime = case
        batch = stack_instances([inst])
        for scheme in harness.SCHEMES:
            alloc, converged = harness.run_batch(scheme, batch, model, regime)
            reports = harness.verify_batch(scheme, batch, model, alloc, converged,
                                           regime).reports(0)
            assert all(r.passed and r.tolerance == oracle.TOL for r in reports), (scheme, reports)
            # every player on one carrier at most, and a rerun bit for bit
            assert ((alloc > 0.0).sum(axis=-1) <= 1).all(), (scheme, alloc)
            again, converged_again = harness.run_batch(scheme, batch, model, regime)
            assert again.tobytes() == alloc.tobytes()
            assert converged_again.tobytes() == converged.tobytes()

    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("h0", [[1.0, 1.0], [0.0, 0.0]], ids=["cross", "no_cross"])
    def test_overflowing_stackelberg_claims_nothing(self, model, regime, h0):
        # the leader's power gamma sigma2 / 2e-310 passes the float range; the
        # follower takes the other carrier, where it hears no leader
        inst = NetworkInstance(g0=[1e-310, 2e-310], gf=[[1.0, 0.5]], h0=h0, hf=[[1.0, 1.0]],
                               sigma2=1e6)
        batch = stack_instances([inst])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alloc, converged = harness.run_batch("stackelberg", batch, model, regime)
            checks = harness.verify_batch("stackelberg", batch, model, alloc, converged, regime)
            utilities, active = outcomes(batch, model, alloc, regime)
        assert alloc[0, 0].tolist() == [0.0, math.inf] and converged.tolist() == [False]
        assert checks.claims.tolist() == [False] and checks.reports(0) == []
        assert_allclose(alloc[0, 1], [optimal_sinr(model) * 1e6, 0.0], rtol=1e-15)
        assert active.tolist() == [[1, 0]] and utilities[0, 1] > 0.0

    def test_extreme_gains_raise_no_warning(self, model):
        """1,500 K=3, F=2 instances with gains from 5e-324 to 1e300, cross
        gains from {0, 0.5, 3} and noise from {1e-6, 1, 1e6}: every scheme
        runs and is checked in both regimes without a RuntimeWarning, and
        every converged stackelberg claim passes."""
        batch = extreme_batch(26)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for regime in REGIMES:
                for scheme in harness.SCHEMES:
                    alloc, converged = harness.run_batch(scheme, batch, model, regime)
                    outcomes(batch, model, alloc, regime)
                    checks = harness.verify_batch(scheme, batch, model, alloc, converged, regime)
                    if scheme == "stackelberg":
                        assert checks.claims.sum() > 1_300
                        assert checks.passed[checks.claims].all(), regime

    @pytest.mark.parametrize("scheme, regime, message", [
        ("bogus", "dense", "unknown scheme 'bogus'"),
        ("best_channel", "Dense", "regime must be one of ('sparse', 'dense'), got 'Dense'"),
    ])
    def test_verify_rejects_what_run_batch_rejects(self, model, scheme, regime, message):
        batch = stack_instances([sample_instance(3, 1, seed=1)])
        alloc, converged = harness.run_batch("best_channel", batch, model, "dense")
        for call in (lambda: harness.run_batch(scheme, batch, model, regime),
                     lambda: harness.verify_batch(scheme, batch, model, alloc, converged,
                                                  regime)):
            with pytest.raises(ValueError, match=re.escape(message)):
                call()


class TestCsvRoundTrip:
    def test_header_is_pinned(self):
        assert CSV_HEADER == ("scheme,regime,snr_db,carriers,followers,trial,seed,"
                              "leader_power,player,utility,active_carrier,converged,verified")
        assert harness.SUMMARY_HEADER == (
            "scheme,regime,snr_db,carriers,followers,trials,leader_mean,leader_std,"
            "leader_ci95,follower_mean,follower_std,follower_ci95,convergence_rate")

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_config()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records(run_sweep(cfg), p1)
        write_records(run_sweep(cfg), p2)
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        assert b1 == b2
        assert b1.endswith(b"\n")

    def test_round_trip(self, tmp_path):
        cfg = tiny_config(verify_fraction=0.5)
        path = tmp_path / "s.csv"
        records = list(run_sweep(cfg))
        # an overflowing best-channel row: no carrier, not converged, an infinite leader
        records.append(dataclasses.replace(records[-1], scheme="best_channel",
                                           active_carrier=None, converged=False,
                                           leader_power=math.inf))
        assert {r.verified for r in records} == {"pass", ""}
        write_records(records, path)
        back = read_records(path)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            for f in dataclasses.fields(SweepRecord):
                if f.name in ("snr_db", "utility"):
                    assert_allclose(getattr(b, f.name), getattr(a, f.name), rtol=1e-11)
                elif f.compare:
                    assert getattr(b, f.name) == getattr(a, f.name), f.name
        assert (back[-1].active_carrier, back[-1].converged) == (None, False)

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("one,two\n1,2\n")
        with pytest.raises(ValueError):
            read_records(path)

    @pytest.mark.parametrize("end", ["", "\n"])
    def test_header_only_file_has_no_records(self, tmp_path, end):
        path = tmp_path / "empty.csv"
        path.write_text(CSV_HEADER + end)
        assert read_records(path) == []

    def test_last_line_without_newline_reads(self, tmp_path):
        records = [synth_record(trial=t, utility=0.5 * t) for t in range(3)]
        path = tmp_path / "s.csv"
        write_records(records, path)
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        assert read_records(path) == records

    @pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1), (2, 0, 1), (0, 0, 1), (0, 3, 1),
                                       (4, 0, 2), (0, 0, 4, 3)])
    def test_malformed_row_is_the_first_bad_line(self, tmp_path, order):
        good = reference_line(synth_record())
        assert good.endswith(",true,")
        # good rows, an unknown scheme, a short row, and a converged and a
        # verified cell no sweep writes (an upper-case TRUE read as false);
        # the last line has no newline
        lines = [good, good.replace("stackelberg", "bogus", 1), "stackelberg,dense",
                 good[:-len("true,")] + "TRUE,", good + "ok"]
        lines = [lines[i] for i in order]
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([CSV_HEADER, *lines]))
        bad = next(i for i, line in enumerate(lines) if line != good)
        text = lines[bad] + ("" if bad == len(lines) - 1 else "\n")
        with pytest.raises(ValueError, match=re.escape(f"malformed CSV row: {text!r}")):
            read_records(path)

    def test_bad_cell_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n" + reference_line(synth_record()).replace(",3,", ",x,", 1))
        with pytest.raises(ValueError, match="invalid literal for int"):
            read_records(path)


def _fmt(x):
    return f"{x:.12g}"


def reference_line(r: SweepRecord) -> str:
    """Reference CSV row of one record, built cell by cell: floats with 12
    significant digits, "" for no carrier, "true"/"false" for converged."""
    return ",".join(
        (
            r.scheme,
            r.regime,
            _fmt(r.snr_db),
            str(r.carriers),
            str(r.followers),
            str(r.trial),
            str(r.seed),
            "%.17g" % r.leader_power,
            str(r.player),
            _fmt(r.utility),
            "" if r.active_carrier is None else str(r.active_carrier),
            "true" if r.converged else "false",
            r.verified,
        )
    )


# nan, infinities, signed zero, subnormals and a huge value, as Python and
# as numpy floats
_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.5e-310, 1e300, -1e300]
CELL_FLOATS = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.sampled_from(_EDGE_FLOATS).map(np.float64),
    st.floats(),
    st.floats().map(np.float64),
)
# a leader's power is nonnegative or NaN, written to round-trip
_EDGE_POWERS = [math.nan, math.inf, 0.0, 5e-324, 2.5e-310, 1e300]
POWER_FLOATS = st.one_of(
    st.sampled_from(_EDGE_POWERS),
    st.sampled_from(_EDGE_POWERS).map(np.float64),
    st.floats(min_value=0.0),
    st.floats(min_value=0.0).map(np.float64),
)

RECORDS = st.builds(
    SweepRecord,
    scheme=st.sampled_from(harness.SCHEMES),
    regime=st.sampled_from(REGIMES),
    snr_db=CELL_FLOATS | st.integers(-60, 60),
    carriers=st.integers(2, 64),
    followers=st.integers(0, 63),
    trial=st.integers(0, 10**6),
    seed=st.sampled_from([0, 2**32 - 1]) | st.integers(0, 2**32 - 1),
    leader_power=POWER_FLOATS,
    player=st.integers(0, 63),
    utility=CELL_FLOATS,
    active_carrier=st.sampled_from([None, 0]) | st.integers(0, 63),
    converged=st.booleans(),
    verified=st.sampled_from(["", "pass", "fail"]),
    instance_digest=st.sampled_from(["", "0123456789abcdef"]),
)


# values that are equal but format apart ("0" and "-0", "5" and "5.0"), and
# nan, which equals nothing
TWINS = [0.0, -0.0, 5, 5.0, np.float64(5), np.int64(5), math.nan, np.float64(math.nan)]
PREFIX = [f.name for f in dataclasses.fields(SweepRecord)][:8]
TAIL = [f.name for f in dataclasses.fields(SweepRecord)][8:]


@st.composite
def prefix_runs(draw):
    """Records in runs that share their first eight fields as objects, as a
    sweep's (trial, scheme) rows do; each run changes one of those fields."""
    values = [getattr(draw(RECORDS), name) for name in PREFIX]
    records = []
    for _ in range(draw(st.integers(1, 8))):
        i = draw(st.integers(0, 7))
        values[i] = draw(st.sampled_from((harness.SCHEMES, REGIMES, *[TWINS] * 6)[i]))
        for _ in range(draw(st.integers(1, 3))):
            tail = draw(RECORDS)
            records.append(SweepRecord(*values, *[getattr(tail, name) for name in TAIL]))
    return records


def expected_csv(records) -> bytes:
    return "".join(line + "\n" for line in [CSV_HEADER, *map(reference_line, records)]).encode()


class TestRowFormat:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(records=st.lists(RECORDS, max_size=12))
    def test_rows_match_the_reference_and_read_back(self, tmp_path_factory, records):
        path = tmp_path_factory.getbasetemp() / "rows.csv"
        assert write_records(records, path) == len(records)
        assert path.read_bytes() == expected_csv(records)
        back = read_records(path)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            for f in dataclasses.fields(SweepRecord):
                if f.name in ("snr_db", "utility"):
                    # the 12-digit text, read back: repr tells nan and -0.0 apart
                    assert repr(getattr(b, f.name)) == repr(float(_fmt(getattr(a, f.name))))
                elif f.name == "leader_power":  # bit for bit
                    assert repr(b.leader_power) == repr(float(a.leader_power))
                elif f.compare:
                    assert getattr(b, f.name) == getattr(a, f.name), f.name
            assert b.instance_digest == ""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(records=prefix_runs())
    def test_shared_prefixes_match_the_reference(self, tmp_path_factory, records):
        path = tmp_path_factory.getbasetemp() / "runs.csv"
        assert write_records(iter(records), path) == len(records)
        assert path.read_bytes() == expected_csv(records)

    def test_record_type_is_slotted(self):
        record = synth_record(utility=1.0)
        assert not hasattr(record, "__dict__")
        changed = dataclasses.replace(record, utility=2.0)
        assert (changed.utility, record.utility) == (2.0, 1.0)
        assert changed != record
        assert dataclasses.replace(record, instance_digest="0123456789abcdef") == record


def synth_record(scheme="stackelberg", snr_db=0.0, carriers=3, trial=0,
                 player=0, utility=1.0, converged=True):
    return SweepRecord(scheme=scheme, regime="dense", snr_db=snr_db,
                       carriers=carriers, followers=1, trial=trial, seed=trial,
                       leader_power=1.0, player=player, utility=utility, active_carrier=0,
                       converged=converged, verified="")


class TestSummarize:
    def test_single_record(self):
        rows = summarize([synth_record(utility=2.5)])
        assert len(rows) == 1
        assert rows[0].leader_mean == 2.5
        assert rows[0].leader_std == 0.0
        assert rows[0].leader_ci95 == 0.0

    def test_spread_is_the_sample_std(self):
        utilities = [1.0, 2.0, 4.0, 8.0]
        records = [synth_record(trial=t, utility=u) for t, u in enumerate(utilities)]
        records += [synth_record(scheme="nash", trial=t, utility=0.0) for t in range(4)]
        row = summarize(records)[0]
        assert_allclose(row.leader_std, np.std(utilities, ddof=1), rtol=1e-15)
        assert_allclose(row.leader_ci95, 1.959963984540054 * row.leader_std / 2, rtol=1e-15)
        # a paired gap against zeros has the same spread, so the same CI
        assert paired_gap(records, "stackelberg", "nash")[0].ci95 == row.leader_ci95

    def test_identical_trials_have_zero_spread(self):
        rows = summarize([synth_record(trial=t, utility=2.5) for t in range(4)])
        assert rows[0].leader_mean == 2.5 and rows[0].leader_std == 0.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_confidence_shrinks_like_root_n(self):
        rng = np.random.default_rng(123)
        small = [synth_record(trial=t, utility=float(rng.normal(5, 1)))
                 for t in range(2500)]
        big = [synth_record(trial=t, utility=float(rng.normal(5, 1)))
               for t in range(10000)]
        ci_small = summarize(small)[0].leader_ci95
        ci_big = summarize(big)[0].leader_ci95
        assert abs(ci_small / ci_big - 2.0) < 0.3  # within 15% of the 1/sqrt(n) ratio

    def test_convergence_rate(self):
        records = [synth_record(trial=t, converged=(t % 2 == 0)) for t in range(4)]
        assert summarize(records)[0].convergence_rate == 0.5

    def test_follower_side_statistics(self):
        records = []
        for t in range(3):
            records.append(synth_record(trial=t, player=0, utility=1.0))
            records.append(synth_record(trial=t, player=1, utility=2.0 + t))
        row = summarize(records)[0]
        assert_allclose(row.follower_mean, 3.0, rtol=1e-12)


class TestTrendAndGap:
    def test_carrier_trend_flags_real_drops(self):
        records = []
        means = {2: 1.0, 3: 2.0, 5: 1.99, 8: 0.5}
        rng = np.random.default_rng(5)
        for k, mean in means.items():
            for t in range(200):
                records.append(synth_record(carriers=k, trial=t,
                                            utility=float(rng.normal(mean, 0.1))))
        steps = carrier_trend(summarize(records), scheme="stackelberg")
        assert steps[0].ok            # 1.0 -> 2.0 rises
        assert steps[1].ok            # 1.99 is a within-noise dip
        assert not steps[2].ok        # 0.5 is a real violation

    def test_carrier_trend_compares_within_one_snr_point(self):
        # utility rises with K at each SNR but falls with SNR, so comparing
        # across points would report drops
        records = [
            synth_record(snr_db=snr, carriers=k, trial=t, utility=10.0 - snr + k + 0.01 * t)
            for snr in (-5.0, 5.0, 15.0) for k in (2, 3, 5) for t in range(5)
        ]
        steps = carrier_trend(summarize(records), scheme="stackelberg")
        assert [(s.snr_db, s.carriers_from, s.carriers_to) for s in steps] == [
            (snr, a, b) for snr in (-5.0, 5.0, 15.0) for a, b in ((2, 3), (3, 5))
        ]
        assert all(s.ok for s in steps)

    def test_carrier_trend_rejects_an_unknown_side(self):
        with pytest.raises(ValueError, match="side must be 'leader' or 'follower'"):
            carrier_trend([], scheme="stackelberg", side="both")

    def test_paired_gap_matches_hand_computation(self):
        records = []
        for t, (a, b) in enumerate([(2.0, 1.0), (3.0, 1.5), (4.0, 2.0)]):
            records.append(synth_record(scheme="stackelberg", trial=t, utility=a))
            records.append(synth_record(scheme="nash", trial=t, utility=b))
        gaps = paired_gap(records, "stackelberg", "nash")
        assert len(gaps) == 1
        assert_allclose(gaps[0].mean_gap, np.mean([1.0, 1.5, 2.0]), rtol=1e-12)
        assert gaps[0].trials == 3

    def test_concatenated_sweeps_count_every_run(self):
        """Two seeds' sweeps share trial indices; each run counts once, keyed
        by its seed too, so the means are over all six runs."""
        runs = [list(run_sweep(ScenarioConfig(carriers=(3,), followers=2, snr_db=(10.0,),
                                              trials=3, seed=seed))) for seed in (1, 2)]
        rows = summarize(runs[0] + runs[1])
        assert [(r.scheme, r.trials) for r in rows] == [(s, 6) for s in harness.SCHEMES]
        for row in rows:
            leaders = [r.utility for run in runs for r in run
                       if r.scheme == row.scheme and r.player == 0]
            assert len(leaders) == 6
            assert row.leader_mean == pytest.approx(np.mean(leaders), rel=1e-15)
        assert rows[0].leader_mean == pytest.approx(5.5216, abs=1e-4)
        gap, = paired_gap(runs[0] + runs[1], "stackelberg", "nash")
        assert gap.trials == 6

    def test_paired_gap_keeps_follower_counts_apart(self):
        records = [r for followers in (1, 2)
                   for r in run_sweep(ScenarioConfig(carriers=(3,), followers=followers,
                                                     snr_db=(10.0,), trials=3))]
        gaps = paired_gap(records, "stackelberg", "nash")
        assert [(g.regime, g.snr_db, g.carriers, g.followers, g.trials) for g in gaps] == [
            ("dense", 10.0, 3, 1, 3), ("dense", 10.0, 3, 2, 3)]
        for gap in gaps:
            pairs = [(a.utility, b.utility) for a in records for b in records
                     if a.followers == b.followers == gap.followers and a.trial == b.trial
                     and a.player == b.player == 0
                     and (a.scheme, b.scheme) == ("stackelberg", "nash")]
            assert gap.mean_gap == pytest.approx(np.mean([a - b for a, b in pairs]), abs=1e-15)

    def test_paired_gap_drops_unconverged_trials(self):
        records = [
            synth_record(scheme="stackelberg", trial=0, utility=2.0),
            synth_record(scheme="nash", trial=0, utility=1.0, converged=False),
            synth_record(scheme="stackelberg", trial=1, utility=5.0),
            synth_record(scheme="nash", trial=1, utility=1.0),
        ]
        gaps = paired_gap(records, "stackelberg", "nash")
        assert gaps[0].trials == 1
        assert gaps[0].mean_gap == 4.0


class TestConfigFile:
    def test_parse_and_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# sweep setup\n"
            "carriers=2,3\n"
            "followers=1\n"
            "snr_db=-5:5:5\n"
            "schemes=stackelberg\n"
            "trials=4\n"
            "rates=2.0\n"
        )
        cfg = config_from_values(load_config_file(path), {"trials": 9})
        assert cfg.carriers == (2, 3)
        assert cfg.snr_db == (-5.0, 0.0, 5.0)
        assert cfg.trials == 9  # flag wins over file
        assert cfg.rates == 2.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("powerlevel=9001\n")
        with pytest.raises(ValueError):
            config_from_values(load_config_file(path), {})

    def test_verify_grid_is_not_a_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("verify_grid=300\n")
        with pytest.raises(ValueError, match="unknown config key 'verify_grid'"):
            config_from_values(load_config_file(path), {})

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("carriers\n")
        with pytest.raises(ValueError):
            load_config_file(path)
