"""End-to-end tests of the hetnet-ee command line."""

import argparse
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hetnet_ee
from hetnet_ee import (
    ScenarioConfig,
    cli,
    dense,
    harness,
    sample_instance,
    solve_best_channel,
    solve_dense,
    solve_nash,
    solve_sparse,
)
from hetnet_ee.cli import main
from hetnet_ee.harness import CSV_HEADER, read_records
from hetnet_ee.model import stack_instances
from hetnet_ee.oracle import TOL


DATA = Path(__file__).parent / "data"


def run_cli(*args):
    return main(list(args))


class TestGamma:
    def test_prints_operating_point(self, capsys):
        assert run_cli("gamma", "--m-exponent", "2") == 0
        out = capsys.readouterr().out.strip()
        assert_allclose(float(out), 1.2564312086261697, rtol=1e-9)

    def test_other_exponent(self, capsys):
        run_cli("gamma", "--m-exponent", "10")
        assert_allclose(float(capsys.readouterr().out), 3.6149504270875306, rtol=1e-9)


class TestParserCache:
    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_parser_is_built_once(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        run_cli("gamma")
        first = list(built)
        run_cli("gamma", "--m-exponent", "3")
        # the top level and its four subcommands, all on the first call
        assert built == first and len(first) == 5 and first.count("hetnet-ee") == 1

    def test_command_replaced_after_the_first_call_runs(self, monkeypatch, capsys):
        run_cli("gamma")
        seen = []
        monkeypatch.setattr(cli, "_cmd_verify", lambda args, config: seen.append(args.input) or 7)
        assert run_cli("verify", "--input", "x.csv") == 7 and seen == ["x.csv"]

    @pytest.mark.parametrize("command", ["", "sweep", "summarize", "gamma", "verify"])
    def test_help_is_the_same_on_every_call(self, capsys, command):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                run_cli(*command.split(), "-h")
            assert exit_info.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert texts[0].startswith(f"usage: hetnet-ee {command}".rstrip() + " [-h]")

    def test_importing_the_package_builds_no_parser(self):
        # nor loads numpy.random (the sampler loads it on its first draw) or numpy.ma
        modules = ["hetnet_ee.cli", "argparse", "numpy.random", "numpy.ma"]
        code = f"import sys, hetnet_ee; print(*(m in sys.modules for m in {modules!r}))"
        src = str(Path(hetnet_ee.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.split() == ["False"] * len(modules)


def built_config(monkeypatch, *args):
    """The config a command would run with, without running it."""
    seen = []
    for name in ("_cmd_sweep", "_cmd_verify", "_cmd_gamma"):
        monkeypatch.setattr(cli, name, lambda args, config: seen.append(config) or 0)
    assert run_cli(*args) == 0
    return seen[0]


# a valid non-default text for every ScenarioConfig field
FIELD_TEXT = {
    "carriers": "6,7", "followers": "3", "m_exponent": "3", "mean_signal": "2",
    "mean_cross": "0.25", "snr_db": "0:10:5", "trials": "7", "seed": "9",
    "schemes": "nash, stackelberg", "regime": "sparse", "rates": "1,2,3,4",
    "output_path": "x.csv", "verify_fraction": "0.5",
}


class TestScenarioFlags:
    def test_every_field_is_a_flag_and_a_config_key(self, tmp_path, monkeypatch):
        assert set(FIELD_TEXT) == {f.name for f in fields(ScenarioConfig)}
        argv = []
        for name, text in FIELD_TEXT.items():
            flag = "--output" if name == "output_path" else "--" + name.replace("_", "-")
            argv += [flag, text]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{name}={text}\n" for name, text in FIELD_TEXT.items()))
        from_flags = built_config(monkeypatch, "sweep", *argv)
        assert built_config(monkeypatch, "sweep", "--config", str(cfg)) == from_flags
        default = ScenarioConfig()
        for f in fields(ScenarioConfig):
            assert getattr(from_flags, f.name) != getattr(default, f.name), f.name
        assert from_flags.snr_db == (0.0, 5.0, 10.0)
        assert from_flags.schemes == ("nash", "stackelberg")
        assert from_flags.rates == (1.0, 2.0, 3.0, 4.0)

    def test_readme_sweep_example(self, monkeypatch):
        config = built_config(
            monkeypatch, "sweep", "--carriers", "5", "--followers", "4", "--snr-db=-5:25:5",
            "--trials", "500", "--seed", "1", "--schemes", "stackelberg,nash,best_channel",
            "--regime", "dense", "--mean-cross", "0.5", "--output", "sweep.csv",
        )
        # a negative range start needs the '=' form: argparse reads a
        # separate "-5:25:5" as a flag
        assert config.snr_db == (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
        assert config == ScenarioConfig()

    @pytest.mark.parametrize("args,value", [
        (("--trials", "0"), "0"),
        (("--followers", "x"), "'x'"),
        (("--regime", "bogus"), "'bogus'"),
        (("--carriers", "1"), "1"),
        (("--m-exponent", "1"), "1"),
        (("--mean-signal", "0"), "0.0"),
        (("--mean-signal", "inf"), "inf"),
        (("--mean-cross", "-1"), "-1.0"),
        (("--rates", "1,2"), "(1.0, 2.0)"),
        (("--rates", "-1"), "-1.0"),
        (("--followers", "-1"), "-1"),
        (("--seed", "-1"), "-1"),
        (("--snr-db", "nan"), "nan"),
        (("--snr-db", "inf"), "inf"),
        (("--snr-db=-inf",), "-inf"),
        (("--snr-db", "4000"), "4000"),
        # ranges whose points never pass the stop
        (("--snr-db=0:inf:5",), "'0:inf:5'"),
        (("--snr-db=-inf:0:5",), "'-inf:0:5'"),
        (("--snr-db=0:10:nan",), "'0:10:nan'"),
        (("--snr-db=1e17:1e17:1",), "'1e17:1e17:1'"),
        (("--snr-db=5:5:1e-300",), "'5:5:1e-300'"),
        # 1 moves every point up to 2**53, and none past it
        (("--snr-db=9007199254740990:9007199254740999:1",), "past 9007199254740992.0"),
        # a nan tolerance fails every check and an infinite one passes all
        (("verify", "--tolerance", "nan"), "'nan'"),
        (("verify", "--tolerance", "inf"), "'inf'"),
        (("verify", "--tolerance=-inf"), "'-inf'"),
    ], ids=["trials", "followers", "regime", "carriers", "m_exponent", "mean_signal",
            "infinite_mean_signal", "mean_cross", "rates_count", "rate_sign",
            "negative_followers", "negative_seed", "nan_snr", "infinite_snr",
            "negative_infinite_snr", "noise_underflow", "infinite_snr_stop",
            "negative_infinite_snr_start", "nan_snr_step", "stalled_snr_step",
            "tiny_snr_step", "snr_step_stalled_midway", "nan_tolerance",
            "infinite_tolerance", "negative_infinite_tolerance"])
    def test_bad_flag_value_exits_2(self, tmp_path, capsys, args, value):
        """`sweep` flags, and `verify` flags on a CSV that verifies."""
        if args[0] == "verify":
            command, args = "verify", (*args[1:], "--input", str(DATA / "verify_small.csv"))
        else:
            command, args = "sweep", (*args, "--output", str(tmp_path / "x.csv"))
        with pytest.raises(SystemExit) as exit_info:
            run_cli(command, *args)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        error = captured.err.splitlines()[-1]
        assert error.startswith(f"hetnet-ee {command}: error:") and value in error
        assert captured.out == ""
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("line", ["trials=0", "verify_grid=300", "carriers", "snr_db=0:inf:5"])
    def test_bad_config_file_exits_2(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as exit_info:
            run_cli("sweep", "--config", str(cfg), "--output", str(tmp_path / "x.csv"))
        assert exit_info.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_verify_and_gamma_default_to_the_scenario(self, monkeypatch):
        # verify checks each row's own SNR; its config holds 0 dB, where the
        # noise power is mean_signal
        assert built_config(monkeypatch, "verify", "--input", "x.csv") == \
            ScenarioConfig(snr_db=(0.0,))
        assert built_config(monkeypatch, "gamma") == ScenarioConfig()

    def test_scheme_errors_keep_their_traceback(self, tmp_path, monkeypatch, capsys):
        def broken(batch, model):
            raise ZeroDivisionError("solver bug")

        good = tmp_path / "good.csv"
        run_cli("sweep", "--carriers", "3", "--followers", "1", "--snr-db", "0",
                "--trials", "1", "--output", str(good))
        capsys.readouterr()
        assert run_cli("verify", "--input", str(good)) == 0
        printed = capsys.readouterr().out
        # sweeps run the dense stackelberg leader through the slot table;
        # verify rebuilds the recorded allocation and runs no solver
        monkeypatch.setattr(dense, "dense_batch", broken)
        with pytest.raises(ZeroDivisionError, match="solver bug"):
            run_cli("sweep", "--carriers", "3", "--followers", "1", "--snr-db", "0",
                    "--trials", "1", "--output", str(tmp_path / "x.csv"))
        assert run_cli("verify", "--input", str(good)) == 0
        assert capsys.readouterr().out == printed
        # a solver's ValueError is not a trial that cannot be drawn
        monkeypatch.setattr(dense, "dense_batch", lambda batch, model: int("solver bug"))
        with pytest.raises(ValueError, match="solver bug"):
            run_cli("sweep", "--carriers", "3", "--followers", "1", "--snr-db", "0",
                    "--trials", "1", "--output", str(tmp_path / "x.csv"))


class TestSweep:
    def test_writes_expected_csv(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = run_cli(
            "sweep", "--carriers", "3", "--followers", "1", "--snr-db", "0:10:10",
            "--trials", "2", "--seed", "11", "--schemes", "stackelberg,nash",
            "--regime", "dense", "--verify-fraction", "0", "--output", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        # points(2) * trials(2) * schemes(2) * players(2)
        assert len(lines) == 1 + 16

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--carriers", "4", "--followers", "2", "--snr-db", "5",
                "--trials", "3", "--seed", "3", "--verify-fraction", "0"]
        run_cli(*args, "--output", str(a))
        run_cli(*args, "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "carriers=3\nfollowers=1\nsnr_db=0\ntrials=5\n"
            "schemes=stackelberg\nverify_fraction=0\n"
        )
        out = tmp_path / "run.csv"
        run_cli("sweep", "--config", str(cfg), "--trials", "2", "--output", str(out))
        records = read_records(out)
        assert len(records) == 2 * 2  # trials(2, flag wins) * players(2)


class TestSummarize:
    def test_stdout_summary(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        run_cli("sweep", "--carriers", "3", "--followers", "1", "--snr-db", "0",
                "--trials", "4", "--schemes", "stackelberg", "--verify-fraction", "0",
                "--output", str(out))
        capsys.readouterr()
        assert run_cli("summarize", "--input", str(out)) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].startswith("scheme,regime,snr_db")
        assert len(lines) == 2
        assert captured.err == ""

    def test_output_file_holds_the_stdout_summary(self, tmp_path, capsys):
        out, summary = tmp_path / "run.csv", tmp_path / "summary.csv"
        run_cli("sweep", "--carriers", "3", "--followers", "2", "--snr-db=-5,10",
                "--trials", "3", "--verify-fraction", "0", "--output", str(out))
        capsys.readouterr()
        assert run_cli("summarize", "--input", str(out), "--output", "-") == 0
        printed = capsys.readouterr().out
        assert run_cli("summarize", "--input", str(out), "--output", str(summary)) == 0
        assert capsys.readouterr().out == f"wrote 6 summary rows to {summary}\n"
        assert summary.read_text(encoding="utf-8") == printed
        assert len(printed.splitlines()) == 7

    def test_trend_lines_for_carrier_sweeps(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        run_cli("sweep", "--carriers", "2,4", "--followers", "1", "--snr-db", "10",
                "--trials", "30", "--schemes", "stackelberg", "--verify-fraction", "0",
                "--output", str(out))
        capsys.readouterr()
        run_cli("summarize", "--input", str(out))
        captured = capsys.readouterr()
        assert "trend stackelberg leader" in captured.err

    def test_trend_steps_stay_within_one_snr_point(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        run_cli("sweep", "--carriers", "2,3,5", "--followers", "1", "--snr-db=-5,5,15",
                "--trials", "20", "--schemes", "stackelberg,nash", "--verify-fraction", "0",
                "--output", str(out))
        capsys.readouterr()
        run_cli("summarize", "--input", str(out))
        lines = capsys.readouterr().err.splitlines()
        steps = {line.split(" mean ")[0] for line in lines}
        assert steps == {
            f"trend {scheme} {side}: snr_db={snr} K={a}->{b}"
            for scheme in ("stackelberg", "nash") for side in ("leader", "follower")
            for snr in (-5, 5, 15) for a, b in ((2, 3), (3, 5))
        }
        assert len(lines) == len(steps)
        assert not any("VIOLATION" in line for line in lines)


class TestVerify:
    @pytest.mark.parametrize("flags,expected,code", [
        ((), "verify_default.out", 0),
        # a negative tolerance fails every check whose search comes within
        # that margin of the claim, which pins FAIL lines and exit code 1
        (("--tolerance=-3e-4",), "verify_strict.out", 1),
    ], ids=["default", "strict"])
    def test_output_is_pinned(self, capsys, flags, expected, code):
        """A fixed CSV of seeded stackelberg and nash trials, dense and
        sparse, prints what the respond-based leader sweep printed."""
        assert run_cli("verify", "--input", str(DATA / "verify_small.csv"), *flags) == code
        assert capsys.readouterr().out == (DATA / expected).read_text()

    def test_rates_list_fitting_the_csv_is_accepted(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        run_cli("sweep", "--carriers", "3", "--followers", "1", "--snr-db", "0",
                "--trials", "2", "--schemes", "stackelberg", "--rates", "1,2",
                "--verify-fraction", "0", "--output", str(out))
        capsys.readouterr()
        assert run_cli("verify", "--input", str(out), "--rates", "1,2") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "verified 4 checks, 0 failures, 0 trials skipped"

    def test_rates_list_not_fitting_a_row_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        run_cli("sweep", "--carriers", "3", "--followers", "1", "--snr-db", "0",
                "--trials", "1", "--schemes", "stackelberg", "--verify-fraction", "0",
                "--output", str(out))
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            run_cli("verify", "--input", str(out), "--rates", "1,2,3")
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = captured.err.splitlines()[-1]
        assert error.startswith("hetnet-ee verify: error: --rates has 3 values")
        assert f"{out} has rows with F=1" in error

    def test_recertifies_recorded_trials(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        run_cli("sweep", "--carriers", "4", "--followers", "2", "--snr-db", "10",
                "--trials", "2", "--schemes", "stackelberg,nash",
                "--verify-fraction", "0", "--output", str(out))
        capsys.readouterr()
        code = run_cli("verify", "--input", str(out))
        captured = capsys.readouterr().out
        assert code in (0, 1)
        assert "PASS scheme=stackelberg" in captured
        # stackelberg trials must all certify
        assert "FAIL scheme=stackelberg" not in captured

    @pytest.mark.parametrize("flag,expected", [
        ((), [TOL] * 3),
        (("--tolerance", "0.5"), [0.5, 0.5, 0.5]),
    ])
    def test_tolerance_reaches_every_check(self, tmp_path, capsys, monkeypatch, flag,
                                           expected):
        out = tmp_path / "run.csv"
        run_cli("sweep", "--carriers", "3", "--followers", "2", "--snr-db", "0",
                "--trials", "2", "--schemes", "stackelberg", "--verify-fraction", "0",
                "--output", str(out))
        seen, original = [], cli.verify_batch

        def recording(*args, **kw):
            checks = original(*args, **kw)
            seen.extend([r.tolerance for r in checks.reports(t)]
                        for t in range(checks.claims.size))
            return checks

        monkeypatch.setattr(cli, "verify_batch", recording)
        run_cli("verify", "--input", str(out), *flag)
        assert seen == [expected, expected]

    def test_unconverged_nash_trials_are_skipped(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        run_cli("sweep", "--carriers", "5", "--followers", "4", "--snr-db", "0,10,20",
                "--trials", "8", "--seed", "9", "--schemes", "stackelberg,nash",
                "--regime", "dense", "--verify-fraction", "0", "--output", str(out))
        stuck = {(r.snr_db, r.trial) for r in read_records(out) if not r.converged}
        assert len(stuck) == 2
        capsys.readouterr()
        assert run_cli("verify", "--input", str(out)) == 0
        lines = capsys.readouterr().out.splitlines()
        # 24 stackelberg and 22 nash trials, five checks each
        assert lines[-1] == "verified 230 checks, 0 failures, 2 trials skipped"
        for snr_db, trial in stuck:
            assert not any(f"scheme=nash snr_db={snr_db:g} K=5 F=4 trial={trial} " in line
                           for line in lines)

    def test_interleaved_trials_replay_as_single_runs(self, tmp_path, capsys, monkeypatch):
        """Schemes, regimes and carrier counts interleaved in one CSV: the
        batched replay prints, in CSV trial order, what solving and checking
        each trial alone prints, whatever the chunk size."""
        records = []
        for regime, carriers, seed in (("dense", "3,4", 3), ("sparse", "3", 4)):
            out = tmp_path / f"{regime}.csv"
            run_cli("sweep", "--carriers", carriers, "--followers", "2", "--snr-db=-10,10,40",
                    "--trials", "3", "--seed", str(seed), "--regime", regime,
                    "--verify-fraction", "0", "--output", str(out))
            records += read_records(out)
        trials: dict = {}
        for r in records:
            trials.setdefault((r.scheme, r.regime, r.snr_db, r.carriers, r.followers, r.trial,
                               r.seed), []).append(r)
        keys = list(trials)
        order = np.random.default_rng(0).permutation(len(keys))
        path = tmp_path / "mixed.csv"
        harness.write_records((r for i in order for r in trials[keys[i]]), path)

        expected, model = [], ScenarioConfig().model()
        for i in order:
            scheme, regime, snr_db, carriers, followers, trial, seed = keys[i]
            inst = sample_instance(carriers, followers, snr_db=snr_db, seed=seed)
            if scheme == "stackelberg":
                solve = solve_sparse if regime == "sparse" else solve_dense
                result, converged = solve(inst, model), True
            else:
                solve = solve_nash if scheme == "nash" else solve_best_channel
                result, report = solve(inst, model, regime)
                converged = report.converged
            checks = harness.verify_batch(scheme, stack_instances([inst]), model,
                                          result.allocation[None], [converged], regime)
            for rep in checks.reports(0):
                expected.append(
                    f"{'PASS' if rep.passed else 'FAIL'} scheme={scheme} snr_db={snr_db:g} "
                    f"K={carriers} F={followers} trial={trial} player={rep.player} "
                    f"gain={rep.relative_gain:.3e}")

        sizes = []

        def spy(*args, seeds, **kwargs):
            sizes.append(len(seeds))
            return sample_batch(*args, seeds=seeds, **kwargs)

        sample_batch = harness.sample_batch
        monkeypatch.setattr(harness, "sample_batch", spy)
        capsys.readouterr()
        outputs = []
        for cells in (harness.CHUNK_CELLS, 1):
            monkeypatch.setattr(harness, "CHUNK_CELLS", cells)
            sizes.clear()
            run_cli("verify", "--input", str(path))
            outputs.append(capsys.readouterr().out)
            # one batch per (scheme, regime, K, F) group, or one per trial
            assert sizes == ([9] * 9 if cells > 1 else [1] * 81)
        assert outputs[0] == outputs[1]
        assert outputs[0].splitlines()[:-1] == expected

    def test_tiny_gains_sweep_and_verify_without_warnings(self, tmp_path, capsys):
        # subnormal gains overflow powers and feedback inside the dense
        # solver; no RuntimeWarning escapes, and every claim passes
        out = tmp_path / "run.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli("sweep", "--carriers", "5", "--followers", "4", "--snr-db", "10",
                           "--trials", "20", "--seed", "3", "--mean-signal", "1e-310",
                           "--verify-fraction", "1", "--output", str(out)) == 0
            assert {r.verified for r in read_records(out)} == {"pass", ""}
            assert run_cli("verify", "--input", str(out), "--mean-signal", "1e-310") == 0
        # the 20 best-channel trials claim nothing
        assert capsys.readouterr().out.splitlines()[-1] == (
            "verified 200 checks, 0 failures, 20 trials skipped")

    @pytest.fixture
    def swept(self, tmp_path, capsys):
        """A K=5, F=4 sweep of every scheme at 0 and 10 dB, 3 trials a point,
        its rows as cell lists and its ``verify`` output."""
        out = tmp_path / "run.csv"
        run_cli("sweep", "--carriers", "5", "--followers", "4", "--snr-db", "0,10",
                "--trials", "3", "--verify-fraction", "0", "--output", str(out))
        capsys.readouterr()
        assert run_cli("verify", "--input", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        return out, rows, capsys.readouterr().out

    # rows 1-5 are trial 0's stackelberg players, 6-10 its nash and 11-15 its
    # best-channel ones, which claim no equilibrium
    @pytest.mark.parametrize("row,column,value", [
        (1, "utility", "123456.789"),
        (7, "active_carrier", None),
        (3, "converged", "false"),
        (13, "utility", "0"),
        (3, "leader_power", "2"),
        (5, "player", "5"),
        (5, "player", "-1"),
    ], ids=["utility", "carrier", "converged", "unchecked-utility", "follower-leader-power",
            "player-past-F", "negative-player"])
    def test_tampered_cell_is_named(self, tmp_path, capsys, swept, row, column, value):
        """A recorded cell that its trial's rebuild does not reproduce is a
        failure, named by its row.  The rebuild keeps a moved follower on its
        recorded carrier, so its utility differs and its check fails there; a
        trial without each of its players once is not checked."""
        out, rows, clean = swept
        index = rows[0].index(column)
        cells = rows[row][:]
        recorded = value or str((int(cells[index]) + 1) % 5)  # another carrier
        replayed, cells[index] = cells[index], recorded
        tampered = tmp_path / "tampered.csv"
        tampered.write_text("\n".join(",".join(r) for r in rows[:row] + [cells] + rows[row + 1:])
                            + "\n")
        assert run_cli("verify", "--input", str(tampered)) == 1
        scheme, _, snr_db, carriers, followers, trial, _, _, player = cells[:9]
        run = f"scheme={scheme} snr_db={snr_db} K={carriers} F={followers} trial={trial} "
        expected, (checks, failures, skipped) = (
            clean.splitlines()[:-1], map(int, re.findall(r"\d+", clean.splitlines()[-1])))
        if column == "player":  # the row is named, and the player it was
            expected = [line for line in expected if run not in line]
            mismatches = [f"player={player} player recorded={player} replayed=0..4",
                          "player=4 rows recorded=0 replayed=1"]
            checks, skipped = checks - 5, skipped + 1
        elif column == "active_carrier":  # the utility there, below its own check
            mismatches = [f"player={player} utility recorded={cells[index - 1]} replayed="]
            check = f"PASS {run}player={player} gain="
            failures += 1
        else:
            if column == "utility":
                recorded = "%.12g" % float(recorded)
            mismatches = [f"player={player} {column} recorded={recorded} replayed={replayed}"]
        lines = capsys.readouterr().out.splitlines()
        summary = f"verified {checks} checks, {failures + len(mismatches)} failures, "
        assert lines[-1] == summary + f"{skipped} trials skipped"
        if column == "active_carrier":
            assert lines[-2].startswith(f"MISMATCH {run}{mismatches[0]}")
            failed = [line.replace("FAIL", "PASS", 1).split("gain=")[0] + "gain="
                      for line in lines[:-2] if line.startswith("FAIL")]
            assert failed == [check] and len(lines) == len(expected) + 2
        else:
            assert lines[:-1] == expected + [f"MISMATCH {run}{m}" for m in mismatches]

    def test_each_player_once(self, tmp_path, capsys):
        """A trial that lacks a row of a player, or holds one twice, is not
        checked; the row past its player's first and the missing player are
        named, each a failure.  CI's sweep with its row 3 deleted or its row 2
        repeated: both exited 0 when verify read rows without this check."""
        out = tmp_path / "cli.csv"
        run_cli("sweep", "--carriers", "3", "--followers", "2", "--snr-db=-5,10", "--trials", "3",
                "--verify-fraction", "1", "--output", str(out))
        capsys.readouterr()
        assert run_cli("verify", "--input", str(out)) == 0
        clean = capsys.readouterr().out.splitlines()
        lines = out.read_text().splitlines()
        run = "scheme=stackelberg snr_db=-5 K=3 F=2 trial=0 "
        for name, rows, mismatch in [
                ("deleted", lines[:3] + lines[4:], "player=2 rows recorded=0 replayed=1"),
                ("repeated", lines[:3] + lines[2:], "player=1 rows recorded=2 replayed=1")]:
            path = tmp_path / f"{name}.csv"
            path.write_text("\n".join(rows) + "\n")
            assert run_cli("verify", "--input", str(path)) == 1, name
            printed = capsys.readouterr().out.splitlines()
            assert printed == [line for line in clean[:-1] if run not in line] + [
                f"MISMATCH {run}{mismatch}", "verified 33 checks, 1 failures, 7 trials skipped"]

    def test_recorded_verdict_is_diffed(self, tmp_path, capsys):
        """A ``verified`` cell is the verdict at the oracles' default
        tolerance, whatever ``--tolerance`` verify runs at, and a trial that
        claims nothing carries no mark."""
        out = tmp_path / "cli.csv"
        run_cli("sweep", "--carriers", "3", "--followers", "2", "--snr-db=-5,10", "--trials", "3",
                "--verify-fraction", "1", "--output", str(out))
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[1].endswith(",pass") and lines[7].startswith("best_channel,")
        # every check fails at a tolerance of -1, and every mark still holds
        assert run_cli("verify", "--input", str(out), "--tolerance=-1") == 1
        printed = capsys.readouterr().out.splitlines()
        assert printed[-1] == "verified 36 checks, 36 failures, 6 trials skipped"
        assert not any(line.startswith("MISMATCH") for line in printed)
        run = "scheme=stackelberg snr_db=-5 K=3 F=2 trial=0 player=0 "
        for row, mark, mismatch in [(1, "fail", f"{run}verified recorded=fail replayed=pass"),
                                    (7, "pass", f"{run.replace('stackelberg', 'best_channel')}"
                                                "verified recorded=pass replayed=")]:
            cells = lines[row].split(",")
            cells[-1] = mark
            path = tmp_path / "marked.csv"
            path.write_text("\n".join(lines[:row] + [",".join(cells)] + lines[row + 1:]) + "\n")
            assert run_cli("verify", "--input", str(path)) == 1
            printed = capsys.readouterr().out.splitlines()
            assert printed[-2:] == [f"MISMATCH {mismatch}",
                                    "verified 36 checks, 1 failures, 6 trials skipped"]

    def test_contradicting_scenario_flag_fails(self, swept, capsys):
        """``--mean-cross 0.1`` replays other instances than a 0.5 sweep's."""
        out, _, _ = swept
        assert run_cli("verify", "--input", str(out), "--mean-cross", "0.1") == 1
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("MISMATCH scheme=stackelberg snr_db=0 K=5 F=4 trial=0 "
                                   "player=0 utility recorded=") for line in lines)

    def test_exit_code_clean_when_all_pass(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        run_cli("sweep", "--carriers", "3", "--followers", "1", "--snr-db", "0",
                "--trials", "2", "--schemes", "stackelberg", "--verify-fraction", "0",
                "--output", str(out))
        capsys.readouterr()
        assert run_cli("verify", "--input", str(out)) == 0


def _csv(**cells):
    """A one-row records CSV: a stackelberg dense K=5 F=4 row with ``cells``
    replaced."""
    row = dict(scheme="stackelberg", regime="dense", snr_db="10", carriers="5",
               followers="4", trial="0", seed="7", leader_power="1", player="0", utility="1",
               active_carrier="0", converged="true", verified="")
    row.update(cells)
    return CSV_HEADER + "\n" + ",".join(row[name] for name in CSV_HEADER.split(",")) + "\n"


# bad for both commands, then bad only for verify, which rebuilds each row
BAD_INPUTS = {
    "missing": None,
    "foreign_header": "scheme,player\nnash,0\n",
    "short_row": CSV_HEADER + "\nstackelberg,dense\n",
    "bad_value": CSV_HEADER + "\n" + ",".join(["x"] * len(CSV_HEADER.split(","))) + "\n",
    "bad_cell": _csv(carriers="x"),
    "unknown_scheme": _csv(scheme="bogus"),
    "unknown_regime": _csv(regime="mixed"),
    "uppercase_converged": _csv(converged="TRUE"),
    "unknown_verified": _csv(verified="ok"),
    "negative_leader_power": _csv(leader_power="-1"),
    "negative_infinite_leader_power": _csv(leader_power="-inf"),
}
UNBUILDABLE = {
    "nan_snr": _csv(snr_db="nan"),
    "negative_infinite_snr": _csv(snr_db="-inf"),
    "too_few_carriers": _csv(carriers="4"),
    "negative_followers": _csv(followers="-1"),
    "no_carriers": _csv(carriers="0", followers="0"),
    "negative_seed": _csv(seed="-5"),
}


class TestBadInput:
    @pytest.mark.parametrize("command,text", [
        pytest.param(command, text, id=f"{name}-{command}")
        for name, text in BAD_INPUTS.items() for command in ("summarize", "verify")
    ] + [pytest.param("verify", text, id=f"{name}-verify") for name, text in UNBUILDABLE.items()])
    def test_bad_input_csv_exits_2(self, tmp_path, capsys, command, text):
        path = tmp_path / "in.csv"
        if text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit) as exit_info:
            run_cli(command, "--input", str(path))
        assert exit_info.value.code == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.startswith(f"hetnet-ee {command}: error: cannot read --input {path}: ")

    @pytest.mark.parametrize("command", ["summarize", "verify"])
    def test_file_without_leader_powers_is_named(self, tmp_path, capsys, command):
        """A file written before each run recorded its leader's power."""
        header = CSV_HEADER.replace(",leader_power,", ",")
        path = tmp_path / "old.csv"
        path.write_text(header + "\nstackelberg,dense,10,5,4,0,7,0,1,0,true,\n")
        with pytest.raises(SystemExit) as exit_info:
            run_cli(command, "--input", str(path))
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"hetnet-ee {command}: error: cannot read --input {path}: "
            f"unexpected CSV header: {header!r}, no leader_power column")

    @pytest.mark.parametrize("command", ["sweep", "summarize"])
    @pytest.mark.parametrize("target", ["missing_directory", "directory"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, command, target):
        path = tmp_path / "absent" / "out.csv" if target == "missing_directory" else tmp_path
        args = (("--carriers", "2", "--followers", "1", "--snr-db", "0", "--trials", "1")
                if command == "sweep" else ("--input", str(DATA / "verify_small.csv")))
        with pytest.raises(SystemExit) as exit_info:
            run_cli(command, *args, "--output", str(path))
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith(
            f"hetnet-ee {command}: error: cannot write --output {path}: ")

    @pytest.mark.parametrize("end", ["", "\n"])
    def test_header_only_input(self, tmp_path, capsys, end):
        # no records: nothing to summarize, and nothing for verify to check
        path = tmp_path / "in.csv"
        path.write_text(CSV_HEADER + end)
        with pytest.raises(SystemExit) as exit_info:
            run_cli("summarize", "--input", str(path))
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"hetnet-ee summarize: error: cannot read --input {path}: no records to summarize")
        assert run_cli("verify", "--input", str(path)) == 0
        assert capsys.readouterr().out == "verified 0 checks, 0 failures, 0 trials skipped\n"

    @pytest.mark.parametrize("scheme,regime", [
        ("stackelberg", "dense"), ("stackelberg", "sparse"), ("nash", "dense")])
    def test_row_with_one_carrier_is_named(self, tmp_path, capsys, scheme, regime):
        # no sweep writes K < 2 (ScenarioConfig rejects it); the group's first row is named
        lines = _csv(scheme=scheme, regime=regime, carriers="1", followers="0",
                     trial="2", seed="11").splitlines()
        lines.append(_csv(scheme=scheme, regime=regime, carriers="1", followers="0",
                          trial="3", seed="12").splitlines()[1])
        path = tmp_path / "in.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SystemExit) as exit_info:
            run_cli("verify", "--input", str(path))
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"hetnet-ee verify: error: cannot read --input {path}: row with K=1 F=0 "
            f"trial=2 seed=11 snr_db=10: carrier count 1 < 2")

    @pytest.mark.parametrize("mean_signal,reason", [
        ("1e-323", "signal gains must be strictly positive"), ("1e308", "g0 must be finite")])
    def test_verify_names_a_row_not_a_default_snr(self, capsys, mean_signal, reason):
        # the CSV's rows are at -5 and 15 dB; the sweep's default points are not checked
        path = DATA / "verify_small.csv"
        with pytest.raises(SystemExit) as exit_info:
            run_cli("verify", "--input", str(path), "--mean-signal", mean_signal)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"hetnet-ee verify: error: cannot read --input {path}: row with K=3 F=2 "
            f"trial=0 seed=1926383459 snr_db=-5: {reason}")

    @pytest.mark.parametrize("flag,gain", [("--mean-signal", "g0"), ("--mean-cross", "h0")])
    def test_overflowing_draw_is_named(self, tmp_path, capsys, flag, gain):
        # 1e308 passes the config, but a draw above about 1.8 passes the float range
        path = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exit_info:
            run_cli("sweep", "--carriers", "5", "--followers", "4", "--snr-db", "10",
                    "--trials", "3", flag, "1e308", "--output", str(path))
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"hetnet-ee sweep: error: cannot draw K=5 F=4 trial=0 seed=1835504127 snr_db=10: "
            f"{gain} must be finite")
        assert path.read_text() == CSV_HEADER + "\n"

    def test_rows_before_an_undrawable_chunk_stay(self, tmp_path, capsys):
        # at 2e307 a draw above about 9 overflows; trial 362 is the first, in
        # the second chunk, so the first chunk's rows stay
        path = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exit_info:
            run_cli("sweep", "--carriers", "5", "--followers", "4", "--snr-db", "10",
                    "--trials", "600", "--seed", "1", "--schemes", "stackelberg",
                    "--mean-signal", "2e307", "--output", str(path))
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "hetnet-ee sweep: error: cannot draw K=5 F=4 trial=362 seed=3788824056 snr_db=10: "
            "gf must be finite")
        assert [r.trial for r in read_records(path)[::5]] == list(range(harness.CHUNK_TRIALS))

    @pytest.mark.parametrize("rows", [1, 3])
    def test_unbuildable_row_is_named(self, tmp_path, capsys, rows):
        # the last row's SNR is NaN; rows before it are good trials of its group
        lines = _csv(trial=str(rows - 1), seed="11", snr_db="nan").splitlines()
        lines[1:1] = [_csv(trial=str(t), seed=str(7 + t)).splitlines()[1] for t in range(rows - 1)]
        path = tmp_path / "in.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SystemExit) as exit_info:
            run_cli("verify", "--input", str(path))
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"hetnet-ee verify: error: cannot read --input {path}: row with K=5 F=4 "
            f"trial={rows - 1} seed=11 snr_db=nan: sigma2 must be finite")
