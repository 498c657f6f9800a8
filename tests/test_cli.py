"""End-to-end tests of the hetnet-ee command line."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hetnet_ee import cli
from hetnet_ee.cli import main
from hetnet_ee.harness import CSV_HEADER, read_records


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
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("scheme,regime,snr_db")
        assert len(lines) == 2

    def test_trend_lines_for_carrier_sweeps(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        run_cli("sweep", "--carriers", "2,4", "--followers", "1", "--snr-db", "10",
                "--trials", "30", "--schemes", "stackelberg", "--verify-fraction", "0",
                "--output", str(out))
        capsys.readouterr()
        run_cli("summarize", "--input", str(out))
        captured = capsys.readouterr()
        assert "trend stackelberg leader" in captured.err


class TestVerify:
    def test_recertifies_recorded_trials(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        run_cli("sweep", "--carriers", "4", "--followers", "2", "--snr-db", "10",
                "--trials", "2", "--schemes", "stackelberg,nash",
                "--verify-fraction", "0", "--output", str(out))
        capsys.readouterr()
        code = run_cli("verify", "--input", str(out), "--grid-size", "150")
        captured = capsys.readouterr().out
        assert code in (0, 1)
        assert "PASS scheme=stackelberg" in captured
        # stackelberg trials must all certify
        assert "FAIL scheme=stackelberg" not in captured

    @pytest.mark.parametrize("flag,expected", [
        ((), [1e-3, 1e-6, 1e-6]),
        (("--tolerance", "0.5"), [0.5, 0.5, 0.5]),
    ])
    def test_tolerance_reaches_every_check(self, tmp_path, capsys, monkeypatch, flag,
                                           expected):
        out = tmp_path / "run.csv"
        run_cli("sweep", "--carriers", "3", "--followers", "2", "--snr-db", "0",
                "--trials", "2", "--schemes", "stackelberg", "--verify-fraction", "0",
                "--output", str(out))
        seen, original = [], cli.verify_scheme

        def recording(*args, **kw):
            reports = original(*args, **kw)
            seen.append([r.tolerance for r in reports])
            return reports

        monkeypatch.setattr(cli, "verify_scheme", recording)
        run_cli("verify", "--input", str(out), "--grid-size", "100", *flag)
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

    def test_exit_code_clean_when_all_pass(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        run_cli("sweep", "--carriers", "3", "--followers", "1", "--snr-db", "0",
                "--trials", "2", "--schemes", "stackelberg", "--verify-fraction", "0",
                "--output", str(out))
        capsys.readouterr()
        assert run_cli("verify", "--input", str(out), "--grid-size", "150") == 0
