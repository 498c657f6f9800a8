"""The three benchmark workloads, each one serial caller with one trial in flight.

* ``fig-dense``: criterion-5 shape (K=5, F=4, dense, SNR -5:25:5 dB, mean
  cross 0.5, m=2) through ``run_sweep`` + ``write_records`` with all three
  schemes and no inline verification; the solvers do the work.
* ``certify``: ``hetnet-ee verify`` over stackelberg-only dense CSVs of the
  same shape, written untimed by :meth:`Certify.prepare`; the oracles do
  the work, and no Nash runs.
* ``wide-sparse``: K=64, F=32, sparse, three SNR points, all schemes, no
  verification; cheap solvers, so ``make_result`` and CSV rows show.

:func:`run` runs whole batches (one sweep or one verify call) until the
time is up, calibrating host speed after each, and counts what was
attempted and what failed.  Sweep workloads keep
a deterministic subsample of trials, which :meth:`SweepWorkload.check_samples`
re-solves and certifies untimed after the run.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
from calibrate import Speed

from hetnet_ee import (
    cli,
    harness,
    sample_instance,
    solve_dense,
    solve_nash,
    solve_sparse,
    verify_follower,
    verify_leader_stackelberg,
    verify_nash,
)

ALL_SCHEMES = ("stackelberg", "nash", "best_channel")
FIG_SNR = (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
# calibration time after each batch, as a share of the batch's time
CAL_SHARE = 0.05
VERIFY_SUMMARY = re.compile(r"verified (\d+) checks, (\d+) failures, (\d+) trials skipped")


def batch_seed(seed: int, batch: int) -> int:
    """Base seed of one batch, so runs with distinct seeds share no trial."""
    return int(np.random.SeedSequence((seed, batch)).generate_state(1)[0])


@dataclass
class Phase:
    """Counts from one timed run; ``elapsed`` excludes calibration time."""

    trials: int = 0
    elapsed: float = 0.0
    runs: int = 0
    failed_runs: int = 0
    checks: int = 0
    failed_checks: int = 0
    rows: int = 0
    errors: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    speed: Speed = field(default_factory=Speed)

    @property
    def rate(self) -> float:
        """Trials per wall second."""
        return self.trials / self.elapsed

    @property
    def ref_rate(self) -> float:
        """Trials per second at the calibration's reference host speed."""
        return self.rate * self.speed.factor


def run(workload, seconds: float, tracer, probes=()) -> Phase:
    """Run whole batches for ``seconds``, calibrating host speed after each.

    Each of ``probes`` is called once, untimed, between batches, spread
    evenly over the run so that they sample the host as the batches do.
    """
    phase = Phase()
    done = batch = 0
    while phase.elapsed < seconds:
        start = time.perf_counter()
        workload.batch(batch, phase, tracer)
        spent = time.perf_counter() - start
        phase.elapsed += spent
        phase.speed.measure(CAL_SHARE * spent)
        batch += 1
        while done < len(probes) and phase.elapsed >= seconds * (done + 1) / (len(probes) + 1):
            probes[done]()
            done += 1
    for probe in probes[done:]:
        probe()
    return phase


class SweepWorkload:
    """Seeded ``run_sweep`` batches streamed through ``write_records``."""

    def __init__(self, seed, workdir, *, carriers, followers, snr_db, regime,
                 trials_per_point, sample_every, sample_cap):
        self.seed = seed
        self.csv = workdir / "sweep.csv"
        self.shape = dict(carriers=(carriers,), followers=followers, snr_db=snr_db,
                          regime=regime, mean_cross=0.5, m_exponent=2)
        self.trials_per_point = trials_per_point
        self.sample_every = sample_every
        self.sample_cap = sample_cap
        self.players = followers + 1
        self.rows_per_trial = len(ALL_SCHEMES) * self.players

    def config(self, batch: int) -> harness.ScenarioConfig:
        return harness.ScenarioConfig(
            **self.shape, trials=self.trials_per_point, seed=batch_seed(self.seed, batch),
            schemes=ALL_SCHEMES, verify_fraction=0.0, output_path=str(self.csv),
        )

    def prepare(self) -> None:
        pass

    def _consume(self, records, phase: Phase):
        # Passes records on to the writer, counting trials and failed scheme
        # runs (NaN rows) and keeping every sample_every-th trial by seed.
        trial_rows: list = []
        for record in records:
            trial_rows.append(record)
            yield record
            if len(trial_rows) < self.rows_per_trial:
                continue
            phase.trials += 1
            for s in range(len(ALL_SCHEMES)):
                rows = trial_rows[s * self.players:(s + 1) * self.players]
                phase.runs += 1
                phase.failed_runs += not all(math.isfinite(r.utility) for r in rows)
            if record.seed % self.sample_every == 0 and len(phase.samples) < self.sample_cap:
                phase.samples.append(trial_rows)
            trial_rows = []

    def batch(self, index: int, phase: Phase, tracer) -> None:
        config = self.config(index)
        # looked up at call time, so a traced run calls the wrappers
        rows = harness.write_records(
            self._consume(harness.run_sweep(config), phase), config.output_path
        )
        phase.rows += rows
        expected = len(config.snr_db) * config.trials * self.rows_per_trial
        if rows != expected:
            phase.errors.append(f"batch {index} wrote {rows} rows, not {expected}")

    def check_samples(self, phase: Phase) -> None:
        """Re-solve the sampled trials, compare with the recorded rows and
        certify the stackelberg and converged nash outputs with the oracles."""
        config = self.config(0)
        model = config.model()
        regime = config.regime
        for trial_rows in phase.samples:
            first = trial_rows[0]
            instance = sample_instance(
                first.carriers, first.followers, mean_signal=config.mean_signal,
                mean_cross=config.mean_cross, snr_db=first.snr_db, rates=config.rates,
                seed=first.seed,
            )
            if instance.digest() != first.instance_digest:
                phase.errors.append(f"instance of seed {first.seed} did not rebuild")
                continue
            by_scheme = {s: [r for r in trial_rows if r.scheme == s] for s in ALL_SCHEMES}
            for scheme in ("stackelberg", "nash"):
                rows = by_scheme[scheme]
                if scheme == "stackelberg":
                    solve = solve_sparse if regime == "sparse" else solve_dense
                    result = solve(instance, model)
                else:
                    if not rows[0].converged:
                        continue
                    result, _ = solve_nash(instance, model, regime)
                recorded = [f"{r.utility:.12g}" for r in rows]
                if recorded != [f"{u:.12g}" for u in result.utilities]:
                    phase.errors.append(f"{scheme} seed {first.seed}: rerun utilities differ")
                    continue
                if scheme == "stackelberg":
                    reports = [verify_leader_stackelberg(instance, model, result.allocation, regime)]
                    reports += [
                        verify_follower(instance, model, f, result.allocation)
                        for f in range(instance.followers)
                    ]
                else:
                    reports = verify_nash(instance, model, result.allocation, regime)
                phase.checks += len(reports)
                phase.failed_checks += sum(not r.passed for r in reports)


class Certify:
    """``hetnet-ee verify`` over pre-written stackelberg-only dense CSVs."""

    TRIALS_PER_POINT = 4
    # trials written per second of run, about the rate the oracles reach;
    # a longer run cycles through them again
    TRIALS_PER_S = 70

    def __init__(self, seed, workdir, seconds):
        self.seed = seed
        self.workdir = workdir
        self.followers = 4
        trials = self.TRIALS_PER_POINT * len(FIG_SNR)
        self.chunks = max(2, math.ceil(seconds * self.TRIALS_PER_S / trials))
        self.paths: list = []

    def prepare(self) -> None:
        for chunk in range(self.chunks):
            config = harness.ScenarioConfig(
                carriers=(5,), followers=self.followers, snr_db=FIG_SNR, regime="dense",
                mean_cross=0.5, m_exponent=2, trials=self.TRIALS_PER_POINT,
                seed=batch_seed(self.seed, chunk), schemes=("stackelberg",),
                verify_fraction=0.0, output_path=str(self.workdir / f"certify-{chunk}.csv"),
            )
            harness.write_records(harness.run_sweep(config), config.output_path)
            self.paths.append(config.output_path)

    def _verify(self, path: str):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--input", path])
        return code, out.getvalue()

    def batch(self, index: int, phase: Phase, tracer) -> None:
        path = self.paths[index % len(self.paths)]
        trials = self.TRIALS_PER_POINT * len(FIG_SNR)
        phase.runs += trials
        try:
            if tracer is None:
                code, text = self._verify(path)
            else:
                code, text = tracer.span("cli.verify", self._verify, path)
        except Exception:  # a crashed verify fails all its trials
            phase.failed_runs += trials
            phase.errors.append(f"verify {path} raised:\n{traceback.format_exc()}")
            return
        phase.trials += trials
        match = VERIFY_SUMMARY.search(text)
        checked, failures = (int(match[1]), int(match[2])) if match else (0, 0)
        phase.checks += checked
        phase.failed_checks += failures
        if checked != trials * (self.followers + 1) or code != (1 if failures else 0):
            phase.errors.append(f"verify {path}: exit {code}, {checked} checks")

    def check_samples(self, phase: Phase) -> None:
        pass


def make(name: str, seed: int, workdir, seconds: float):
    if name == "fig-dense":
        return SweepWorkload(seed, workdir, carriers=5, followers=4, snr_db=FIG_SNR,
                             regime="dense", trials_per_point=4, sample_every=29,
                             sample_cap=24)
    if name == "wide-sparse":
        return SweepWorkload(seed, workdir, carriers=64, followers=32,
                             snr_db=(0.0, 10.0, 20.0), regime="sparse",
                             trials_per_point=10, sample_every=29, sample_cap=4)
    if name == "certify":
        return Certify(seed, workdir, seconds)
    raise ValueError(f"unknown workload {name!r}")

