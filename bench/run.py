"""Benchmark for hetnet-ee sweep campaigns: how many trials are solved, or
certified, per wall second.

Run from the root of a source checkout:

    python3 bench/run.py --workload fig-dense --seed 1 --seconds 30 --trace 0

Workloads are ``fig-dense``, ``certify`` and ``wide-sparse`` (see
``bench/workloads.py`` and ``bench/README.md``).  The process is one
serial caller on one thread: BLAS thread pools are pinned to one thread
before numpy loads.

``--trace 0`` prints the end-to-end metrics: ``trials_per_s``,
``setup_s`` (cold process import of ``hetnet_ee`` to first optimal SINR,
median of child processes spread over the run) and ``peak_rss_mb``.
``--trace 1`` runs the workload untraced for half the time, then again
from the same seed for the other half with every layer wrapped by
``bench/tracing.py``, and prints the per-layer metrics.  Scheme failures
and oracle failures are counted every run and printed as ``failed_frac``
and ``cert_fail_frac``; any failure makes the result incorrect.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Run details (machine, counts, metrics) go to
``.bench_out/<workload>.trace<0|1>.json``, spans to
``.bench_out/<workload>.spans.csv``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SINGLE_THREAD = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
SETUP_PROBES = 9
# cold-start probe: what a fresh `hetnet-ee` process does before its first
# solve, then the reference imports that calibrate it (bench/calibrate.py)
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import hetnet_ee\n"
    "gamma = hetnet_ee.optimal_sinr(hetnet_ee.EfficiencyModel(m=2))\n"
    "t1 = time.perf_counter()\n"
    "modules = {modules!r}\n"
    "loaded = sum(m in sys.modules for m in modules)\n"
    "for m in modules:\n"
    "    __import__(m)\n"
    "print(t1 - t0, time.perf_counter() - t1, loaded, repr(gamma))\n"
)
TRACED = (
    "model.sample_instance",
    "efficiency.optimal_sinr",
    "efficiency.optimal_sinr_with_feedback",
    "sparse.solve_sparse",
    "dense.solve_dense",
    "baselines.solve_nash",
    "baselines.solve_best_channel",
    "model.make_result",
    "oracle.verify_leader_stackelberg",
    "oracle.verify_follower",
    "oracle.verify_nash",
    "harness.run_sweep",
    "harness.write_records",
    "harness.read_records",
)
CALLER_SPANS = ("cli.verify",)
WORKLOADS = ("fig-dense", "certify", "wide-sparse")
# share of the traced wall time the root spans may leave uncovered
ROOT_COVER_TOL = 0.03


def machine_info() -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "platform": platform.platform(),
        "blas_threads": SINGLE_THREAD["OPENBLAS_NUM_THREADS"],
    }


def os_threads() -> int:
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    except (OSError, StopIteration):
        return 1


def setup_probe(env: dict, gamma: float, times: list, errors: list) -> None:
    """Time one cold process from ``import hetnet_ee`` to its first gamma;
    appends ``(wall seconds, seconds at reference import speed)``."""
    import calibrate  # loads numpy: only after main() pinned the BLAS threads

    code = SETUP_CODE.format(modules=calibrate.IMPORT_MODULES)
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, reference, loaded, probe_gamma = done.stdout.split()
    if float(probe_gamma) != gamma:
        errors.append(f"cold process gamma {probe_gamma} != {gamma!r}")
    if loaded != "0":
        errors.append(f"{loaded} calibration modules were loaded by the set-up")
    times.append((float(seconds), float(seconds) * calibrate.REF_IMPORT_S / float(reference)))


def src_loc() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "hetnet_ee").glob("*.py")))


def frac(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, phase, plain, warnings_seen, spans_path) -> tuple[dict, list]:
    """Per-layer metrics of the traced phase, and trace sanity errors."""
    errors = []
    table = tracer.table()
    metrics = tracer.layer_metrics(table)
    if (table["self"] < 0).any():
        errors.append("negative self time in trace")
    roots = float(table["dur"][table["parent"] < 0].sum()) / 1e9
    if not (1 - ROOT_COVER_TOL) * phase.elapsed <= roots <= phase.elapsed:
        errors.append(f"root spans cover {roots:.4f} s of {phase.elapsed:.4f} s traced")
    tracer.write(spans_path, table)

    c = tracer.counts
    calls = {name: metrics[f"{name}.calls"][0] for name in tracer.names}
    metrics.update({
        "trials": (phase.trials, "count"),
        "baselines.nash_sweeps": (c["nash_sweeps"], "count"),
        "baselines.nash_capped_frac": (frac(c["nash_capped_runs"], c["nash_runs"]), "ratio"),
        "baselines.nash_capped_sweep_frac":
            (frac(c["nash_capped_sweeps"], c["nash_sweeps"]), "ratio"),
        "baselines.best_channel_diverged_frac":
            (frac(c["best_channel_diverged"], c["best_channel_runs"]), "ratio"),
        "baselines.runtime_warnings": (warnings_seen["baselines"], "count"),
        "runtime_warnings": (sum(warnings_seen.values()), "count"),
        "efficiency.roots_per_trial":
            (frac(calls["efficiency.optimal_sinr_with_feedback"], phase.trials), "count"),
        "dense.candidates_per_solve":
            (frac(c["dense_candidates"], calls["dense.solve_dense"]), "count"),
        "oracle.checks": (c["oracle_checks"], "count"),
        "harness.rows_written": (phase.rows, "count"),
        "trace_overhead_frac": (plain.ref_rate / phase.ref_rate - 1.0, "ratio"),
        "src.loc": (src_loc(), "lines"),
    })
    return metrics, errors


class WarningCounter:
    """Counts RuntimeWarnings by the package module that raised them, and
    prints no warning."""

    def __enter__(self) -> Counter:
        self.counts: Counter = Counter()
        self._ctx = warnings.catch_warnings()
        self._ctx.__enter__()
        warnings.simplefilter("always")
        warnings.showwarning = self._count
        return self.counts

    def _count(self, message, category, filename, lineno, file=None, line=None):
        if issubclass(category, RuntimeWarning):
            self.counts[Path(filename).stem if "hetnet_ee" in filename else "other"] += 1

    def __exit__(self, *exc):
        return self._ctx.__exit__(*exc)


def main(args) -> int:
    if not (SRC / "hetnet_ee" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC / 'hetnet_ee'}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))

    import hetnet_ee
    import workloads
    from tracing import Tracer

    OUT.mkdir(exist_ok=True)
    info = machine_info()
    errors: list = []
    gamma = hetnet_ee.optimal_sinr(hetnet_ee.EfficiencyModel(m=2))

    workload = workloads.make(args.workload, args.seed, OUT, args.seconds)
    setup: list = []
    probes = []
    if not args.trace:
        # the first probe writes the bytecode caches and is not counted
        setup_probe(env, gamma, [], errors)
        probes = [lambda: setup_probe(env, gamma, setup, errors)] * SETUP_PROBES
    workload.prepare()

    phases = []
    # a traced invocation splits its time between an untraced and a traced
    # run of the same inputs, so it takes no longer than an untraced one
    seconds = args.seconds / 2 if args.trace else args.seconds
    with WarningCounter() as plain_warnings:
        plain = workloads.run(workload, seconds, None, probes)
    phases.append(plain)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        tracer = Tracer("hetnet_ee", TRACED, CALLER_SPANS)
        with WarningCounter() as traced_warnings, tracer:
            traced = workloads.run(workload, seconds, tracer)
        phases.append(traced)
    workload.check_samples(plain)

    info["os_threads"] = os_threads()
    if info["os_threads"] != 1:
        errors.append(f"{info['os_threads']} threads in the benchmark process")
    for phase in phases:
        errors.extend(phase.errors)
    runs = sum(p.runs for p in phases)
    failed_runs = sum(p.failed_runs for p in phases)
    checks = sum(p.checks for p in phases)
    failed_checks = sum(p.failed_checks for p in phases)
    shown = {
        "failed_frac": (frac(failed_runs, runs), "ratio"),
        "cert_fail_frac": (frac(failed_checks, checks), "ratio"),
        "runtime_warnings_untraced": (sum(plain_warnings.values()), "count"),
        "trials_per_wall_s": (plain.rate, "1/s"),
        "host_speed": (plain.speed.factor, "ratio"),
    }
    if setup:
        shown["setup_wall_s"] = (statistics.median(t for t, _ in setup), "s")
    if args.trace:
        metrics, trace_errors = layer_metrics(
            tracer, traced, plain, traced_warnings,
            OUT / f"{args.workload}.spans.csv")
        errors.extend(trace_errors)
        metrics.update({k: shown[k] for k in ("failed_frac", "cert_fail_frac")})
    else:
        metrics = {
            "trials_per_s": (plain.ref_rate, "1/s"),
            "setup_s": (statistics.median(t for _, t in setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    correct = not errors and failed_runs == 0 and failed_checks == 0 and checks > 0
    for message in errors:
        print(f"benchmark: {message}", file=sys.stderr)
    print(f"machine {json.dumps(info, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {plain.trials} trials in "
          f"{plain.elapsed:.3f} s, {runs} scheme runs, {checks} oracle checks")
    for name, (value, unit) in {**shown, **metrics}.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": runs + checks,
        "failed": failed_runs + failed_checks,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=info, setup_runs_s=setup, errors=errors,
                  shown={k: v[0] for k, v in shown.items()})
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


if __name__ == "__main__":
    sys.exit(main(parse_args()))
