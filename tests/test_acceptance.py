"""Acceptance suite: every release criterion at its stated scale.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output on failure) and asserts the criterion.  Run the whole
gate with::

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
from numpy.testing import assert_allclose

from hetnet_ee import (
    EfficiencyModel,
    NetworkInstance,
    ScenarioConfig,
    brute_force_stackelberg,
    optimal_sinr,
    run_sweep,
    sample_instance,
    solve_dense,
    solve_sparse,
    utility,
    verify_follower,
    verify_leader_stackelberg,
    write_records,
)
from hetnet_ee.harness import carrier_trend, paired_gap, summarize

MODEL = EfficiencyModel(m=2)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_operating_point_correctness():
    """Root residual below 1e-9 and grid-argmax agreement for four exponents."""
    start = time.monotonic()
    worst_residual = 0.0
    worst_gap = 0.0
    for m in (2, 5, 10, 100):
        model = EfficiencyModel(m=m)
        g = optimal_sinr(model)
        worst_residual = max(worst_residual,
                             abs(g * model.derivative(g) - model.value(g)))
        x = np.geomspace(1e-2, 1e2, 1_000_000)
        peak = float(x[np.argmax(model.value(x) / x)])
        worst_gap = max(worst_gap, abs(peak / g - 1.0))
    elapsed = time.monotonic() - start
    ok = worst_residual < 1e-9 and worst_gap < 1e-4 and elapsed < 1.0
    report("criterion-1 operating point", ok,
           f"residual {worst_residual:.2e}, grid gap {worst_gap:.2e}, {elapsed:.2f}s")


def test_criterion_2_sparse_certification():
    """1000 random sparse equilibria survive both deviation oracles."""
    start = time.monotonic()
    rng = np.random.default_rng(20260201)
    failures = 0
    for _ in range(1000):
        k = int(rng.integers(2, 9))
        f = int(rng.integers(1, min(4, k - 1) + 1))
        inst = sample_instance(k, f, mean_cross=0.5,
                               snr_db=float(rng.uniform(-5.0, 25.0)),
                               seed=int(rng.integers(2**48)))
        res = solve_sparse(inst, MODEL)
        if not verify_leader_stackelberg(inst, MODEL, res.allocation, "sparse").passed:
            failures += 1
            continue
        for fw in range(inst.followers):
            if not verify_follower(inst, MODEL, fw, res.allocation).passed:
                failures += 1
                break
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 120.0
    report("criterion-2 sparse certification", ok,
           f"{failures} failures/1000, {elapsed:.1f}s")


def test_criterion_3_dense_certification():
    """500 random dense equilibria: follower exactness, carrier stability,
    bi-level leader optimality, single-band rows."""
    start = time.monotonic()
    rng = np.random.default_rng(20260202)
    gamma = optimal_sinr(MODEL)
    failures = 0
    for i in range(500):
        k = int(rng.integers(2, 7))
        f = int(rng.integers(1, min(5, k - 1) + 1))
        inst = sample_instance(k, f, mean_cross=(0.1, 0.5, 1.0)[i % 3],
                               snr_db=float(rng.uniform(-5.0, 25.0)),
                               seed=int(rng.integers(2**48)))
        res = solve_dense(inst, MODEL)
        bad = not np.all((res.allocation > 0).sum(axis=1) == 1)
        bad = bad or not verify_leader_stackelberg(inst, MODEL, res.allocation, "dense").passed
        for fw in range(inst.followers):
            if bad:
                break
            if not verify_follower(inst, MODEL, fw, res.allocation).passed:
                bad = True
            claimed = res.utilities[fw + 1]
            for kk in range(inst.carriers):
                denom = inst.sigma2 + inst.h0[kk] * res.allocation[0, kk]
                trial = res.allocation.copy()
                trial[fw + 1] = 0.0
                trial[fw + 1, kk] = gamma * denom / inst.gf[fw, kk]
                if utility(inst, MODEL, fw + 1, trial, "dense") > claimed * (1 + 1e-12):
                    bad = True
                    break
        failures += bad
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 600.0
    report("criterion-3 dense certification", ok,
           f"{failures} failures/500, {elapsed:.1f}s")


def test_criterion_4_reduction_to_sparse():
    """Without cross gains onto the leader, both solvers coincide exactly."""
    rng = np.random.default_rng(20260203)
    alloc_mismatches = 0
    worst_utility_gap = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 9))
        f = int(rng.integers(1, min(4, k - 1) + 1))
        base = sample_instance(k, f, mean_cross=0.5,
                               snr_db=float(rng.uniform(-5.0, 25.0)),
                               seed=int(rng.integers(2**48)))
        inst = NetworkInstance(g0=base.g0, gf=base.gf, h0=base.h0,
                               hf=np.zeros_like(base.hf), sigma2=base.sigma2)
        dense = solve_dense(inst, MODEL)
        sparse = solve_sparse(inst, MODEL)
        if not np.array_equal(dense.allocation, sparse.allocation):
            alloc_mismatches += 1
            continue
        with np.errstate(invalid="ignore"):
            gaps = np.abs(dense.utilities - sparse.utilities) / np.abs(sparse.utilities)
        worst_utility_gap = max(worst_utility_gap, float(np.nanmax(gaps)))
    ok = alloc_mismatches == 0 and worst_utility_gap < 1e-9
    report("criterion-4 dense/sparse reduction", ok,
           f"{alloc_mismatches} allocation mismatches/200, "
           f"worst utility gap {worst_utility_gap:.2e}")


def test_criterion_5_leader_gain_over_nash():
    """Paired dense sweep at defaults: the anticipating leader never loses
    to the simultaneous-move baseline, significantly at most points."""
    cfg = ScenarioConfig(schemes=("stackelberg", "nash"), trials=500,
                         seed=20260204, verify_fraction=0.0)
    records = list(run_sweep(cfg))
    gaps = sorted(paired_gap(records, "stackelberg", "nash"),
                  key=lambda g: g.snr_db)
    nonneg = all(g.mean_gap >= 0.0 for g in gaps)
    strong = sum(g.mean_gap > g.ci95 for g in gaps)
    ok = nonneg and strong > len(gaps) // 2 and len(gaps) == len(cfg.snr_db)
    detail = ", ".join(f"{g.snr_db:+.0f}dB:{g.mean_gap:.3g}>{g.ci95:.2g}" for g in gaps)
    report("criterion-5 stackelberg vs nash", ok,
           f"nonnegative at all {len(gaps)} points, exceeds CI at {strong}; {detail}")


def test_criterion_6_utilities_grow_with_carriers():
    """More carriers never hurt either side of the hierarchy (within CI)."""
    cfg = ScenarioConfig(carriers=(2, 3, 5, 8, 12), followers=1, snr_db=(10.0,),
                         schemes=("stackelberg",), trials=500, seed=20260205,
                         verify_fraction=0.0)
    rows = summarize(run_sweep(cfg))
    leader = carrier_trend(rows, scheme="stackelberg", side="leader")
    follower = carrier_trend(rows, scheme="stackelberg", side="follower")
    ok = all(s.ok for s in leader + follower)
    detail = "; ".join(
        f"{side} K={s.carriers_from}->{s.carriers_to}: {s.mean_from:.3g}->{s.mean_to:.3g}"
        for side, steps in (("leader", leader), ("follower", follower))
        for s in steps
    )
    report("criterion-6 carrier-count trend", ok, detail)


def test_criterion_7_brute_force_agreement():
    """The exhaustive (exact) leader search tracks the closed form within 0.5%."""
    rng = np.random.default_rng(20260206)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 7))
        f = int(rng.integers(1, min(4, k - 1) + 1))
        inst = sample_instance(k, f, mean_cross=0.5,
                               snr_db=float(rng.uniform(-5.0, 25.0)),
                               seed=int(rng.integers(2**48)))
        closed = solve_sparse(inst, MODEL).utilities[0]
        forced = brute_force_stackelberg(inst, MODEL, "sparse")
        gap = abs(utility(inst, MODEL, 0, forced, "sparse") / closed - 1.0)
        worst = max(worst, gap)
    ok = worst < 5e-3
    report("criterion-7 brute-force agreement", ok, f"worst gap {worst:.2e} over 50")


def test_criterion_8_sweep_determinism(tmp_path):
    """The same configuration always produces byte-identical CSV output."""
    cfg = ScenarioConfig(carriers=(4,), followers=2, snr_db=(0.0, 10.0),
                         trials=20, seed=20260207, verify_fraction=0.05,
                         schemes=("stackelberg", "nash", "best_channel"))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_records(run_sweep(cfg), p1)
    write_records(run_sweep(cfg), p2)
    ok = p1.read_bytes() == p2.read_bytes()
    report("criterion-8 determinism", ok,
           f"{p1.stat().st_size} bytes, identical reruns")
