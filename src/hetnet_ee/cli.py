"""Command-line front end.

Subcommands:

* ``sweep``      run a Monte-Carlo campaign and write the records CSV
* ``summarize``  aggregate a records CSV into per-point statistics
* ``verify``     re-certify a CSV's recorded trials with the oracles
* ``gamma``      print the optimal SINR operating point for an exponent

Flags override the optional ``key=value`` config file passed with
``--config``.  SNR ranges use ``start:stop:step`` in dB; list-valued flags
(carriers, schemes, rates) are comma-separated.
"""

from __future__ import annotations

import argparse
import sys

from .efficiency import EfficiencyModel, optimal_sinr
from .harness import (
    SCHEMES,
    carrier_trend,
    config_from_values,
    load_config_file,
    parse_carrier_list,
    parse_rates,
    parse_snr_points,
    read_records,
    run_scheme,
    run_sweep,
    summarize,
    verify_scheme,
    write_records,
    write_summary,
)
from .model import sample_instance


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--carriers", help="carrier count or comma list, e.g. 5 or 2,3,5")
    parser.add_argument("--followers", type=int, help="number of small cells")
    parser.add_argument("--m-exponent", type=int, dest="m_exponent",
                        help="packet-length exponent of the success curve (>= 2)")
    parser.add_argument("--snr-db", dest="snr_db",
                        help="SNR sweep, start:stop:step in dB (or comma list)")
    parser.add_argument("--trials", type=int, help="trials per sweep point")
    parser.add_argument("--seed", type=int, help="base seed for the campaign")
    parser.add_argument("--schemes", help=f"comma list from {','.join(SCHEMES)}")
    parser.add_argument("--regime", choices=("sparse", "dense"))
    parser.add_argument("--mean-signal", type=float, dest="mean_signal",
                        help="mean own-signal power gain (linear)")
    parser.add_argument("--mean-cross", type=float, dest="mean_cross",
                        help="mean cross-tier power gain (linear)")
    parser.add_argument("--rates", help="per-player rate, scalar or comma list")
    parser.add_argument("--output", dest="output_path", help="records CSV path")
    parser.add_argument("--verify-fraction", type=float, dest="verify_fraction",
                        help="fraction of trials re-certified by the oracle")


def _build_config(args: argparse.Namespace):
    file_values = load_config_file(args.config) if args.config else {}
    overrides = {
        "followers": args.followers,
        "m_exponent": args.m_exponent,
        "trials": args.trials,
        "seed": args.seed,
        "regime": args.regime,
        "mean_signal": args.mean_signal,
        "mean_cross": args.mean_cross,
        "output_path": args.output_path,
        "verify_fraction": args.verify_fraction,
    }
    if args.carriers is not None:
        overrides["carriers"] = parse_carrier_list(args.carriers)
    if args.snr_db is not None:
        overrides["snr_db"] = parse_snr_points(args.snr_db)
    if args.schemes is not None:
        overrides["schemes"] = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    if args.rates is not None:
        overrides["rates"] = parse_rates(args.rates)
    return config_from_values(file_values, overrides)


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _build_config(args)
    count = write_records(run_sweep(config), config.output_path)
    print(f"wrote {count} records to {config.output_path}")
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    records = read_records(args.input)
    rows = summarize(records)
    if args.output == "-":
        write_summary(rows, sys.stdout)
    else:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            write_summary(rows, fh)
        print(f"wrote {len(rows)} summary rows to {args.output}")
    carrier_counts = {r.carriers for r in rows}
    if len(carrier_counts) > 1:
        for scheme in sorted({r.scheme for r in rows}):
            for side in ("leader", "follower"):
                for step in carrier_trend(rows, scheme=scheme, side=side):
                    status = "ok" if step.ok else "VIOLATION"
                    print(
                        f"trend {scheme} {side}: K={step.carriers_from}->{step.carriers_to} "
                        f"mean {step.mean_from:.6g}->{step.mean_to:.6g} "
                        f"(slack {step.slack:.3g}) {status}",
                        file=sys.stderr,
                    )
    return 0


def _cmd_gamma(args: argparse.Namespace) -> int:
    model = EfficiencyModel(m=args.m_exponent)
    print(f"{optimal_sinr(model):.15g}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    records = read_records(args.input)
    trials = {}
    for r in records:
        key = (r.scheme, r.regime, r.snr_db, r.carriers, r.followers, r.trial, r.seed)
        trials.setdefault(key, None)
    model = EfficiencyModel(m=args.m_exponent)
    rates = parse_rates(args.rates) if args.rates else 1.0
    failures = 0
    checked = 0
    skipped = 0
    for scheme, regime, snr_db, carriers, followers, trial, seed in trials:
        instance = sample_instance(
            carriers,
            followers,
            mean_signal=args.mean_signal,
            mean_cross=args.mean_cross,
            snr_db=snr_db,
            rates=rates,
            seed=seed,
        )
        result, converged = run_scheme(scheme, instance, model, regime)
        reports = verify_scheme(
            scheme, instance, model, result.allocation, converged, regime,
            grid_size=args.grid_size, tol=args.tolerance,
        )
        if not reports:
            # no equilibrium claimed: best channel, or Nash that did not converge
            skipped += 1
        for rep in reports:
            checked += 1
            status = "PASS" if rep.passed else "FAIL"
            if not rep.passed:
                failures += 1
            print(
                f"{status} scheme={scheme} snr_db={snr_db:g} K={carriers} F={followers} "
                f"trial={trial} player={rep.player} gain={rep.relative_gain:.3e}"
            )
    print(f"verified {checked} checks, {failures} failures, {skipped} trials skipped")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hetnet-ee",
        description="Energy-efficient power allocation equilibria for two-tier networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a Monte-Carlo sweep and write CSV")
    _add_scenario_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sum = sub.add_parser("summarize", help="aggregate a sweep CSV")
    p_sum.add_argument("--input", required=True, help="records CSV from `sweep`")
    p_sum.add_argument("--output", default="-", help="summary CSV path, '-' for stdout")
    p_sum.set_defaults(func=_cmd_summarize)

    p_gamma = sub.add_parser("gamma", help="print the optimal SINR operating point")
    p_gamma.add_argument("--m-exponent", type=int, dest="m_exponent", default=2)
    p_gamma.set_defaults(func=_cmd_gamma)

    p_verify = sub.add_parser("verify", help="re-certify recorded trials with the oracle")
    p_verify.add_argument("--input", required=True, help="records CSV from `sweep`")
    p_verify.add_argument("--m-exponent", type=int, dest="m_exponent", default=2)
    p_verify.add_argument("--mean-signal", type=float, dest="mean_signal", default=1.0)
    p_verify.add_argument("--mean-cross", type=float, dest="mean_cross", default=0.5)
    p_verify.add_argument("--rates", default=None)
    p_verify.add_argument("--grid-size", type=int, dest="grid_size", default=300)
    p_verify.add_argument(
        "--tolerance", type=float, default=None,
        help="relative-gain tolerance of every check (default: 1e-3 for leader "
             "and nash checks, 1e-6 for stackelberg follower checks)",
    )
    p_verify.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
