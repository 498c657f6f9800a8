"""Command-line front end.

Subcommands:

* ``sweep``      run a Monte-Carlo campaign and write the records CSV
* ``summarize``  aggregate a records CSV into per-point statistics
* ``verify``     replay a CSV's trials, re-certify them with the oracles and
                 diff each row's utility, active carrier and converged cells
                 against the replay (a ``MISMATCH`` line and a failure each)
* ``gamma``      print the optimal SINR operating point for an exponent

Scenario flags are the :class:`~hetnet_ee.harness.ScenarioConfig` fields
(``--output`` for ``output_path``) and override the optional ``key=value``
config file passed with ``--config``, whose keys are the field names.  SNR
ranges use ``start:stop:step`` in dB; list-valued values (carriers,
schemes, rates) are comma-separated.  A bad value, an unreadable or foreign
``--input`` CSV, an unwritable ``--output``, a malformed row (an unknown
scheme or regime, or for ``verify`` a trial whose instance cannot be built
or has fewer than two carriers), a ``sweep`` trial whose gains cannot be
drawn (past the float range), or a ``verify --rates`` list that does not
fit a row's F exits with status 2; ``verify`` checks each row's own SNR.
The parser is built on the first :func:`main` call and kept; each call
runs ``_cmd_<command>``.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import fields

from .efficiency import optimal_sinr
from .harness import (
    ScenarioConfig,
    UndrawableTrial,
    carrier_trend,
    chunked,
    config_from_values,
    draw_batch,
    load_config_file,
    read_records,
    run_batch,
    run_sweep,
    summarize,
    verify_batch,
    write_records,
    write_summary,
)
from .model import _active, outcomes
from .oracle import TOL

_SCENARIO = tuple(f.name for f in fields(ScenarioConfig))


def _add_scenario_flags(parser: argparse.ArgumentParser, names) -> None:
    """One flag per named :class:`ScenarioConfig` field, kept as text for
    :func:`config_from_values` to parse."""
    for f in fields(ScenarioConfig):
        if f.name in names:
            flag = "--output" if f.name == "output_path" else "--" + f.name.replace("_", "-")
            parser.add_argument(flag, dest=f.name, help=f.metadata["help"])


def _build_config(args: argparse.Namespace) -> ScenarioConfig:
    config = getattr(args, "config", None)
    file_values = load_config_file(config) if config else {}
    overrides = {name: getattr(args, name, None) for name in _SCENARIO}
    if args.command == "verify":
        # each CSV row has its own F and SNR, checked as it is rebuilt; at 0 dB
        # the noise power is mean_signal, which the config checks by itself
        overrides.update(snr_db="0")
        if args.rates is not None:  # check the list by itself
            players = len(args.rates.split(","))
            overrides.update(followers=str(players - 1), carriers=str(max(players, 2)))
    return config_from_values(file_values, overrides)


def _tolerance(text: str) -> float:
    """A finite ``--tolerance``: nan fails every check and inf passes every one."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _read_input(path):
    """The records of an ``--input`` CSV; a bad file is a usage error."""
    try:
        return read_records(path)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentError(None, f"cannot read --input {path}: {exc}") from None


def _unwritable(path, exc: OSError) -> argparse.ArgumentError:
    return argparse.ArgumentError(None, f"cannot write --output {path}: {exc}")


def _cmd_sweep(args: argparse.Namespace, config: ScenarioConfig) -> int:
    try:  # the file opens before the sweep yields its first record
        count = write_records(run_sweep(config), config.output_path)
    except OSError as exc:
        raise _unwritable(config.output_path, exc) from None
    except UndrawableTrial as exc:  # earlier chunks' rows stay
        raise argparse.ArgumentError(None, f"cannot draw {exc}") from None
    print(f"wrote {count} records to {config.output_path}")
    return 0


def _cmd_summarize(args: argparse.Namespace, config: ScenarioConfig) -> int:
    try:
        rows = summarize(_read_input(args.input))
    except ValueError as exc:  # a header-only file: no records
        raise argparse.ArgumentError(None, f"cannot read --input {args.input}: {exc}") from None
    if args.output == "-":
        write_summary(rows, sys.stdout)
    else:
        try:
            with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
                write_summary(rows, fh)
        except OSError as exc:
            raise _unwritable(args.output, exc) from None
        print(f"wrote {len(rows)} summary rows to {args.output}")
    for scheme in sorted({r.scheme for r in rows}):
        for side in ("leader", "follower"):
            for step in carrier_trend(rows, scheme=scheme, side=side):
                status = "ok" if step.ok else "VIOLATION"
                print(
                    f"trend {scheme} {side}: snr_db={step.snr_db:g} "
                    f"K={step.carriers_from}->{step.carriers_to} "
                    f"mean {step.mean_from:.6g}->{step.mean_to:.6g} "
                    f"(slack {step.slack:.3g}) {status}",
                    file=sys.stderr,
                )
    return 0


def _cmd_gamma(args: argparse.Namespace, config: ScenarioConfig) -> int:
    print(f"{optimal_sinr(config.model()):.15g}")
    return 0


def _mismatch(r, recorded: tuple, replayed: list) -> str:
    """The ``MISMATCH`` line of row ``r``, naming each of its ``recorded``
    cells ``(utility text, active carrier, converged)`` that differs from its
    player's in its trial's ``replayed`` ones, or its player if the trial has
    no such player."""
    cells = (zip(("utility", "active_carrier", "converged"), recorded, replayed[r.player])
             if 0 <= r.player < len(replayed) else [("player", r.player, f"0..{r.followers}")])
    return (f"MISMATCH scheme={r.scheme} snr_db={r.snr_db:g} K={r.carriers} F={r.followers} "
            f"trial={r.trial} player={r.player}"
            + "".join(f" {name} recorded={str(a).lower()} replayed={str(b).lower()}"
                      for name, a, b in cells if a != b) + "\n")


def _cmd_verify(args: argparse.Namespace, config: ScenarioConfig) -> int:
    runs: dict = {}  # each trial's rows, in CSV order
    for r in _read_input(args.input):
        runs.setdefault((r.scheme, r.regime, r.snr_db, r.carriers, r.followers, r.trial, r.seed),
                        []).append(r)
    # each trial's verdicts, and its replayed cells, in CSV order
    trials, replays = dict.fromkeys(runs), dict.fromkeys(runs)
    if isinstance(config.rates, tuple):
        # a rate list needs F+1 values for every row's F
        misfits = sorted({key[4] for key in trials} - {len(config.rates) - 1})
        if misfits:
            raise argparse.ArgumentError(None, f"--rates has {len(config.rates)} values, but "
                                         f"{args.input} has rows with F={misfits[0]}")
    # replay each (scheme, regime, K, F) group's trials as the sweep solved
    # them, in batches; report in the CSV's trial order
    groups: dict = {}
    for key in trials:
        groups.setdefault((key[0], key[1], key[3], key[4]), []).append(key)
    model = config.model()
    for (scheme, regime, carriers, followers), keys in groups.items():
        def unreadable(reason):
            return argparse.ArgumentError(
                None, f"cannot read --input {args.input}: row with {reason}")

        if carriers < 2:  # ScenarioConfig rejects it, so no sweep writes one
            _, _, snr_db, _, _, trial, seed = keys[0]
            raise unreadable(f"K={carriers} F={followers} trial={trial} seed={seed} "
                             f"snr_db={snr_db:g}: carrier count {carriers} < 2")
        for chunk in chunked(keys, carriers, followers):
            _, _, snr_db, _, _, labels, seeds = zip(*chunk)
            try:
                batch = draw_batch(config, carriers, followers, seeds, snr_db, labels)
            except UndrawableTrial as exc:  # the chunk's first row that cannot be drawn
                raise unreadable(exc) from None
            alloc, converged = run_batch(scheme, batch, model, regime)
            checks = verify_batch(scheme, batch, model, alloc, converged, regime, args.tolerance)
            # a checked scheme's claims are its utilities; best channel has no checks
            utilities = (checks.claimed if checks.sources
                         else outcomes(batch, model, alloc, regime)[0])
            active = [[None if c < 0 else c for c in row] for row in _active(alloc).tolist()]
            rows = zip(checks.claims.tolist(), checks.gains.tolist(), checks.passed.tolist(),
                       utilities.tolist(), active, converged.tolist())
            for key, (claims, gains, passed, utility, carrier, flag) in zip(chunk, rows):
                trials[key] = list(zip(gains, passed)) if claims else []
                replays[key] = [("%.12g" % u, c, flag) for u, c in zip(utility, carrier)]
    # no verdicts: no equilibrium claimed (best channel, or Nash that did not converge)
    skipped = sum(not verdicts for verdicts in trials.values())
    failures = sum(not passed for verdicts in trials.values() for _, passed in verdicts)
    lines = [
        f"{'PASS' if passed else 'FAIL'} scheme={scheme} snr_db={snr_db:g} K={carriers} F={followers} "
        f"trial={trial} player={player} gain={gain:.3e}\n"
        for (scheme, _, snr_db, carriers, followers, trial, _), verdicts in trials.items()
        for player, (gain, passed) in enumerate(verdicts)
    ]
    mismatches = []  # every row's recorded cells against its trial's replay
    for key, replayed in replays.items():
        for r in runs[key]:
            recorded = ("%.12g" % r.utility, r.active_carrier, r.converged)
            if not (0 <= r.player < len(replayed) and recorded == replayed[r.player]):
                mismatches.append(_mismatch(r, recorded, replayed))
    failures += len(mismatches)
    summary = f"verified {len(lines)} checks, {failures} failures, {skipped} trials skipped\n"
    sys.stdout.writelines(lines + mismatches + [summary])
    return 1 if failures else 0


@functools.cache
def _parser():
    """The argparse tree and its subcommand parsers, built once per process."""
    parser = argparse.ArgumentParser(
        prog="hetnet-ee",
        description="Energy-efficient power allocation equilibria for two-tier networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a Monte-Carlo sweep and write CSV")
    p_sweep.add_argument("--config", help="key=value config file; flags override it")
    _add_scenario_flags(p_sweep, _SCENARIO)

    p_sum = sub.add_parser("summarize", help="aggregate a sweep CSV")
    p_sum.add_argument("--input", required=True, help="records CSV from `sweep`")
    p_sum.add_argument("--output", default="-", help="summary CSV path, '-' for stdout")

    p_gamma = sub.add_parser("gamma", help="print the optimal SINR operating point")
    _add_scenario_flags(p_gamma, ("m_exponent",))

    p_verify = sub.add_parser("verify", help="re-certify and diff recorded trials")
    p_verify.add_argument("--input", required=True, help="records CSV from `sweep`")
    _add_scenario_flags(p_verify, ("m_exponent", "mean_signal", "mean_cross", "rates"))
    p_verify.add_argument(
        "--tolerance", type=_tolerance, default=TOL,
        help=f"relative-gain tolerance of every check, finite (default: {TOL:g})",
    )
    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _parser()
    args = parser.parse_args(argv)
    try:
        config = _build_config(args)
    except ValueError as exc:
        commands[args.command].error(str(exc))
    try:
        # looked up by name at call time, so a replaced ``_cmd_*`` is the one run
        return globals()[f"_cmd_{args.command}"](args, config)
    except argparse.ArgumentError as exc:
        commands[args.command].error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
