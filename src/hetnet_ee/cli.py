"""Command-line front end.

Subcommands:

* ``sweep``      run a Monte-Carlo campaign and write the records CSV
* ``summarize``  aggregate a records CSV into per-point statistics
* ``verify``     rebuild each recorded equilibrium from its trial's carriers
                 and leader power, certify it with the oracles, and diff
                 every row's cells against that rebuild (a ``MISMATCH`` line
                 and a failure each); it runs no solver
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
import dataclasses
import functools
import math
import sys
from dataclasses import fields
from operator import attrgetter

import numpy as np

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
    run_sweep,
    summarize,
    verify_batch,
    write_records,
    write_summary,
)
from .model import _active, all_utilities, allocate
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


def _mismatch(key: tuple, player, cells) -> str:
    """The ``MISMATCH`` line of ``player`` in the trial ``key`` (its run
    key), naming each ``(cell, recorded, replayed)`` of ``cells``."""
    scheme, _, snr_db, carriers, followers, trial, _ = key
    return (f"MISMATCH scheme={scheme} snr_db={snr_db:g} K={carriers} F={followers} "
            f"trial={trial} player={player}"
            + "".join(f" {name} recorded={a} replayed={b}" for name, a, b in cells) + "\n")


def _roster(key: tuple, rows: list) -> list:
    """The ``MISMATCH`` lines of a trial whose ``rows`` do not hold players
    ``0..F`` once each: every row outside ``0..F`` or past its player's
    first, then every missing player."""
    followers, seen, lines = key[4], {}, []
    for r in rows:
        seen[r.player] = seen.get(r.player, 0) + 1
        if not 0 <= r.player <= followers:
            lines.append(_mismatch(key, r.player, [("player", r.player, f"0..{followers}")]))
        elif seen[r.player] > 1:
            lines.append(_mismatch(key, r.player, [("rows", seen[r.player], 1)]))
    return lines + [_mismatch(key, p, [("rows", 0, 1)])
                    for p in range(followers + 1) if p not in seen]


def _diff(key: tuple, rows: list, lead: float, utilities: list, active: list, flag: bool,
          marks: list) -> list:
    """The ``MISMATCH`` lines of a trial's ``rows``, in player order, against
    its rebuild: each row's leader power against the rebuilt leader's
    (``lead``), its utility as ``%.12g`` text and its active carrier
    against the rebuild's, its ``converged`` cell against the trial's
    ``flag`` and a ``pass``/``fail`` mark against its player's entry of
    ``marks``."""
    lines = []
    for r, u, c, mark in zip(rows, utilities, active, marks):
        record = ("%.12g" % r.utility, r.active_carrier, r.converged, r.verified)
        replay = ("%.12g" % u, None if c < 0 else c, flag, r.verified and mark)
        power = r.leader_power
        same = power == lead or power != power and lead != lead  # NaN is NaN's power
        if record != replay or not same:
            cells = [("leader_power", "%.17g" % power, "%.17g" % lead)][same:]
            # "none" for no carrier, "true"/"false" for a flag
            cells += [(name, str(a).lower(), str(b).lower()) for name, a, b in
                      zip(("utility", "active_carrier", "converged", "verified"), record, replay)
                      if a != b]
            lines.append(_mismatch(key, r.player, cells))
    return lines


def _cmd_verify(args: argparse.Namespace, config: ScenarioConfig) -> int:
    runs: dict = {}  # each trial's rows, in CSV order
    for r in _read_input(args.input):
        runs.setdefault((r.scheme, r.regime, r.snr_db, r.carriers, r.followers, r.trial, r.seed),
                        []).append(r)
    # each trial's PASS/FAIL lines and MISMATCH lines, in CSV order
    verdicts, mismatches, failures = dict.fromkeys(runs, ()), dict.fromkeys(runs, ()), 0
    if isinstance(config.rates, tuple):
        # a rate list needs F+1 values for every row's F
        misfits = sorted({key[4] for key in runs} - {len(config.rates) - 1})
        if misfits:
            raise argparse.ArgumentError(None, f"--rates has {len(config.rates)} values, but "
                                         f"{args.input} has rows with F={misfits[0]}")
    # rebuild each (scheme, regime, K, F) group's trials in batches, as the
    # sweep drew them; report in the CSV's trial order
    groups: dict = {}
    for key in runs:
        groups.setdefault((key[0], key[1], key[3], key[4]), []).append(key)
    model = config.model()
    by_player = attrgetter("player")
    for (scheme, regime, carriers, followers), keys in groups.items():
        def unreadable(reason):
            return argparse.ArgumentError(
                None, f"cannot read --input {args.input}: row with {reason}")

        if carriers < 2:  # ScenarioConfig rejects it, so no sweep writes one
            _, _, snr_db, _, _, trial, seed = keys[0]
            raise unreadable(f"K={carriers} F={followers} trial={trial} seed={seed} "
                             f"snr_db={snr_db:g}: carrier count {carriers} < 2")
        players = list(range(followers + 1))
        blank, unmarked = [-1] * len(players), [""] * len(players)
        index = {k: k for k in range(carriers)}.get  # -1 for none, or for no carrier of K
        for chunk in chunked(keys, carriers, followers):
            _, _, snr_db, _, _, labels, seeds = zip(*chunk)
            try:
                batch = draw_batch(config, carriers, followers, seeds, snr_db, labels)
            except UndrawableTrial as exc:  # the chunk's first row that cannot be drawn
                raise unreadable(exc) from None
            # each trial's rows by player, or none where players 0..F are not there once each
            table = [sorted(runs[key], key=by_player) for key in chunk]
            table = [rows if list(map(by_player, rows)) == players else None for rows in table]
            # the recorded allocation: the leader's power on its carrier, and
            # every follower on its own at the SINR target against that row
            picks = np.array([[index(r.active_carrier, -1) for r in rows] if rows else blank
                              for rows in table])
            alloc = allocate(batch, model.gamma, picks,
                             [rows[0].leader_power if rows else 0.0 for rows in table])
            if scheme == "stackelberg":  # every finite allocation, its core's stop rule
                claims = np.isfinite(alloc).all(axis=(1, 2)) & [rows is not None for rows in table]
            else:  # the leader row's converged cell
                claims = np.array([bool(rows and rows[0].converged) for rows in table])
            checks = verify_batch(scheme, batch, model, alloc, claims, regime, args.tolerance)
            # a checked scheme's claims are its utilities; best channel has no checks
            utilities = (checks.claimed if checks.sources
                         else all_utilities(batch, model, alloc, regime))
            # a sweep marks its picked trials at the oracles' default tolerance
            marked = checks if args.tolerance == TOL else dataclasses.replace(checks, tol=TOL)
            rebuilt = zip(checks.claims.tolist(), checks.gains.tolist(), checks.passed.tolist(),
                          marked.passed.tolist(), alloc[:, 0].max(axis=-1).tolist(),
                          utilities.tolist(), _active(alloc).tolist())
            for key, rows, (claim, gains, passed, at_tol, lead, utility, active) in zip(
                    chunk, table, rebuilt):
                if claim:
                    head = (f"scheme={scheme} snr_db={key[2]:g} K={carriers} F={followers} "
                            f"trial={key[5]} player=")
                    verdicts[key] = [f"{'PASS' if ok else 'FAIL'} {head}{player} gain={gain:.3e}\n"
                                   for player, (gain, ok) in enumerate(zip(gains, passed))]
                    failures += passed.count(False)
                if rows is None:
                    mismatches[key] = _roster(key, runs[key])
                    continue
                # a mark is the verdict of a claim; a trial that claims nothing has none
                marks = ["pass" if ok else "fail" for ok in at_tol] if claim else unmarked
                flag = claim if scheme == "stackelberg" else rows[0].converged
                mismatches[key] = _diff(key, rows, lead, utility, active, flag, marks)
    # no verdicts: no equilibrium claimed (best channel, or Nash that did not
    # converge), or a trial whose players are not each there once
    skipped = sum(not lines for lines in verdicts.values())
    lines = [line for lines in verdicts.values() for line in lines]
    mismatches = [line for lines in mismatches.values() for line in lines]
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
