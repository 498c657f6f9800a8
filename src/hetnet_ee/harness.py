"""Seeded Monte-Carlo sweeps over SNR and carrier count, with CSV output.

A sweep point is one (carrier count, SNR) pair; every enabled scheme at a
point and trial consumes the *same* sampled instance, so scheme
comparisons are paired.  Trial seeds derive from ``SeedSequence((base_seed,
point_index, trial))``, hashed in one pass per carrier count, and instances
are ``default_rng(seed)``'s draws, which each chunk takes from
:func:`~hetnet_ee.model.sample_batch` with its slice of the seeds: every
output byte is a function of the configuration alone.

Every trial of one carrier count, across all its SNR points, is solved as
one batch (a :class:`~hetnet_ee.model.NetworkInstance` with a leading trial
axis), in chunks capped in trials and in slot-table cells (:func:`chunked`):
each scheme runs once per chunk through its batch core (the same code as
its ``solve_*`` function), read with its oracle check from one table, and
each trial still draws from its own generator, so a record does not depend
on the chunking.
Records stream out one per (point, trial, scheme, player) as slotted
:class:`SweepRecord` dataclasses (mutable and unhashable) and serialize to
CSV with one column per field, in field order, formatting the eight leading
fields that a (trial, scheme) shares once per run of rows.  Those end in
the leader's power: every scheme leaves each follower at the SINR target on
its carrier against the leader's row, so a run's carriers and that one
number are its whole allocation, which ``hetnet-ee verify`` rebuilds.
Floats are written with 12 significant digits, the leader's power with 17
so that it reads back bit for bit; ``verified`` is filled for the
configurable fraction of trials that get re-certified by the deviation
oracles, as one batch per chunk and scheme (equilibrium claims only: the
best-channel heuristic and a run that did not converge, an overflowing
stackelberg one too, claim none, so their records are never marked).  A scheme that raises
stops the sweep before its chunk yields a record, as does a trial that
cannot be drawn, which :func:`draw_batch` names.  :func:`summarize` and
:func:`paired_gap` read records by one grouping, by point and then by run,
a ``(trial, seed)`` pair, so several sweeps' records can be read together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import partial
from operator import attrgetter
from typing import Iterable, Iterator, Optional

import numpy as np

from .baselines import best_channel_batch, nash_batch
from .dense import stackelberg_batch
from .efficiency import EfficiencyModel
from .model import (CONVERGED, REGIMES, _noise_power, _seed_words, hears_followers, outcomes,
                    sample_batch, stack_instances)
from .oracle import TOL, Checks, nash_checks, stackelberg_checks

__all__ = [
    "SCHEMES",
    "CSV_HEADER",
    "ScenarioConfig",
    "SweepRecord",
    "SummaryRow",
    "TrendStep",
    "PairedGap",
    "run_batch",
    "run_sweep",
    "chunked",
    "draw_batch",
    "UndrawableTrial",
    "verify_batch",
    "write_records",
    "read_records",
    "summarize",
    "write_summary",
    "carrier_trend",
    "paired_gap",
    "load_config_file",
    "config_from_values",
]

# each scheme's batch core, (batch, model, regime) -> (alloc, stop, ...), and the
# oracle check of its claims; the best-channel heuristic claims no equilibrium
_SCHEMES = {
    "stackelberg": (stackelberg_batch, stackelberg_checks),
    "nash": (nash_batch, nash_checks),
    "best_channel": (best_channel_batch, None),
}
SCHEMES = tuple(_SCHEMES)
# A chunk holds at most CHUNK_TRIALS trials and CHUNK_CELLS cells of (T, K, F+2)
# slot tables, the widest a dense chunk needs.  A chunk has a fixed cost: 30-trial
# K=64, F=32 sparse sweeps ran 1,806, 2,344 and 2,225 trials/s with 3, 10 and 30
# trials per chunk (2-core VM), and K=5, F=4 ones as fast with 256 as with 1,092,
# whose sweep peaked 2.8 MB higher.
CHUNK_CELLS = 22_000
CHUNK_TRIALS = 256

_Z95 = 1.959963984540054


def _split(text: str) -> list:
    return [part.strip() for part in text.split(",") if part.strip()]


def _ints(text: str) -> tuple:
    return tuple(int(part) for part in _split(text))


def _snr_points(text: str) -> tuple:
    """Accept 'start:stop:step', a single value, or a comma list (dB)."""
    if ":" in text:
        start, stop, step = (float(p) for p in text.split(":"))
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError(f"SNR range {text!r} must be finite")
        if step <= 0:
            raise ValueError("SNR step must be positive")
        points = []
        value = start
        while value <= stop + 1e-9:
            points.append(round(value, 12))
            if value + step == value:
                raise ValueError(f"SNR step of {text!r} does not move past {value!r} dB")
            value += step
        return tuple(points)
    return tuple(float(part) for part in _split(text))


def _rates(text: str):
    parts = [float(part) for part in _split(text)]
    return parts[0] if len(parts) == 1 else tuple(parts)


def _scenario(default, parse, help: str):
    """A scenario field with the parser of its text form (a config-file
    value or a flag) and its flag help."""
    return field(default=default, metadata={"parse": parse, "help": help})


@dataclass(frozen=True)
class ScenarioConfig:
    """One sweep campaign: the cartesian product of carriers x SNR points.

    ``carriers`` may hold several counts (carrier-count sweeps); ``snr_db``
    holds the SNR points in dB.  ``rates`` is a scalar broadcast to all
    players or a length-(followers+1) tuple.  Each field is a config-file
    key and a ``sweep`` flag of the same name (``output_path`` is
    ``--output``), whose text its metadata's ``parse`` reads.
    """

    carriers: tuple = _scenario((5,), _ints, "carrier count or comma list, e.g. 5 or 2,3,5")
    followers: int = _scenario(4, int, "number of small cells")
    m_exponent: int = _scenario(2, int, "packet-length exponent of the success curve (>= 2)")
    mean_signal: float = _scenario(1.0, float, "mean own-signal power gain (linear)")
    mean_cross: float = _scenario(0.5, float, "mean cross-tier power gain (linear)")
    snr_db: tuple = _scenario(
        (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0), _snr_points,
        "SNR sweep, start:stop:step in dB (or comma list)",
    )
    trials: int = _scenario(500, int, "trials per sweep point")
    seed: int = _scenario(1, int, "base seed for the campaign")
    schemes: tuple = _scenario(
        SCHEMES, lambda text: tuple(_split(text)), f"comma list from {','.join(SCHEMES)}"
    )
    regime: str = _scenario("dense", str, "sparse or dense")
    rates: object = _scenario(1.0, _rates, "per-player rate, scalar or comma list")
    output_path: str = _scenario("sweep.csv", str, "records CSV path")
    verify_fraction: float = _scenario(
        0.01, float, "fraction of trials re-certified by the oracle"
    )

    def __post_init__(self):
        if not self.carriers or not self.snr_db:
            raise ValueError("carriers and snr_db must be nonempty")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.followers < 0 or self.seed < 0:
            raise ValueError(f"followers and seed must be nonnegative: {self.followers}, "
                             f"{self.seed}")
        if not self.schemes:
            raise ValueError("at least one scheme is required")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme {s!r}; choose from {SCHEMES}")
        hears_followers(self.regime)  # rejects an unknown regime
        for k in self.carriers:
            if k < 2:
                raise ValueError(f"carrier count {k} < 2: the stackelberg solvers need two")
            if k < self.followers + 1:
                raise ValueError(
                    f"carrier count {k} violates K >= F+1 with F={self.followers}"
                )
        if not 0.0 < self.mean_signal < math.inf:
            raise ValueError(f"mean_signal must be positive and finite, got {self.mean_signal}")
        if not 0.0 <= self.mean_cross < math.inf:
            raise ValueError(f"mean_cross must be nonnegative and finite, got {self.mean_cross}")
        for snr in self.snr_db:
            if not 0.0 < _noise_power(self.mean_signal, snr) < math.inf:
                raise ValueError(f"snr_db {snr} gives a noise power not positive and finite")
        rates = np.atleast_1d(np.asarray(self.rates, dtype=float))
        fits = rates.shape in ((1,), (self.followers + 1,))
        if not (fits and np.all((0.0 < rates) & (rates < math.inf))):
            raise ValueError(f"rates must be 1 or F+1 positive finite values, got {self.rates!r}")
        if not 0.0 <= self.verify_fraction <= 1.0:
            raise ValueError(f"verify_fraction must lie in [0, 1], got {self.verify_fraction}")
        self.model()  # rejects a bad m_exponent

    def model(self) -> EfficiencyModel:
        return EfficiencyModel(m=self.m_exponent)


@dataclass(slots=True)
class SweepRecord:
    """One CSV row; ``instance_digest`` is kept in memory only.  Slotted, not
    frozen: a sweep builds one per row, and frozen construction costs 10x."""

    scheme: str
    regime: str
    snr_db: float
    carriers: int
    followers: int
    trial: int
    seed: int
    leader_power: float
    player: int
    utility: float
    active_carrier: Optional[int]
    converged: bool
    verified: str
    instance_digest: str = field(default="", compare=False)


_COLUMNS = tuple(f for f in fields(SweepRecord) if f.compare)
CSV_HEADER = ",".join(f.name for f in _COLUMNS)
_CELL_PARSERS = {
    "str": str,
    "float": float,
    "int": int,
    "Optional[int]": lambda text: None if text == "" else int(text),
    "bool": "true".__eq__,
}
_ROW_PARSERS = tuple(_CELL_PARSERS[f.type] for f in _COLUMNS)
# the only ``converged`` and ``verified`` cells ``write_records`` writes
_FLAGS, _VERDICTS = {"true", "false"}, {"", "pass", "fail"}


def _cells(values) -> str:
    return ",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in values)


# a CSV row as a prefix of its first eight fields and a tail of the rest, floats as ``_cells``
# writes them but the leader's power, which round-trips; ``write_records`` passes "" for no
# carrier and "true"/"false" for ``converged``
_prefix = attrgetter(*(f.name for f in _COLUMNS[:8]))
_PREFIX = "%s,%s,%.12g,%s,%s,%s,%s,%.17g,"
_TAIL = "%s,%.12g,%s,%s,%s\n"


def _scheme(scheme: str) -> tuple:
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    return _SCHEMES[scheme]


def run_batch(scheme: str, batch, model, regime: str):
    """Run one scheme on every trial of a batch by its batch core; returns the allocations
    ``(T, F+1, K)`` and whether each trial's stop code is ``"converged"`` ``(T,)``."""
    alloc, stop = _scheme(scheme)[0](batch, model, regime)[:2]
    return alloc, stop == CONVERGED


def verify_batch(scheme: str, batch, model, allocation, converged, regime: str,
                 tol: float = TOL) -> Checks:
    """Oracle checks of one scheme's outputs on every trial of a batch.

    ``tol`` applies to every check of every player (the oracles' one
    default, :data:`~hetnet_ee.oracle.TOL`).  Only equilibrium claims are
    checked: the best-channel heuristic and a run of either other scheme that
    did not converge (the flags of :func:`run_batch`) claim none, so their
    trials get no reports.  An unknown scheme or regime raises, as in :func:`run_batch`.
    """
    check = _scheme(scheme)[1]
    if check is not None:
        return check(batch, model, allocation, regime, tol, converged)
    hears_followers(regime)  # rejects an unknown regime
    none = np.empty((batch.trials, 0))
    return Checks(none, none, none, none, (), tol, np.zeros(batch.trials, dtype=bool))


def chunked(trials: list, carriers: int, followers: int) -> Iterator[list]:
    """``trials`` of one shape in order, in runs of at most ``CHUNK_TRIALS``
    trials and ``CHUNK_CELLS`` slot-table cells (one trial at the least)."""
    size = max(1, min(CHUNK_TRIALS, CHUNK_CELLS // max(1, carriers * (followers + 2))))
    for start in range(0, len(trials), size):
        yield trials[start:start + size]


class UndrawableTrial(ValueError):
    """A trial whose instance cannot be drawn, named by :func:`draw_batch`."""


def draw_batch(config: ScenarioConfig, carriers: int, followers: int, seeds: list,
               snr_db: list, trials: list):
    """:func:`~hetnet_ee.model.sample_batch` of ``seeds`` at ``snr_db`` with
    ``config``'s gains and rates.  A trial that cannot be drawn (a gain or
    noise power 0 or past the float range, a NaN SNR, a bad seed) raises
    :class:`UndrawableTrial` naming the first, ``K= F= trial= seed= snr_db=:
    reason``, labelled by ``trials``."""
    draw = partial(sample_batch, carriers, followers, mean_signal=config.mean_signal,
                   mean_cross=config.mean_cross, rates=config.rates)
    try:
        return draw(seeds=seeds, snr_db=snr_db)
    except ValueError:
        for trial, seed, snr in zip(trials, seeds, snr_db):  # each by itself
            try:
                draw(seeds=[seed], snr_db=[snr])
            except ValueError as exc:
                raise UndrawableTrial(f"K={carriers} F={followers} trial={trial} seed={seed} "
                                      f"snr_db={snr:g}: {exc}") from None
        raise


def _chunk_records(config: ScenarioConfig, model, carriers: int, chunk: list, seeds: list,
                   picked: list):
    """The records of one chunk of ``(point_index, snr_db, trial)`` triples
    of one carrier count, solved as one batch drawn from their ``seeds``;
    ``picked`` trials are verified inline."""
    batch = draw_batch(config, carriers, config.followers, seeds,
                       [snr for _, snr, _ in chunk], [trial for _, _, trial in chunk])
    regime, followers, players = config.regime, config.followers, batch.players
    # the trials picked for inline verification, checked as one batch
    sample = stack_instances([batch.instance(t) for t in picked]) if picked else None
    blank = [""] * players
    solved = []
    for scheme in config.schemes:
        alloc, converged = run_batch(scheme, batch, model, regime)
        utilities, active = outcomes(batch, model, alloc, regime)
        active = [[None if c < 0 else c for c in row] for row in active.tolist()]
        powers = alloc[:, 0].max(axis=-1).tolist()  # the leader row's one power, or 0
        marks = [blank] * len(chunk)
        if picked:
            checks = verify_batch(scheme, sample, model, alloc[picked], converged[picked], regime)
            for t, claims, passed in zip(picked, checks.claims.tolist(), checks.passed.tolist()):
                if claims:
                    marks[t] = ["pass" if ok else "fail" for ok in passed]
        solved.append((scheme, powers, utilities.tolist(), active, converged.tolist(), marks))
    for t, ((_, snr_db, trial), seed, digest) in enumerate(zip(chunk, seeds, batch.digests())):
        for scheme, powers, utilities, active, converged, marks in solved:
            power, converged_t = powers[t], converged[t]
            for player, (utility, carrier, mark) in enumerate(
                    zip(utilities[t], active[t], marks[t])):
                # positional: SweepRecord's field order
                yield SweepRecord(scheme, regime, snr_db, carriers, followers, trial, seed, power,
                                  player, utility, carrier, converged_t, mark, digest)


def run_sweep(config: ScenarioConfig) -> Iterator[SweepRecord]:
    """Run the campaign, yielding records in deterministic order."""
    model = config.model()
    points = len(config.snr_db)
    for c, carriers in enumerate(config.carriers):
        plan = [(c * points + p, snr_db, trial)
                for p, snr_db in enumerate(config.snr_db) for trial in range(config.trials)]
        # every trial's seed and verify-pick words in one pass
        words = _seed_words([(config.seed, point, trial) for point, _, trial in plan], 2)
        seeds, picks = words[:, 0].tolist(), words[:, 1] / 2.0**32 < config.verify_fraction
        for rows in chunked(range(len(plan)), carriers, config.followers):
            span = slice(rows.start, rows.stop)
            yield from _chunk_records(config, model, carriers, plan[span], seeds[span],
                                      np.flatnonzero(picks[span]).tolist())


def write_records(records: Iterable[SweepRecord], path) -> int:
    """Serialize records to CSV (newline-terminated); returns row count.

    A run of records whose first eight fields are the same objects (a
    sweep's (trial, scheme) rows) formats those fields once.  The run is
    keyed on identity, not equality: ``0.0`` and ``-0.0``, or ``5`` and
    ``5.0``, are equal but format apart.  A run is written when the next
    starts or when ``records`` raises, so a failed sweep keeps its rows.
    """
    scheme = regime = snr_db = carriers = followers = trial = seed = power = object()
    prefix, tails, count = "", [], 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        try:
            for r in records:
                if not (r.seed is seed and r.trial is trial and r.snr_db is snr_db
                        and r.leader_power is power and r.scheme is scheme
                        and r.regime is regime and r.carriers is carriers
                        and r.followers is followers):
                    fh.write(prefix + prefix.join(tails))
                    count += len(tails)
                    key = (scheme, regime, snr_db, carriers, followers, trial, seed,
                           power) = _prefix(r)
                    prefix, tails = _PREFIX % key, []
                tails.append(_TAIL % (r.player, r.utility,
                                      "" if r.active_carrier is None else r.active_carrier,
                                      "true" if r.converged else "false", r.verified))
        finally:
            fh.write(prefix + prefix.join(tails))
    return count + len(tails)


def read_records(path) -> list[SweepRecord]:
    """Parse a sweep CSV back into records (digests are not recoverable),
    one column at a time; a row whose scheme, regime, ``converged`` or
    ``verified`` cell no sweep writes, or whose leader power is negative,
    is malformed.  A header that lacks a column is named by it: files
    written before ``leader_power`` was recorded are refused."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            missing = [f.name for f in _COLUMNS if f.name not in header.split(",")]
            raise ValueError(f"unexpected CSV header: {header!r}"
                             + (f", no {' or '.join(missing)} column" if missing else ""))
        lines = fh.readlines()
    rows = [line.rstrip("\n").split(",") for line in lines]
    for line, parts in zip(lines, rows):
        if (len(parts) != len(_COLUMNS) or parts[0] not in SCHEMES or parts[1] not in REGIMES
                or parts[7][:1] == "-" or parts[-2] not in _FLAGS or parts[-1] not in _VERDICTS):
            raise ValueError(f"malformed CSV row: {line!r}")
    # a header-only file has no columns to zip, and still one empty column per field
    columns = list(zip(*rows)) or [()] * len(_COLUMNS)
    return list(map(SweepRecord, *map(map, _ROW_PARSERS, columns)))


@dataclass(frozen=True)
class SummaryRow:
    """Aggregates for one (scheme, point) group.

    Follower statistics average the per-trial mean follower utility;
    ``ci95`` columns are normal-approximation half-widths.
    """

    scheme: str
    regime: str
    snr_db: float
    carriers: int
    followers: int
    trials: int
    leader_mean: float
    leader_std: float
    leader_ci95: float
    follower_mean: float
    follower_std: float
    follower_ci95: float
    convergence_rate: float


def _stats(values: np.ndarray) -> tuple:
    """Mean, sample standard deviation (0 for one value) and the 95% CI
    half-width of the finite entries."""
    values = values[np.isfinite(values)]
    if values.size == 0:
        return math.nan, math.nan, math.nan
    std = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return float(values.mean()), std, _Z95 * std / math.sqrt(values.size)


def _runs(records: Iterable[SweepRecord]) -> dict:
    """Records grouped by point ``(scheme, regime, snr_db, carriers,
    followers)``, then by run ``(trial, seed)``, then by player, in input
    order: a trial is keyed by its seed too, so concatenated sweeps stay apart."""
    groups: dict = {}
    for r in records:
        point = groups.setdefault((r.scheme, r.regime, r.snr_db, r.carriers, r.followers), {})
        point.setdefault((r.trial, r.seed), {})[r.player] = r
    return groups


def summarize(records: Iterable[SweepRecord]) -> list[SummaryRow]:
    """Aggregate records into per-(scheme, point) rows over its runs, input
    order kept; a run without a leader row counts as converged, with a NaN
    leader utility."""
    groups = _runs(records)
    if not groups:
        raise ValueError("no records to summarize")
    rows = []
    for point, runs in groups.items():
        leaders = [run.get(0) for run in runs.values()]
        followers = [[r.utility for p, r in run.items() if p] for run in runs.values()]
        # SummaryRow's fields in order: the point, its trial count, then
        # the leader and follower statistics
        rows.append(SummaryRow(
            *point, len(runs),
            *_stats(np.array([math.nan if r is None else r.utility for r in leaders])),
            *_stats(np.array([np.mean(u) if u else math.nan for u in followers])),
            float(np.mean([r is None or r.converged for r in leaders])),
        ))
    return rows


SUMMARY_HEADER = _cells(f.name for f in fields(SummaryRow))


def write_summary(rows: list[SummaryRow], fh) -> None:
    fh.write(SUMMARY_HEADER + "\n")
    for r in rows:
        fh.write(_cells(getattr(r, f.name) for f in fields(r)) + "\n")


@dataclass(frozen=True)
class TrendStep:
    """One carrier-count step of the utility-versus-K trend at one point.

    The step is accepted when the mean does not drop by more than the two
    half-widths combined.
    """

    snr_db: float
    carriers_from: int
    carriers_to: int
    mean_from: float
    mean_to: float
    slack: float
    ok: bool


def carrier_trend(
    rows: list[SummaryRow], *, scheme: str, side: str = "leader"
) -> list[TrendStep]:
    """Check that mean utility is non-decreasing in the carrier count at
    each ``(regime, snr_db, followers)`` point; steps never cross points."""
    if side not in ("leader", "follower"):
        raise ValueError("side must be 'leader' or 'follower'")
    point = attrgetter("regime", "snr_db", "followers")
    picked = sorted((r for r in rows if r.scheme == scheme), key=lambda r: (point(r), r.carriers))
    steps = []
    for a, b in zip(picked, picked[1:]):
        if point(a) != point(b):
            continue
        mean_a, mean_b = getattr(a, f"{side}_mean"), getattr(b, f"{side}_mean")
        slack = getattr(a, f"{side}_ci95") + getattr(b, f"{side}_ci95")
        steps.append(
            TrendStep(a.snr_db, a.carriers, b.carriers, mean_a, mean_b, slack,
                      ok=bool(mean_b >= mean_a - slack))
        )
    return steps


@dataclass(frozen=True)
class PairedGap:
    """Mean per-trial utility gap (scheme_a - scheme_b) at one point."""

    regime: str
    snr_db: float
    carriers: int
    followers: int
    trials: int
    mean_gap: float
    ci95: float


def paired_gap(records: Iterable[SweepRecord], scheme_a: str, scheme_b: str) -> list[PairedGap]:
    """Paired comparison of two schemes on their shared instances: the
    leader's (player 0) utility gap ``scheme_a - scheme_b`` per point, in
    ``scheme_a``'s order, over the runs where both converged."""
    groups = _runs(records)
    out = []
    for (scheme, *point), runs in groups.items():
        if scheme != scheme_a:
            continue
        others = groups.get((scheme_b, *point), {})
        pairs = [(run.get(0), others.get(key, {}).get(0)) for key, run in runs.items()]
        gaps = [a.utility - b.utility for a, b in pairs if a and b and a.converged and b.converged]
        if gaps:
            mean_gap, _, ci95 = _stats(np.array(gaps))
            out.append(PairedGap(*point, len(gaps), mean_gap, ci95))
    return out


def load_config_file(path) -> dict:
    """Parse a flat ``key=value`` config file ('#' starts a comment)."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def config_from_values(file_values: dict, overrides: dict) -> ScenarioConfig:
    """Build a config from file values with flag overrides on top.

    ``None`` overrides are unset flags.  Text values, from either source,
    go through their field's parser; other values are taken as they are.
    """
    scenario = {f.name: f for f in fields(ScenarioConfig)}
    merged = {**file_values, **{k: v for k, v in overrides.items() if v is not None}}
    for key, value in merged.items():
        if key not in scenario:
            raise ValueError(f"unknown config key {key!r}")
        if isinstance(value, str):
            try:
                merged[key] = scenario[key].metadata["parse"](value)
            except ValueError as exc:
                raise ValueError(f"bad {key} value {value!r}: {exc}") from None
    return ScenarioConfig(**merged)
