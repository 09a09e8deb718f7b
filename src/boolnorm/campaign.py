"""Randomized conformance campaigns over seeded norm instances.

Each trial draws a norm, reduces a basis, runs the requested checkers, and
contributes one fixed-column CSV row; trials are independent and seeded per
index, and run in order on the calling thread.  Trials run in blocks: a
block stacks its norm tables, reduces and checks every basis in array passes
over the stack, then draws each trial's rebase and checks every witness in
one pass.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO

import numpy as np

from .algebra import TriangularBasis
from .instances import _SPEC_DRAWERS, NORM_FAMILIES, _random_metrics, _random_sequence, rng_from
from .errors import RankTooLargeError
from .norms import (
    _CHUNK,
    EXHAUSTIVE_RANK_BOUND,
    NormOracle,
    _graev_table,
    _metric_failure,
    _spec_tables,
    restrict_oracle,
)
from .rebasing import _witness_failures, build_second_basis, f_iterates, verify_independence
from .reduction import _reduced_rows
from .verification import LEMMA_CHECKS, _check_block

CHECK_NAMES = (*LEMMA_CHECKS, "rebase")

CSV_COLUMNS = (
    "trial",
    "family",
    "rank",
    "pass",
    *(f"{name.lower()}_pass" for name in CHECK_NAMES),
    "violations",
    "worst_l1_ratio",
    "min_epsilon",
)

REBASE_COMBO_SAMPLES = 64


@dataclass(frozen=True)
class CampaignConfig:
    rank: int
    trials: int
    family: str = "closure"
    norm: NormOracle | None = None
    checks: tuple[str, ...] = LEMMA_CHECKS
    seed: int = 0
    threads: int = 1

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.rank > EXHAUSTIVE_RANK_BOUND:
            # every trial runs the exhaustive checkers and the doubling ratio
            raise RankTooLargeError(
                f"campaign rank {self.rank} exceeds the exhaustive bound {EXHAUSTIVE_RANK_BOUND}"
            )
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if not self.checks:
            raise ValueError("at least one check is required")
        if len(set(self.checks)) != len(self.checks):
            raise ValueError(f"repeated check name in {', '.join(self.checks)}")
        for name in self.checks:
            if name not in CHECK_NAMES:
                raise ValueError(f"unknown check {name!r} (choose from {', '.join(CHECK_NAMES)})")
        if self.family not in NORM_FAMILIES:
            raise ValueError(f"unknown norm family {self.family!r}")
        if self.norm is not None and self.norm.rank < self.rank:
            raise ValueError(f"norm covers rank {self.norm.rank}, campaign needs {self.rank}")
        if "rebase" in self.checks and self.rank < 3:
            raise ValueError("the rebase check needs rank >= 3")


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


def _drawn_tables(family: str, rank: int, rngs, trials: range) -> np.ndarray:
    """The (B, 2**rank) table stack of the trials whose norms are drawn on
    rngs, in trial order.  A graev block's metrics are drawn, closed under
    shortest paths and validated as one stack, with no MetricSpec, and its
    tables are built from that array; a weighted or closure block builds
    its specs' tables as one stack."""
    if family != "graev":
        return _spec_tables([_SPEC_DRAWERS[family](rng, rank) for rng in rngs], rank)
    dist = _random_metrics(rngs, rank)
    failure = _metric_failure(dist)
    if failure is not None:
        raise ValueError(f"trial {trials[failure[0]]}: {failure[1]}")
    return _graev_table(dist, rank)


def _rebase_draw(rng, basis, row_norms) -> tuple | None:
    """A trial's rebase draws on its own generator: an approach sequence,
    whose parity letters are ranked by row_norms (the basis rows' norms,
    from the block's reduce), and, when the rows it builds are independent,
    the combination masks to witness, as the witness pass's (rows, iters,
    masks) item; None for dependent rows."""
    seq = _random_sequence(rng, basis.rank, row_norms.__getitem__)
    built = build_second_basis(basis, seq)
    if not verify_independence(built).independent:
        return None
    nrows = len(built.rows)
    if nrows <= 8:
        masks = np.arange(1, 1 << nrows)
    else:
        # one draw of every sample, the same masks as one draw per sample
        masks = rng.integers(1, 1 << nrows, size=REBASE_COMBO_SAMPLES)
    return built.rows, f_iterates(seq, basis.rank), masks


def _rebased(rngs, bases, row_norms) -> list[bool]:
    """The rebase verdict of each trial of a block: its draws in trial
    order, then one witness pass over every independent trial."""
    draws = [
        _rebase_draw(rng, TriangularBasis(tuple(rows)), norms)
        for rng, rows, norms in zip(rngs, bases.tolist(), row_norms.tolist())
    ]
    items = [d for d in draws if d is not None]
    failures = iter(_witness_failures(items) if items else ())
    return [d is not None and next(failures) == 0 for d in draws]


def _run_block(cfg: CampaignConfig, trials: range) -> list[dict]:
    """The rows of the given trials.  Each draws its norm from its own
    generator, in trial order, and the block builds their tables as one
    stack (_drawn_tables); the block reduces and checks every basis in one
    pass per lemma; then each trial draws its rebase on its own generator,
    in trial order, reading its row norms off the block's reduce, and one
    witness pass checks them all.  The checks draw nothing, so every
    generator sees the draws a trial run alone would make.  No norm value
    is read through an oracle's __call__."""
    rngs = [rng_from(cfg.seed, t) for t in trials]
    if cfg.norm is not None:
        family = cfg.norm.kind
        # every trial reads the same prefix: broadcast, not copied
        prefix = restrict_oracle(cfg.norm, cfg.rank).table()
        tables = np.broadcast_to(prefix, (len(trials), prefix.size))
    else:
        family = cfg.family
        stack = _drawn_tables(family, cfg.rank, rngs, trials)
        # the stack is read back through each trial's table(), so perfbench's
        # tracer, which wraps it, sees one table read per trial
        tables = np.stack([NormOracle(cfg.rank, table=row).table() for row in stack])
    bases, row_norms = _reduced_rows(tables)
    lemmas = [name for name in cfg.checks if name != "rebase"]
    reports, ratios, radii = _check_block(tables, bases, lemmas)
    rebased = _rebased(rngs, bases, row_norms) if "rebase" in cfg.checks else None
    rows = []
    for b, trial in enumerate(trials):
        row: dict = {name: "" for name in CSV_COLUMNS}
        row["trial"] = trial
        row["family"] = family
        row["rank"] = cfg.rank
        violations = 0
        all_ok = True
        for name in cfg.checks:
            if name == "rebase":
                passed = rebased[b]
                found = int(not passed)
            else:
                rep = reports[name][b]
                passed, found = rep.passed, len(rep.violations)
            row[f"{name.lower()}_pass"] = _fmt_bool(passed)
            all_ok &= passed
            violations += found
        row["pass"] = _fmt_bool(all_ok)
        row["violations"] = violations
        row["worst_l1_ratio"] = repr(ratios[b])
        row["min_epsilon"] = repr(float(radii[b]))
        rows.append(row)
    return rows


def run_campaign(cfg: CampaignConfig) -> tuple[list[dict], dict]:
    """Every trial row, run in order on the calling thread, plus a summary.
    A block holds max(1, _CHUNK >> rank) trials, so that each of its
    (trials, 2**rank) arrays holds at most _CHUNK entries; one block is
    alive at a time."""
    step = max(1, _CHUNK >> cfg.rank)
    rows = []
    for start in range(0, cfg.trials, step):
        rows += _run_block(cfg, range(start, min(start + step, cfg.trials)))
    failures = sum(1 for r in rows if r["pass"] != "true")
    summary = {
        "trials": cfg.trials,
        "failures": failures,
        "pass_rate": 100.0 * (cfg.trials - failures) / cfg.trials,
        "worst_l1_ratio": max(float(r["worst_l1_ratio"]) for r in rows),
        "min_epsilon": float(np.min([float(r["min_epsilon"]) for r in rows])),
    }
    return rows, summary


def write_csv(rows: list[dict], stream: IO[str]) -> None:
    writer = csv.DictWriter(stream, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
