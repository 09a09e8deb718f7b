"""Randomized conformance campaigns over seeded norm instances.

Each trial draws a norm, reduces a basis, runs the requested checkers, and
contributes one fixed-column CSV row; trials are independent and seeded per
index, and run in order on the calling thread.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO

import numpy as np

from .instances import NORM_FAMILIES, random_norm, random_sequence, rng_from
from .errors import RankTooLargeError
from .norms import EXHAUSTIVE_RANK_BOUND, NormOracle
from .rebasing import build_second_basis, check_witnesses, verify_independence
from .reduction import reduce_basis
from .verification import LEMMA_CHECKS, min_separation, run_checks

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


def _rebase_trial(rng, basis, oracle) -> bool:
    seq = random_sequence(rng, basis, oracle)
    built = build_second_basis(basis, seq)
    res = verify_independence(built)
    if not res.independent:
        return False
    nrows = len(built.rows)
    if nrows <= 8:
        combos = range(1, 1 << nrows)
    else:
        # one draw of every sample, the same masks as one draw per sample
        combos = rng.integers(1, 1 << nrows, size=REBASE_COMBO_SAMPLES)
    return check_witnesses(built, basis, seq, combos)[1] == 0


def run_trial(cfg: CampaignConfig, trial: int) -> dict:
    rng = rng_from(cfg.seed, trial)
    if cfg.norm is not None:
        oracle, family = cfg.norm, cfg.norm.kind
    else:
        _, oracle = random_norm(rng, cfg.rank, cfg.family)
        family = cfg.family
    basis = reduce_basis(oracle, cfg.rank)

    row: dict = {name: "" for name in CSV_COLUMNS}
    row["trial"] = trial
    row["family"] = family
    row["rank"] = cfg.rank
    lemmas = [name for name in cfg.checks if name != "rebase"]
    reports, ratio = run_checks(basis, oracle, lemmas, ratio=True)
    violations = 0
    all_ok = True
    for name in cfg.checks:
        if name == "rebase":
            passed = _rebase_trial(rng, basis, oracle)
            found = int(not passed)
        else:
            rep = reports[name]
            passed, found = rep.passed, len(rep.violations)
        row[f"{name.lower()}_pass"] = _fmt_bool(passed)
        all_ok &= passed
        violations += found
    row["pass"] = _fmt_bool(all_ok)
    row["violations"] = violations
    row["worst_l1_ratio"] = repr(ratio)
    row["min_epsilon"] = repr(min_separation(basis, oracle))
    return row


def run_campaign(cfg: CampaignConfig) -> tuple[list[dict], dict]:
    """Every trial row, run in order on the calling thread, plus a summary."""
    rows = [run_trial(cfg, t) for t in range(cfg.trials)]
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
