"""Command-line front end: reduce, verify, rebase, and campaign runs.

Exit codes: 0 = all requested checks pass, 1 = a mathematical check failed,
2 = input or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Mapping

import numpy as np

from .algebra import GeneralBasis, from_support, support
from .campaign import CHECK_NAMES, CampaignConfig, run_campaign, write_csv
from .errors import BoolnormError
from .instances import NORM_FAMILIES, rng_from
from .norms import (
    EXHAUSTIVE_RANK_BOUND,
    NormOracle,
    check_norm_axioms,
    coordinate_norm,
    oracle_for,
    parse_norm_spec,
    restrict_oracle,
)
from .rebasing import (
    build_second_basis,
    check_witnesses,
    f_iterates,
    normalize_sequence,
    separation_profile,
    verify_independence,
)
from .reduction import reduce_basis, reduce_basis_report
from .verification import LEMMA_CHECKS, run_checks


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nests too deeply") from None


def _emit_json(payload: Mapping, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _load_oracle(args) -> tuple[NormOracle, int]:
    data = _load_json(args.norm)
    oracle = oracle_for(parse_norm_spec(data))
    rank = args.rank if args.rank is not None else oracle.rank
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if rank > oracle.rank:
        raise ValueError(f"norm spec covers rank {oracle.rank}, requested {rank}")
    # The axiom gate.  Above the exhaustive bound it checks the largest
    # checkable restriction; a restriction of a norm is again a norm.
    report = check_norm_axioms(restrict_oracle(oracle, min(rank, EXHAUSTIVE_RANK_BOUND)))
    if not report.passed:
        v = report.violation
        raise ValueError(
            f"norm axioms fail ({v.axiom}) at g={list(v.g)}, h={None if v.h is None else list(v.h)}: "
            f"{v.lhs} > {v.rhs}"
        )
    return oracle, rank


def _parse_checks(text: str, allowed: tuple[str, ...]) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names:
        raise ValueError("at least one check name is required")
    for name in names:
        if name not in allowed:
            raise ValueError(f"unknown check {name!r} (choose from {', '.join(allowed)})")
    if len(set(names)) != len(names):
        raise ValueError(f"repeated check name in {text!r}")
    return names


def _load_basis_file(path: str, oracle_rank: int):
    data = _load_json(path)
    if not isinstance(data, list):
        raise ValueError("basis file must be a JSON array of support arrays")
    if not data:
        # no lemma would evaluate anything on an empty basis, yet all pass
        raise ValueError("basis file must hold at least one row")
    return GeneralBasis(tuple(from_support(entry, oracle_rank) for entry in data))


def cmd_reduce(args) -> int:
    oracle, rank = _load_oracle(args)
    basis, records = reduce_basis_report(oracle, rank, prune=args.prune)
    payload = {
        "rank": rank,
        "norm_kind": oracle.kind,
        "basis": [list(support(row)) for row in basis.rows],
        "rows": [dataclasses.asdict(rec) for rec in records],
    }
    _emit_json(payload, args.out)
    return 0


def cmd_verify(args) -> int:
    checks = _parse_checks(args.checks, LEMMA_CHECKS)
    oracle, rank = _load_oracle(args)
    if args.basis is not None:
        basis = _load_basis_file(args.basis, oracle.rank)
    else:
        basis = reduce_basis(oracle, rank)
    reports, _ = run_checks(basis, oracle, checks)
    ok = all(rep.passed for rep in reports.values())
    payload = {
        "rank": len(basis.rows),
        "norm_kind": oracle.kind,
        "basis": [list(support(row)) for row in basis.rows],
        "pass": ok,
        "checks": {name: rep.to_json() for name, rep in reports.items()},
    }
    _emit_json(payload, args.out)
    return 0 if ok else 1


def cmd_rebase(args) -> int:
    oracle, rank = _load_oracle(args)
    basis = reduce_basis(oracle, rank)
    data = _load_json(args.seq)
    if not isinstance(data, list):
        raise ValueError("sequence file must be a JSON array of coordinate arrays")
    raw = [from_support(entry, oracle.rank) for entry in data]
    seq = normalize_sequence(raw, basis, oracle)
    built = build_second_basis(basis, seq)
    res = verify_independence(built)
    nrows = len(built.rows)

    if nrows <= 12:
        combo_masks = range(1, 1 << nrows)
    else:
        rng = rng_from(args.seed, nrows)
        combo_masks = np.unique(rng.integers(1, 1 << nrows, size=4096)).tolist()
    checked, witness_failures = check_witnesses(built, basis, seq, combo_masks)

    profile = separation_profile(built, coordinate_norm(basis, oracle), seq)
    ok = res.independent and witness_failures == 0
    payload = {
        "rows": [list(support(row)) for row in built.rows],
        "f_iterates": f_iterates(seq, rank),
        "independent": res.independent,
        "rank": res.rank,
        "witnesses_checked": checked,
        "witness_failures": witness_failures,
        "separation": profile,
        "normalized_terms": [list(support(t)) for t in seq.terms],
        "terms_dropped": len(raw) - len(seq.terms),
    }
    _emit_json(payload, args.out)
    return 0 if ok else 1


def cmd_campaign(args) -> int:
    checks = _parse_checks(args.checks, CHECK_NAMES)
    norm = None
    if args.norm is not None:
        norm = oracle_for(parse_norm_spec(_load_json(args.norm)))
    cfg = CampaignConfig(
        rank=args.rank,
        trials=args.trials,
        family=args.family,
        norm=norm,
        checks=checks,
        seed=args.seed,
        threads=args.threads,
    )
    rows, summary = run_campaign(cfg)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_csv(rows, fh)
    print(
        "campaign: trials={trials} failures={failures} pass_rate={pass_rate:.2f}% "
        "worst_l1_ratio={worst_l1_ratio!r} min_epsilon={min_epsilon!r}".format(**summary)
    )
    return 0 if summary["failures"] == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolnorm",
        description="Norm-minimizing bases and separation checks for finite-rank Boolean groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--norm", required=True, help="norm spec JSON file")
        p.add_argument("--rank", type=int, default=None, help="truncation rank (default: norm rank)")
        p.add_argument("--out", default=None, help="output file (default: stdout)")

    p_reduce = sub.add_parser("reduce", help="build the norm-minimizing basis")
    common(p_reduce)
    p_reduce.add_argument("--prune", action="store_true", help="use the pruned coset search")
    p_reduce.set_defaults(func=cmd_reduce)

    p_verify = sub.add_parser("verify", help="run the lemma checkers")
    common(p_verify)
    p_verify.add_argument(
        "--checks", default=",".join(LEMMA_CHECKS), help="comma list of " + ",".join(LEMMA_CHECKS)
    )
    p_verify.add_argument("--basis", default=None, help="basis JSON overriding the reduction")
    p_verify.set_defaults(func=cmd_verify)

    p_rebase = sub.add_parser("rebase", help="rebase along an approach sequence")
    common(p_rebase)
    p_rebase.add_argument("--seq", required=True, help="sequence JSON file (coordinate arrays)")
    p_rebase.add_argument("--seed", type=int, default=0, help="seed for witness sampling")
    p_rebase.set_defaults(func=cmd_rebase)

    p_campaign = sub.add_parser("campaign", help="randomized conformance campaign")
    p_campaign.add_argument("--rank", type=int, required=True)
    p_campaign.add_argument("--trials", type=int, required=True)
    p_campaign.add_argument("--seed", type=int, default=0)
    p_campaign.add_argument("--threads", type=int, default=1, help="accepted; has no effect")
    p_campaign.add_argument("--family", default="closure", choices=NORM_FAMILIES)
    p_campaign.add_argument("--norm", default=None, help="fixed norm spec instead of random draws")
    p_campaign.add_argument(
        "--checks", default=",".join(LEMMA_CHECKS), help="comma list of " + ",".join(CHECK_NAMES)
    )
    p_campaign.add_argument("--out", required=True, help="CSV output file")
    p_campaign.set_defaults(func=cmd_campaign)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except BoolnormError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
