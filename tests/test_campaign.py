"""A campaign block against its trials run one at a time.

A block stacks its trials' norm tables, reduces every basis in one coset
loop and runs each lemma as one pass over one view of the block.  Each
trial's share of it must equal what the same kernels report for that trial
alone (a block of one), and what the public single-basis functions report.
"""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolnorm import (
    LEMMA_CHECKS,
    NanNormError,
    NormOracle,
    TriangularBasis,
    UnusableSequenceError,
    check_null_tail,
    closure_norm,
    min_separation,
    reduce_basis,
    reduce_basis_report,
    run_checks,
    worst_geometric_ratio,
)
from boolnorm import campaign, verification
from boolnorm.algebra import _spans
from boolnorm.campaign import CHECK_NAMES, CampaignConfig, run_campaign, write_csv
from boolnorm.instances import random_base_table, random_norm, rng_from
from boolnorm.reduction import _reduced_rows

TINY = np.finfo(float).tiny
# Finite entries: ordinary values, values whose 2**k multiples overflow (L1's
# overflow branch) and subnormal or near-subnormal ones (row norms below
# 2**r times the smallest normal float).
FINITE = st.sampled_from(
    [0.5, 1.0, 2.0, 3.0, 1.0 + 1e-10, 1e308, 1.7976931348623157e308, 1e-310, 5e-324]
    + [math.ldexp(TINY, e) for e in (0, 3)]
)
# Entries no norm holds: zeros of both signs, negatives, NaN and +-inf.
RAW = st.one_of(
    FINITE, st.sampled_from([0.0, -0.0, -1.0, float("nan"), float("inf"), -float("inf")])
)
# Few distinct values, so coset minima tie.
TIES = st.sampled_from([1.0, 2.0, 3.0])


def draw_block(data, max_rank=5, max_trials=4):
    """A (T, 2**r) stack of tables, each drawn from one of FINITE, RAW or
    TIES, and a (T, r) stack of triangular bases."""
    rank = data.draw(st.integers(min_value=1, max_value=max_rank))
    trials = data.draw(st.integers(min_value=1, max_value=max_trials))
    tables, rows = [], []
    for _ in range(trials):
        value = data.draw(st.sampled_from([FINITE, RAW, TIES]))
        size = (1 << rank) - 1
        tables.append([0.0] + data.draw(st.lists(value, min_size=size, max_size=size)))
        rows.append(
            [data.draw(st.integers(min_value=0, max_value=(1 << j) - 1)) | 1 << j
             for j in range(rank)]
        )
    return np.array(tables), np.array(rows, dtype=np.int64)


def text(report):
    # NaN != NaN, so compare the JSON text
    return json.dumps(report.to_json())


def assert_block_matches_one_at_a_time(tables, rows, tol):
    """Every lemma, the ratio and the separation over the block equal the
    same kernels run on each trial alone and the public functions."""
    view = verification._view(np.take_along_axis(tables, _spans(rows), axis=1))
    reports, ratios, radii = verification._check_block(tables, rows, LEMMA_CHECKS)
    at_tol = {name: verification._VIEW_CHECKS[name](view, tol) for name in LEMMA_CHECKS}
    assert len(ratios) == len(radii) == len(tables)
    for t, (table, basis_rows) in enumerate(zip(tables, rows)):
        basis = TriangularBasis(tuple(basis_rows.tolist()))
        oracle = NormOracle(len(basis.rows), table=table)
        alone = verification._coordinate_view(basis, oracle)
        single, ratio = run_checks(basis, oracle, LEMMA_CHECKS, ratio=True)
        for name in LEMMA_CHECKS:
            assert text(reports[name][t]) == text(single[name]), name
            want = verification._VIEW_CHECKS[name](alone, tol)
            assert len(want) == 1
            assert text(at_tol[name][t]) == text(want[0]), (name, tol)
        assert text(at_tol["L4"][t]) == text(check_null_tail(basis, oracle, tol=tol))
        assert repr(ratios[t]) == repr(ratio) == repr(worst_geometric_ratio(basis, oracle))
        assert repr(float(radii[t])) == repr(min_separation(basis, oracle))


def assert_reduce_matches_one_at_a_time(tables):
    """The block's reduced rows and row norms, or its NanNormError, equal
    reduce_basis_report run on each table in trial order."""
    rank = tables.shape[1].bit_length() - 1
    want = []
    try:
        for table in tables:
            want.append(reduce_basis_report(NormOracle(rank, table=table), rank))
    except NanNormError as err:
        with pytest.raises(NanNormError) as got:
            _reduced_rows(tables)
        assert str(got.value) == str(err)
        return
    rows, norms = _reduced_rows(tables)
    for (basis, records), got_rows, got_norms in zip(want, rows.tolist(), norms.tolist()):
        assert tuple(got_rows) == basis.rows
        assert [repr(x) for x in got_norms] == [repr(rec.norm) for rec in records]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_block_reports_what_each_trial_reports_alone(data):
    tables, rows = draw_block(data)
    tol = data.draw(st.sampled_from([verification.RELATIVE_TOLERANCE, 0.0, 0.25, -1e-9, -0.5]))
    assert_block_matches_one_at_a_time(tables, rows, tol)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_block_reduces_to_what_each_trial_reduces_to_alone(data):
    tables, _ = draw_block(data, max_rank=6)
    assert_reduce_matches_one_at_a_time(tables)


@pytest.mark.parametrize("tol", [verification.RELATIVE_TOLERANCE, -1e-9])
def test_named_blocks_report_what_each_trial_reports_alone(tol):
    """The cases a random draw might miss: a finite table beside one holding
    inf or NaN, a subnormal row norm (the scaled-word cut is inexact), and
    bounds 2**k * 1e308 past the float range (L1's overflow branch)."""
    nan, inf, unit = float("nan"), float("inf"), 5e-324
    finite = [0.0, 1.0, 2.0, 1.5, 3.0, 2.5, 2.0, 3.5]
    cases = [
        [finite, [0.0, 1.0, 2.0, nan, 3.0, 2.5, 2.0, 3.5]],
        [[0.0, 1.0, inf, 1.5, 3.0, 2.5, 2.0, 3.5], finite],
        [finite, [0.0, 5 * unit, 2 * unit, 2 * unit, 1.0, 1.0, 1.0, 1.0]],
        [[0.0, 1e308, 1e308, 1e308, 1.0, 1e308, 1e308, 1e308], finite],
    ]
    identity, mixed = [1, 2, 4], [1, 3, 5]
    for tables in cases:
        tables = np.array(tables)
        for rows in ([identity, mixed], [mixed, identity]):
            assert_block_matches_one_at_a_time(tables, np.array(rows, dtype=np.int64), tol)
        assert_reduce_matches_one_at_a_time(tables)


def test_a_block_of_ties_reduces_to_the_smallest_supports():
    # In the first table every coset entry ties, so each row is the
    # lexicographically smallest support of its coset: {1}, {1, 2} and
    # {1, 2, 3}.  The second ties in its second coset only.
    tables = np.array([[0.0] + [1.0] * 7, [0.0, 2.0, 1.0, 1.0, 3.0, 3.0, 1.0, 3.0]])
    rows, _ = _reduced_rows(tables)
    assert rows.tolist() == [[1, 3, 7], [1, 3, 6]]
    assert_reduce_matches_one_at_a_time(tables)


def reference_trial(cfg, trial):
    """One campaign row from the public single-basis functions: the trial
    loop campaigns ran before trials were run in blocks."""
    rng = rng_from(cfg.seed, trial)
    if cfg.norm is not None:
        oracle, family = cfg.norm, cfg.norm.kind
    else:
        _, oracle = random_norm(rng, cfg.rank, cfg.family)
        family = cfg.family
    basis = reduce_basis(oracle, cfg.rank)
    row = {name: "" for name in campaign.CSV_COLUMNS}
    row.update(trial=trial, family=family, rank=cfg.rank)
    lemmas = [name for name in cfg.checks if name != "rebase"]
    reports, ratio = run_checks(basis, oracle, lemmas, ratio=True)
    violations, all_ok = 0, True
    for name in cfg.checks:
        if name == "rebase":
            passed = campaign._rebase_trial(rng, basis, oracle)
            found = int(not passed)
        else:
            passed, found = reports[name].passed, len(reports[name].violations)
        row[f"{name.lower()}_pass"] = "true" if passed else "false"
        all_ok &= passed
        violations += found
    row["pass"] = "true" if all_ok else "false"
    row["violations"] = violations
    row["worst_l1_ratio"] = repr(ratio)
    row["min_epsilon"] = repr(min_separation(basis, oracle))
    return row


@pytest.mark.parametrize(
    "cfg",
    [
        CampaignConfig(rank=4, trials=5, family="graev", seed=3, checks=CHECK_NAMES),
        CampaignConfig(rank=5, trials=3, family="weighted", seed=2, checks=("L4", "L1", "rebase")),
        CampaignConfig(
            rank=4,
            trials=5,
            norm=closure_norm(random_base_table(rng_from(11), 6)),
            seed=1,
            checks=CHECK_NAMES,
        ),
    ],
    ids=["graev", "weighted", "fixed-norm"],
)
def test_campaign_rows_equal_the_one_trial_reference(cfg):
    rows, _ = run_campaign(cfg)
    assert rows == [reference_trial(cfg, t) for t in range(cfg.trials)]


def test_a_fixed_nan_table_raises_at_trial_0():
    nan_table = NormOracle(3, table=[0.0, 1.0, 2.0, float("nan"), 1.0, 2.0, 2.0, 3.0])
    with pytest.raises(NanNormError) as want:
        reduce_basis(nan_table, 3)
    with pytest.raises(NanNormError) as got:
        run_campaign(CampaignConfig(rank=3, trials=5, norm=nan_table))
    assert str(got.value) == str(want.value) == (
        "norm of (1, 2) is NaN; the coset minimum is undefined"
    )
    assert got.value.code == "nan-norm"


def campaign_csv(cfg):
    try:
        rows, summary = run_campaign(cfg)
    except UnusableSequenceError as err:
        return f"UnusableSequenceError: {err}"
    out = io.StringIO()
    write_csv(rows, out)
    return out.getvalue() + repr(sorted(summary.items()))


def test_blocks_of_one_and_full_blocks_give_the_same_bytes(monkeypatch):
    """Seeds 0, 1 and 7 x ranks 3, 6 and 10 x the three families, 40 trials
    and every check: blocks of one trial and the default blocks (all 40
    trials at ranks 3 and 6, 8 at rank 10) give the same CSV and summary,
    or the same error."""
    configs = [
        CampaignConfig(rank=rank, trials=40, family=family, seed=seed, checks=CHECK_NAMES)
        for seed in (0, 1, 7)
        for rank in (3, 6, 10)
        for family in ("closure", "graev", "weighted")
    ]
    default = [campaign_csv(cfg) for cfg in configs]
    monkeypatch.setattr(campaign, "_CHUNK", 1)
    assert [campaign_csv(cfg) for cfg in configs] == default
    errors = [out for out in default if out.startswith("UnusableSequenceError")]
    assert errors == ["UnusableSequenceError: no usable sequence after 10 draws"]
