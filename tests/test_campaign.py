"""A campaign block against its trials run one at a time.

A block stacks its trials' norm tables, reduces every basis in one coset
loop and runs each lemma as one pass over one view of the block.  Each
trial's share of it must equal what the same kernels report for that trial
alone (a block of one), and what the public single-basis functions report.
"""

import hashlib
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
    build_second_basis,
    check_null_tail,
    check_witnesses,
    closure_norm,
    min_separation,
    reduce_basis,
    reduce_basis_report,
    run_checks,
    verify_independence,
    worst_geometric_ratio,
)
from boolnorm import campaign, verification
from boolnorm.algebra import _spans
from boolnorm.campaign import CHECK_NAMES, CampaignConfig, run_campaign, write_csv
from boolnorm.cli import main
from boolnorm.instances import random_base_table, random_norm, random_sequence, rng_from
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


def reference_rebase(rng, basis, oracle):
    """A trial's rebase verdict from the public functions, one trial at a
    time: its sequence, rows and masks drawn on its generator, then
    check_witnesses."""
    seq = random_sequence(rng, basis, oracle)
    built = build_second_basis(basis, seq)
    if not verify_independence(built).independent:
        return False
    nrows = len(built.rows)
    if nrows <= 8:
        combos = range(1, 1 << nrows)
    else:
        combos = rng.integers(1, 1 << nrows, size=campaign.REBASE_COMBO_SAMPLES)
    return check_witnesses(built, basis, seq, combos)[1] == 0


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
            passed = reference_rebase(rng, basis, oracle)
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


# SHA-256 of the CSV that `campaign --family F --rank R --trials 40 --seed S
# --checks L0iii,L1,L2,L3,L4,rebase` writes, keyed (S, R, F); None where the
# campaign finds no usable sequence and exits 2 without a CSV.
CAMPAIGN_CSV_SHA256 = {
    (0, 3, "closure"): "9c8b68b5739aa3c71a70268dd9bc8f3864f0d9032a311ce798a6faa4321058e5",
    (0, 3, "graev"): "9d317c935a947a1f0cf1e9c987fe19d514dbfcf2f33e83ec1e4567b145fff167",
    (0, 3, "weighted"): "bb247b92b1f852adc07535e0e9cb9ced2263fabefb1ec85d7a8e1019060a87bf",
    (0, 6, "closure"): "14a1a45842a2b7e49ce13d096e07ac554a52c9e2d0956d03b767157d92251024",
    (0, 6, "graev"): "5ab85ad7130574b04b24415990692823d4363978bb60f86072b4169451ed1e8b",
    (0, 6, "weighted"): "f3a381af83a0bcfb12d1082f82aab44e009e9d245482572a6702cbfbe5775ed5",
    (0, 10, "closure"): "1b2acdc8a8ce2886cbd64c4b75b574ae7d9ec91c4864b2df0dff706bd1c8fdb4",
    (0, 10, "graev"): "6d2f96cfe106bec925b0c9fb3267380f8e3cea4c77f99b62149ffec010a7e456",
    (0, 10, "weighted"): "16d1b6186c0a8bf5761ae9611fc90ac8cab9a52d63268ae9f0fd3c1173e7cc7f",
    (1, 3, "closure"): "0ef32ffc8a06f1dedff435a5c51413bde79bfb3a16e881954c9821c1a7b8ebf8",
    (1, 3, "graev"): "85eb2292e056b3c9cd6013ff0ec08ce65740bbdc3ca3a071359e4315ebd9feea",
    (1, 3, "weighted"): "706d1a7f75f0774189c69c7c31b9d7fdd04fde77ef21b37c16f77cc8ab3b5daf",
    (1, 6, "closure"): "943a6ca02d2c20c97d18b3cf7c021cf921efcca9a0cfa5542a7421cb04645a5c",
    (1, 6, "graev"): "686601ebc26c6fd7d3cbe18d334fc126f297ad3eaf3d0a7dc264ef93dc23e17b",
    (1, 6, "weighted"): "453987e76f608c060ab75a7c9cb4d632d40aea7a5ddfb296bc643a58cf29a11d",
    (1, 10, "closure"): "5acd5eb8969505d3730af955a347b0dc84f0b72edee8df85a08672cb1f4b4c5a",
    (1, 10, "graev"): "4aa48402e9512866e1e0a40d4a2faaf8564f84714a0978684aa497dd0988f5d8",
    (1, 10, "weighted"): "dc3e0f5079f2bc1c7770fb53a22f5f8181abed11ae16c30fda569ee748525470",
    (7, 3, "closure"): None,
    (7, 3, "graev"): "e6fa2883ce25cd33629c197f7cb242e0e8c51ecef4bc7d4bb16bee0dee492d93",
    (7, 3, "weighted"): "a7c5fbecacc6b5d25aaced5838d3645c6958b901bce13d88c880fb1fc4eb3052",
    (7, 6, "closure"): "bab6d391884c034106ccf69e631ace1c6389ff2933287f6a1f8ed95e0724ebdd",
    (7, 6, "graev"): "38b6d139a0f989a3d6b55a14a80dee41101215f9b1d2b6d3a25277e13c88deaa",
    (7, 6, "weighted"): "b486c4ed799760343538acc26a1d5fd7e72ec4cf4ec869344d43477d7aaa7020",
    (7, 10, "closure"): "b464a332b64f68d4677f6a250e1b76216fce8ebc95634253854337151822d7c7",
    (7, 10, "graev"): "c3ca58850747fb27bb6548722ad4117123621c8e99df94294849c4f6e0cfb0e9",
    (7, 10, "weighted"): "e7d65540c7e80e5d6efeb54ebc3b707a792be80ab84d8d34f7b7d14b8966ae1f",
}


@pytest.mark.parametrize("seed, rank, family", sorted(CAMPAIGN_CSV_SHA256))
def test_campaign_csvs_are_pinned(tmp_path, capsys, seed, rank, family):
    out = tmp_path / "trials.csv"
    args = ["campaign", "--family", family, "--rank", str(rank), "--trials", "40"]
    args += ["--seed", str(seed), "--checks", ",".join(CHECK_NAMES), "--out", str(out)]
    want = CAMPAIGN_CSV_SHA256[seed, rank, family]
    if want is None:
        assert main(args) == 2
        assert "no usable sequence after 10 draws" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert main(args) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want
