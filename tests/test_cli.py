import json
import tracemalloc

import numpy as np
import pytest

from boolnorm.cli import main

NORM_A = {"kind": "closure", "base": {"1": 1.0, "2": 3.0, "1,2": 2.0}}
BAD_PAIR_NORM = {"kind": "closure", "base": {"1": 4.0, "2": 5.0, "1,2": 2.0}}


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def norm_a_file(tmp_path):
    return write_json(tmp_path / "norm_a.json", NORM_A)


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_reduce_norm_a(tmp_path, norm_a_file):
    out = tmp_path / "basis.json"
    assert main(["reduce", "--norm", norm_a_file, "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["basis"] == [[1], [1, 2]]
    assert payload["rows"][1]["norm"] == 2.0
    assert payload["rows"][1]["coset_size"] == 2


def test_reduce_weighted_identity(tmp_path):
    norm = write_json(
        tmp_path / "w.json", {"kind": "weighted", "weights": [1.0, 0.5, 2.0, 1.5, 3.0]}
    )
    out = tmp_path / "basis.json"
    assert main(["reduce", "--norm", norm, "--out", str(out)]) == 0
    assert read_json(out)["basis"] == [[1], [2], [3], [4], [5]]


def test_reduce_rejects_negative_weight(tmp_path, capsys):
    norm = write_json(tmp_path / "w.json", {"kind": "weighted", "weights": [1.0, -2.0]})
    assert main(["reduce", "--norm", norm]) == 2
    assert "error" in capsys.readouterr().err


def test_reduce_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["reduce", "--norm", str(path)]) == 2


def test_reduce_missing_file():
    assert main(["reduce", "--norm", "/nonexistent/norm.json"]) == 2


def test_reduce_rank_above_spec(tmp_path, norm_a_file):
    assert main(["reduce", "--norm", norm_a_file, "--rank", "5"]) == 2


def test_verify_norm_a_all_checks(tmp_path, norm_a_file):
    out = tmp_path / "report.json"
    assert main(["verify", "--norm", norm_a_file, "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["pass"] is True
    assert set(payload["checks"]) == {"L0iii", "L1", "L2", "L3", "L4"}
    assert payload["checks"]["L0iii"]["checked"] == 3


def test_verify_with_basis_override_fails(tmp_path):
    norm = write_json(tmp_path / "bad.json", BAD_PAIR_NORM)
    basis = write_json(tmp_path / "basis.json", [[1], [2]])
    out = tmp_path / "report.json"
    code = main(["verify", "--norm", norm, "--basis", basis, "--out", str(out)])
    assert code == 1
    payload = read_json(out)
    assert payload["pass"] is False
    violations = payload["checks"]["L0iii"]["violations"]
    assert violations == [{"witness": {"set": [1, 2]}, "lhs": 5.0, "rhs": 2.0}]


def test_verify_unknown_check(norm_a_file):
    assert main(["verify", "--norm", norm_a_file, "--checks", "L9"]) == 2


def test_verify_subset_of_checks(tmp_path, norm_a_file):
    out = tmp_path / "report.json"
    assert main(["verify", "--norm", norm_a_file, "--checks", "L1,L4", "--out", str(out)]) == 0
    assert set(read_json(out)["checks"]) == {"L1", "L4"}


def test_rebase_example(tmp_path):
    norm = write_json(
        tmp_path / "w4.json", {"kind": "weighted", "weights": [1.0, 1.0, 1.0, 1.0]}
    )
    seq = write_json(tmp_path / "seq.json", [[2], [1, 2, 3], [1, 3, 4]])
    out = tmp_path / "rebase.json"
    assert main(["rebase", "--norm", norm, "--seq", seq, "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["rows"] == [[1], [1, 2], [1, 3], [1, 4]]
    assert payload["independent"] is True
    assert payload["rank"] == 4
    assert payload["f_iterates"] == [1, 2, 3, 4]
    assert payload["witness_failures"] == 0
    assert payload["witnesses_checked"] == 15
    assert payload["separation"]["pair_count"] == 6


@pytest.mark.parametrize("seed", [0, 7])
def test_rebase_samples_witness_masks_above_12_rows(tmp_path, seed):
    from boolnorm.instances import rng_from

    norm = write_json(tmp_path / "w13.json", {"kind": "weighted", "weights": [1.0] * 13})
    terms = [[2]] + [[1, k, k + 1] for k in range(2, 13)]
    seq = write_json(tmp_path / "seq.json", terms)
    out = tmp_path / "rebase.json"
    args = ["rebase", "--norm", norm, "--seq", seq, "--seed", str(seed), "--out", str(out)]
    assert main(args) == 0
    payload = read_json(out)
    assert len(payload["rows"]) == 13
    # 4096 draws of one mask each, duplicates counted once
    rng = rng_from(seed, 13)
    drawn = {int(rng.integers(1, 1 << 13)) for _ in range(4096)}
    assert payload["witnesses_checked"] == len(drawn) < 4096
    assert payload["witness_failures"] == 0


def test_rebase_checks_every_witness_mask_of_12_rows(tmp_path):
    norm = write_json(tmp_path / "w12.json", {"kind": "weighted", "weights": [1.0] * 12})
    terms = [[2]] + [[1, k, k + 1] for k in range(2, 12)]
    seq = write_json(tmp_path / "seq.json", terms)
    out = tmp_path / "rebase.json"
    assert main(["rebase", "--norm", norm, "--seq", seq, "--out", str(out)]) == 0
    payload = read_json(out)
    assert len(payload["rows"]) == 12
    assert payload["witnesses_checked"] == (1 << 12) - 1
    assert payload["witness_failures"] == 0


def test_rebase_unusable_sequence(tmp_path):
    norm = write_json(
        tmp_path / "w4.json", {"kind": "weighted", "weights": [1.0, 1.0, 1.0, 1.0]}
    )
    seq = write_json(tmp_path / "seq.json", [[1]])
    assert main(["rebase", "--norm", norm, "--seq", seq]) == 2


def test_rebase_reports_dropped_terms(tmp_path):
    norm = write_json(
        tmp_path / "w4.json", {"kind": "weighted", "weights": [1.0, 1.0, 1.0, 1.0]}
    )
    seq = write_json(tmp_path / "seq.json", [[2], [3], [3], [3], [1, 2, 3], [4]])
    out = tmp_path / "rebase.json"
    assert main(["rebase", "--norm", norm, "--seq", seq, "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["terms_dropped"] == 3
    assert payload["normalized_terms"] == [[2], [3], [4]]


def test_campaign_small(tmp_path, capsys):
    out = tmp_path / "trials.csv"
    code = main(
        ["campaign", "--rank", "4", "--trials", "3", "--seed", "9", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("trial,family,rank,pass")
    assert len(lines) == 4
    assert all(",true," in line for line in lines[1:])
    assert "pass_rate=100.00%" in capsys.readouterr().out


def test_campaign_rejects_zero_trials(tmp_path):
    assert main(["campaign", "--rank", "4", "--trials", "0", "--out", str(tmp_path / "x.csv")]) == 2


def test_campaign_seed_reproducible(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["campaign", "--rank", "4", "--trials", "4", "--seed", "3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_campaign_thread_count_does_not_change_bytes(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["campaign", "--rank", "4", "--trials", "4", "--seed", "3", "--checks", "L0iii,L2,rebase"]
    assert main(args + ["--threads", "1", "--out", str(out1)]) == 0
    assert main(args + ["--threads", "4", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_campaign_runs_every_trial_on_the_calling_thread(monkeypatch):
    """--threads is accepted and has no effect: even with threads=4 and four
    CPUs, every trial's generator is made on the caller's thread, in trial
    order, and each trial draws its rebase there, in trial order, on its
    own generator."""
    import threading

    from boolnorm import campaign

    seen, trial_of, rng_from, rebase_draw = [], {}, campaign.rng_from, campaign._rebase_draw

    def recording_rng_from(seed, trial):
        seen.append(("draw", threading.get_ident(), trial))
        rng = rng_from(seed, trial)
        trial_of[id(rng)] = trial
        return rng

    def recording_rebase_draw(rng, basis, oracle):
        seen.append(("rebase", threading.get_ident(), trial_of[id(rng)]))
        return rebase_draw(rng, basis, oracle)

    monkeypatch.setattr("os.cpu_count", lambda: 4)
    monkeypatch.setattr(campaign, "rng_from", recording_rng_from)
    monkeypatch.setattr(campaign, "_rebase_draw", recording_rebase_draw)
    cfg = campaign.CampaignConfig(rank=3, trials=6, threads=4, checks=("L0iii", "rebase"))
    rows, _ = campaign.run_campaign(cfg)
    me = threading.get_ident()
    assert seen == [("draw", me, t) for t in range(6)] + [("rebase", me, t) for t in range(6)]
    assert [r["trial"] for r in rows] == list(range(6))


@pytest.mark.parametrize("command", ["verify", "campaign"])
def test_repeated_check_names_are_refused(tmp_path, norm_a_file, capsys, command):
    # a repeat would run the check again and count its violations twice
    out = str(tmp_path / "out")
    if command == "verify":
        args = ["verify", "--norm", norm_a_file, "--out", out]
    else:
        args = ["campaign", "--rank", "2", "--trials", "1", "--out", out]
    assert main(args + ["--checks", "L1,L1"]) == 2
    assert "repeated check name" in capsys.readouterr().err


def test_campaign_config_refuses_repeated_checks():
    from boolnorm.campaign import CampaignConfig, run_campaign
    from boolnorm.norms import BaseCostTable, table_norm

    costs = (0.0, 9.51, 1.53, 9.49, 3.19, 4.29, 8.29, 4.15)
    norm = table_norm(BaseCostTable(3, costs))
    rows, _ = run_campaign(CampaignConfig(rank=3, trials=1, norm=norm, checks=("L1",)))
    assert rows[0]["violations"] == 1
    with pytest.raises(ValueError, match="repeated check name"):
        CampaignConfig(rank=3, trials=1, norm=norm, checks=("L1", "L1"))


@pytest.mark.parametrize("command", ["verify", "verify --basis", "rebase"])
def test_deeply_nested_json_is_an_input_error(tmp_path, norm_a_file, capsys, command):
    # json.load raises RecursionError, which must exit 2, not 1 with a traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000, encoding="utf-8")
    args = {
        "verify": ["verify", "--norm", str(deep)],
        "verify --basis": ["verify", "--norm", norm_a_file, "--basis", str(deep)],
        "rebase": ["rebase", "--norm", norm_a_file, "--seq", str(deep)],
    }[command]
    assert main(args) == 2
    assert "nests too deeply" in capsys.readouterr().err


def test_campaign_with_fixed_norm(tmp_path, norm_a_file):
    out = tmp_path / "trials.csv"
    code = main(
        [
            "campaign", "--rank", "2", "--trials", "2", "--norm", norm_a_file,
            "--checks", "L0iii,L1", "--out", str(out),
        ]
    )
    assert code == 0
    body = out.read_text(encoding="utf-8").splitlines()[1:]
    assert all(line.split(",")[1] == "closure" for line in body)


def test_search_bound_ignores_the_environment(tmp_path, norm_a_file, monkeypatch, capsys):
    # No environment variable moves the bound of 24: a rank-2 spec reduces
    # under a setting of 1, and rank 25 is refused before any table is built.
    monkeypatch.setenv("BOOLNORM_SEARCH_BOUND", "1")
    assert main(["reduce", "--norm", norm_a_file, "--out", str(tmp_path / "b.json")]) == 0
    norm = write_json(tmp_path / "w25.json", {"kind": "weighted", "weights": [1.0] * 25})
    tracemalloc.start()
    try:
        assert main(["reduce", "--norm", norm]) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "error[search-bound-exceeded]" in capsys.readouterr().err
    assert peak < 1 << 20


def test_cli_usage_error_is_exit_2(capsys):
    assert main(["reduce"]) == 2  # --norm missing
    capsys.readouterr()


def test_reduce_prune_matches_plain(tmp_path, norm_a_file):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["reduce", "--norm", norm_a_file, "--out", str(out1)]) == 0
    assert main(["reduce", "--norm", norm_a_file, "--prune", "--out", str(out2)]) == 0
    assert read_json(out1)["basis"] == read_json(out2)["basis"]


def test_reduce_beyond_physical_memory_is_an_input_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("boolnorm.reduction.DEFAULT_SEARCH_BOUND", 40)
    norm = write_json(tmp_path / "w40.json", {"kind": "weighted", "weights": [1.0] * 40})
    assert main(["reduce", "--norm", norm]) == 2
    assert "error[rank-too-large]" in capsys.readouterr().err


def test_large_spec_at_small_rank_builds_only_that_prefix(tmp_path):
    norm = write_json(
        tmp_path / "w30.json", {"kind": "weighted", "weights": [1.0 + i / 30 for i in range(30)]}
    )
    out = tmp_path / "basis.json"
    assert main(["reduce", "--norm", norm, "--rank", "10", "--out", str(out)]) == 0
    assert read_json(out)["basis"] == [[j] for j in range(1, 11)]
    report = tmp_path / "report.json"
    assert main(["verify", "--norm", norm, "--rank", "8", "--out", str(report)]) == 0
    assert read_json(report)["pass"] is True


def test_verify_basis_rows_at_high_generators_of_a_large_spec(tmp_path):
    norm = write_json(tmp_path / "w40.json", {"kind": "weighted", "weights": [1.0] * 40})
    basis = write_json(tmp_path / "b.json", [[1], [2], [40]])
    report = tmp_path / "report.json"
    args = ["verify", "--norm", norm, "--rank", "4", "--basis", basis, "--out", str(report)]
    assert main(args) == 0
    assert read_json(report)["basis"] == [[1], [2], [40]]
    assert read_json(report)["pass"] is True


def test_graev_rows_whose_pairing_dp_exceeds_memory_are_refused(tmp_path, capsys):
    # Row 2 holds 59 letters above the gated rank, so it is evaluated alone;
    # its pairing memo would need F(61) entries, about 3.6e14 bytes.
    dist = [[float(i != j) for j in range(61)] for i in range(61)]
    norm = write_json(tmp_path / "g60.json", {"kind": "graev", "dist": dist})
    basis = write_json(tmp_path / "b.json", [[1], list(range(2, 61))])
    out = tmp_path / "report.json"
    args = ["verify", "--norm", norm, "--rank", "2", "--basis", basis, "--checks", "L4"]
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error[rank-too-large]: the pairing DP over 59 letters" in err
    assert not out.exists()


@pytest.mark.parametrize("checks", ["L4", "L0iii"])
def test_verify_refuses_basis_rows_above_generator_63(tmp_path, capsys, checks):
    norm = write_json(tmp_path / "w64.json", {"kind": "weighted", "weights": [1.0] * 64})
    at_63 = write_json(tmp_path / "b63.json", [[63]])
    assert main(["verify", "--norm", norm, "--basis", at_63, "--checks", checks]) == 0
    capsys.readouterr()
    at_64 = write_json(tmp_path / "b64.json", [[64]])
    assert main(["verify", "--norm", norm, "--basis", at_64, "--checks", checks]) == 2
    err = capsys.readouterr().err
    assert "error[rank-too-large]" in err and "generator 64" in err


@pytest.mark.parametrize("bad", [1.9, True])
def test_non_integer_indices_in_json_are_input_errors(tmp_path, norm_a_file, bad, capsys):
    basis = write_json(tmp_path / "basis.json", [[1], [bad]])
    assert main(["verify", "--norm", norm_a_file, "--basis", basis]) == 2
    norm = write_json(
        tmp_path / "w4.json", {"kind": "weighted", "weights": [1.0, 1.0, 1.0, 1.0]}
    )
    seq = write_json(tmp_path / "seq.json", [[2], [1, bad, 3], [1, 3, 4]])
    assert main(["rebase", "--norm", norm, "--seq", seq]) == 2
    assert "index must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [True, "2.5"])
@pytest.mark.parametrize(
    "spec",
    [
        lambda bad: {"kind": "weighted", "weights": [1.0, bad]},
        lambda bad: {"kind": "graev", "dist": [[0, 1, 1], [1, 0, bad], [1, bad, 0]]},
        lambda bad: {"kind": "closure", "base": {"1": 1.0, "2": 3.0, "1,2": bad}},
    ],
    ids=["weighted", "graev", "closure"],
)
def test_non_numeric_norm_spec_values_are_input_errors(tmp_path, spec, bad, capsys):
    # float() would read true as 1.0 and "2.5" as 2.5.
    norm = write_json(tmp_path / "norm.json", spec(bad))
    assert main(["reduce", "--norm", norm]) == 2
    assert "must be a number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec",
    [
        lambda big: {"kind": "weighted", "weights": [1.0, big]},
        lambda big: {"kind": "graev", "dist": [[0, 1, 1], [1, 0, big], [1, big, 0]]},
        lambda big: {"kind": "closure", "base": {"1": 1.0, "2": 3.0, "1,2": big}},
    ],
    ids=["weighted", "graev", "closure"],
)
def test_spec_numbers_beyond_the_float_range_are_input_errors(tmp_path, spec, capsys):
    # A 401-digit JSON integer parses as a Python int that float() refuses.
    norm = write_json(tmp_path / "norm.json", spec(10**400))
    assert main(["reduce", "--norm", norm]) == 2
    assert "must fit in a float" in capsys.readouterr().err


def test_huge_basis_index_is_refused_before_its_mask_is_built(tmp_path, norm_a_file, capsys):
    basis = write_json(tmp_path / "basis.json", [[1], [1, 2], [100000000000]])
    assert main(["verify", "--norm", norm_a_file, "--basis", basis]) == 2
    assert "generator index 100000000000 exceeds rank 2" in capsys.readouterr().err


def test_huge_sequence_index_is_refused_before_its_mask_is_built(tmp_path, capsys):
    norm = write_json(tmp_path / "w4.json", {"kind": "weighted", "weights": [1.0] * 4})
    seq = write_json(tmp_path / "seq.json", [[2], [100000000000]])
    assert main(["rebase", "--norm", norm, "--seq", seq]) == 2
    assert "generator index 100000000000 exceeds rank 4" in capsys.readouterr().err


def test_huge_closure_key_index_is_refused_before_its_mask_is_built(tmp_path, capsys):
    # Three entries fix the rank at 2: a rank-r table has 2**r - 1 entries.
    base = {"1": 1.0, "2": 3.0, "1000000000": 2.0}
    norm = write_json(tmp_path / "norm.json", {"kind": "closure", "base": base})
    assert main(["reduce", "--norm", norm]) == 2
    assert "generator index 1000000000 exceeds rank 2" in capsys.readouterr().err


def test_closure_base_must_be_an_object(tmp_path, capsys):
    norm = write_json(tmp_path / "norm.json", {"kind": "closure", "base": [1.0, 3.0, 2.0]})
    assert main(["reduce", "--norm", norm]) == 2
    assert "closure base must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["reduce", "verify", "rebase"])
def test_the_axiom_gate_cannot_be_skipped(tmp_path, norm_a_file, capsys, command):
    seq = write_json(tmp_path / "seq.json", [[1], [1, 2]])
    args = [command, "--norm", norm_a_file, "--skip-axioms", "--out", str(tmp_path / "o.json")]
    if command == "rebase":
        args += ["--seq", seq]
    assert main(args) == 2
    assert "unrecognized arguments: --skip-axioms" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_verify_without_the_gate_fails_on_overflowing_norms(tmp_path, capsys):
    """Weights of 1e308 are finite, but the norm of {15,16} overflows to inf.
    The gate refuses the spec at its own rank, and rows above the gated
    rank no longer get past it: the whole spec is certified, and the
    checkers' handling of inf is left to the library tests on non-finite
    tables."""
    norm = write_json(tmp_path / "huge.json", {"kind": "weighted", "weights": [1e308, 1e308]})
    assert main(["verify", "--norm", norm]) == 2
    assert "finite" in capsys.readouterr().err
    weights = [1.0] * 14 + [1e308, 1e308]
    norm = write_json(tmp_path / "w16.json", {"kind": "weighted", "weights": weights})
    basis = write_json(tmp_path / "b.json", [[15], [16]])
    out = tmp_path / "report.json"
    args = ["verify", "--norm", norm, "--rank", "2", "--basis", basis, "--out", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "the gate scanned generators 1..14 of a rank-16 weighted spec" in err
    assert "can neither prove nor scan the rest" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, weights",
    [("verify", [1.0] * 14 + [1e308, 1e308]), ("reduce", [1.0] * 14 + [1e308] * 6)],
)
def test_gate_certifies_the_spec_above_the_exhaustive_bound(tmp_path, capsys, command, weights):
    # generators 1..14 pass the scan; the letters above them overflow
    norm = write_json(tmp_path / "w.json", {"kind": "weighted", "weights": weights})
    out = tmp_path / "out.json"
    assert main([command, "--norm", norm, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"the gate scanned generators 1..14 of a rank-{len(weights)} weighted spec" in err
    assert not out.exists()


def test_gate_refuses_a_metric_it_cannot_prove_above_the_exhaustive_bound(
    tmp_path, capsys, slack_wedge
):
    # slack_dist on points 0..4 meets the triangle inequality only to 1e-9.
    # Wedged below 14 unit points, its points 1..4 become generators
    # 15..18: the scan passes generators 1..14, and no proof covers the
    # rest.
    from boolnorm.norms import spec_to_json

    norm = write_json(tmp_path / "g.json", spec_to_json(slack_wedge(14)))
    assert main(["reduce", "--norm", norm, "--out", str(tmp_path / "b.json")]) == 2
    assert "can neither prove nor scan the rest" in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()


def test_reduce_accepts_a_metric_whose_distance_sums_overflow(tmp_path, capsys):
    # Every sum of two distances is inf, a bound no distance exceeds.
    huge = [[0.0, 1e308, 1e308], [1e308, 0.0, 1e308], [1e308, 1e308, 0.0]]
    norm = write_json(tmp_path / "g.json", {"kind": "graev", "dist": huge})
    out = tmp_path / "basis.json"
    assert main(["reduce", "--norm", norm, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert [row["norm"] for row in read_json(out)["rows"]] == [1e308, 1e308]


def test_reduce_refuses_a_metric_whose_admitted_slack_fails_the_gate(
    tmp_path, capsys, slack_dist
):
    norm = write_json(tmp_path / "g.json", {"kind": "graev", "dist": slack_dist})
    assert main(["reduce", "--norm", norm, "--out", str(tmp_path / "b.json")]) == 2
    err = capsys.readouterr().err
    assert "norm axioms fail (subadditivity) at g=[2, 3], h=[1, 2, 3, 4]" in err
    assert not (tmp_path / "b.json").exists()


@pytest.mark.parametrize("command", ["reduce", "verify"])
def test_gate_checks_every_generator_up_to_the_exhaustive_bound(tmp_path, capsys, command):
    # Only generators 13 and 14 together overflow, so a gate on the rank-13
    # restriction would pass this rank-15 spec.
    weights = [1.0] * 12 + [1e308, 1e308, 1.0]
    norm = write_json(tmp_path / "w15.json", {"kind": "weighted", "weights": weights})
    assert main([command, "--norm", norm, "--out", str(tmp_path / "out.json")]) == 2
    assert "norm axioms fail (finite) at g=[13, 14]" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_verify_refuses_an_empty_basis_file(tmp_path, norm_a_file, capsys):
    # nothing would be evaluated on an empty basis, yet every lemma would pass
    basis = write_json(tmp_path / "basis.json", [])
    out = tmp_path / "report.json"
    assert main(["verify", "--norm", norm_a_file, "--basis", basis, "--out", str(out)]) == 2
    assert "basis file must hold at least one row" in capsys.readouterr().err
    assert not out.exists()



def test_campaign_shares_one_fixed_norm_across_threads(tmp_path, monkeypatch):
    # one oracle per run, not one per trial, and the CSV bytes do not
    # depend on --threads
    import boolnorm.cli as cli
    from boolnorm.instances import random_metric_spec, rng_from
    from boolnorm.norms import spec_to_json

    norm = write_json(tmp_path / "g.json", spec_to_json(random_metric_spec(rng_from(5, 0), 5)))
    built, oracle_for = [], cli.oracle_for

    def counting_oracle_for(spec):
        built.append(spec)
        return oracle_for(spec)

    monkeypatch.setattr(cli, "oracle_for", counting_oracle_for)
    args = ["campaign", "--rank", "5", "--trials", "12", "--norm", norm, "--checks", "L0iii,L1"]
    out1, out8 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--threads", "8", "--out", str(out8)]) == 0
    assert main(args + ["--threads", "1", "--out", str(out1)]) == 0
    assert len(built) == 2
    assert out1.read_bytes() == out8.read_bytes()


def test_campaign_refuses_a_fixed_norm_below_its_rank(tmp_path, norm_a_file, capsys):
    args = ["campaign", "--rank", "3", "--trials", "1", "--norm", norm_a_file]
    assert main(args + ["--out", str(tmp_path / "t.csv")]) == 2
    assert "norm covers rank 2, campaign needs 3" in capsys.readouterr().err


def test_campaign_gates_a_fixed_norm(tmp_path, capsys):
    # The norm of {1,2} overflows to inf: the gate refuses the spec, as
    # verify does, and no trial runs.
    norm = write_json(tmp_path / "huge.json", {"kind": "weighted", "weights": [1e308, 1e308]})
    out = tmp_path / "t.csv"
    args = ["campaign", "--rank", "2", "--trials", "2", "--norm", norm, "--out", str(out)]
    assert main(args) == 2
    assert "norm axioms fail (finite) at g=[1, 2]" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def gated(monkeypatch):
    """(rank, scan rows) per gate call: the rank of the oracle the CLI
    passes to check_norm_axioms, and its _window_end calls."""
    import boolnorm.cli as cli
    import boolnorm.norms as norms

    rows, window_end = [], norms._window_end
    monkeypatch.setattr(norms, "_window_end", lambda *a: rows.append(a) or window_end(*a))
    calls, gate = [], cli.check_norm_axioms

    def counting_gate(oracle):
        before = len(rows)
        report = gate(oracle)
        calls.append((oracle.rank, len(rows) - before))
        return report

    monkeypatch.setattr(cli, "check_norm_axioms", counting_gate)
    return calls


@pytest.mark.parametrize("kind", ["closure", "weighted", "graev"])
@pytest.mark.parametrize("command", ["reduce", "verify", "rebase", "campaign"])
def test_every_command_gates_each_kind_by_its_spec(tmp_path, gated, command, kind):
    # Every command gates every kind with one check_norm_axioms call on the
    # spec's own truncation, whatever --rank says, and that call passes by
    # the spec's proof with no scan row (no _window_end call).
    from boolnorm.instances import random_norm, rng_from
    from boolnorm.norms import spec_to_json

    spec = random_norm(rng_from(0, 5), 5, kind)[0]
    norm = write_json(tmp_path / "norm.json", spec_to_json(spec))
    seq = write_json(tmp_path / "seq.json", [[2], [1, 2, 3], [1, 3, 4]])
    out = ["--out", str(tmp_path / "out")]
    args = {
        "reduce": ["reduce", "--norm", norm, "--rank", "4"],
        "verify": ["verify", "--norm", norm, "--rank", "4"],
        "rebase": ["rebase", "--norm", norm, "--rank", "4", "--seq", seq],
        "campaign": ["campaign", "--rank", "4", "--trials", "2", "--norm", norm],
    }[command]
    assert main(args + out) == 0
    assert gated == [(5, 0)]


def test_the_gate_certifies_a_spec_above_the_exhaustive_bound_at_its_own_rank(tmp_path, gated):
    # Above the exhaustive bound a certified spec is gated once, on all its
    # generators, with no scan row.
    weights = [1.0 + i / 16 for i in range(16)]
    norm = write_json(tmp_path / "w16.json", {"kind": "weighted", "weights": weights})
    assert main(["reduce", "--norm", norm, "--out", str(tmp_path / "out")]) == 0
    assert gated == [(16, 0)]


@pytest.mark.parametrize("family, stream, count", [("weighted", 0, 1), ("graev", 1, 3)])
def test_a_plain_reduce_of_a_rank_20_spec_builds_no_table(
    tmp_path, table_builds, family, stream, count
):
    # perfbench's reduce-r20 specs, drawn as it draws them: the gate
    # certifies each from its spec and reduce reads its rows off the spec.
    from boolnorm.instances import random_metric_spec, random_weight_spec, rng_from
    from boolnorm.norms import spec_to_json

    draw = {"weighted": random_weight_spec, "graev": random_metric_spec}[family]
    for seed in (0, 7):
        for i in range(count):
            spec = draw(rng_from(seed, 20, stream, i), 20)
            norm = write_json(tmp_path / "norm.json", spec_to_json(spec))
            out = tmp_path / "out.json"
            assert main(["reduce", "--norm", norm, "--out", str(out)]) == 0
            assert len(read_json(out)["rows"]) == 20
    assert table_builds == []


def test_a_reduce_that_needs_a_table_still_builds_one(tmp_path, table_builds, norm_a_file):
    # fl(1e-17 + 1.0) = 1.0 leaves row 2 unproved, and a closure is relaxed
    # at load
    norm = write_json(tmp_path / "w.json", {"kind": "weighted", "weights": [1e-17, 1.0]})
    assert main(["reduce", "--norm", norm, "--out", str(tmp_path / "w.out")]) == 0
    assert table_builds == [2]
    assert read_json(tmp_path / "w.out")["basis"] == [[1], [1, 2]]
    table_builds.clear()
    assert main(["reduce", "--norm", norm_a_file, "--out", str(tmp_path / "c.out")]) == 0
    assert table_builds == [2]


# Points 0..3; the triangle (1, 2, 3) holds only to a relative 5e-10, which
# MetricSpec admits and no proof covers, so the gate scans the spec.
LOOSE_GRAEV = {
    "kind": "graev",
    "dist": [
        [0.0, 10.0, 10.0, 10.0],
        [10.0, 0.0, 1.0, 2.0 * (1 + 5e-10)],
        [10.0, 1.0, 0.0, 1.0],
        [10.0, 2.0 * (1 + 5e-10), 1.0, 0.0],
    ],
}


@pytest.mark.parametrize("command", ["reduce", "verify", "campaign"])
def test_a_smaller_rank_does_not_move_the_gate(tmp_path, command):
    # The rank-3 spec passes the scan on all its generators, so no --rank
    # below 3 may turn it away for want of a certificate.
    norm = write_json(tmp_path / "g.json", LOOSE_GRAEV)
    basis = write_json(tmp_path / "b.json", [[3]])
    out = ["--out", str(tmp_path / "out")]
    args = {
        "reduce": ["reduce", "--norm", norm, "--rank", "2"],
        "verify": ["verify", "--norm", norm, "--rank", "2", "--basis", basis],
        "campaign": ["campaign", "--rank", "2", "--trials", "2", "--norm", norm],
    }[command]
    assert main(args + out) == 0


def test_a_smaller_rank_reports_the_spec_violation(tmp_path, capsys):
    # The norm of {3,4} overflows; --rank 2 leaves the gate on all four
    # generators, so it reports that entry, not a missing certificate.
    weights = [1.0, 1.0, 1e308, 1e308]
    norm = write_json(tmp_path / "w.json", {"kind": "weighted", "weights": weights})
    out = tmp_path / "out.json"
    assert main(["reduce", "--norm", norm, "--rank", "2", "--out", str(out)]) == 2
    assert "norm axioms fail (finite) at g=[3, 4]" in capsys.readouterr().err
    assert not out.exists()


def test_campaign_summary_minimum_propagates_nan(monkeypatch):
    from boolnorm import campaign

    check_block = campaign._check_block
    for radii in ([0.0625, float("nan")], [float("nan"), 0.0625]):

        def with_radii(tables, rows, names, radii=radii):
            reports, ratios, _ = check_block(tables, rows, names)
            return reports, ratios, np.array(radii)

        monkeypatch.setattr(campaign, "_check_block", with_radii)
        cfg = campaign.CampaignConfig(rank=2, trials=2, checks=("L0iii",))
        rows, summary = campaign.run_campaign(cfg)
        assert [r["min_epsilon"] for r in rows] == [repr(x) for x in radii]
        assert repr(summary["min_epsilon"]) == "nan"


@pytest.mark.parametrize("rank, family", [("40", "closure"), ("15", "weighted")])
def test_campaign_refuses_ranks_above_the_exhaustive_bound(tmp_path, capsys, rank, family):
    # every trial runs the exhaustive checkers, so the rank is refused
    # before any table is drawn
    out = tmp_path / "t.csv"
    args = ["campaign", "--rank", rank, "--trials", "1", "--family", family, "--out", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"error[rank-too-large]: campaign rank {rank} exceeds the exhaustive bound 14" in err
    assert not out.exists()
