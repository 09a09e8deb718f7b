"""Byte-identity guard: on fixed inputs the CLI's JSON reports and campaign
CSVs must keep exactly the bytes whose SHA-256 digests are pinned below.  A
changed digest means a changed output, not a flaky test; record new digests
only for an output change that is meant."""

import hashlib
import json

import pytest

from boolnorm.cli import main
from boolnorm.instances import random_base_table, rng_from
from boolnorm.norms import spec_to_json

SEQ = [[2], [1, 2, 3], [1, 3, 4], [2, 4, 5], [1, 5, 6], [6, 7], [3, 7, 8]]
IDENTITY_BASIS = [[j] for j in range(1, 9)]

GOLDEN = {
    "verify": "4ffe72207eeb9e72b2429e0d76decd6e7bea4c4192f1c3ae5c0768f544fd0713",
    "verify_basis": "274ac5c73dd9bc84b5ecce0435c5f3a297ef7241aaf88df6d5598f15972d1278",
    "rebase": "91e170582cb55f66fd188c9d0a08f093ae90e2c6ae910794a87bbba6341570d2",
    "campaign_r6": "0b6408a53c857779e8b8d30f15e06fd6a7c3da141679f8eb6de76bcf326a6ef3",
    "campaign_r10": "55173470e404fa7620d7a98b8fce77805d99ed39d3634c812a384c7be6cd47d0",
}

RUNS = {
    # name -> (CLI arguments before --out, expected exit code)
    "verify": (["verify", "--norm", "{norm}"], 0),
    "verify_basis": (["verify", "--norm", "{norm}", "--basis", "{basis}"], 1),
    "rebase": (["rebase", "--norm", "{norm}", "--seq", "{seq}"], 0),
    "campaign_r6": (
        ["campaign", "--rank", "6", "--trials", "8", "--seed", "5", "--threads", "1",
         "--checks", "L0iii,L1,L2,L3,L4,rebase"],
        0,
    ),
    "campaign_r10": (
        ["campaign", "--rank", "10", "--trials", "2", "--seed", "5", "--threads", "1",
         "--family", "weighted", "--checks", "L0iii,L1,L2,L3,L4,rebase"],
        0,
    ),
}


def _write_inputs(tmp_path):
    paths = {
        "norm": tmp_path / "norm.json",
        "basis": tmp_path / "basis.json",
        "seq": tmp_path / "seq.json",
    }
    spec = spec_to_json(random_base_table(rng_from(4242, 0), 8))
    paths["norm"].write_text(json.dumps(spec), encoding="utf-8")
    paths["basis"].write_text(json.dumps(IDENTITY_BASIS), encoding="utf-8")
    paths["seq"].write_text(json.dumps(SEQ), encoding="utf-8")
    return {key: str(path) for key, path in paths.items()}


def run_outputs(tmp_path):
    """name -> (exit code, output bytes) for every pinned run."""
    inputs = _write_inputs(tmp_path)
    out = {}
    for name, (argv, _) in RUNS.items():
        target = tmp_path / f"{name}.out"
        code = main([arg.format(**inputs) for arg in argv] + ["--out", str(target)])
        out[name] = (code, target.read_bytes())
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_output_bytes_are_pinned(outputs, name):
    code, data = outputs[name]
    assert code == RUNS[name][1]
    assert hashlib.sha256(data).hexdigest() == GOLDEN[name]


def test_negative_control_has_tail_and_doubling_violations(outputs):
    checks = json.loads(outputs["verify_basis"][1])["checks"]
    for lemma in ("L0iii", "L1", "L4"):
        assert checks[lemma]["violations"], lemma
