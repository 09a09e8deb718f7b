"""Self-tests of the benchmark: failure accounting, repeatable counters,
tracer robustness, compare verdicts and the invariants at a held-out seed.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

bn = child.load_boolnorm()
HELD_OUT_SEED = 20261017

SMALL = {
    "reduce-r20": lambda: child.ReduceWorkload(rank=8),
    "verify-r14": lambda: child.VerifyWorkload(rank=6),
    "campaign-r10": lambda: child.CampaignWorkload(rank=5, trials=3),
}


def _prepare(name: str, work: Path, seed: int = 3):
    wl = SMALL[name]()
    work.mkdir(parents=True, exist_ok=True)
    wl.setup(bn, seed, work)
    return wl, wl.commands(seed, work, 2)


def _failed_frac(rounds: list) -> float:
    setup = [{"setup_s": 0.1, "setup_wall": 0.1}]
    _, named = run.end_to_end({"rounds": rounds, "rss_mb": 1.0}, setup)
    return named["failed_frac"]


def _corrupt(path: Path) -> None:
    if path.suffix == ".csv":
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(",true,", ",false,", 1), encoding="utf-8")
        return
    data = json.loads(path.read_text(encoding="utf-8"))
    if "pass" in data:
        data["pass"] = False
    elif "witness_failures" in data:
        data["witness_failures"] = 1
    else:
        data["rows"][-1]["norm"] += 1.0
    path.write_text(json.dumps(data), encoding="utf-8")


@pytest.mark.parametrize("name", sorted(SMALL))
def test_clean_round_has_no_failures(name, tmp_path):
    wl, cmds = _prepare(name, tmp_path)
    rd = child.run_round(bn, wl, cmds, None)
    assert _failed_frac([rd]) == 0.0
    assert run.leg_seconds([rd], "primary") and run.leg_seconds([rd], "secondary")


@pytest.mark.parametrize("name", sorted(SMALL))
def test_corrupted_output_counts_as_failed(name, tmp_path, monkeypatch):
    wl, cmds = _prepare(name, tmp_path)
    victim = cmds[-1]
    real_main = bn.cli.main

    def corrupting_main(argv):
        code = real_main(argv)
        if argv == victim.argv:
            _corrupt(victim.outputs[0])
        return code

    monkeypatch.setattr(bn.cli, "main", corrupting_main)
    rd = child.run_round(bn, wl, cmds, None)
    assert not rd["commands"][victim.name]["ok"]
    assert _failed_frac([rd]) > 0.0
    # A failed command is never timed: its leg yields no sample.
    assert run.leg_seconds([rd], victim.leg) == []


@pytest.mark.parametrize("name", sorted(SMALL))
def test_nonzero_exit_counts_as_failed(name, tmp_path, monkeypatch):
    wl, cmds = _prepare(name, tmp_path)
    victim = cmds[0]
    real_main = bn.cli.main
    monkeypatch.setattr(
        bn.cli, "main", lambda argv: 1 if argv == victim.argv else real_main(argv)
    )
    rd = child.run_round(bn, wl, cmds, None)
    assert not rd["commands"][victim.name]["ok"]
    assert _failed_frac([rd]) > 0.0


def test_digest_mismatch_counts_as_failed(tmp_path):
    wl, cmds = _prepare("verify-r14", tmp_path)
    rd = child.run_round(bn, wl, cmds, {"verify.out.json": "0" * 64})
    assert _failed_frac([rd]) == 1.0


def _traced_counts(name: str, work: Path) -> dict:
    wl, cmds = _prepare(name, work)
    with tracer.Tracer() as tr:
        rd = child.run_round(bn, wl, cmds, None, periodic=False)
    assert _failed_frac([rd]) == 0.0
    values = child._layer_values(tr, {})
    return {k: values[k] for k in tracer.COUNT_METRICS}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_repeat_across_traced_runs(name, tmp_path):
    first = _traced_counts(name, tmp_path / "a")
    second = _traced_counts(name, tmp_path / "b")
    assert first == second
    assert any(first.values())


def test_trace_run_has_two_traced_rounds_unless_over_budget(tmp_path):
    wl, cmds = _prepare("verify-r14", tmp_path)
    full = child.measure(bn, wl, cmds, 0, True, None, budget=float("inf"))
    assert full["traced_rounds"] == 2 and full["counts_repeat"] is True
    short = child.measure(bn, wl, cmds, 0, True, None, budget=0)
    assert short["traced_rounds"] == 1 and short["counts_repeat"] is None


def test_tracer_restores_functions_and_tolerates_missing(tmp_path, monkeypatch):
    original = bn.cli.check_norm_axioms
    monkeypatch.delattr(bn.norms, "restrict_oracle")
    wl, cmds = _prepare("reduce-r20", tmp_path)
    with tracer.Tracer() as tr:
        assert bn.cli.check_norm_axioms is not original
        child.run_round(bn, wl, cmds, None)
    assert bn.cli.check_norm_axioms is original
    absent = {}
    child._layer_values(tr, absent)
    assert "missing:boolnorm.norms.restrict_oracle" in absent
    assert tr.stats.counts["norms.axioms_pairs"] > 0


def _extra_work() -> None:
    """About 0.8 s of allocation-heavy pure-Python work."""
    for _ in range(3):
        table = {i: (i * 2654435761) % 1_000_003 for i in range(700_000)}
        sorted(table.values())


def test_injected_work_shows_in_scaled_time(tmp_path, monkeypatch):
    """A fixed amount of extra work in cli.main raises the scaled time of a
    full-size command by about what that work costs on its own, so the speed
    probe, which shares the process's heap, does not cancel a slowdown."""
    wl = child.ReduceWorkload()
    wl.setup(bn, 3, tmp_path)
    cmd = {c.name: c for c in wl.commands(3, tmp_path, 2)}["weighted0.prune"]
    real_main = bn.cli.main

    def slowed(argv):
        _extra_work()
        return real_main(argv)

    base, slow, alone = [], [], []
    for _ in range(5):
        base.append(child.run_command(bn, cmd).scaled)
        with monkeypatch.context() as m:
            m.setattr(bn.cli, "main", slowed)
            slow.append(child.run_command(bn, cmd).scaled)
        with child.SpeedProbe() as probe:
            _extra_work()
        alone.append(probe.scaled)
    added = statistics.median(slow) - statistics.median(base)
    assert 0.75 < added / statistics.median(alone) < 1.25, (base, slow, alone)


def test_compare_flags_regression_and_unresolved(tmp_path, capsys):
    def results(primary: list, secondary: list) -> dict:
        # Wall seconds stay at 1.0, so the wall B/A column reads 1.000.
        runs = [
            {"metrics": {"primary_s": {"value": p, "unit": "s"},
                         "secondary_s": {"value": s, "unit": "s"}},
             "info": {"named": {"primary_wall_s": 1.0, "secondary_wall_s": 1.0}}}
            for p, s in zip(primary, secondary)
        ]
        return {"results": {"verify-r14": {"trace0": runs, "trace1": []}}}

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(results([1.0, 1.01, 0.99, 1.0], [1.0, 2.0, 1.0, 2.0])))
    b.write_text(json.dumps(results([1.5, 1.51, 1.49, 1.5], [1.0, 2.0, 1.0, 2.0])))
    assert run.compare(str(a), str(b)) == 1
    out = capsys.readouterr().out
    primary = next(line for line in out.splitlines() if " primary_s " in line)
    secondary = next(line for line in out.splitlines() if " secondary_s " in line)
    assert "WORSE" in primary
    assert re.search(r" 1\.500 +1\.000 +WORSE", primary)
    assert "unresolved" in secondary


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-r14", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_invariants_hold_at_held_out_seed(name):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(HELD_OUT_SEED),
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert set(result["metrics"]) == {m["name"] for m in run.load_spec()["end_to_end"]}
