#!/usr/bin/env python3
"""Benchmark of the boolnorm CLI: end-to-end metrics and a traced run per layer.

Every measurement runs in a fresh child (child.py) that imports boolnorm
from this checkout's src/ and drives ``boolnorm.cli.main`` in-process on
inputs generated from --seed.  Modes, run from the root of the checkout:

    python3 perfbench/run.py --workload reduce-r20 --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --suite --seeds 0,7 [--out perfbench-out/a.json]
    python3 perfbench/run.py --compare A.json B.json
    python3 perfbench/run.py --record-digests

A single run prints an ``info`` JSON line (environment, named metrics,
absent per-layer metrics, failures) and then, as its last line, the result
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` its
per-layer metrics.  Gated times are in scaled seconds: wall time corrected
for the host's measured speed (see child.SpeedProbe); the info line also
gives plain wall seconds.  The suite makes an untraced and a traced run of
every workload at every seed, prints each metric with its unit and writes
all results to --out; --compare reads two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = tuple(child.WORKLOADS)
SETUP_REPEATS = 7
TIME_LIMIT = 170.0  # a run must end within 180 s
CHILD_MARGIN = 15.0  # the child's imports, set-up and exit, outside its budget
LEGS = {  # workload -> descriptive names of its (primary, secondary) legs
    "reduce-r20": ("reduce_s", "reduce_prune_s"),
    "verify-r14": ("verify_s", "rebase_s"),
    "campaign-r10": ("campaign_trials_per_s", "campaign_par_trials_per_s"),
}
CAMPAIGN_TRIALS = child.CampaignWorkload().trials * len(child.CampaignWorkload.FAMILIES)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, numpy_version: str | None) -> dict:
    return {
        "nproc": child.nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(),
        "seed": seed,
        "threads": [1, child.par_threads()],
    }


def quartiles(values: list) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


# -- one run ----------------------------------------------------------------


def _child(args: list, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def leg_seconds(rounds: list, leg: str, key: str = "scaled") -> list:
    """Per round, the leg's commands' summed time (``scaled`` or ``wall``);
    rounds where one of them failed give no sample."""
    samples = []
    for rd in rounds:
        cmds = [c for c in rd["commands"].values() if c["leg"] == leg]
        if cmds and all(c["ok"] for c in cmds):
            samples.append(sum(c[key] for c in cmds))
    return samples


def _median_or_none(values: list):
    return statistics.median(values) if values else None


def end_to_end(raw: dict, setup: list) -> tuple[dict, dict]:
    """(BENCHMARK.json metrics, descriptive wall-time metrics) of an untraced run.

    The gated times are scaled seconds (see child.CAL_REF); the named
    metrics are the same legs in plain wall seconds."""
    rounds = raw["rounds"]
    attempted = sum(len(rd["commands"]) for rd in rounds)
    ok = sum(c["ok"] for rd in rounds for c in rd["commands"].values())
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "primary_s": _median_or_none(leg_seconds(rounds, "primary")),
        "secondary_s": _median_or_none(leg_seconds(rounds, "secondary")),
        "peak_rss_mb": raw["rss_mb"],
        "ok_frac": ok / attempted,
    }
    named = {
        "failed_frac": 1 - ok / attempted,
        "attempted": attempted,
        "setup_wall_s": statistics.median(s["setup_wall"] for s in setup),
        "primary_wall_s": _median_or_none(leg_seconds(rounds, "primary", "wall")),
        "secondary_wall_s": _median_or_none(leg_seconds(rounds, "secondary", "wall")),
    }
    return metrics, named


def named_metrics(workload: str, named: dict) -> dict:
    """The primary and secondary wall times under descriptive names; the
    campaign legs as trials per second."""
    first, second = LEGS[workload]
    a, b = named["primary_wall_s"], named["secondary_wall_s"]
    if workload == "campaign-r10":
        a = CAMPAIGN_TRIALS / a if a else None
        b = CAMPAIGN_TRIALS / b if b else None
    return {first: a, second: b}


def traced(raw: dict) -> dict:
    rounds = raw["rounds"]
    plain = [rd["scaled"] for rd in rounds if not rd["traced"]]
    traced_walls = [rd["scaled"] for rd in rounds if rd["traced"] == "spans"]
    metrics = dict(raw["per_layer"])
    metrics["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain) - 1
    return metrics


def run_once(workload: str, seed: int, seconds: float, trace: int) -> int:
    if not (ROOT / "src" / "boolnorm" / "__init__.py").is_file():
        print(f"error: no boolnorm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    deadline = time.monotonic() + TIME_LIMIT
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    base = ["--workload", workload, "--seed", str(seed)]
    try:
        setup = []
        for i in range(0 if trace else SETUP_REPEATS - 1):
            out = _child([*base, "--seconds", "0", "--work", str(work / f"setup{i}"),
                          "--setup-only"], deadline - time.monotonic())
            setup.append(out)
        budget = deadline - time.monotonic() - CHILD_MARGIN
        raw = _child([*base, "--seconds", str(seconds), "--trace", str(trace), "--work",
                      str(work / "run"), "--budget", str(budget)], deadline - time.monotonic())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {workload} seed {seed}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    setup.append(raw)

    rounds = raw["rounds"]
    attempted = sum(len(rd["commands"]) for rd in rounds)
    failures = sorted({f"{name}: {msg}" for rd in rounds for name, c in rd["commands"].items()
                       for msg in c["failures"]})
    failed = sum(not c["ok"] for rd in rounds for c in rd["commands"].values())
    timed = [rd for rd in rounds if rd["traced"] != "alloc"]
    per_command = {
        name: {key: [rd["commands"][name][key] for rd in timed] for key in ("wall", "scaled")}
        for name in timed[0]["commands"]
    }
    info = {"workload": workload, "env": environment(seed, raw.get("numpy")),
            "rounds": len(rounds), "failures": failures, "commands": per_command}
    if trace:
        values = traced(raw)
        wanted = spec["per_layer"]
        info.update(absent=raw["absent"], trial_samples=raw["trial_samples"],
                    traced_rounds=raw["traced_rounds"], counts_repeat=raw["counts_repeat"])
    else:
        values, named = end_to_end(raw, setup)
        named.update(named_metrics(workload, named))
        info["named"] = named
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted}
    correct = failed == 0 and all(m["value"] is not None for m in metrics.values())
    if trace:
        # With one traced round (the second did not fit the time limit) the
        # counts are not compared here; the self-tests compare them.
        correct = correct and raw["counts_repeat"] is not False
    print(json.dumps({"info": info}))
    for name, m in metrics.items():
        print(f"# {workload} {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


# -- suite and compare --------------------------------------------------------


def run_suite(seeds: list, seconds: float, out: str | None) -> int:
    spec = load_spec()
    results: dict = {w: {"trace0": [], "trace1": []} for w in WORKLOADS}
    status = 0
    for seed in seeds:
        for workload in WORKLOADS:
            for trace in (0, 1):
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                       str(seed), "--seconds", str(seconds), "--trace", str(trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or len(lines) < 2:
                    print(f"{workload} seed {seed}: run failed\n{proc.stderr}", file=sys.stderr)
                    status = 1
                    continue
                info = json.loads(lines[0])["info"]
                result = json.loads(lines[-1])
                result.update(seed=seed, info=info)
                results[workload][f"trace{trace}"].append(result)
                failed_frac = result["failed"] / result["attempted"]
                print(f"{workload} seed={seed} trace={trace} correct={result['correct']} "
                      f"failed_frac={failed_frac:g}")
                for name, m in result["metrics"].items():
                    print(f"  {name} = {m['value']} {m['unit']}")
                for name, value in info.get("named", {}).items():
                    print(f"  [{name}] = {value}")
                for name, why in info.get("absent", {}).items():
                    print(f"  absent {name}: {why}")
                if not result["correct"]:
                    status = 1
    if len(seeds) > 1:
        print("\nspread over seeds (IQR / median):")
        for workload in WORKLOADS:
            for m in spec["end_to_end"]:
                values = _values(results[workload]["trace0"], m["name"])
                if values:
                    q1, med, q3 = quartiles(values)
                    print(f"  {workload:13} {m['name']:12} median={med:.6g} {m['unit']} "
                          f"q1={q1:.6g} q3={q3:.6g} spread={spread(values):.4f} "
                          f"bound={m['bound']} n={len(values)}")
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"env": environment(seeds[0], None), "seconds": seconds, "results": results}
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return status


def _values(runs: list, name: str) -> list:
    values = (r["metrics"].get(name, {}).get("value") for r in runs)
    return [v for v in values if v is not None]


# Scaled metric -> the same time in wall seconds, kept in each run's info line.
WALL_OF = {"setup_s": "setup_wall_s", "primary_s": "primary_wall_s",
           "secondary_s": "secondary_wall_s"}


def _wall_ratio(runs_a: list, runs_b: list, name: str) -> str:
    """B/A of the wall-second medians behind a scaled metric, so that a gap
    between the scaled and the wall ratio shows."""
    if name not in WALL_OF:
        return ""
    medians = []
    for runs in (runs_a, runs_b):
        walls = [r.get("info", {}).get("named", {}).get(WALL_OF[name]) for r in runs]
        walls = [w for w in walls if w is not None]
        if not walls:
            return ""
        medians.append(statistics.median(walls))
    return f"{medians[1] / medians[0]:.3f}"


def compare(path_a: str, path_b: str) -> int:
    spec = load_spec()
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))["results"]
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))["results"]
    defs = [(m, "trace0") for m in spec["end_to_end"]] + [(m, "trace1") for m in spec["per_layer"]]
    worse = False
    print(f"{'workload':13} {'metric':30} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34} "
          f"{'B/A':>7} {'wall B/A':>8}  verdict")
    for workload in sorted(set(a) & set(b)):
        for m, kind in defs:
            va, vb = _values(a[workload][kind], m["name"]), _values(b[workload][kind], m["name"])
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            verdict = ""
            bound = m.get("bound")
            if bound is not None:
                lower = m["better"] == "lower"
                if lower:
                    regress = qb[1] > qa[1] * (1 + bound)
                    all_better = max(vb) < min(va)
                else:
                    regress = qb[1] < qa[1] * (1 - bound)
                    all_better = min(vb) > max(va)
                if (spread(va) > bound or spread(vb) > bound) and not all_better:
                    verdict = "unresolved (spread wider than bound)"
                elif regress:
                    verdict = f"WORSE by more than {bound:g}"
                    worse = True
                else:
                    verdict = f"within bound {bound:g}"
            print(f"{workload:13} {m['name']:30} "
                  f"{qa[1]:12.6g} [{qa[0]:9.4g}, {qa[2]:9.4g}] {qb[1]:12.6g} "
                  f"[{qb[0]:9.4g}, {qb[2]:9.4g}] {ratio:7.3f} "
                  f"{_wall_ratio(a[workload][kind], b[workload][kind], m['name']):>8}  {verdict}")
    return 1 if worse else 0


def record_digests() -> int:
    digests = {}
    for workload in WORKLOADS:
        work = WORK / f"record-{workload}"
        try:
            raw = _child(["--workload", workload, "--seed", str(child.DEFAULT_SEED),
                          "--seconds", "0", "--record", "--work", str(work)], TIME_LIMIT)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        rd = raw["rounds"][0]
        if not all(c["ok"] for c in rd["commands"].values()):
            print(f"error: {workload} failed its checks; digests not recorded", file=sys.stderr)
            return 1
        digests[workload] = rd["digests"]
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                                       encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=child.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite", action="store_true", help="run every workload at every seed")
    parser.add_argument("--seeds", default="0", help="suite: comma list of seeds")
    parser.add_argument("--out", default=None, help="suite: results JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.record_digests:
        return record_digests()
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.suite:
        seeds = [int(s) for s in args.seeds.split(",") if s]
        return run_suite(seeds, seconds, args.out)
    if args.workload is None:
        parser.error("--workload, --suite, --compare or --record-digests is required")
    return run_once(args.workload, args.seed, seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
