"""Workload child of the boolnorm benchmark.

run.py starts this file in a fresh interpreter for every measurement.  It
imports boolnorm from the checkout's ``src/``, writes the seeded input
files, runs the workload's CLI commands in-process through
``boolnorm.cli.main(argv)`` and checks every output.  It prints one JSON
line of raw measurements for run.py to reduce to metrics.

    python3 perfbench/child.py --workload verify-r14 --seed 0 --seconds 10 \
        --trace 0 --work .perfbench_work/x [--setup-only] [--record] [--budget S]
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import ALLOC_LAYERS, COUNT_METRICS, LAYERS, TIME_METRICS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0

# The shared 2-vCPU host changes speed by up to a third for seconds to
# minutes at a time, and a fixed pure-Python loop slows by about the same
# factor as boolnorm does.  So while a command runs, a SIGALRM handler
# times a short burst of that loop every PROBE_PERIOD seconds (on the main
# thread's CPU clock, so waits for the GIL do not count), and every timing
# is also reported scaled to the loop's reference speed:
#     scaled = (wall - time spent in bursts) * CAL_REF / mean burst time.
# CAL_REF is one burst at the fast end of the range measured on a 2-vCPU
# Intel Xeon VM, so there scaled seconds read like wall seconds when the
# host is quiet.
CAL_ITERATIONS = 16_000
CAL_REF = 0.0025
PROBE_PERIOD = 0.1
BRACKET_BURSTS = 3


def _burst() -> float:
    start = time.thread_time()
    acc, table = 0, {}
    for i in range(CAL_ITERATIONS):
        acc += i * i % 7
        table[i] = acc * 0.5
    return time.thread_time() - start


class SpeedProbe:
    """Times the work inside the block, in wall and in scaled seconds.

    With ``periodic=False`` only the bursts before and after the block run,
    so that traced work is not interrupted."""

    def __init__(self, periodic: bool = True) -> None:
        self.period = PROBE_PERIOD if periodic else 0

    def __enter__(self) -> "SpeedProbe":
        self.bursts = [_burst() for _ in range(BRACKET_BURSTS)]
        self._spent = 0.0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def _tick(self, signum, frame) -> None:
        # Subtract the burst's CPU time: with pool threads running, that is
        # what the burst takes from them, not its wait for the GIL.
        burst = _burst()
        self.bursts.append(burst)
        self._spent += burst

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall = time.perf_counter() - self._start - self._spent
        signal.signal(signal.SIGALRM, self._old)
        self.bursts.extend(_burst() for _ in range(BRACKET_BURSTS))
        self.scaled = self.wall * CAL_REF / statistics.fmean(self.bursts)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def par_threads() -> int:
    """Thread count of the campaign's parallel leg: 2, but at most nproc."""
    return min(2, nproc())


def load_boolnorm():
    """Import boolnorm from the checkout; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "boolnorm" / "__init__.py").is_file():
        raise SystemExit(f"boolnorm sources not found under {src}")
    sys.path.insert(0, str(src))
    import boolnorm
    import boolnorm.cli
    import boolnorm.instances

    if src not in Path(boolnorm.__file__).resolve().parents:
        raise SystemExit(f"boolnorm imported from {boolnorm.__file__}, not {src}")
    return boolnorm


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload), encoding="utf-8")


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


@dataclass
class Command:
    name: str
    leg: str  # "primary" or "secondary"
    argv: list
    outputs: list


@dataclass
class Outcome:
    code: int | None
    wall: float
    scaled: float
    failures: list = field(default_factory=list)


class ReduceWorkload:
    """Random weighted and graev specs; plain and pruned reduce of each.

    The pruned search's cost on a rank-20 weighted spec swings tenfold with
    the draw (35k to 510k candidate evaluations over 60 seeds), on a graev
    spec by less than half (150k to 290k over 40 seeds, three specs each).
    With one spec of each, the pruned leg's spread over ten seeds read 0.07
    to 0.17, so each seed draws three graev specs, which dilute the weighted
    draw.  The tracemalloc pass covers only the weighted plain reduce: its
    memo is the reduction layer's peak, and it takes about 40 s under
    tracemalloc."""

    SPECS = (("weighted", 1), ("graev", 3))  # family, specs drawn per seed
    alloc_names = ("weighted0.plain",)

    def __init__(self, rank: int = 20) -> None:
        self.rank = rank
        self.specs = [f"{fam}{i}" for fam, count in self.SPECS for i in range(count)]

    def setup(self, bn, seed: int, work: Path) -> None:
        from boolnorm.instances import random_metric_spec, random_weight_spec, rng_from

        draw = {"weighted": random_weight_spec, "graev": random_metric_spec}
        for stream, (fam, count) in enumerate(self.SPECS):
            for i in range(count):
                spec = draw[fam](rng_from(seed, self.rank, stream, i), self.rank)
                _write_json(work / f"{fam}{i}.json", bn.spec_to_json(spec))

    def commands(self, seed: int, work: Path, par_threads: int) -> list:
        # Every plain reduce runs before the pruned ones: a pruned graev reduce
        # leaves 40-90 MB of heap behind in the process, an amount that depends
        # on the spec, and a plain reduce after it would add that to the peak.
        cmds = []
        for leg, extra in (("primary", []), ("secondary", ["--prune"])):
            for name in self.specs:
                out = work / f"{name}.{leg}.out.json"
                argv = ["reduce", "--norm", str(work / f"{name}.json"), *extra, "--out", str(out)]
                cmds.append(Command(f"{name}.{'plain' if not extra else 'prune'}", leg, argv, [out]))
        return cmds

    def check(self, outcomes: dict, cmds: list) -> None:
        by = cmds_by_name(cmds)
        for name in self.specs:
            plain, prune = outcomes.get(f"{name}.plain"), outcomes.get(f"{name}.prune")
            if plain is None or prune is None or plain.code != 0 or prune.code != 0:
                continue
            a = _read_json(by[f"{name}.plain"].outputs[0])
            b = _read_json(by[f"{name}.prune"].outputs[0])
            if a["basis"] != b["basis"] or [r["norm"] for r in a["rows"]] != [
                r["norm"] for r in b["rows"]
            ]:
                msg = "plain and pruned reduce disagree on the basis or row norms"
                plain.failures.append(msg)
                prune.failures.append(msg)


def _usable_raw(terms: list) -> bool:
    # normalize_sequence keeps every term's top index when each term has odd
    # size or a free letter below its top, so all of them survive.
    return len(terms) >= 2 and all(
        t.bit_count() % 2 == 1 or t.bit_count() < t.bit_length() for t in terms
    )


class VerifyWorkload:
    """Random closure cost table; verify with all lemmas and rebase."""

    alloc_names = ("verify", "rebase")

    def __init__(self, rank: int = 14) -> None:
        self.rank = rank

    def setup(self, bn, seed: int, work: Path) -> None:
        from boolnorm.instances import random_base_table, random_raw_sequence, rng_from

        base = random_base_table(rng_from(seed, self.rank, 0), self.rank)
        _write_json(work / "closure.json", bn.spec_to_json(base))
        rng = rng_from(seed, self.rank, 1)
        raw = random_raw_sequence(rng, self.rank)
        while not _usable_raw(raw):
            raw = random_raw_sequence(rng, self.rank)
        _write_json(work / "seq.json", [list(bn.support(t)) for t in raw])

    def commands(self, seed: int, work: Path, par_threads: int) -> list:
        norm = str(work / "closure.json")
        v, r = work / "verify.out.json", work / "rebase.out.json"
        return [
            Command("verify", "primary", ["verify", "--norm", norm, "--out", str(v)], [v]),
            Command(
                "rebase",
                "secondary",
                ["rebase", "--norm", norm, "--seq", str(work / "seq.json"),
                 "--seed", str(seed), "--out", str(r)],
                [r],
            ),
        ]

    def check(self, outcomes: dict, cmds: list) -> None:
        by = cmds_by_name(cmds)
        if outcomes["verify"].code == 0 and _read_json(by["verify"].outputs[0]).get("pass") is not True:
            outcomes["verify"].failures.append("verify does not report pass: true")
        if outcomes["rebase"].code == 0:
            rep = _read_json(by["rebase"].outputs[0])
            if not (
                rep.get("independent") is True
                and rep.get("rank") == len(rep.get("rows", ()))
                and rep.get("witness_failures") == 0
            ):
                outcomes["rebase"].failures.append("rebase is not independent or has witness failures")


class CampaignWorkload:
    """Rank-10 campaigns with every check, at 1 thread and at par threads."""

    FAMILIES = ("closure", "graev", "weighted")
    alloc_names = ("closure.primary",)

    def __init__(self, rank: int = 10, trials: int = 40) -> None:
        self.rank = rank
        self.trials = trials

    def setup(self, bn, seed: int, work: Path) -> None:
        pass  # trials are drawn by the campaign from --seed

    def commands(self, seed: int, work: Path, par_threads: int) -> list:
        cmds = []
        for leg, threads in (("primary", 1), ("secondary", par_threads)):
            for fam in self.FAMILIES:
                out = work / f"{fam}.{leg}.csv"
                argv = ["campaign", "--rank", str(self.rank), "--trials", str(self.trials),
                        "--family", fam, "--seed", str(seed), "--threads", str(threads),
                        "--checks", "L0iii,L1,L2,L3,L4,rebase", "--out", str(out)]
                cmds.append(Command(f"{fam}.{leg}", leg, argv, [out]))
        return cmds

    def check(self, outcomes: dict, cmds: list) -> None:
        by = cmds_by_name(cmds)
        for fam in self.FAMILIES:
            texts = {}
            for leg in ("primary", "secondary"):
                name = f"{fam}.{leg}"
                if name not in outcomes or outcomes[name].code != 0:
                    continue
                texts[leg] = by[name].outputs[0].read_bytes()
                rows = list(csv.DictReader(io.StringIO(texts[leg].decode("utf-8"))))
                if len(rows) != self.trials or any(r["pass"] != "true" for r in rows):
                    outcomes[name].failures.append("campaign CSV has failed or missing trials")
            if len(texts) == 2 and texts["primary"] != texts["secondary"]:
                outcomes[f"{fam}.secondary"].failures.append(
                    "campaign CSV differs between 1 thread and the parallel run"
                )


WORKLOADS = {
    "reduce-r20": ReduceWorkload,
    "verify-r14": VerifyWorkload,
    "campaign-r10": CampaignWorkload,
}


def cmds_by_name(cmds: list) -> dict:
    return {c.name: c for c in cmds}


def run_command(bn, cmd: Command, periodic: bool = True) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    try:
        with SpeedProbe(periodic) as probe:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = bn.cli.main(cmd.argv)
    except Exception as exc:  # a crash is a failed command, not a crashed benchmark
        code, failures = None, [f"raised {type(exc).__name__}: {exc}"]
    else:
        failures = [] if code == 0 else [f"exit code {code}: {err.getvalue().strip()[:200]}"]
    return Outcome(code, probe.wall, probe.scaled, failures)


def _rss_mb() -> float:
    """Peak resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def run_round(bn, workload, cmds: list, expected: dict | None, periodic: bool = True) -> dict:
    """Run every command once, check outputs; return per-command results.
    Trace runs pass ``periodic=False``: probe bursts would run inside spans,
    and the untraced baseline must be timed the same way."""
    for cmd in cmds:
        for path in cmd.outputs:
            path.unlink(missing_ok=True)
    outcomes = {cmd.name: run_command(bn, cmd, periodic) for cmd in cmds}
    workload.check(outcomes, cmds)
    digests = {}
    for cmd in cmds:
        for path in cmd.outputs:
            digests[path.name] = _digest(path)
            if expected is not None and digests[path.name] != expected.get(path.name):
                outcomes[cmd.name].failures.append(f"{path.name}: SHA-256 differs from digests.json")
    return {
        "wall": sum(o.wall for o in outcomes.values()),
        "scaled": sum(o.scaled for o in outcomes.values()),
        "digests": digests,
        "commands": {
            cmd.name: {"leg": cmd.leg, "wall": o.wall, "scaled": o.scaled,
                       "ok": not o.failures, "failures": o.failures}
            for cmd, o in zip(cmds, outcomes.values())
        },
    }


def _layer_values(tracer, absent: dict) -> dict:
    """Per-layer metrics of one traced round (absent ones read 0)."""
    s = tracer.stats
    vals = {}
    for layer in LAYERS:
        vals[f"{layer}.self_s"] = s.self_s[layer]
        if layer not in s.seen:
            absent[f"{layer}.self_s"] = f"no traced boolnorm.{layer} call ran in this workload"
    for metric, source in {**TIME_METRICS, **COUNT_METRICS}.items():
        vals[metric] = s.times.get(metric, s.counts.get(metric))
        if metric not in s.seen:
            absent[metric] = f"{source} did not run in this workload"
    cosets = s.coset_prune
    vals["reduction.prune_eval_frac"] = s.counts["reduction.candidates_prune"] / cosets if cosets else 0.0
    if not cosets:
        absent["reduction.prune_eval_frac"] = "no pruned reduction ran in this workload"
    for name in tracer.missing:
        absent.setdefault(f"missing:{name}", "not defined in this version of boolnorm")
    return vals


def measure(bn, workload, cmds, seconds: float, trace: bool, expected, budget: float) -> dict:
    """Timed rounds until ``seconds`` are spent.

    With trace, one tracemalloc pass comes first, then an untraced and a
    traced round, a second traced round, and further untraced/traced pairs
    while time remains.  The second traced round, which checks that the
    counts repeat, is skipped only if it would overrun ``budget``."""
    rounds, layers, absent, trials = [], [], {}, []
    rss_mb = None
    start = time.perf_counter()
    if trace:
        # tracemalloc slows allocation-heavy commands about tenfold, so this
        # pass covers only the workload's alloc_names.
        alloc_cmds = [c for c in cmds if c.name in workload.alloc_names]
        with Tracer(alloc=True) as alloc:
            rounds.append(dict(run_round(bn, workload, alloc_cmds, expected, False), traced="alloc"))
    while True:
        r0 = time.perf_counter()
        if len(layers) != 1:
            rounds.append(dict(run_round(bn, workload, cmds, expected, not trace), traced=False))
        if trace:
            t0 = time.perf_counter()
            with Tracer() as tracer:
                rounds.append(dict(run_round(bn, workload, cmds, expected, False), traced="spans"))
            traced_s = time.perf_counter() - t0
            layers.append(_layer_values(tracer, absent))
            trials.extend(tracer.stats.trial_s)
        if rss_mb is None:
            # Repeating the commands in one process fragments the heap, so the
            # peak grows with the round count; report the first pass's peak.
            rss_mb = _rss_mb()
        now = time.perf_counter()
        if len(layers) == 1:
            if now - start + 1.2 * traced_s > budget:
                break
        elif now - start + (now - r0) > seconds:
            break
    result = {"rounds": rounds, "rss_mb": rss_mb}
    if trace:
        # Times are medians over the traced rounds; counts must repeat exactly.
        per_layer = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        per_layer.update({k: layers[0][k] for k in COUNT_METRICS})
        counts_repeat = None
        if len(layers) >= 2:
            counts_repeat = all(d[k] == layers[0][k] for d in layers for k in COUNT_METRICS)
        for layer in ALLOC_LAYERS:
            per_layer[f"{layer}.peak_alloc_mb"] = alloc.stats.peak_alloc[layer] / 2**20
            if layer not in alloc.stats.seen:
                absent[f"{layer}.peak_alloc_mb"] = f"no traced boolnorm.{layer} call ran"
        trials = sorted(trials)
        if len(trials) >= 2:
            q = statistics.quantiles(trials, n=10)
            per_layer["campaign.trial_p50_s"] = statistics.median(trials)
            per_layer["campaign.trial_p90_s"] = q[8]
        else:
            per_layer["campaign.trial_p50_s"] = per_layer["campaign.trial_p90_s"] = 0.0
            absent["campaign.trial_p50_s"] = absent["campaign.trial_p90_s"] = (
                "no campaign.run_trial at 1 thread ran in this workload"
            )
        result.update(per_layer=per_layer, absent=absent, trial_samples=len(trials),
                      traced_rounds=len(layers), counts_repeat=counts_repeat)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory inside the checkout")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true", help="skip the digest comparison")
    parser.add_argument("--budget", type=float, default=float("inf"),
                        help="trace: seconds the measurement may take (run.py passes what "
                        "is left of its time limit)")
    args = parser.parse_args(argv)

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    # numpy is imported before the clock starts: its import dominated set-up
    # and follows the host's file and page-fault speed, which the probe does
    # not track (it doubled during one slow stretch of a shared host).
    import numpy

    with SpeedProbe() as probe:
        bn = load_boolnorm()
        workload = WORKLOADS[args.workload]()
        workload.setup(bn, args.seed, work)
    report = {"setup_wall": probe.wall, "setup_s": probe.scaled}
    if not args.setup_only:
        expected = None
        if args.seed == DEFAULT_SEED and not args.record:
            expected = _read_json(DIGESTS).get(args.workload, {})
        cmds = workload.commands(args.seed, work, par_threads())
        report.update(measure(bn, workload, cmds, args.seconds, bool(args.trace), expected,
                              args.budget))
        report["numpy"] = numpy.__version__
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
