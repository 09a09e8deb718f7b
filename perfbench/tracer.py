"""Per-layer tracing of boolnorm from outside the library.

The tracer replaces public functions of the boolnorm modules with timing
wrappers for the duration of a ``with`` block and restores them afterwards.
A function is wrapped in every ``boolnorm.*`` namespace that binds it, so a
span is recorded whichever module makes the call.  Private helpers and
per-element calls (``NormOracle.__call__``, ``support``) are never wrapped.

Each thread keeps its own span stack.  A layer's self time is the duration
of its spans minus the time covered by their child spans.  A span that
starts on a worker thread with an empty stack (a campaign trial in the
thread pool) is adopted by the innermost open span of the thread that
started tracing, so the time that thread spends waiting on the pool is not
counted as its own.
"""

from __future__ import annotations

import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field

LAYERS = ("cli", "norms", "reduction", "verification", "rebasing", "instances", "campaign")

# layer -> public callables to wrap ("Class.method" for methods).
TARGETS = {
    "cli": ("main",),
    "norms": (
        "parse_norm_spec",
        "oracle_from_spec",
        "oracle_for",
        "weighted_oracle",
        "graev_oracle",
        "closure_norm",
        "table_norm",
        "coordinate_norm",
        "restrict_oracle",
        "check_norm_axioms",
        "spec_to_json",
        "NormOracle.table",
        "NormOracle.values",
    ),
    "reduction": ("reduce_basis", "reduce_basis_report", "coset_argmin", "search_bound"),
    "verification": (
        "check_monotone_tail",
        "check_geometric_bound",
        "check_discreteness",
        "check_closedness",
        "check_null_tail",
        "worst_geometric_ratio",
        "min_separation",
        "separation_epsilon",
        "merge_reports",
    ),
    "rebasing": (
        "normalize_sequence",
        "f_iterates",
        "build_second_basis",
        "verify_independence",
        "block_partition",
        "witness_nonvanishing",
        "separation_profile",
    ),
    "instances": (
        "rng_from",
        "random_weight_spec",
        "random_metric_spec",
        "random_base_table",
        "random_norm",
        "random_raw_sequence",
        "random_sequence",
    ),
    "campaign": ("run_campaign", "run_trial", "write_csv"),
}

# Per-layer metrics: name -> (unit, the call that produces it).  A metric
# whose producing call never ran is reported as absent.
TIME_METRICS = {
    "norms.parse_norm_spec_s": "norms.parse_norm_spec",
    "norms.closure_norm_s": "norms.closure_norm",
    "norms.check_norm_axioms_s": "norms.check_norm_axioms",
    "reduction.plain_s": "reduction.reduce_basis_report(prune=False)",
    "reduction.prune_s": "reduction.reduce_basis_report(prune=True)",
    "verification.L0iii_s": "verification.check_monotone_tail",
    "verification.L1_s": "verification.check_geometric_bound",
    "verification.L2_s": "verification.check_discreteness",
    "verification.L3_s": "verification.check_closedness",
    "verification.L4_s": "verification.check_null_tail",
    "verification.ratio_s": "verification.worst_geometric_ratio/min_separation",
    "rebasing.normalize_s": "rebasing.normalize_sequence",
    "rebasing.build_s": "rebasing.build_second_basis/verify_independence",
    "rebasing.witness_s": "rebasing.witness_nonvanishing",
    "rebasing.profile_s": "rebasing.separation_profile",
}
COUNT_METRICS = {
    "norms.axioms_pairs": "norms.check_norm_axioms",
    "norms.table_calls": "norms.NormOracle.table",
    "norms.values_calls": "norms.NormOracle.values",
    "reduction.candidates_plain": "reduction.reduce_basis_report(prune=False)",
    "reduction.candidates_prune": "reduction.reduce_basis_report(prune=True)",
    "verification.checked": "verification lemma checkers",
    "rebasing.witnesses": "rebasing.witness_nonvanishing",
}
ALLOC_LAYERS = ("norms", "reduction")

_METRIC_OF = {
    ("norms", "parse_norm_spec"): "norms.parse_norm_spec_s",
    ("norms", "closure_norm"): "norms.closure_norm_s",
    ("norms", "check_norm_axioms"): "norms.check_norm_axioms_s",
    ("verification", "check_monotone_tail"): "verification.L0iii_s",
    ("verification", "check_geometric_bound"): "verification.L1_s",
    ("verification", "check_discreteness"): "verification.L2_s",
    ("verification", "check_closedness"): "verification.L3_s",
    ("verification", "check_null_tail"): "verification.L4_s",
    ("verification", "worst_geometric_ratio"): "verification.ratio_s",
    ("verification", "min_separation"): "verification.ratio_s",
    ("rebasing", "normalize_sequence"): "rebasing.normalize_s",
    ("rebasing", "build_second_basis"): "rebasing.build_s",
    ("rebasing", "verify_independence"): "rebasing.build_s",
    ("rebasing", "witness_nonvanishing"): "rebasing.witness_s",
    ("rebasing", "separation_profile"): "rebasing.profile_s",
}
_LEMMA_CHECKERS = {
    fn for (_, fn), metric in _METRIC_OF.items() if metric.startswith("verification.L")
}


@dataclass
class _Frame:
    layer: str
    start: float
    child: float = 0.0
    adopted: list = field(default_factory=list)
    base_mem: int = 0
    peak_mem: int = 0


@dataclass
class LayerStats:
    """Totals of one traced stretch of work."""

    self_s: dict = field(default_factory=lambda: {layer: 0.0 for layer in LAYERS})
    times: dict = field(default_factory=lambda: dict.fromkeys(TIME_METRICS, 0.0))
    counts: dict = field(default_factory=lambda: dict.fromkeys(COUNT_METRICS, 0))
    seen: set = field(default_factory=set)
    coset_prune: int = 0
    trial_s: list = field(default_factory=list)
    peak_alloc: dict = field(default_factory=lambda: dict.fromkeys(ALLOC_LAYERS, 0))


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """Context manager that wraps the boolnorm layers and collects stats.

    ``alloc=True`` also records the tracemalloc peak inside each norms and
    reduction span; it distorts timings, so use it in a pass of its own.
    """

    def __init__(self, alloc: bool = False) -> None:
        self.alloc = alloc
        self.stats = LayerStats()
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._owner: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        self._local.stack = self._owner
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "boolnorm" or name.startswith("boolnorm."))
        ]
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"boolnorm.{layer}")
            for qual in names:
                if home is None:
                    self.missing.append(f"boolnorm.{layer}.{qual}")
                    continue
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(home, cls_name, None)
                    original = None if cls is None else cls.__dict__.get(attr)
                    if original is None:
                        self.missing.append(f"boolnorm.{layer}.{qual}")
                        continue
                    self._patch(cls, attr, self._wrap(layer, attr, original))
                    continue
                original = getattr(home, qual, None)
                if original is None:
                    self.missing.append(f"boolnorm.{layer}.{qual}")
                    continue
                wrapper = self._wrap(layer, qual, original)
                for mod in modules:
                    if getattr(mod, qual, None) is original:
                        self._patch(mod, qual, wrapper)
        if self.alloc:
            tracemalloc.start()
        return self

    def __exit__(self, *exc) -> None:
        if self.alloc:
            tracemalloc.stop()
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    # -- spans ----------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = _Frame(layer, 0.0)
            if tracer.alloc:
                tracer._alloc_enter(stack, frame)
            stack.append(frame)
            frame.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if tracer.alloc:
                    tracer._alloc_exit(stack, frame)
            tracer._record(stack, frame, end, name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _record(self, stack, frame: _Frame, end: float, name, args, kwargs, result) -> None:
        dur = end - frame.start
        waited = _union_length(frame.adopted, frame.start, end) if frame.adopted else 0.0
        s = self.stats
        with self._lock:
            s.self_s[frame.layer] += dur - frame.child - waited
            s.seen.add(frame.layer)
            key = (frame.layer, name)
            metric = _METRIC_OF.get(key)
            if metric is not None:
                s.times[metric] += dur
                s.seen.add(metric)
            if key == ("norms", "check_norm_axioms"):
                s.counts["norms.axioms_pairs"] += result.pairs_checked
                s.seen.add("norms.axioms_pairs")
            elif key == ("norms", "table"):
                s.counts["norms.table_calls"] += 1
                s.seen.add("norms.table_calls")
            elif key == ("norms", "values"):
                s.counts["norms.values_calls"] += 1
                s.seen.add("norms.values_calls")
            elif key == ("reduction", "reduce_basis_report"):
                mode = "prune" if kwargs.get("prune") else "plain"
                s.times[f"reduction.{mode}_s"] += dur
                s.counts[f"reduction.candidates_{mode}"] += sum(
                    rec.candidates_evaluated for rec in result[1]
                )
                if mode == "prune":
                    s.coset_prune += sum(rec.coset_size for rec in result[1])
                s.seen.update((f"reduction.{mode}_s", f"reduction.candidates_{mode}"))
            elif frame.layer == "verification" and name in _LEMMA_CHECKERS:
                s.counts["verification.checked"] += result.checked
                s.seen.add("verification.checked")
            elif key == ("rebasing", "witness_nonvanishing"):
                s.counts["rebasing.witnesses"] += 1
                s.seen.add("rebasing.witnesses")
            elif key == ("campaign", "run_trial") and args[0].threads == 1:
                s.trial_s.append(dur)
            if frame.layer in ALLOC_LAYERS and self.alloc:
                grown = frame.peak_mem - frame.base_mem
                if grown > s.peak_alloc[frame.layer]:
                    s.peak_alloc[frame.layer] = grown
        if stack:
            stack[-1].child += dur
        elif stack is not self._owner and self._owner:
            # Root span on a pool thread: the owner's innermost span waits on it.
            try:
                self._owner[-1].adopted.append((frame.start, end))
            except IndexError:
                pass

    # -- tracemalloc ------------------------------------------------------

    @staticmethod
    def _fold_peak(stack, peak: int) -> None:
        for f in stack:
            if peak > f.peak_mem:
                f.peak_mem = peak

    def _alloc_enter(self, stack, frame: _Frame) -> None:
        cur, peak = tracemalloc.get_traced_memory()
        self._fold_peak(stack, peak)
        tracemalloc.reset_peak()
        frame.base_mem = frame.peak_mem = cur

    def _alloc_exit(self, stack, frame: _Frame) -> None:
        _, peak = tracemalloc.get_traced_memory()
        self._fold_peak(stack, peak)
        if peak > frame.peak_mem:
            frame.peak_mem = peak
