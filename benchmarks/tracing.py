"""Span recorder for the traced benchmark run, built entirely outside ``src/``.

Each layer is timed through its public functions. For the traced
repetitions only, every function in ``PATCHES`` is replaced, under the name
its caller looks it up by at call time, with a wrapper that records a span:
name, start, end, parent span and repetition id. Spans stay in memory and
are written out when the run ends. ``installed`` restores the originals.

A span's layer is the part of its name before the first dot. Its self time
is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
import tracemalloc

_perf = time.perf_counter

# Spans whose allocation high-water mark is recorded while tracemalloc runs.
# None of them nests inside another, so resetting the peak at their start
# cannot disturb an enclosing measurement.
MEM_SPANS = frozenset({"augment.matrix", "moments.stats", "inference.predict"})


def _clique_count(jtree) -> int:
    return len(jtree.cliques)


def _triplet_count(plan) -> int:
    return sum(len(p) for p in plan.partners.values())


# (owner, attribute, span name, count of the result or None). An owner is a
# module, or "module:Class" for methods. Callers inside votefuse import these
# names into their own module, so each is patched where it is looked up.
PATCHES = (
    ("votefuse.cli", "main", "cli.main", None),
    ("votefuse.fileio", "read_label_csv", "fileio.read", None),
    ("votefuse.fileio", "parse_graph_spec", "fileio.parse_graph_spec", None),
    ("votefuse.fileio", "save_parameters", "fileio.write_params", None),
    ("votefuse.fileio", "save_posterior_csv", "fileio.write", None),
    ("votefuse.recovery", "recover_parameters", "recovery.recover_parameters", None),
    ("votefuse.recovery", "validate_graph", "graph.validate", None),
    ("votefuse.recovery", "build_junction_tree", "graph.jtree", _clique_count),
    ("votefuse.recovery", "augment_graph", "augment.graph", None),
    ("votefuse.recovery", "augment_matrix", "augment.matrix", None),
    ("votefuse.recovery", "estimate_moments", "moments.stats", None),
    ("votefuse.recovery", "recover_from_moments", "recovery.recover_from_moments", None),
    ("votefuse.recovery", "enumerate_triplets", "moments.plan", _triplet_count),
    ("votefuse.recovery", "estimate_accuracies", "moments.accuracies", None),
    ("votefuse.recovery", "conditional_accuracy_from_stats", "moments.cond_accuracy", None),
    ("votefuse.inference", "predict_proba", "inference.predict", None),
    ("votefuse.online", "validate_graph", "graph.validate", None),
    ("votefuse.online", "build_junction_tree", "graph.jtree", _clique_count),
    ("votefuse.online", "augment_graph", "augment.graph", None),
    ("votefuse.online", "enumerate_triplets", "moments.plan", _triplet_count),
    ("votefuse.online", "augment_row", "augment.row", None),
    ("votefuse.online", "recover_from_moments", "recovery.recover_from_moments", None),
    ("votefuse.online", "posterior", "inference.posterior", None),
    ("votefuse.online", "marginal_positives", "inference.marginal_positives", None),
    ("votefuse.moments:RunningStats", "add", "moments.window_add", None),
    ("votefuse.moments:RunningStats", "remove", "moments.window_remove", None),
    ("votefuse.moments:RunningStats", "to_moments", "moments.to_moments", None),
    ("votefuse.moments:RunningStats", "from_matrix", "moments.from_matrix", None),
    ("votefuse.online:RollingState", "__init__", "online.init", None),
    ("votefuse.online:RollingState", "step", "online.step", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "rep", "failed", "count", "peak")

    def __init__(self, name, parent, rep):
        self.name = name
        self.parent = parent
        self.rep = rep
        self.start = self.end = 0.0
        self.failed = False
        self.count = None
        self.peak = None  # bytes allocated above the level at span start

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.rep,
                self.failed, self.count, self.peak]


class Recorder:
    """In-memory span list with a stack of open spans (single-threaded)."""

    def __init__(self):
        self.spans = []
        self.rep = 0
        self._stack = []

    def _open(self, name):
        s = Span(name, self._stack[-1] if self._stack else -1, self.rep)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        base = None
        if name in MEM_SPANS and tracemalloc.is_tracing():
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        s.start = _perf()
        return s, base

    def _close(self, s, base):
        s.end = _perf()
        self._stack.pop()
        if base is not None:
            s.peak = tracemalloc.get_traced_memory()[1] - base

    @contextlib.contextmanager
    def span(self, name):
        s, base = self._open(name)
        try:
            yield s
        except BaseException:
            s.failed = True
            raise
        finally:
            self._close(s, base)

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s, base = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                s.failed = True
                raise
            finally:
                self._close(s, base)
            if count is not None:
                s.count = count(out)
            return out
        return traced


def _owner(path):
    mod, _, cls = path.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, cls) if cls else obj


@contextlib.contextmanager
def installed(rec: Recorder):
    """Replace every function in ``PATCHES`` by a span-recording wrapper."""
    saved = []
    try:
        for path, attr, name, count in PATCHES:
            owner = _owner(path)
            orig = vars(owner)[attr]
            saved.append((owner, attr, orig))
            if isinstance(orig, classmethod):
                new = classmethod(rec.wrap(name, orig.__func__, count))
            else:
                new = rec.wrap(name, orig, count)
            setattr(owner, attr, new)
        yield rec
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def self_times(spans):
    """Duration minus the union of child intervals, per span (seconds)."""
    children = [[] for _ in spans]
    for sid, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(sid)
    out = []
    for sid, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[sid], key=lambda k: spans[k].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def check_spans(spans, tol=1e-9):
    """Problems with nesting and self-time accounting; empty when sound.

    Every child lies inside its parent, and per repetition the self times of
    all spans add up to the summed duration of the root spans.
    """
    problems = []
    for sid, s in enumerate(spans):
        if s.end < s.start:
            problems.append(f"span {sid} {s.name} ends before it starts")
        if s.parent >= 0:
            p = spans[s.parent]
            if s.parent >= sid or s.start < p.start or s.end > p.end or s.rep != p.rep:
                problems.append(f"span {sid} {s.name} is not inside parent {p.name}")
    selfs = self_times(spans)
    for rep in sorted({s.rep for s in spans}):
        ids = [k for k, s in enumerate(spans) if s.rep == rep]
        root = sum(spans[k].end - spans[k].start for k in ids if spans[k].parent < 0)
        total = sum(selfs[k] for k in ids)
        if abs(root - total) > tol * max(1.0, len(ids)):
            problems.append(f"rep {rep}: self times sum to {total}, roots to {root}")
    return problems


def layer_metrics(spans, reps, mem_spans=(), input_mb=0.0):
    """The per-layer metrics of BENCHMARK.json from the traced repetitions.

    ``*_s`` metrics are seconds per repetition (one batch fit+predict, or one
    stream pass), the median over ``reps``; ``*_us`` metrics are microseconds
    per call (per step for the window update); counts are per repetition.
    ``mem_spans`` come from a separate repetition run under tracemalloc.
    """
    selfs = self_times(spans)
    per_rep = {r: {} for r in reps}
    calls = {}
    for s, st in zip(spans, selfs):
        if s.rep not in per_rep:
            continue
        d = per_rep[s.rep].setdefault(s.name, [0.0, 0.0, 0, 0])
        d[0] += s.end - s.start
        d[1] += st
        d[2] += 1
        d[3] += s.failed
        c = calls.setdefault(s.name, [0.0, 0.0, 0, None])
        c[0] += s.end - s.start
        c[1] += st
        c[2] += 1
        if s.count is not None:
            c[3] = s.count

    def med(names, field):
        if not reps:
            return 0.0
        return statistics.median(
            sum(per_rep[r].get(n, (0.0, 0.0, 0, 0))[field] for n in names) for r in reps)

    def incl(*names):
        return med(names, 0)

    def self_s(*names):
        return med(names, 1)

    def per_call_us(name, field=0):
        c = calls.get(name)
        return 1e6 * c[field] / c[2] if c else 0.0

    def last_count(name):
        c = calls.get(name)
        return c[3] if c and c[3] is not None else 0

    def peak_mb(name):
        peaks = [s.peak for s in mem_spans if s.name == name and s.peak is not None]
        return max(peaks) / 2**20 if peaks else 0.0

    read_s = incl("fileio.read")
    window = calls.get("moments.window_add", [0.0])[0] + calls.get("moments.window_remove", [0.0])[0]
    steps = calls.get("online.step", [0, 0, 0])[2]
    return {
        "fileio.read_s": read_s,
        "fileio.read_mb_per_s": input_mb / read_s if read_s > 0 else 0.0,
        "fileio.write_s": incl("fileio.write", "fileio.write_params"),
        "cli.self_s": self_s("cli.main"),
        "graph.validate_s": incl("graph.validate"),
        "graph.jtree_s": incl("graph.jtree"),
        "graph.cliques": last_count("graph.jtree"),
        "augment.matrix_s": incl("augment.matrix"),
        "augment.matrix_peak_mb": peak_mb("augment.matrix"),
        "augment.row_us": per_call_us("augment.row"),
        "moments.stats_s": incl("moments.stats"),
        "moments.stats_peak_mb": peak_mb("moments.stats"),
        "moments.plan_s": incl("moments.plan"),
        "moments.triplets": last_count("moments.plan"),
        "moments.accuracies_s": incl("moments.accuracies"),
        "moments.cond_accuracy_s": incl("moments.cond_accuracy"),
        "moments.window_update_us": 1e6 * window / steps if steps else 0.0,
        "moments.to_moments_us": per_call_us("moments.to_moments"),
        "recovery.self_s": self_s("recovery.recover_parameters",
                                  "recovery.recover_from_moments"),
        "recovery.fit_us": per_call_us("recovery.recover_from_moments"),
        "recovery.fits": med(["recovery.recover_from_moments"], 2),
        "recovery.failed": med(["recovery.recover_from_moments"], 3),
        "inference.predict_s": incl("inference.predict"),
        "inference.predict_peak_mb": peak_mb("inference.predict"),
        "inference.posterior_us": per_call_us("inference.posterior"),
        "inference.posterior_calls": med(["inference.posterior"], 2),
        "online.step_self_us": per_call_us("online.step", field=1),
    }
