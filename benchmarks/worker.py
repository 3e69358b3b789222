"""The measured process of one benchmark run; ``run.py`` starts it.

It times its own set-up (importing votefuse, one-time construction and a
warm-up), then repeats the workload's operation for the requested seconds,
checks every output and writes one JSON result file. With ``--trace 1`` it
alternates untraced and traced repetitions, so the traced run also measures
its own overhead. Peak RSS is read before the end-of-run checks, so only
set-up and the measured operations set it.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
import warnings
from pathlib import Path

_perf = time.perf_counter
_NULL = contextlib.nullcontext()

PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS")

# A run repeats until --seconds have passed, and at least this many times; a
# traced run alternates untraced and traced repetitions. Garbage is collected
# before each one, so peak RSS does not depend on how many fitted the budget.
MIN_REPS = {False: 3, True: 4}
MIN_PASSES = {False: 1, True: 2}

# Separator tolerance of the validity check. solve_marginal clips a clique
# table to [0, 1] and renormalizes it, which moves the table's marginal on a
# separator by up to the clipped mass; a raw solution more than 0.05 outside
# [0, 1] raises instead. The program's tests hold fits on sampled data to
# this tolerance and keep the default 1e-6 for exact moments, so fits that
# pass here but not at 1e-6 are counted (recovery.inexact_frac), not failed.
SAMPLED_TOL_SEP = 0.05


class Clock:
    """Measuring time, split into equal chunks with a pause between them.

    In each pause ``run.py`` takes a set-up sample in a fresh interpreter, so
    the samples spread over the whole run. The worker only waits then; pauses
    do not count as measuring time and fall between operations.
    """

    def __init__(self, seconds: float, chunks: int):
        self.seconds, self.chunks = seconds, chunks
        self.pauses = 0
        self.paused = 0.0
        self.start = _perf()

    def running(self) -> bool:
        return _perf() - self.start - self.paused < self.seconds

    def tick(self):
        """Pause if the current chunk is used up."""
        due = self.seconds * (self.pauses + 1) / self.chunks
        if self.pauses + 1 < self.chunks and _perf() - self.start - self.paused >= due:
            t0 = _perf()
            print("pause", flush=True)
            if sys.stdin.readline().strip() != "go":
                raise SystemExit("run.py ended the run")
            self.paused += _perf() - t0
            self.pauses += 1


def _span(rec, name):
    return rec.span(name) if rec is not None else _NULL


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes() if hasattr(a, "tobytes") else a)
    return h.hexdigest()


def _table_digest(mu) -> bytes:
    h = hashlib.sha256()
    for store in (mu.cliques, mu.separators):
        for vs in sorted(store, key=lambda v: (v.tasks, v.sources)):
            h.update(repr((vs.tasks, vs.sources)).encode())
            h.update(store[vs].tobytes())
    return h.digest()


def _same_tables(a, b) -> bool:
    return _table_digest(a) == _table_digest(b)


def _end_to_end(latencies, rows_per_op, rss_mb):
    """The end-to-end metrics, and the throughput the record keeps besides.

    The gated latency is p90. The host these figures come from alternates
    between fast and slow periods of several seconds, so latencies are
    bimodal: their median and mean depend on how much of a run was slow and
    moved by up to a third between runs, p99 by 70%. p90 sits in the slow
    mode and moved least. The record keeps the whole profile.
    """
    import numpy as np

    metrics = {"peak_rss_mb": rss_mb}
    if not latencies:
        return metrics, 0.0
    lat = np.asarray(latencies)
    metrics["latency_p90_ms"] = 1e3 * float(np.percentile(lat, 90))
    return metrics, rows_per_op * lat.size / float(lat.sum())


def _profile_ms(values) -> dict:
    """Sample count, mean and quantiles of latencies, in milliseconds."""
    import numpy as np

    if not values:
        return {"count": 0}
    v = 1e3 * np.asarray(values)
    q = (0, 10, 25, 50, 75, 90, 99, 100)
    out = {"count": int(v.size), "mean": float(v.mean())}
    out.update({f"p{k}": float(x) for k, x in zip(q, np.percentile(v, q))})
    return out


def _overhead(lat) -> float:
    """Median traced over median untraced operation time, minus one."""
    if not lat[True] or not lat[False]:
        return 0.0
    return statistics.median(lat[True]) / statistics.median(lat[False]) - 1.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Shared bookkeeping: failures, check problems and quality scores."""

    def __init__(self, man, inputs: Path, work: Path):
        import numpy as np

        from votefuse.config import RunConfig
        from votefuse.graph import ClassPrior, DependencyGraph

        self.man = man
        self.inputs = inputs
        self.work = work
        m = man["m"]
        self.graph = DependencyGraph(n_tasks=1, n_sources=m, assignment=(0,) * m,
                                     source_edges=tuple(tuple(e) for e in man["edges"]))
        self.prior = ClassPrior.from_balance(man["balance"])
        self.truth_acc = np.load(inputs / "truth_acc.npy")
        self.truth_post = np.load(inputs / "truth_post.npy")
        self.cfg = RunConfig()
        self.problems = {}  # kind -> [count, first few details]
        self.attempted = 0
        self.failed = 0
        self.fits = 0
        self.inexact_fits = 0
        self.quality = {}
        self.warmup_error = None

    def problem(self, kind, detail=""):
        entry = self.problems.setdefault(kind, [0, []])
        entry[0] += 1
        if detail and len(entry[1]) < 3:
            entry[1].append(detail)

    def validate(self, mu, where):
        """Fail the run on a fit outside the program's contract for sampled
        data; count the fits that only the exact-moment tolerance rejects."""
        self.fits += 1
        try:
            mu.validate(tol_sep=SAMPLED_TOL_SEP)
        except ValueError as exc:
            self.problem("fitted parameters fail LabelModelParameters.validate()",
                         f"{where}: {exc}")
            return
        try:
            mu.validate()
        except ValueError:
            self.inexact_fits += 1

    def inexact_frac(self) -> float:
        return self.inexact_fits / self.fits if self.fits else 0.0

    def problem_report(self):
        out = []
        for kind, (count, details) in self.problems.items():
            text = f"{kind} ({count}x"
            if kind.startswith("fitted parameters"):
                text += f" of {self.fits} fits"
            out.append(text + ")" + "".join(f"; {d}" for d in details))
        return out

    def fitted_accuracies(self, mu):
        import numpy as np

        from votefuse.graph import VarSet, marginalize_table

        acc = np.full(self.graph.n_sources, np.nan)
        for vs, tbl in mu.cliques.items():
            for i in vs.sources:
                t = marginalize_table(vs, tbl, VarSet(vs.tasks, (i,)))
                acc[i] = (t[0, 0] - t[0, 2]) - (t[1, 0] - t[1, 2])
        return acc


# ---------------------------------------------------------------------------
# batch workloads: tall (in memory), csv (through the CLI)
# ---------------------------------------------------------------------------

class BatchRun(Run):
    def __init__(self, man, inputs, work):
        import numpy as np

        super().__init__(man, inputs, work)
        self.votes = np.load(inputs / "votes.npy")
        self.rows = self.votes.shape[0]

    def setup(self):
        """Warm up every code path on the leading rows and columns."""
        from votefuse.errors import VoteFuseError
        from votefuse.oracle import star_graph
        from workloads import WARM_COLS, WARM_ROWS

        try:
            self._fit_predict(self.votes[:WARM_ROWS, :WARM_COLS], star_graph(WARM_COLS), None)
        except VoteFuseError as exc:
            # the warm-up has still run the code it primes; only the measured
            # operations count as failed
            self.warmup_error = repr(exc)

    def _fit_predict(self, votes, g, rec):
        from votefuse import inference, recovery
        from votefuse.graph import LabelMatrix

        with _span(rec, "graph.label_matrix"):
            L = LabelMatrix(votes)
        mu = recovery.recover_parameters(L, g, self.prior, self.cfg)
        return mu, inference.predict_proba(L, mu, mu.jtree, self.prior).probs

    def op(self, rec):
        return self._fit_predict(self.votes, self.graph, rec)

    def inspect(self, out, where):
        """Check one operation's output (outside the timed region); its digest."""
        mu, probs = out
        self.validate(mu, where)
        if not self.quality:
            self.score(mu, probs)
        return _digest(_table_digest(mu), probs)

    def score(self, mu, probs):
        import numpy as np

        self.quality = {
            "acc_mae": float(np.mean(np.abs(self.fitted_accuracies(mu) - self.truth_acc))),
            "post_mae": float(np.mean(np.abs(probs[:, 0] - self.truth_post))),
        }

    def final_checks(self):
        pass

    def measure(self, seconds, chunks, trace):
        from tracing import Recorder, installed

        rec = Recorder()
        mem_spans = []
        if trace:
            # allocation peaks come from one extra repetition under
            # tracemalloc, which is too slow to share with the timed ones
            mrec = Recorder()
            tracemalloc.start()
            try:
                with installed(mrec), mrec.span("bench.op"):
                    out = self.op(mrec)
            finally:
                tracemalloc.stop()
            self.inspect(out, "memory repetition")
            mem_spans = mrec.spans
        lat = {False: [], True: []}
        digests = {False: set(), True: set()}
        traced_reps = []
        k = 0
        clock = Clock(seconds, chunks)
        while k < MIN_REPS[trace] or clock.running():
            clock.tick()
            traced = bool(trace and k % 2)
            rec.rep = k
            self.attempted += 1
            gc.collect()
            try:
                with (installed(rec) if traced else _NULL):
                    t0 = _perf()
                    with _span(rec if traced else None, "bench.op"):
                        out = self.op(rec if traced else None)
                    dt = _perf() - t0
            except Exception:
                self.failed += 1
                traceback.print_exc()
            else:
                lat[traced].append(dt)
                if traced:
                    traced_reps.append(k)
                digests[traced].add(self.inspect(out, f"repetition {k}"))
            k += 1
        rss = _peak_rss_mb()
        self.final_checks()
        self.check_digests(digests, trace)
        return self.results(lat, rss, rec, traced_reps, mem_spans, trace)

    def check_digests(self, digests, trace):
        plain, traced = digests[False], digests[True]
        if len(plain) > 1 or len(traced) > 1:
            self.problem("repetitions of the same input gave different outputs")
        if trace and plain != traced:
            self.problem("traced outputs differ from untraced outputs")
        if not plain:
            self.problem("no repetition succeeded")

    def results(self, lat, rss, rec, traced_reps, mem_spans, trace):
        from tracing import layer_metrics

        plain = lat[False]
        out = {"latency_ms": _profile_ms(plain), "repetitions": self.attempted}
        out["end_to_end"], out["rows_per_s"] = _end_to_end(plain, self.rows, rss)
        if trace:
            layers = layer_metrics(rec.spans, traced_reps, mem_spans, self.input_mb())
            layers["trace.overhead_frac"] = _overhead(lat)
            layers["recovery.inexact_frac"] = self.inexact_frac()
            # stream-only counters; a batch run has no stream
            layers.update({"online.stale_steps": 0, "online.stale_frac": 0.0,
                           "online.snapshot_mutations": 0})
            out["per_layer"] = layers
            out["spans"] = [s.as_list() for s in rec.spans]
        return out

    def input_mb(self):
        return 0.0


class CsvRun(BatchRun):
    """``votefuse fit-predict`` in process: CSV in, posterior CSV out."""

    def __init__(self, man, inputs, work):
        super().__init__(man, inputs, work)
        self.out_csv = work / "posterior.csv"
        self.out_params = work / "params.json"

    def _cli(self, labels, graph, out_csv, out_params):
        from votefuse import cli

        argv = ["fit-predict", "--labels", str(labels), "--graph", str(graph),
                "--balance", repr(self.man["balance"]), "--out", str(out_csv),
                "--params-out", str(out_params)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def setup(self):
        code = self._cli(self.inputs / "warm.csv", self.inputs / "warm.spec",
                         self.work / "warm_posterior.csv", self.work / "warm_params.json")
        if code != 0:
            self.warmup_error = f"fit-predict exited with {code}"

    def op(self, rec):
        code = self._cli(self.inputs / "votes.csv", self.inputs / "graph.spec",
                         self.out_csv, self.out_params)
        if code != 0:
            raise RuntimeError(f"fit-predict exited with {code}")

    def inspect(self, out, where):
        from votefuse import fileio

        mu = fileio.load_parameters(str(self.out_params))
        self.validate(mu, where)
        return _digest(_table_digest(mu), self.out_csv.read_bytes())

    def final_checks(self):
        """The CLI's files match the in-memory fit and predict on the same votes."""
        from votefuse import fileio

        if not self.out_csv.exists():
            return
        mu, probs = self._fit_predict(self.votes, self.graph, None)
        buf = io.StringIO()
        fileio.write_posterior_csv(buf, probs)
        if buf.getvalue().encode() != self.out_csv.read_bytes():
            self.problem("fit-predict posterior CSV differs from in-memory predict_proba")
        if not _same_tables(mu, fileio.load_parameters(str(self.out_params))):
            self.problem("fit-predict parameter file differs from the in-memory fit")
        self.validate(mu, "in-memory fit")
        self.score(mu, probs)

    def input_mb(self):
        return (self.inputs / "votes.csv").stat().st_size / 2**20


# ---------------------------------------------------------------------------
# stream: one caller, one RollingState.step per row, closed loop
# ---------------------------------------------------------------------------

class StreamRun(Run):
    def __init__(self, man, inputs, work):
        import numpy as np

        from workloads import STREAM_SIGNS

        super().__init__(man, inputs, work)
        self.rows = np.load(inputs / "rows.npy")
        self.window, self.warmup = man["window"], man["warmup"]
        self.cfg = self.cfg.replace(sign_strategy=STREAM_SIGNS)

    def _state(self):
        from votefuse import online

        return online.RollingState(self.graph, self.cfg, window=self.window,
                                   warmup=self.warmup)

    def setup(self):
        state = self._state()
        for row in self.rows[:self.warmup + 20]:
            state.step(row, self.prior)

    def run_pass(self, p, clock):
        """One pass over the stream; returns post-warmup step latencies and
        the pass's output digest. Scoring happens between timed steps."""
        import numpy as np

        n = self.rows.shape[0]
        post = np.full(n, np.nan)
        stale = np.zeros(n, dtype=bool)
        lat = []
        acc_err = []
        mutations = 0
        last_fresh = last_k = None
        state = self._state()
        for k in range(n):
            clock.tick()
            self.attempted += 1
            t0 = _perf()
            try:
                res = state.step(self.rows[k], self.prior)
            except Exception:
                self.failed += 1
                traceback.print_exc()
                continue
            dt = _perf() - t0
            if res.warmup:
                continue
            lat.append(dt)
            post[k] = res.posterior_pos[0]
            stale[k] = res.stale
            if res.stale:
                continue
            if last_fresh is not None and last_fresh.diagnostics.stale:
                mutations += 1
            last_fresh, last_k = res.params, k
            self.validate(res.params, f"pass {p} step {k}")
            acc_err.append(np.mean(np.abs(self.fitted_accuracies(res.params)
                                          - self.truth_acc[k])))
        if last_fresh is not None and last_fresh.diagnostics.stale:
            mutations += 1
        scored = ~np.isnan(post)
        info = {
            "stale_steps": int(stale.sum()),
            "post_warmup_steps": int(scored.sum()),
            "snapshot_mutations": mutations,
            "acc_mae": float(np.mean(acc_err)) if acc_err else float("nan"),
            "post_mae": float(np.mean(np.abs(post[scored] - self.truth_post[scored]))),
        }
        tables = _table_digest(last_fresh) if last_fresh is not None else b""
        return lat, _digest(post, stale, tables), info, (state, last_fresh, last_k)

    def check_window(self, state, snapshot, k):
        """The last fresh snapshot equals a batch recovery on its window.

        The window at step k and its abstain phase are rebuilt from the input
        rows; at the final step the rebuild must agree with ``window_rows()``
        and ``window_policy()``.
        """
        import numpy as np

        from votefuse.augment import AbstainPolicy, augment_graph, augment_matrix
        from votefuse.errors import EstimationWarning
        from votefuse.graph import LabelMatrix
        from votefuse.moments import estimate_moments
        from votefuse.recovery import recover_from_moments

        def window_at(t):
            lo = max(0, t + 1 - self.window)
            phase = (self.rows[:lo] == 0).sum(axis=0)
            policy = AbstainPolicy(mode=self.cfg.policy.mode, seed=self.cfg.policy.seed,
                                   phase=tuple(int(v) for v in phase))
            return self.rows[lo:t + 1], policy

        rows, policy = window_at(self.rows.shape[0] - 1)
        if not (np.array_equal(rows, state.window_rows())
                and policy == state.window_policy()):
            self.problem("rebuilt final window differs from window_rows() and window_policy()")
        if snapshot is None:
            self.problem("no fresh snapshot in the stream")
            return
        rows, policy = window_at(k)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimationWarning)
            A = augment_matrix(LabelMatrix(rows), policy)
            mom = estimate_moments(A, self.prior, augment_graph(state.graph))
            batch = recover_from_moments(mom, state.graph, self.cfg)
        if not _same_tables(batch, snapshot):
            self.problem("last fresh snapshot differs from batch recovery on its window",
                         f"step {k}")

    def measure(self, seconds, chunks, trace):
        from tracing import Recorder, installed, layer_metrics

        rec = Recorder()
        lat = {False: [], True: []}
        digests = {False: set(), True: set()}
        infos, traced_reps, ends = [], [], []
        p = 0
        clock = Clock(seconds, chunks)
        while p < MIN_PASSES[trace] or clock.running():
            traced = bool(trace and p % 2)
            rec.rep = p
            gc.collect()
            with (installed(rec) if traced else _NULL):
                pass_lat, digest, info, end = self.run_pass(p, clock)
            ends.append(end)
            lat[traced].extend(pass_lat)
            digests[traced].add(digest)
            infos.append(info)
            if traced:
                traced_reps.append(p)
            p += 1
        rss = _peak_rss_mb()
        for end in ends:
            self.check_window(*end)
        if len(digests[False]) > 1 or len(digests[True]) > 1:
            self.problem("passes over the same stream gave different outputs")
        if trace and digests[False] != digests[True]:
            self.problem("traced outputs differ from untraced outputs")
        first = infos[0]
        self.quality = {"acc_mae": first["acc_mae"], "post_mae": first["post_mae"]}
        plain = lat[False]
        out = {"latency_ms": _profile_ms(plain), "repetitions": p}
        out["end_to_end"], out["rows_per_s"] = _end_to_end(plain, 1, rss)
        if trace:
            layers = layer_metrics(rec.spans, traced_reps)
            layers["trace.overhead_frac"] = _overhead(lat)
            layers["online.stale_steps"] = first["stale_steps"]
            layers["online.stale_frac"] = first["stale_steps"] / max(1, first["post_warmup_steps"])
            layers["online.snapshot_mutations"] = first["snapshot_mutations"]
            layers["recovery.inexact_frac"] = self.inexact_frac()
            out["per_layer"] = layers
            out["spans"] = [s.as_list() for s in rec.spans]
        return out


RUNS = {"tall": BatchRun, "csv": CsvRun, "stream": StreamRun}


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads_env": {v: os.environ.get(v) for v in PINNED},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=tuple(RUNS), required=True)
    p.add_argument("--inputs", type=Path, required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--chunks", type=int, default=1,
                   help="pause this many times minus one, at even intervals, "
                        "for a set-up sample; each pause prints 'pause' and "
                        "waits for 'go' on standard input")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    unpinned = [v for v in PINNED if os.environ.get(v) != "1"]
    if unpinned:
        print(f"thread counts not pinned to 1: {unpinned}", file=sys.stderr)
        return 2

    t0 = _perf()
    import numpy  # noqa: F401
    import votefuse.cli  # noqa: F401
    import votefuse.fileio  # noqa: F401
    import votefuse.inference  # noqa: F401
    import votefuse.online  # noqa: F401
    import votefuse.recovery  # noqa: F401
    import_s = _perf() - t0

    from votefuse.errors import EstimationWarning
    from workloads import load_manifest

    warnings.simplefilter("ignore", EstimationWarning)
    args.work.mkdir(parents=True, exist_ok=True)
    run = RUNS[args.workload](load_manifest(args.inputs), args.inputs, args.work)
    t1 = _perf()
    run.setup()
    setup_s = import_s + (_perf() - t1)

    result = {"setup_s": setup_s, "import_s": import_s, "warmup_error": run.warmup_error}
    if not args.setup_only:
        result.update(run.measure(args.seconds, args.chunks, bool(args.trace)))
        result.update(attempted=run.attempted, failed=run.failed,
                      problems=run.problem_report(), quality=run.quality,
                      environment=environment())
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
