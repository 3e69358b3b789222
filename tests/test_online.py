import copy
import pickle
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import votefuse

from votefuse import graph, moments, online, recovery
from votefuse.augment import AbstainPolicy, augment_graph, augment_matrix
from votefuse.config import RunConfig
from votefuse.errors import ConfigError, EstimationWarning, VoteFuseError
from votefuse.graph import ClassPrior, DependencyGraph, LabelMatrix
from votefuse.inference import marginal_positives, posterior
from votefuse.moments import RunningStats, estimate_moments
from votefuse.online import RollingState, parameter_error, run_stream, sweep_window
from votefuse.oracle import (
    CanonicalParameters,
    DriftStream,
    enumerate_joint,
    random_model,
    sample,
)
from votefuse.recovery import recover_from_moments, recover_parameters

from conftest import (assert_moments_match_dict_form, reference_conditional_accuracies,
                      reference_to_moments, star, star_with_edges)


def _stream_model(m=8):
    """The drifting stream of the benchmark: one task, m abstaining sources
    and one source edge."""
    g = DependencyGraph(n_tasks=1, n_sources=m, assignment=(0,) * m, source_edges=((0, 1),))
    return CanonicalParameters(
        graph=g, theta_task=(float(np.arctanh(0.3)),),
        theta_acc=tuple(np.arctanh(np.linspace(0.55, 0.85, m))),
        theta_abstain=tuple(np.linspace(-0.4, 0.2, m)),
        theta_dep={(0, 1): 0.3}, abstaining=True)


def _drift_model(m=5, balance_mean=0.3):
    g = star(m)
    targets = np.linspace(0.55, 0.85, m)
    return CanonicalParameters(graph=g, theta_task=(np.arctanh(balance_mean),),
                               theta_acc=tuple(np.arctanh(targets)),
                               abstaining=False)


# Python frames entered in votefuse per post-warmup step of
# test_call_budget_per_step: 127.6 before the per-tree inference layout, the
# per-column abstain fill and the one-pass clique solve, 82.8 after them, 68.8
# with the tables in one parameter vector, 65.9 once a step builds no table
# views, checks its row once and reads graph-only work from the plan and the
# compiled cliques, 62.4 at the parent of the array-form moments, the
# one-gather row posterior and the one-row window update, 58.4 after them,
# 52.4 once substitutions are decided by count and the window keeps
# pair-encoded Grams, 49.4 once the fit reads the graph-only structure as
# fields of the triplet plan, 44.4 once the pair cross-tabs are read off the
# Grams and the lazily built layout, views and tables are cached properties
CALL_BUDGET = 45
# (first step, end) -> (Python frames, C-level calls) per step: steps 500-699
# substitute both abstain-conditioned accuracies (some are stale), steps
# 1293-1392 compute one. C-level calls are the sys.setprofile "c_call" events
# of votefuse frames (builtins and array methods; a ufunc call is none);
# before the substitutions by count and the pair-encoded window they were
# 128.1 and 134.0 (frames 58.4 and 62.0), after them 118.1 and 123.0 (frames
# 52.4 and 56.0), with the plan's fields 116.1 and 121.0 (49.4 and 53.0),
# with the cross-tabs read off the Grams and the cached properties 107.0 and
# 112.0 (44.4 and 48.0)
STEP_BUDGETS = {(500, 700): (CALL_BUDGET, 108), (1293, 1393): (48, 112)}


@st.composite
def _window_run(draw):
    """A graph with 0-2 source edges, a window of 1 to 12 rows, an abstain
    policy and up to 40 vote rows (abstains common)."""
    m = draw(st.integers(3, 6))
    edges = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
                          .filter(lambda e: e[0] != e[1]), max_size=2))
    window = draw(st.integers(1, 12))
    mode = draw(st.sampled_from(["alternating", "seeded-random"]))
    rows = draw(st.lists(st.lists(st.sampled_from([-1, 0, 0, 1]), min_size=m, max_size=m),
                         min_size=1, max_size=40))
    return DependencyGraph(1, m, (0,) * m, source_edges=tuple(edges)), window, mode, rows


class TestWindowedStatistics:
    def test_windowed_equals_batch_bit_for_bit(self):
        g = star_with_edges(4, [(0, 1)])
        j = enumerate_joint(random_model(g, seed=3))
        L, _ = sample(j, 700, seed=5)
        prior = j.prior()
        cfg = RunConfig()
        state = RollingState(g, cfg, window=200, warmup=100)
        for t in range(700):
            res = state.step(L.votes[t], prior)
        A = augment_matrix(LabelMatrix(state.window_rows()), state.window_policy())
        me = estimate_moments(A, prior, augment_graph(state.graph))
        batch = recover_from_moments(me, state.graph, cfg)
        for vs in batch.cliques:
            np.testing.assert_array_equal(batch.cliques[vs], res.params.cliques[vs])

    @settings(max_examples=100, deadline=None)
    @given(run=_window_run())
    def test_window_statistics_equal_batch_statistics(self, run):
        # after any sequence of steps the running sums equal the batch
        # statistics of the buffered rows, int64 for int64
        g, window, mode, rows = run
        cfg = RunConfig(ratio_fallback=True, policy=AbstainPolicy(mode=mode, seed=7))
        state = RollingState(g, cfg, window=window, warmup=window)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimationWarning)  # tiny windows fit badly
            for row in rows:
                state.step(row, ClassPrior.from_balance(0.6))
        got = state.stats
        A = augment_matrix(LabelMatrix(state.window_rows()), state.window_policy())
        want = RunningStats.from_matrix(A, got.tracked_pairs)
        assert got.n == want.n == min(len(rows), window)
        for name in ("second", "first", "vote_counts"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype == np.int64
            np.testing.assert_array_equal(a, b)
        for name in ("pair_counts", "cond_second", "cond_first"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.keys() == b.keys()
            for key in a:
                assert a[key].dtype == b[key].dtype == np.int64
                np.testing.assert_array_equal(a[key], b[key])
        assert got.cond_n == want.cond_n

    @settings(max_examples=100, deadline=None)
    @given(run=_window_run(), n_min=st.integers(1, 8))
    def test_window_moments_equal_the_dict_form(self, run, n_min):
        # after every step the array-form moments hold the former dict
        # form's byte for byte: with a lowered N_MIN_ABSTAIN some restricted
        # Grams are read and mapped, the others read NaN
        g, window, mode, rows = run
        cfg = RunConfig(ratio_fallback=True, policy=AbstainPolicy(mode=mode, seed=7))
        state = RollingState(g, cfg, window=window, warmup=window)
        prior = ClassPrior.from_balance(0.6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimationWarning)  # tiny windows fit badly
            for row in rows:
                state.step(row, prior)
                with mock.patch.object(moments, "N_MIN_ABSTAIN", n_min):
                    got = state.stats.to_moments(prior)
                    assert_moments_match_dict_form(got, reference_to_moments(state.stats, prior))
                assert got.pairs == tuple(g.source_edges)

    def test_cumulative_equals_offline_fit(self):
        g = star(4)
        j = enumerate_joint(random_model(g, seed=4))
        L, _ = sample(j, 500, seed=6)
        prior = j.prior()
        cfg = RunConfig()
        state = RollingState(g, cfg, window=None, warmup=50)
        for t in range(500):
            res = state.step(L.votes[t], prior)
        full = recover_parameters(L, g, prior, cfg)
        for vs in full.cliques:
            np.testing.assert_array_equal(full.cliques[vs], res.params.cliques[vs])

    def test_eviction_flushes_the_old_regime(self):
        # after W steps of a new regime no statistic retains old contributions
        g = star(3)
        jA = enumerate_joint(random_model(g, seed=7))
        jB = enumerate_joint(random_model(g, seed=8))
        LA, _ = sample(jA, 300, seed=9)
        LB, _ = sample(jB, 300, seed=10)
        prior = jA.prior()
        cfg = RunConfig()
        W = 300
        state = RollingState(g, cfg, window=W, warmup=50)
        for t in range(300):
            state.step(LA.votes[t], prior)
        for t in range(300):
            state.step(LB.votes[t], prior)
        fresh = RollingState(g, cfg, window=W, warmup=50)
        fresh.abstain_ordinals = state.window_policy().phase  # align fill-ins
        fresh.abstain_ordinals = np.asarray(fresh.abstain_ordinals, dtype=np.int64)
        for t in range(300):
            res_fresh = fresh.step(LB.votes[t], prior)
        np.testing.assert_array_equal(state.stats.second, fresh.stats.second)
        np.testing.assert_array_equal(state.stats.first, fresh.stats.first)
        np.testing.assert_array_equal(state.stats.vote_counts, fresh.stats.vote_counts)

    def test_buffer_never_exceeds_window(self):
        g = star(3)
        j = enumerate_joint(random_model(g, seed=11))
        L, _ = sample(j, 900, seed=12)
        state = RollingState(g, RunConfig(), window=250, warmup=50)
        for t in range(900):
            state.step(L.votes[t], j.prior())
        assert state.buffered == 250
        assert state.stats.n == 250


    @pytest.mark.parametrize("window", [7, None])
    def test_window_rows_and_policy_follow_the_input(self, window):
        # the ring wraps (window 7) and the cumulative buffer grows past its
        # first capacity; both keep returning the rows of the window
        rows = np.random.default_rng(18).integers(-1, 2, size=(150, 4)).astype(np.int8)
        state = RollingState(star(4), RunConfig(), window=window, warmup=1000)
        prior = ClassPrior.from_balance(0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimationWarning)  # 7-row fits are unusable
            for t in range(150):
                state.step(rows[t], prior)
                lo = 0 if window is None else max(0, t + 1 - window)
                np.testing.assert_array_equal(state.window_rows(), rows[lo:t + 1])
                assert state.window_policy() == AbstainPolicy(
                    phase=tuple(int(v) for v in (rows[:lo] == 0).sum(axis=0)))

    def test_cumulative_buffer_memory_per_step(self):
        rows = np.random.default_rng(19).integers(-1, 2, size=(20_000, 8)).astype(np.int8)
        prior = ClassPrior.from_balance(0.5)
        state = RollingState(star(8), RunConfig(), window=None, warmup=30_000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for row in rows:
                state.step(row, prior)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert state.buffered == 20_000
        assert held / 20_000 < 40, f"{held / 20_000:.0f} B per step"


class TestStep:
    def test_step_does_no_per_graph_work(self):
        g = star_with_edges(8, [(0, 1)])
        j = enumerate_joint(random_model(g, seed=20))
        L, _ = sample(j, 400, seed=21)
        prior = j.prior()
        counted = {
            "build_transform": (recovery, "build_transform"),
            "compile_cliques": (recovery, "compile_cliques"),
            "enumerate_triplets": (recovery, "enumerate_triplets"),
            "enumerate_triplets (online)": (online, "enumerate_triplets"),
            "compile_cliques (online)": (online, "compile_cliques"),
            "compile_layout": (graph, "compile_layout"),
            # the step never reads a snapshot's per-table views
            "TableLayout.views": (graph.TableLayout, "views"),
        }

        def run(steps, state=None):
            patches = {name: mock.patch.object(owner, attr, autospec=True,
                                               side_effect=getattr(owner, attr))
                       for name, (owner, attr) in counted.items()}
            mocks = {name: p.start() for name, p in patches.items()}
            try:
                state = state or RollingState(g, RunConfig(), window=300, warmup=200)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", EstimationWarning)  # some windows fail
                    fresh = sum(not state.step(L.votes[t], prior).stale for t in steps)
            finally:
                for p in patches.values():
                    p.stop()
            return state, fresh, {name: m.call_count for name, m in mocks.items()}

        state, _, at_build = run(range(250))
        assert at_build["compile_cliques (online)"] == 1
        assert at_build["compile_layout"] == 1
        assert at_build["enumerate_triplets (online)"] == 1
        assert at_build["build_transform"] > 0
        _, fresh, per_step = run(range(250, 300), state)
        assert fresh > 0
        assert per_step == dict.fromkeys(counted, 0)

    def test_call_budget_per_step(self):
        # Python frames entered inside votefuse, and C-level calls, per
        # post-warmup step of the benchmark's stream model; the compiled
        # layouts keep a step to a fixed, small number of calls
        self._check_call_budget(500, 700)

    def test_call_budget_per_step_computing_one_conditional_accuracy(self):
        self._check_call_budget(1293, 1393)

    @staticmethod
    def _check_call_budget(lo, hi):
        ds = DriftStream(base=_stream_model(), n_steps=hi, seed=1, flip_period=1000)
        prior = ClassPrior.from_balance(0.65)
        state = RollingState(ds.base.graph, RunConfig(sign_strategy="ratio-anchor"),
                             window=500, warmup=200)
        package = str(Path(votefuse.__file__).parent)
        entered = c_calls = 0

        def count(frame, event, arg):
            nonlocal entered, c_calls
            if frame.f_code.co_filename.startswith(package):
                entered += event == "call"
                c_calls += event == "c_call"

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimationWarning)
            for row in ds.rows[:lo]:
                state.step(row, prior)
            sys.setprofile(count)
            try:
                for row in ds.rows[lo:]:
                    state.step(row, prior)
            finally:
                sys.setprofile(None)
        frames, calls = STEP_BUDGETS[lo, hi]
        assert entered / (hi - lo) <= frames
        assert c_calls / (hi - lo) <= calls

    @settings(max_examples=80, deadline=None)
    @given(run=_window_run(), n_min=st.integers(1, 8), fallback=st.booleans())
    def test_substitutions_decided_by_count_match_the_raising_reference(self, run, n_min,
                                                                        fallback):
        # each abstain-conditioned accuracy is substituted on the count of
        # rows its conditioning source abstains on, before any fit; on every
        # window the values and the records (target, cond, reason text) are
        # those of the former raise-and-catch path. A lowered N_MIN_ABSTAIN
        # puts windows on both sides of the count
        g, window, mode, rows = run
        cfg = RunConfig(ratio_fallback=fallback, policy=AbstainPolicy(mode=mode, seed=7))
        try:
            state = RollingState(g, cfg, window=window, warmup=window)
        except VoteFuseError:  # no triplet without the ratio fallback
            assume(False)
        prior = ClassPrior.from_balance(0.6)
        pairs = recovery.compile_cliques(state.jtree).cond_pairs
        with mock.patch.object(moments, "N_MIN_ABSTAIN", n_min), warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimationWarning)
            for row in rows:
                state.step(np.array(row, dtype=np.int8), prior)
                me = state.stats.to_moments(prior)
                try:
                    acc = moments.estimate_accuracies(me, state.plan, cfg)
                except VoteFuseError:
                    continue
                diag = recovery.RecoveryDiagnostics()
                got = recovery._conditional_accuracies(pairs, me, state.plan, acc, cfg, diag)
                want, records = reference_conditional_accuracies(pairs, me, state.plan, acc, cfg)
                assert got.tobytes() == want.tobytes()
                assert diag.conditional_substitutions == records
                for n in me.cond_n:
                    event("fitted" if n >= n_min else "too few abstain rows")

    def test_steps_match_a_reference_from_public_calls(self):
        # the three kinds of step on this stream: both abstain-conditioned
        # accuracies substituted, one of them computed (from step 1293 on),
        # and stale; each StepResult is, bit for bit, the fit and posterior
        # that the public calls give on the window's statistics, a stale one
        # scored by the last fresh snapshot, or by the prior when that fails
        ds = DriftStream(base=_stream_model(), n_steps=1400, seed=1, flip_period=1000)
        prior = ClassPrior.from_balance(0.65)
        cfg = RunConfig(sign_strategy="ratio-anchor")
        state = RollingState(ds.base.graph, cfg, window=500, warmup=200)
        last, kinds = None, set()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimationWarning)
            for row in ds.rows:
                res = state.step(row, prior)
                if res.warmup:
                    continue
                try:
                    mu = recover_from_moments(state.stats.to_moments(prior), state.graph, cfg,
                                              jtree=state.jtree, plan=state.plan)
                    pos = marginal_positives(posterior(mu, state.jtree, prior, row))
                    kind = len(mu.diagnostics.conditional_substitutions)
                    last = mu
                except VoteFuseError:
                    kind = "stale"
                    try:
                        mu = last
                        pos = marginal_positives(posterior(mu, state.jtree, prior, row))
                    except VoteFuseError:
                        mu, pos = None, np.array([prior.p_pos(0)])
                kinds.add(kind)
                assert res.stale == (kind == "stale")
                assert (res.params is None) == (mu is None)
                if mu is not None:
                    assert res.params.table.tobytes() == mu.table.tobytes()
                assert res.posterior_pos.tobytes() == pos.tobytes()
        assert kinds == {2, 1, "stale"}

    def test_fit_records_floors_and_ties_without_warning(self):
        # the rows of recovery's floor and sign-tie tests, streamed: each
        # fresh snapshot records them, and no step warns of either
        floor = np.array([[1, 1, 1, 1], [-1, 1, 1, 1], [1, -1, -1, -1], [-1, -1, -1, -1]])
        tie = np.array([[1, 1, -1, -1], [-1, -1, 1, 1]])
        prior = ClassPrior.from_balance(0.5)
        for base, floored, ties in ((floor, [0], []), (tie, [], [0])):
            state = RollingState(star(4), RunConfig(), window=20, warmup=12)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for row in np.tile(base, (8, 1)):
                    res = state.step(row, prior)
            assert not res.stale
            assert res.params.diagnostics.floored_columns == floored
            assert res.params.diagnostics.sign["sign_ties"] == ties

    def test_stale_warning_names_the_stream_row(self):
        # on this stream the fit at step 295 gives the step's own row zero
        # likelihood; the warning names that row of the stream
        ds = DriftStream(base=_stream_model(), n_steps=3000, seed=1, flip_period=1000)
        prior = ClassPrior.from_balance(0.65)
        state = RollingState(ds.base.graph, RunConfig(sign_strategy="ratio-anchor"),
                             window=500, warmup=200)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always", EstimationWarning)
            for row in ds.rows[:300]:
                state.step(row, prior)
        stale = [str(w.message) for w in seen if "window fit unusable" in str(w.message)]
        votes = tuple(int(v) for v in ds.rows[294])
        assert stale == [
            f"window fit unusable at step 295 (stream row 294, counted from 0): every task "
            f"configuration has zero probability for votes {votes}; degrading to stale "
            f"parameters or the prior (warning once; see StepResult.stale)"]

    def test_warmup_returns_prior(self):
        g = star(3)
        state = RollingState(g, RunConfig(), window=200, warmup=150)
        res = state.step(np.array([1, -1, 0], dtype=np.int8),
                         ClassPrior.from_balance(0.7))
        assert res.warmup and res.params is None
        assert res.posterior_pos[0] == pytest.approx(0.7)

    def test_stale_fallback_on_bad_window(self):
        # an uninformative burst (all abstains) makes triplets degenerate; the
        # stream keeps serving the last valid parameters
        g = star(3)
        j = enumerate_joint(random_model(g, seed=14))
        L, _ = sample(j, 400, seed=15)
        prior = j.prior()
        state = RollingState(g, RunConfig(), window=60, warmup=50)
        fresh = None
        for t in range(400):
            res = state.step(L.votes[t], prior)
            if not (res.warmup or res.stale):
                fresh = res.params
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(70):
                res = state.step(np.zeros(3, dtype=np.int8), prior)
                if not res.stale:
                    fresh = res.params
        assert res.stale
        assert state.stale_steps > 0
        # a stale step reports through a copy of the last fresh snapshot,
        # which keeps reading fresh
        assert res.params.diagnostics.stale
        assert fresh is state.last_params
        assert not fresh.diagnostics.stale

    def test_per_step_cost_independent_of_stream_length(self):
        g = star(4)
        j = enumerate_joint(random_model(g, seed=16))
        L, _ = sample(j, 3_000, seed=17)
        prior = j.prior()
        state = RollingState(g, RunConfig(), window=200, warmup=100)
        for t in range(400):
            state.step(L.votes[t], prior)
        t0 = time.perf_counter()
        for t in range(400, 700):
            state.step(L.votes[t], prior)
        early = time.perf_counter() - t0
        for t in range(700, 2_700):
            state.step(L.votes[t], prior)
        t0 = time.perf_counter()
        for t in range(2_700, 3_000):
            state.step(L.votes[t], prior)
        late = time.perf_counter() - t0
        assert state.buffered == 200
        assert late < 10 * early + 0.05  # generous; guards against growth in t

    def test_rejected_row_leaves_state_untouched(self):
        g = star_with_edges(4, [(0, 1)])
        prior = ClassPrior.from_balance(0.5)
        state = RollingState(g, RunConfig(), window=3, warmup=100)  # warmup capped to 3
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimationWarning)  # 3-row fits are unusable
            for row in ([1, 0, -1, 0], [0, 0, 1, 1], [-1, 1, 0, 0], [0, -1, 0, 1]):
                state.step(row, prior)
        stats = state.stats

        def snapshot():
            arrays = [stats.second, stats.first, stats.vote_counts, stats.pair_counts[(0, 1)],
                      stats.cond_second[0], stats.cond_first[0], state.abstain_ordinals]
            return ([a.copy() for a in arrays] + [state.window_rows()],
                    (stats.n, dict(stats.cond_n), state.window_policy(), state.t))

        arrays, scalars = snapshot()
        with pytest.raises(ValueError, match="position 1"):
            state.step([1, 5, 0, 0], prior)
        arrays_after, scalars_after = snapshot()
        for before, after in zip(arrays, arrays_after):
            np.testing.assert_array_equal(before, after)
        assert scalars == scalars_after

    def test_snapshots_hold_their_own_partner_pair_counts(self):
        # every fit's diagnostics copy the plan's counts: editing one
        # snapshot's leaves the plan and the other snapshots as they were
        g = star(5)
        j = enumerate_joint(random_model(g, seed=2))
        L, _ = sample(j, 140, seed=3)
        state = RollingState(g, RunConfig(), window=100, warmup=100)
        fits = [state.step(row, j.prior()) for row in L.votes]
        first, last = (res.params.diagnostics.partner_pairs for res in fits[-40::39])
        want = dict(state.plan.pairs)
        assert first == last == want and first is not last
        first[0] = -1
        last.clear()
        assert state.plan.pairs == want
        assert fits[-20].params.diagnostics.partner_pairs == want

    def test_state_and_snapshots_survive_deepcopy_and_pickle(self):
        # a 5-source star whose snapshot has built its table views, log
        # table and group tables: both copy and pickle, the copies rebuild
        # them read-only,
        # and a copied state steps on exactly as the original does
        g = star(5)
        j = enumerate_joint(random_model(g, seed=2))
        L, _ = sample(j, 160, seed=3)
        prior = j.prior()
        state = RollingState(g, RunConfig(), window=100, warmup=100)
        for row in L.votes[:120]:
            mu = state.step(row, prior).params
        cliques, separators, log_table = dict(mu.cliques), dict(mu.separators), mu.log_table
        group_tables = mu.group_tables
        states = [copy.deepcopy(state), pickle.loads(pickle.dumps(state))]
        for got in [copy.deepcopy(mu), pickle.loads(pickle.dumps(mu))] + [
                s.last_params for s in states]:
            assert got.table.tobytes() == mu.table.tobytes()
            assert not got.table.flags.writeable
            for want, have in ((cliques, got.cliques), (separators, got.separators)):
                assert have.keys() == want.keys()
                for vs in want:
                    assert not have[vs].flags.writeable
                    np.testing.assert_array_equal(have[vs], want[vs])
            assert not got.log_table.flags.writeable
            assert got.log_table.tobytes() == log_table.tobytes()
            assert "group_tables" not in got.__dict__ or got is mu
            assert [t.tobytes() for t in got.group_tables] == [t.tobytes() for t in group_tables]
            assert not any(t.flags.writeable for t in got.group_tables)
        for row in L.votes[120:]:
            want = state.step(row, prior).params.table.tobytes()
            assert all(s.step(row, prior).params.table.tobytes() == want for s in states)

    @pytest.mark.parametrize("window", [0, -1])
    def test_nonpositive_window_is_a_config_error(self, window):
        with pytest.raises(ConfigError, match="window"):
            RollingState(star(3), RunConfig(), window=window)

    @pytest.mark.parametrize("window, warmup, name", [
        (None, 0, "warmup"), (10, -7, "warmup"), (2.5, None, "window"),
        (True, None, "window"), (np.float64(500.0), None, "window"), (None, 1.5, "warmup"),
        (50, False, "warmup")])
    def test_bad_window_or_warmup_is_a_config_error(self, window, warmup, name):
        # each used to pass construction: a warmup below 1 promised prior-only
        # posteriors for a negative number of rows, a fractional or boolean
        # window failed on the first step with a numpy TypeError
        with pytest.raises(ConfigError, match=name):
            RollingState(star(3), RunConfig(), window=window, warmup=warmup)

    def test_integer_window_and_warmup_of_any_integer_type(self):
        state = RollingState(star(3), RunConfig(), window=np.int64(5), warmup=np.int32(1))
        prior = ClassPrior.from_balance(0.6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimationWarning)  # five rows fit badly
            for row in ([1, 0, -1], [0, 1, 1]) * 4:
                state.step(row, prior)
        assert state.buffered == 5 and state.warmup == 1


class TestDriftBehavior:
    def test_windowed_beats_cumulative_under_sign_flips(self):
        th = _drift_model()
        prior = ClassPrior.from_balance(0.65)
        cfg = RunConfig(sign_strategy="ratio-anchor")
        stream = DriftStream(base=th, n_steps=3_000, seed=21, flip_period=1_000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            w = run_stream(stream, 300, cfg, prior, warmup=150)
            c = run_stream(stream, None, cfg, prior, warmup=150)
        assert w["posterior_error"] < c["posterior_error"]

    def test_ordering_reverses_without_drift(self):
        th = _drift_model()
        prior = ClassPrior.from_balance(0.65)
        cfg = RunConfig(sign_strategy="ratio-anchor")
        stream = DriftStream(base=th, n_steps=2_000, seed=22, flip_period=None)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            w = run_stream(stream, 300, cfg, prior, warmup=150)
            c = run_stream(stream, None, cfg, prior, warmup=150)
        assert c["posterior_error"] <= w["posterior_error"]


class TestSweepWindow:
    def setup_method(self):
        self.prior = ClassPrior.from_balance(0.65)
        self.cfg = RunConfig(sign_strategy="ratio-anchor")

    def test_zero_drift_prefers_large_windows(self):
        stream = DriftStream(base=_drift_model(), n_steps=1_800, seed=23,
                             flip_period=None)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = sweep_window(stream, [100, 400, 1_500], self.cfg,
                               prior=self.prior, warmup=60)
        errs = res["errors"]
        assert errs[1_500] <= errs[100]
        assert res["best_window"] == 1_500

    def test_heavy_drift_prefers_small_windows(self):
        stream = DriftStream(base=_drift_model(), n_steps=1_600, seed=24,
                             flip_period=200)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = sweep_window(stream, [60, 400, 1_200], self.cfg,
                               prior=self.prior, warmup=40)
        assert res["best_window"] < 400

    def test_moderate_drift_has_interior_minimum(self):
        stream = DriftStream(base=_drift_model(), n_steps=3_000, seed=25,
                             flip_period=1_000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = sweep_window(stream, [25, 120, 2_000], self.cfg,
                               prior=self.prior, warmup=25)
        errs = res["errors"]
        assert errs[120] < errs[25]
        assert errs[120] < errs[2_000]


def test_parameter_error_zero_on_identical():
    g = star(3)
    j = enumerate_joint(random_model(g, seed=26))
    mu = j.true_parameters()
    assert parameter_error(mu, mu) == 0.0
