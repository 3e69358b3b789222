import dataclasses
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votefuse import augment, moments
from votefuse.augment import AbstainPolicy, augment_graph, augment_matrix
from votefuse.config import RunConfig
from votefuse.errors import (
    InsufficientIndependence,
    NoUsableTriplet,
    PriorNearZero,
    TooFewAbstainRows,
)
from votefuse.graph import BLOCK_ROWS, ClassPrior, DependencyGraph, LabelMatrix
from votefuse.inference import predict_proba
from votefuse.moments import (
    EPS_ACC,
    EPS_DEN,
    MomentEstimates,
    RunningStats,
    _block_magnitudes,
    _pooled_magnitudes,
    conditional_accuracy_from_stats,
    enumerate_triplets,
    estimate_accuracies,
    estimate_moments,
    ratio_accuracy,
    resolve_signs,
)
from votefuse.oracle import (
    CanonicalParameters,
    enumerate_joint,
    random_model,
    sample,
    sample_symmetric_star,
)
from votefuse.recovery import recover_parameters

from conftest import (ReferenceStats, acceptance_grid, assert_moments_match_dict_form, chain3,
                      reference_augment, reference_fills, reference_independent_columns,
                      reference_partner_pairs, reference_pooled_magnitudes, star,
                      star_with_edges)


class TestEstimateMoments:
    def test_direct_average(self):
        # the pair columns of an abstain (alternating fills), a +1 vote and
        # two more abstains, (1, 1), (1, -1), (-1, -1), (1, 1): products
        # (1, -1, 1, 1) average to 0.5
        A = augment_matrix(LabelMatrix(np.array([[0], [1], [0], [0]], dtype=np.int8)))
        me = estimate_moments(A, ClassPrior.from_balance(0.5))
        assert me.M[0, 1] == pytest.approx(0.5, abs=0)

    def test_diagonal_is_one(self):
        rng = np.random.default_rng(0)
        L = LabelMatrix(rng.integers(-1, 2, size=(100, 3)).astype(np.int8))
        me = estimate_moments(augment_matrix(L), ClassPrior.from_balance(0.5))
        np.testing.assert_array_equal(np.diag(me.M), 1.0)
        np.testing.assert_allclose(me.M, me.M.T)
        assert np.max(np.abs(me.M)) <= 1.0

    def test_weighted_enumeration_reproduces_exact_moments(self):
        # feeding the full enumeration weighted by probability reproduces the
        # enumerated second moments
        g = star_with_edges(4, [(0, 1)])
        th = random_model(g, seed=3)
        j = enumerate_joint(th)
        me = j.moment_estimates()
        p = j.p_full
        cols = np.stack([j.column_value(c) for c in range(8)])
        weighted = (cols * p) @ cols.T
        np.testing.assert_allclose(weighted, me.M, atol=1e-12)

    def test_vote_marginals_and_pairs(self):
        votes = np.array([[1, 0], [0, 0], [-1, 1], [1, 1]], dtype=np.int8)
        g = star_with_edges(2, [(0, 1)])
        me = estimate_moments(augment_matrix(LabelMatrix(votes)),
                              ClassPrior.from_balance(0.5), augment_graph(g))
        np.testing.assert_allclose(me.vote_marginals[0], [0.5, 0.25, 0.25])
        pair = me.pair_cells[me.pairs.index((0, 1))]
        assert pair[0, 0] == pytest.approx(0.25)   # (+1, +1) once
        assert pair.sum() == pytest.approx(1.0)


def _reference_stats(m, tracked, cond, ops):
    """Statistics from the former per-row update: ``np.outer`` plus Python
    loops over sources and pairs, fed vote rows alongside augmented rows.

    ``ops`` is a sequence of (augmented row, vote row, sign) with sign +1 to
    add the row and -1 to remove it.
    """
    c = 2 * m
    ref = {"n": 0, "second": np.zeros((c, c), np.int64), "first": np.zeros(c, np.int64),
           "vote_counts": np.zeros((m, 3), np.int64),
           "pair_counts": {p: np.zeros((3, 3), np.int64) for p in tracked},
           "cond_second": {i: np.zeros((c, c), np.int64) for i in cond},
           "cond_first": {i: np.zeros(c, np.int64) for i in cond},
           "cond_n": {i: 0 for i in cond}}
    for aug_row, votes_row, sign in ops:
        a64 = aug_row.astype(np.int64)
        outer = np.outer(a64, a64)
        ref["second"] += sign * outer
        ref["first"] += sign * a64
        vi = (1 - votes_row).astype(np.intp)  # +1 -> 0, 0 -> 1, -1 -> 2
        for j in range(m):
            ref["vote_counts"][j, vi[j]] += sign
        for (p, q) in tracked:
            ref["pair_counts"][(p, q)][vi[p], vi[q]] += sign
        for i in cond:
            if votes_row[i] == 0:
                ref["cond_second"][i] += sign * outer
                ref["cond_first"][i] += sign * a64
                ref["cond_n"][i] += sign
        ref["n"] += sign
    return ref


def _assert_same_stats(stats, ref):
    assert stats.n == ref["n"]
    for name in ("second", "first", "vote_counts"):
        got = getattr(stats, name)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, ref[name])
    for name in ("pair_counts", "cond_second", "cond_first", "cond_n"):
        got = getattr(stats, name)
        assert sorted(got) == sorted(ref[name])
        for key in got:
            np.testing.assert_array_equal(got[key], ref[name][key])


@st.composite
def _stat_inputs(draw):
    """Abstaining votes with their lazily encoded pair encoding and its
    reference encoding, plus random tracked source pairs and conditioning
    sources."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(0, 40))
    p_abstain = draw(st.sampled_from([0.0, 0.3, 0.9]))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    votes = rng.choice(np.array([-1, 1], np.int8), size=(n, m))
    votes[rng.random((n, m)) < p_abstain] = 0
    mode = draw(st.sampled_from(["alternating", "seeded-random"]))
    phase = draw(st.none() | st.lists(st.integers(0, 10 ** 6), min_size=m, max_size=m))
    policy = AbstainPolicy(mode=mode, seed=seed, phase=phase)
    A = augment_matrix(LabelMatrix(votes), policy)
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    tracked = tuple(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else ()
    cond = tuple(sorted(draw(st.sets(st.integers(0, m - 1)))))
    return A, votes, reference_augment(votes, policy), tracked, cond


def _operand_rows(m, rows):
    """Size the statistics pass's float32 operand to ``rows`` rows of m
    sources; the pass lifts it to at least 2(2m+1) rows."""
    return mock.patch.object(moments, "_OPERAND_BYTES", 4 * (2 * m + 1) * rows)


class TestRunningStatsKernel:
    """The block kernel against the former per-row update, which is kept here
    as the reference."""

    @settings(max_examples=150, deadline=None)
    @given(_stat_inputs(), st.integers(1, 45))
    def test_from_matrix_matches_reference_for_any_block_size(self, inputs, operand):
        # the lazily encoded matrix's votes and fills are read inside
        # from_matrix one operand of rows at a time, and folded as read
        A, votes, aug, tracked, cond = inputs
        ref = _reference_stats(A.m, sorted(tracked), cond,
                               [(aug[t], votes[t], 1) for t in range(A.n)])
        with _operand_rows(A.m, operand):
            stats = RunningStats.from_matrix(A, tracked, cond)
        _assert_same_stats(stats, ref)

    @settings(max_examples=150, deadline=None)
    @given(_stat_inputs(), st.lists(st.integers(0, 2 ** 16), max_size=60),
           st.integers(0, 40), st.integers(1, 45))
    def test_add_remove_sequence_matches_reference(self, inputs, picks, start, operand):
        # the first rows come from the batch pass, folded one operand of rows
        # at a time; then each pick either adds the next row or removes a
        # held one
        A, votes, aug, tracked, cond = inputs
        nxt = min(start, A.n)
        with _operand_rows(A.m, operand):
            stats = RunningStats.from_matrix(augment_matrix(LabelMatrix(votes[:nxt]), A.policy),
                                             tracked, cond)
        ops = [(aug[t], votes[t], 1) for t in range(nxt)]
        held = list(range(nxt))
        for pick in picks:
            if nxt < A.n and (not held or pick % 3):
                stats.add(aug[nxt])
                ops.append((aug[nxt], votes[nxt], 1))
                held.append(nxt)
                nxt += 1
            elif held:
                t = held.pop(pick % len(held))
                stats.remove(aug[t])
                ops.append((aug[t], votes[t], -1))
        _assert_same_stats(stats, _reference_stats(A.m, sorted(tracked), cond, ops))

    def test_removing_every_row_returns_to_zero(self):
        votes = np.array([[1, 0, -1], [0, 0, 1], [-1, 1, 0]], dtype=np.int8)
        A = augment_matrix(LabelMatrix(votes))
        stats = RunningStats.from_matrix(A, [(0, 2)], [0, 1])
        for row in reference_augment(votes, A.policy):
            stats.remove(row)
        _assert_same_stats(stats, _reference_stats(3, [(0, 2)], (0, 1), []))

    def test_statistics_pass_memory_is_bounded_by_the_operand(self):
        # two full blocks of 100 sources: the pass holds one fixed-size
        # float32 operand and its abstain mask and scan, 3.8 MB in all (6.2
        # MB with an int8 block encoded besides; a float32 copy of a block
        # would take 13 MB); two conditioning sources add their int64 totals
        # and at most one operand's worth of abstaining rows
        m, n = 100, 2 * BLOCK_ROWS
        rng = np.random.default_rng(0)
        votes = rng.choice(np.array([-1, 0, 1], np.int8), size=(n, m))
        A = augment_matrix(LabelMatrix(votes))
        peaks = []
        for tracked, cond in (((), ()), ([(0, 1)], [0, 1])):
            tracemalloc.start()
            try:
                RunningStats.from_matrix(A, tracked, cond)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 4.5e6
        cond_totals = 2 * (2 * m + 1) ** 2 * 8
        assert peaks[1] < peaks[0] + cond_totals + moments._OPERAND_BYTES

    def test_fit_and_predict_never_hold_the_augmented_matrix(self):
        # six blocks of 40 sources at the benchmark's abstain rate: the fit
        # encodes and accumulates one block at a time and the posterior pass
        # is blocked too, so neither allocates the n x 2m int8 matrix
        m, n = 40, 6 * BLOCK_ROWS
        L, _ = sample_symmetric_star(np.full(m, 0.5), np.full(m, 0.3), 0.6, n, seed=0)
        prior = ClassPrior.from_balance(0.6)
        tracemalloc.start()
        try:
            mu = recover_parameters(L, star(m), prior)
            predict_proba(L, mu, mu.jtree, prior)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * 2 * m


@st.composite
def _pass_inputs(draw):
    """Votes whose columns never, always or sometimes abstain, for 1 to 19
    sources (8 and 16 among them), a policy of either mode with or without
    phases, random tracked pairs and conditioning sources, and an operand
    of 1 to 45 rows."""
    m = draw(st.integers(1, 19))
    n = draw(st.integers(0, 90))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    votes = rng.choice(np.array([-1, 1], np.int8), size=(n, m))
    kinds = rng.choice(3, size=m)  # 0 never, 1 always, 2 sometimes abstains
    votes[:, kinds == 1] = 0
    votes[(rng.random((n, m)) < draw(st.sampled_from([0.3, 0.9]))) & (kinds == 2)] = 0
    phase = draw(st.none() | st.lists(st.integers(0, 10 ** 6), min_size=m, max_size=m))
    policy = AbstainPolicy(mode=draw(st.sampled_from(["alternating", "seeded-random"])),
                           seed=draw(st.integers(0, 2 ** 32)), phase=phase)
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    tracked = tuple(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4))) if pairs else ()
    cond = tuple(sorted(draw(st.sets(st.integers(0, m - 1), max_size=4))))
    return votes, policy, tracked, cond, draw(st.integers(1, 45))


def _assert_stats_equal(got, want):
    assert got.n == want.n and got.cond_n == want.cond_n
    for name in ("second", "first", "vote_counts"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == np.int64
        np.testing.assert_array_equal(a, b)
    for name in ("pair_counts", "cond_second", "cond_first"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.keys() == b.keys()
        for key in a:
            assert a[key].dtype == np.int64
            np.testing.assert_array_equal(a[key], b[key])


@settings(max_examples=200, deadline=None)
@given(_pass_inputs(), st.lists(st.integers(0, 2 ** 16), max_size=40), st.integers(1, 8))
def test_statistics_pass_matches_the_former_pass(inputs, picks, n_min):
    # the Gram of [votes | fills | 1] mapped to the pair encoding, against
    # the former (2m+1)^2 fold of interleaved blocks: int64 for int64, and
    # the moments byte for byte, for the batch pass and for a stream of
    # adds and removes after it; a lowered N_MIN_ABSTAIN maps some
    # restricted Grams of these short inputs and leaves others NaN
    votes, policy, tracked, cond, operand = inputs
    n, m = votes.shape
    prior = ClassPrior.from_balance(0.6)
    ordinals, want_ordinals = np.zeros(m, np.int64), np.zeros(m, np.int64)
    for lo in range(0, n, operand):
        block = votes[lo:lo + operand]
        fills = augment._fills(block, policy, ordinals)
        np.testing.assert_array_equal(fills, reference_fills(block, policy, want_ordinals))
        np.testing.assert_array_equal(ordinals, want_ordinals)
    start = n // 2
    with _operand_rows(m, operand):
        got = RunningStats.from_matrix(augment_matrix(LabelMatrix(votes[:start]), policy),
                                       tracked, cond)
    want = ReferenceStats.from_matrix(votes[:start], policy, operand, tracked, cond)
    _assert_stats_equal(got, want)
    if start:
        with mock.patch.object(moments, "N_MIN_ABSTAIN", n_min):
            assert_moments_match_dict_form(got.to_moments(prior), want.to_moments(prior))
    aug = reference_augment(votes, policy)
    nxt, held = start, list(range(start))
    for pick in picks:
        if nxt < n and (not held or pick % 3):
            got.add(aug[nxt])
            want.add(aug[nxt])
            held.append(nxt)
            nxt += 1
        elif held:
            row = aug[held.pop(pick % len(held))]
            got.remove(row)
            want.remove(row)
    _assert_stats_equal(got, want)
    if got.n:
        with mock.patch.object(moments, "N_MIN_ABSTAIN", n_min):
            assert_moments_match_dict_form(got.to_moments(prior), want.to_moments(prior))


def _ratio_fallback_sources(g, plan):
    """The sources a fit on exact moments sends to the ratio fallback."""
    th = CanonicalParameters(graph=g, theta_task=(0.3,),
                             theta_acc=(0.5,) * g.n_sources,
                             theta_abstain=(0.1,) * g.n_sources)
    me = enumerate_joint(th).moment_estimates()
    acc = estimate_accuracies(me, plan, RunConfig(ratio_fallback=True))
    return acc.diagnostics["ratio_fallback_sources"]


class TestEnumerateTriplets:
    def test_star_contains_vote_tracking_triple(self):
        plan = enumerate_triplets(augment_graph(star(3)))
        assert sorted(plan.partners) == [0, 2, 4]
        np.testing.assert_array_equal(plan.partners[0], [2, 3, 4, 5])
        # one column of each other source: (2, 4), (2, 5), (3, 4), (3, 5)
        assert plan.pairs == {0: 4, 2: 4, 4: 4}

    def test_dependent_pair_excluded(self):
        # with an edge between sources 1 and 2, source 1 may partner with
        # sources 3 and 4 but never source 2
        plan = enumerate_triplets(augment_graph(star_with_edges(4, [(0, 1)])))
        for a in (0, 2):
            assert set(plan.partners[a] // 2) == {2, 3}
        # sources 3 and 4 pair a column of sources 1-2 with one of the other
        # remaining source; sources 1 and 2 pair a column of 3 with one of 4
        assert plan.pairs == {0: 4, 2: 4, 4: 8, 6: 8}

    def test_shared_neighbor_makes_sources_dependent(self):
        # sources 2 and 3 have no direct edge but both couple to source 1;
        # the pair path between them never touches the hidden layer, so no
        # triplet may mix them
        g = star_with_edges(4, [(0, 1), (0, 2)])
        plan = enumerate_triplets(augment_graph(g), RunConfig(ratio_fallback=True))
        assert not plan.independent[2, 4]
        # component {1,2,3} plus singleton {4}: only two independence classes,
        # so nothing is triplet-recoverable and every source takes the ratio
        assert plan.partners == {}
        assert _ratio_fallback_sources(g, plan) == [0, 1, 2, 3]

    def test_two_dependent_sources_have_no_triplets(self):
        g = star_with_edges(2, [(0, 1)])
        with pytest.raises(InsufficientIndependence):
            enumerate_triplets(augment_graph(g), RunConfig())
        plan = enumerate_triplets(augment_graph(g), RunConfig(ratio_fallback=True))
        assert plan.partners == {}
        assert _ratio_fallback_sources(g, plan) == [0, 1]

    def test_no_observed_path_avoids_hidden_layer(self):
        # pairwise validity means no two triple members are joined by
        # observed-only edges (same pair or cross-pair edges)
        g = star_with_edges(5, [(1, 2)])
        # each pair's abstain edge and the four edges between dependent pairs
        observed = [(2 * i, 2 * i + 1) for i in range(5)]
        observed += [(2 * a + x, 2 * b + y) for a, b in g.source_edges
                     for x in (0, 1) for y in (0, 1)]
        adj = {}
        for a, b in observed:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)

        def connected(a, b):
            seen, stack = {a}, [a]
            while stack:
                u = stack.pop()
                if u == b:
                    return True
                for w in adj.get(u, ()):
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            return False

        plan = enumerate_triplets(augment_graph(g))
        for a, partners in plan.partners.items():
            assert not any(connected(a, j) for j in partners)
        for _anchors, _P, K in plan.blocks:
            for j, k in zip(*np.nonzero(K)):
                assert not connected(j, k)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(2, 40), st.data())
    def test_partner_pair_counts_match_the_dense_product(self, n_tasks, m, data):
        # the per-component counts against the former dense P K P^T count,
        # and the independence mask and task anchors against references, on
        # random multi-task graphs with source edges
        assignment = data.draw(st.lists(st.integers(0, n_tasks - 1), min_size=m, max_size=m))
        pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=m))
        g = DependencyGraph(n_tasks, m, tuple(assignment), source_edges=tuple(edges))
        plan = enumerate_triplets(augment_graph(g), RunConfig(ratio_fallback=True))
        assert plan.pairs == reference_partner_pairs(g)
        np.testing.assert_array_equal(plan.independent, reference_independent_columns(g))
        assert [a.tolist() for a in plan.task_anchors] == [
            [2 * i for i in range(m) if assignment[i] == d] for d in range(n_tasks)]

    def test_multi_task_triples_keep_an_on_task_partner(self):
        plan = enumerate_triplets(augment_graph(chain3()))
        assert len(plan.blocks) == 3
        for d, (anchors, _P, K) in enumerate(plan.blocks):
            assert all(plan.task[a] == d for a in anchors)
            for j, k in zip(*np.nonzero(K)):
                assert plan.task[j] == d or plan.task[k] == d


def _solve(M3):
    """(|a_0|, |a_1|, |a_2|) from the pooled kernel on a three-source star
    whose vote columns have pairwise moments ``M3``; each odd column mirrors
    its source's even one, so every triplet gives the same value."""
    M = np.kron(M3, [[1.0, -1.0], [-1.0, 1.0]])
    plan = enumerate_triplets(augment_graph(star(3)))
    return tuple(_pooled_magnitudes(M, plan)[0::2])


def _moments3(m01, m02, m12):
    M = np.eye(3)
    M[0, 1] = M[1, 0] = m01
    M[0, 2] = M[2, 0] = m02
    M[1, 2] = M[2, 1] = m12
    return M


class TestSolveTriplet:
    def test_forward_products(self):
        M = _moments3(0.48, 0.48, 0.36)
        assert _solve(M) == pytest.approx((0.8, 0.6, 0.6))

    def test_perfect_sources(self):
        M = np.ones((3, 3))
        assert _solve(M) == (1.0, 1.0, 1.0)

    def test_signs_discarded(self):
        M = _moments3(-0.48, 0.48, -0.36)
        assert _solve(M) == pytest.approx((0.8, 0.6, 0.6))

    def test_degenerate_denominator(self):
        # sources 2 and 3 are uncorrelated, so source 1's fit divides by ~0
        # and goes to the ratio fallback or raises without it
        M3 = _moments3(0.5, 0.5, 1e-6)
        assert np.isnan(_solve(M3)[0])
        plan = enumerate_triplets(augment_graph(star(3)))
        me = MomentEstimates(M=np.kron(M3, [[1.0, -1.0], [-1.0, 1.0]]),
                             first_moments=np.array([0.1, -0.1, 0.3, -0.3, 0.0, 0.0]),
                             vote_marginals=np.tile([0.5, 0.0, 0.5], (3, 1)),
                             prior=ClassPrior.from_balance(0.6))
        with pytest.raises(NoUsableTriplet):
            estimate_accuracies(me, plan, RunConfig())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # recorded, not warned of
            acc = estimate_accuracies(me, plan, RunConfig(ratio_fallback=True))
        assert acc.diagnostics["floored_columns"] == [2, 4]  # sources 2 and 3
        assert acc.diagnostics["ratio_fallback_sources"] == [0]
        assert acc.values[0] == pytest.approx(0.5)  # E[v] / E[Y] = 0.1 / 0.2
        assert acc.values[0] == ratio_accuracy(0, me, plan)

    def test_clamped_to_floor_and_one(self):
        M = _moments3(0.9, 0.9, 0.1)  # implies |a_0| > 1
        assert _solve(M)[0] == 1.0
        M = _moments3(2e-4, 2e-4, 1.0)  # implies |a_0| = 2e-4, below the floor
        assert _solve(M)[0] == 1e-3


class TestAggregate:
    def test_mean(self):
        # two equally weighted triplets yielding a^2 = 0.36 and 0.64 pool to
        # their mean, 0.5; the mixed pairs (2, 5) and (3, 4) have M_jk = 0 and
        # count for nothing
        M = np.eye(6)
        M[0, 2] = M[2, 0] = M[0, 4] = M[4, 0] = 0.6 * 0.5
        M[0, 3] = M[3, 0] = M[0, 5] = M[5, 0] = 0.8 * 0.5
        M[2, 4] = M[4, 2] = M[3, 5] = M[5, 3] = 0.25
        plan = enumerate_triplets(augment_graph(star(3)))
        mags = _pooled_magnitudes(M, plan)
        assert mags[0] == pytest.approx(np.sqrt(0.5), rel=1e-14)

    def test_exact_moments_make_all_triplets_agree(self):
        g = star(5)
        th = random_model(g, seed=6)
        j = enumerate_joint(th)
        me = j.moment_estimates()
        plan = enumerate_triplets(augment_graph(g))
        mags = _pooled_magnitudes(me.M, plan)
        truth = np.abs(j.column_accuracies())
        np.testing.assert_allclose(mags[0::2], truth[0::2], rtol=0, atol=1e-12)
        assert np.isnan(mags[1::2]).all()  # odd columns are mirrors, not anchors


@st.composite
def _kernel_inputs(draw):
    """A random multi-task graph with random source edges, and a noisy
    symmetric moment matrix for it that may be scaled to degeneracy."""
    n_tasks = draw(st.integers(1, 3))
    m = draw(st.integers(2, 7))
    assignment = draw(st.lists(st.integers(0, n_tasks - 1), min_size=m, max_size=m))
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3))
    g = DependencyGraph(n_tasks, m, tuple(assignment), source_edges=tuple(edges))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = 2 * m
    acc = rng.uniform(-0.9, 0.9, n)
    noise = rng.normal(0.0, draw(st.sampled_from([0.0, 0.05, 0.5])), (n, n))
    M = (np.outer(acc, acc) + (noise + noise.T) / 2) * draw(st.sampled_from([1.0, 1e-6]))
    M = np.triu(M, 1) + np.triu(M, 1).T + np.eye(n)
    return g, M


@settings(max_examples=150, deadline=None)
@given(_kernel_inputs())
def test_kernel_matches_per_triplet_reference(inputs):
    # the plan and the pooled kernel against a plain loop over every triplet
    # that the validity rule admits
    g, M = inputs
    plan = enumerate_triplets(augment_graph(g), RunConfig(ratio_fallback=True))
    got = _pooled_magnitudes(M, plan)
    n, indep, task = plan.n_columns, plan.independent, plan.task
    for a in range(0, n, 2):
        apart = [j for j in range(n) if indep[a, j]]
        valid = [(j, k) for j in apart for k in apart
                 if indep[j, k] and task[a] in (task[j], task[k])]
        if not valid:
            assert a not in plan.partners and a not in plan.pairs
            assert np.isnan(got[a])
            continue
        np.testing.assert_array_equal(plan.partners[a], apart)
        assert plan.pairs[a] * 2 == len(valid)
        num = sum(M[a, j] * M[a, k] * M[j, k] for j, k in valid)
        den = sum(M[j, k] ** 2 for j, k in valid)
        if den < EPS_DEN ** 2:
            assert np.isnan(got[a])
        else:
            want = min(1.0, max(EPS_ACC, np.sqrt(max(num, 0.0) / den)))
            assert got[a] == pytest.approx(want, rel=1e-12, abs=1e-15)
    assert np.isnan(got[1::2]).all()
    # an anchor's own block computes the same value (up to BLAS summation
    # order)
    for a in list(plan.partners)[::2]:
        part = _block_magnitudes(M, *plan.single[a])
        assert part.shape == (1,)
        np.testing.assert_allclose(part[0], got[a], rtol=1e-13, atol=0)


def _mags(n_cols, magnitudes):
    """A magnitude vector over ``n_cols`` columns, NaN where none is given."""
    out = np.full(n_cols, np.nan)
    out[list(magnitudes)] = list(magnitudes.values())
    return out


class TestResolveSigns:
    def test_mixed_signs(self):
        # magnitudes (0.8, 0.6, 0.6) with M_01 < 0 < M_02 force (+, -, +)
        plan = enumerate_triplets(augment_graph(star(3)))
        M = np.eye(6)
        sgn = {(0, 2): -1, (0, 4): 1, (2, 4): -1}
        for (a, b), s in sgn.items():
            M[a, b] = M[b, a] = s * 0.4
        signed, order, _ = resolve_signs(_mags(6, {0: 0.8, 2: 0.6, 4: 0.6}), M, plan)
        assert signed[0] > 0 and signed[2] < 0 and signed[4] > 0
        assert np.isnan(signed[1::2]).all()
        assert order.tolist() == [0, 2, 4]

    def test_all_positive(self):
        plan = enumerate_triplets(augment_graph(star(3)))
        M = np.eye(6)
        for a in (0, 2, 4):
            for b in (0, 2, 4):
                if a != b:
                    M[a, b] = 0.3
        signed, _, _ = resolve_signs(_mags(6, {0: 0.5, 2: 0.6, 4: 0.7}), M, plan)
        np.testing.assert_array_equal(signed[0::2], [0.5, 0.6, 0.7])

    def test_anchor_propagates(self):
        plan = enumerate_triplets(augment_graph(star(3)))
        M = np.eye(6)
        for a in (0, 2, 4):
            for b in (0, 2, 4):
                if a != b:
                    M[a, b] = 0.3
        cfg = RunConfig(sign_strategy="anchor", anchor_source=0, anchor_sign=-1)
        signed, _, _ = resolve_signs(_mags(6, {0: 0.5, 2: 0.6, 4: 0.7}), M, plan, cfg)
        np.testing.assert_array_equal(signed[0::2], [-0.5, -0.6, -0.7])

    def test_anchor_unreachable(self):
        from votefuse.errors import AnchorUnreachable
        plan = enumerate_triplets(augment_graph(star(4)))
        M = np.eye(8)
        M[0, 2] = M[2, 0] = 0.3  # sources 1-2 related, 3-4 related, no bridge
        M[4, 6] = M[6, 4] = 0.3
        cfg = RunConfig(sign_strategy="anchor", anchor_source=0, anchor_sign=1)
        with pytest.raises(AnchorUnreachable):
            resolve_signs(_mags(8, {0: 0.5, 2: 0.5, 4: 0.5, 6: 0.5}), M, plan, cfg)

    def test_scaling_leaves_pattern_unchanged(self):
        plan = enumerate_triplets(augment_graph(star(3)))
        M = np.eye(6)
        sgn = {(0, 2): -1, (0, 4): 1, (2, 4): -1}
        for (a, b), s in sgn.items():
            M[a, b] = M[b, a] = s * 0.4
        base = _mags(6, {0: 0.8, 2: 0.6, 4: 0.6})
        s1, _, _ = resolve_signs(base, M, plan)
        s2, _, _ = resolve_signs(3.7 * base, M, plan)
        np.testing.assert_array_equal(np.sign(s1[0::2]), np.sign(s2[0::2]))

    def test_missing_magnitude_left_unsigned(self):
        # a column without a magnitude (NaN) is neither signed nor resolved,
        # and the other columns of its task are signed without it
        plan = enumerate_triplets(augment_graph(star(3)))
        M = np.eye(6)
        M[0, 4] = M[4, 0] = -0.4
        signed, order, _ = resolve_signs(_mags(6, {0: 0.8, 4: 0.6}), M, plan)
        assert np.isnan(signed[2]) and order.tolist() == [0, 4]
        assert signed[0] == 0.8 and signed[4] == -0.6


def _plan(g):
    """The triplet plan of ``g``, under the ratio fallback."""
    return enumerate_triplets(augment_graph(g), RunConfig(ratio_fallback=True))


class TestRatioAccuracy:
    def _moments(self, first, balance):
        g = star(1)
        me = estimate_moments(augment_matrix(LabelMatrix(np.array([[1]]))),
                              ClassPrior.from_balance(balance))
        me.first_moments = np.array(first, dtype=float)
        return me

    def test_division(self):
        me = self._moments([0.14, -0.14], balance=0.6)  # E[Y] = 0.2
        assert ratio_accuracy(0, me, _plan(star(1))) == pytest.approx(0.7)

    def test_zero_numerator(self):
        me = self._moments([0.0, 0.0], balance=0.6)
        assert ratio_accuracy(0, me, _plan(star(1))) == 0.0

    def test_near_zero_prior_rejected(self):
        me = self._moments([0.14, -0.14], balance=0.5)
        with pytest.raises(PriorNearZero):
            ratio_accuracy(0, me, _plan(star(1)))

    def test_exact_on_enumerated_joint(self):
        g = star(2)
        th = CanonicalParameters(graph=g, theta_task=(np.arctanh(0.2),),
                                 theta_acc=(0.5, 0.7), theta_abstain=(0.2, -0.1))
        j = enumerate_joint(th)
        me = j.moment_estimates()
        truth = j.accuracies()
        plan = _plan(g)
        for i in range(2):
            assert ratio_accuracy(2 * i, me, plan) == pytest.approx(truth[i], abs=1e-12)


def _restricted_moments(A, cond, prior):
    """Moments that carry the abstain-restricted statistics of source ``cond``."""
    return RunningStats.from_matrix(A, cond_sources=(cond,)).to_moments(prior)


class TestConditionalAccuracy:
    def test_never_abstains_errors(self):
        g = star(4)
        votes = np.ones((100, 4), dtype=np.int8)
        A = augment_matrix(LabelMatrix(votes))
        plan = enumerate_triplets(augment_graph(g))
        me = _restricted_moments(A, 0, ClassPrior.from_balance(0.5))
        with pytest.raises(TooFewAbstainRows):
            conditional_accuracy_from_stats(1, 0, me, plan,
                                            RunConfig(), sign_hint=1.0)

    def test_independent_abstention_equals_unconditional(self):
        # when the conditioning source has no dependency edge, restricting to
        # its abstain rows leaves the other accuracies untouched
        g = star(4)
        th = random_model(g, seed=5)
        j = enumerate_joint(th)
        M0, first0 = j.restricted_moments(0)
        me = dataclasses.replace(j.moment_estimates(), cond_sources=(0,),
                                 cond_M=M0[np.newaxis], cond_first=first0[np.newaxis])
        plan = enumerate_triplets(augment_graph(g))
        truth = j.accuracies()
        got = conditional_accuracy_from_stats(1, 0, me, plan,
                                              RunConfig(), sign_hint=truth[1])
        assert got == pytest.approx(truth[1], abs=1e-12)

    def test_sampled_conditional_close_to_oracle(self):
        g = star_with_edges(4, [(0, 1)])
        th = CanonicalParameters(
            graph=g, theta_task=(0.1,), theta_acc=(0.5, 0.6, 0.7, 0.8),
            theta_abstain=(0.0, -0.1, 0.1, 0.0), theta_dep={(0, 1): 0.2})
        j = enumerate_joint(th)
        truth = j.conditional_accuracy(target=1, cond=0)
        L, _ = sample(j, 200_000, seed=13)
        A = augment_matrix(L)
        plan = enumerate_triplets(augment_graph(g))
        me = _restricted_moments(A, 0, j.prior())
        got = conditional_accuracy_from_stats(1, 0, me, plan,
                                              RunConfig(), sign_hint=truth)
        assert abs(got - truth) < 0.03


class TestPipelineProperties:
    def test_product_consistency_on_exact_moments(self):
        # recovered accuracies reproduce every independent pairwise moment
        g = star(5)
        th = random_model(g, seed=9)
        j = enumerate_joint(th)
        me = j.moment_estimates()
        plan = enumerate_triplets(augment_graph(g))
        acc = estimate_accuracies(me, plan, RunConfig())
        for a in range(10):
            for b in range(10):
                if not plan.independent[a, b]:
                    continue
                assert acc.values[a] * acc.values[b] == pytest.approx(
                    me.M[a, b], abs=1e-10)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(14)
        L, _ = sample_symmetric_star(np.array([0.4, 0.55, 0.7, 0.6]),
                                     np.full(4, 0.2), 0.5, 5000, seed=3)
        g = star(4)
        G = augment_graph(g)
        me = estimate_moments(augment_matrix(L), ClassPrior.from_balance(0.5), G)
        acc = estimate_accuracies(me, enumerate_triplets(G), RunConfig())
        perm = np.array([2, 0, 3, 1])
        Lp = LabelMatrix(L.votes[:, perm])
        mep = estimate_moments(augment_matrix(Lp), ClassPrior.from_balance(0.5), G)
        accp = estimate_accuracies(mep, enumerate_triplets(G), RunConfig())
        np.testing.assert_allclose(accp.per_source, acc.per_source[perm], atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(m=st.integers(18, 30), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_source_permutation_permutes_accuracies(self, m, seed, data):
        # every valid triplet enters the fit, so the order of the sources
        # cannot matter (a per-anchor triplet cap would make it matter here)
        rng = np.random.default_rng(seed)
        L, _ = sample_symmetric_star(rng.uniform(0.3, 0.65, m), np.full(m, 0.3),
                                     0.6, 2_000, seed=seed)
        perm = np.array(data.draw(st.permutations(range(m))))
        G = augment_graph(star(m))
        plan = enumerate_triplets(G)
        prior = ClassPrior.from_balance(0.6)

        def fit(votes):
            me = estimate_moments(augment_matrix(LabelMatrix(votes)), prior, G)
            return estimate_accuracies(me, plan, RunConfig())

        acc, accp = fit(L.votes), fit(L.votes[:, perm])
        np.testing.assert_allclose(accp.per_source, acc.per_source[perm],
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", [4, 7, 9, 11])
    def test_pooled_magnitudes_exact_with_tasks_and_source_edges(self, case):
        # grid models with source edges or three tasks: at exact moments the
        # pooled fit returns the enumerated accuracies, and on the restricted
        # moments the enumerated abstain-conditioned ones
        g, seed, abstaining = acceptance_grid()[case]
        j = enumerate_joint(random_model(g, seed=seed, abstaining=abstaining))
        me = j.moment_estimates()
        plan = enumerate_triplets(augment_graph(g))
        cfg = RunConfig()
        mags = _pooled_magnitudes(me.M, plan)
        np.testing.assert_allclose(mags[0::2], np.abs(j.accuracies()), rtol=0, atol=1e-12)
        for a, b in g.source_edges:
            for target, cond in ((a, b), (b, a)):
                truth = j.conditional_accuracy(target, cond)
                got = conditional_accuracy_from_stats(target, cond, me, plan, cfg,
                                                      sign_hint=truth)
                assert got == pytest.approx(truth, abs=1e-12)

    def test_conditional_fit_matches_per_call_block_selection(self):
        # every tracked pair of the source-edge grid models and of a two-task
        # model, on exact and on sampled moments: the one-anchor block the
        # plan holds gives the former per-call selection's value bit for bit
        two_task = DependencyGraph(2, 6, (0, 0, 0, 1, 1, 1), task_edges=((0, 1),),
                                   source_edges=((0, 1), (3, 4)))
        models = [(g, seed, abstaining) for g, seed, abstaining in acceptance_grid()
                  if g.source_edges] + [(two_task, 51, True)]
        cfg = RunConfig()
        compared = 0
        for g, seed, abstaining in models:
            j = enumerate_joint(random_model(g, seed=seed, abstaining=abstaining))
            G = augment_graph(g)
            plan = enumerate_triplets(G)
            L, _ = sample(j, 4_000, seed=seed)
            for me in (j.moment_estimates(), estimate_moments(augment_matrix(L), j.prior(), G)):
                for a, b in g.source_edges:
                    for target, cond in ((a, b), (b, a)):
                        if cond not in me.cond_sources:
                            continue
                        t = me.cond_sources.index(cond)
                        if me.cond_n is not None and me.cond_n[t] < 50:
                            continue
                        col = 2 * target
                        want = reference_pooled_magnitudes(me.cond_M[t], plan, [col])[col]
                        if np.isnan(want):
                            with pytest.raises(NoUsableTriplet):
                                conditional_accuracy_from_stats(target, cond, me, plan, cfg,
                                                                sign_hint=0.3)
                            continue
                        for hint in (0.3, -0.3):
                            got = conditional_accuracy_from_stats(target, cond, me, plan,
                                                                  cfg, sign_hint=hint)
                            sign = 1.0 if hint >= 0 else -1.0
                            assert got == float(np.clip(sign * want, -1.0, 1.0))
                        compared += 1
        assert compared >= 20

    def test_cross_task_triples_stay_exact(self):
        # a task group with only two independent sources must borrow the third
        # triple member from a correlated task; on exact moments the recovered
        # accuracies still match the enumerated truth
        from votefuse.graph import DependencyGraph, validate_graph
        g = validate_graph(DependencyGraph(2, 5, (0, 0, 1, 1, 1),
                                           task_edges=((0, 1),)))
        plan = enumerate_triplets(augment_graph(g), RunConfig())
        assert 0 in plan.partners  # solvable despite the two-source group
        for seed in range(4):
            j = enumerate_joint(random_model(g, seed=seed))
            acc = estimate_accuracies(j.moment_estimates(), plan, RunConfig())
            np.testing.assert_allclose(acc.per_source, j.accuracies(), atol=1e-10)

    def test_error_shrinks_with_sample_size(self):
        g = star(4)
        a = np.array([0.5, 0.6, 0.7, 0.8])
        th = CanonicalParameters(graph=g, theta_task=(0.0,),
                                 theta_acc=tuple(np.arctanh(a)), abstaining=False)
        j = enumerate_joint(th)
        truth = j.accuracies()
        G = augment_graph(g)
        plan = enumerate_triplets(G)

        def err(n, seed):
            L, _ = sample(j, n, seed)
            me = estimate_moments(augment_matrix(L), j.prior(), G)
            acc = estimate_accuracies(me, plan, RunConfig())
            return np.linalg.norm(acc.per_source - truth)

        small = np.mean([err(2_000, s) for s in range(8)])
        big = np.mean([err(32_000, 100 + s) for s in range(8)])
        assert big < small
