import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from votefuse import augment
from votefuse.augment import AbstainPolicy, augment_graph, augment_matrix, augment_row, pair_votes
from votefuse.config import RunConfig
from votefuse.graph import LabelMatrix
from votefuse.moments import enumerate_triplets

from conftest import reference_augment, reference_fills, star, star_with_edges


def _read(A, rows=3):
    """The votes and fills of the lazy matrix ``A``, read as the statistics
    pass reads them, ``rows`` rows at a time."""
    blocks = list(A.vote_blocks(rows))
    if not blocks:
        return A.votes, np.zeros(A.votes.shape, dtype=np.int8)
    return tuple(np.concatenate(part) for part in zip(*blocks))


def _fills(A, rows=3):
    return _read(A, rows)[1]


def _rows(votes, policy=AbstainPolicy()):
    """The stream's pair encoding of ``votes``, one ``augment_row`` per row."""
    counts = np.zeros(votes.shape[1], dtype=np.int64)
    return np.stack([augment_row(v, policy, counts) for v in votes])


class TestPairEncoding:
    def test_vote_plus_one(self):
        votes = np.array([[1]], dtype=np.int8)
        assert tuple(_rows(votes)[0]) == (1, -1)
        assert _fills(augment_matrix(LabelMatrix(votes)))[0, 0] == 0

    def test_vote_minus_one(self):
        votes = np.array([[-1]], dtype=np.int8)
        assert tuple(_rows(votes)[0]) == (-1, 1)
        assert _fills(augment_matrix(LabelMatrix(votes)))[0, 0] == 0

    def test_alternating_column(self):
        votes = np.zeros((4, 1), dtype=np.int8)
        policy = AbstainPolicy(mode="alternating")
        assert _fills(augment_matrix(LabelMatrix(votes), policy))[:, 0].tolist() == [1, -1, 1, -1]
        expected = [(1, 1), (-1, -1), (1, 1), (-1, -1)]
        assert [tuple(r) for r in _rows(votes, policy)] == expected

    def test_alternating_counts_with_votes_interleaved(self):
        votes = np.array([[0], [1], [0], [0], [-1], [0], [0]], dtype=np.int8)
        A = augment_matrix(LabelMatrix(votes), AbstainPolicy(mode="alternating"))
        abst = _fills(A)[votes[:, 0] == 0, 0]
        pos = int((abst == 1).sum())
        assert pos == int(np.ceil(abst.size / 2))
        assert not _fills(A)[votes[:, 0] != 0].any()

    def test_deterministic_given_policy(self):
        rng = np.random.default_rng(5)
        L = LabelMatrix(rng.integers(-1, 2, size=(50, 4)).astype(np.int8))
        pol = AbstainPolicy(mode="seeded-random", seed=99)
        np.testing.assert_array_equal(_fills(augment_matrix(L, pol)),
                                      _fills(augment_matrix(L, pol)))


@settings(max_examples=80, deadline=None)
@given(arrays(np.int8, st.tuples(st.integers(1, 30), st.integers(1, 5)),
              elements=st.sampled_from([-1, 0, 1])),
       st.sampled_from(["alternating", "seeded-random"]),
       st.integers(0, 2 ** 32))
def test_round_trip(votes, mode, seed):
    # the stream's encoded rows decode back to their votes, and the lazy
    # matrix reads back the votes it holds
    L = LabelMatrix(votes)
    policy = AbstainPolicy(mode=mode, seed=seed)
    np.testing.assert_array_equal(pair_votes(_rows(L.votes, policy)), L.votes)
    np.testing.assert_array_equal(_read(augment_matrix(L, policy))[0], L.votes)


def test_seeded_random_column_mean_within_coin_bound():
    # mean of the pair value over k abstains stays inside 4 sigma of a fair coin
    k = 40_000
    L = LabelMatrix(np.zeros((k, 2), dtype=np.int8))
    fills = _fills(augment_matrix(L, AbstainPolicy(mode="seeded-random", seed=1234)), rows=4096)
    for col in range(2):
        mean = fills[:, col].astype(float).mean()
        assert abs(mean) < 4.0 / np.sqrt(k)


def test_column_fill_independent_of_other_columns():
    # the fill-in stream of column j is keyed by (seed, j, ordinal) only, so
    # editing other columns leaves it untouched
    rng = np.random.default_rng(3)
    votes = rng.integers(-1, 2, size=(200, 4)).astype(np.int8)
    pol = AbstainPolicy(mode="seeded-random", seed=7)
    A = augment_matrix(LabelMatrix(votes), pol)
    other = votes.copy()
    other[:, [0, 2, 3]] = rng.integers(-1, 2, size=(200, 3)).astype(np.int8)
    B = augment_matrix(LabelMatrix(other), pol)
    np.testing.assert_array_equal(_fills(A)[:, 1], _fills(B)[:, 1])


def test_augment_row_continues_ordinals():
    # the stream's rows are the pairs (v + w, w - v) of the batch's fills
    votes = np.array([[0, 1], [0, 0], [1, 0], [0, -1]], dtype=np.int8)
    pol = AbstainPolicy(mode="alternating")
    fills = _fills(augment_matrix(LabelMatrix(votes), pol))
    counts = np.zeros(2, dtype=np.int64)
    rows = np.stack([augment_row(votes[t], pol, counts) for t in range(4)])
    np.testing.assert_array_equal(rows[:, 0::2], votes + fills)
    np.testing.assert_array_equal(rows[:, 1::2], fills - votes)
    assert list(counts) == [3, 2]


def test_phase_offsets_continue_a_stream():
    votes = np.zeros((6, 1), dtype=np.int8)
    full = augment_matrix(LabelMatrix(votes), AbstainPolicy(mode="alternating"))
    tail = augment_matrix(LabelMatrix(votes[2:]),
                          AbstainPolicy(mode="alternating", phase=(2,)))
    np.testing.assert_array_equal(_fills(tail), _fills(full)[2:])


@st.composite
def _votes_and_policy(draw):
    votes = draw(arrays(np.int8, st.tuples(st.integers(0, 30), st.integers(1, 5)),
                        elements=st.sampled_from([-1, 0, 0, 1])))
    phase = None
    if draw(st.booleans()):
        phase = tuple(draw(st.lists(st.integers(0, 10 ** 6), min_size=votes.shape[1],
                                    max_size=votes.shape[1])))
    policy = AbstainPolicy(mode=draw(st.sampled_from(["alternating", "seeded-random"])),
                           seed=draw(st.integers(0, 2 ** 32)), phase=phase)
    return votes, policy


@settings(max_examples=150, deadline=None)
@given(_votes_and_policy(), st.integers(1, 35))
def test_matrix_matches_reference_encoding_for_any_block_size(case, block):
    # the fills the statistics pass reads, block by block
    votes, policy = case
    got_votes, fills = _read(augment_matrix(LabelMatrix(votes), policy), rows=block)
    np.testing.assert_array_equal(got_votes, votes)
    np.testing.assert_array_equal(fills, reference_fills(votes, policy))


@settings(max_examples=150, deadline=None)
@given(_votes_and_policy())
def test_rows_match_reference_encoding(case):
    votes, policy = case
    counts = np.zeros(votes.shape[1], dtype=np.int64)
    rows = [augment_row(v, policy, counts) for v in votes]
    expected = reference_augment(votes, policy)
    np.testing.assert_array_equal(np.stack(rows) if rows else expected, expected)
    np.testing.assert_array_equal(counts, (votes == 0).sum(axis=0))


@st.composite
def _blocks_and_policy(draw):
    """Votes whose columns never, always or sometimes abstain, cut into
    blocks (one-row blocks included) at random rows, and a policy."""
    n = draw(st.integers(1, 25))
    kinds = draw(st.lists(st.sampled_from(["none", "all", "some"]), min_size=1, max_size=6))
    cols = []
    for kind in kinds:
        pool = {"none": [-1, 1], "all": [0], "some": [-1, 0, 0, 1]}[kind]
        cols.append(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    votes = np.array(cols, dtype=np.int8).T
    cuts = sorted(set(draw(st.lists(st.integers(1, n - 1), max_size=n - 1)))) if n > 1 else []
    if draw(st.booleans()):
        cuts = list(range(1, n))  # one row per block
    policy = AbstainPolicy(mode=draw(st.sampled_from(["alternating", "seeded-random"])),
                           seed=draw(st.integers(0, 2 ** 32)))
    return votes, cuts, policy


@settings(max_examples=200, deadline=None)
@given(_blocks_and_policy())
def test_encode_blocks_match_reference_encoding(case):
    # each block's fills continue the previous block's per-column abstain
    # ordinals
    votes, cuts, policy = case
    ordinals = np.zeros(votes.shape[1], dtype=np.int64)
    blocks = [augment._fills(part, policy, ordinals) for part in np.split(votes, cuts)]
    np.testing.assert_array_equal(np.concatenate(blocks), reference_fills(votes, policy))
    np.testing.assert_array_equal(ordinals, (votes == 0).sum(axis=0))
    assert all(b.dtype == np.int8 for b in blocks)


def test_encode_counts_abstain_runs_longer_than_a_byte():
    # 1,000-row blocks whose columns abstain on every row, on most rows and
    # never: the byte-lane counts of the abstain mask must not carry, so the
    # ordinals and the next block's fills match the per-column loop
    rng = np.random.default_rng(1)
    votes = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(2_000, 11), p=[0.05, 0.9, 0.05])
    votes[:, 3] = 0
    votes[:, 7] = 1
    for mode in ("alternating", "seeded-random"):
        policy = AbstainPolicy(mode=mode, seed=5, phase=tuple(range(11)))
        ordinals, want = np.zeros(11, dtype=np.int64), np.zeros(11, dtype=np.int64)
        for block in (votes[:1_000], votes[1_000:]):
            np.testing.assert_array_equal(augment._fills(block, policy, ordinals),
                                          reference_fills(block, policy, want))
            np.testing.assert_array_equal(ordinals, want)


def test_encode_block_memory_is_bounded_by_the_block():
    # a full 16,384 x 100 block at a 30% abstain rate: its fills and abstain
    # mask, 3.3 MB in either mode, without per-abstain index arrays
    rng = np.random.default_rng(0)
    votes = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(16_384, 100), p=[0.35, 0.3, 0.35])
    for mode in ("alternating", "seeded-random"):
        ordinals = np.zeros(100, dtype=np.int64)
        tracemalloc.start()
        try:
            augment._fills(votes, AbstainPolicy(mode=mode, seed=3), ordinals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20, f"{mode}: {peak / 2 ** 20:.1f} MB"


def _same_source(n_columns):
    """Column pairs that belong to one source."""
    src = np.arange(n_columns) // 2
    return src[:, None] == src[None, :]


class TestAugmentGraph:
    # the lifted structure the fit reads is held by the triplet plan
    def test_counts_with_dependency(self):
        plan = enumerate_triplets(augment_graph(star_with_edges(4, [(0, 1)])))
        assert plan.n_columns == 8
        assert plan.task[5] == 0
        # the dependency edge joins all four column pairs of sources 1 and 2
        cross = ~plan.independent & ~_same_source(8)
        assert np.count_nonzero(cross) == np.count_nonzero(cross[:4, :4]) == 2 * 4
        assert not (plan.task.flags.writeable or plan.independent.flags.writeable
                    or any(a.flags.writeable for a in plan.task_anchors))

    def test_single_source(self):
        plan = enumerate_triplets(augment_graph(star(1)), RunConfig(ratio_fallback=True))
        assert plan.n_columns == 2
        assert not plan.independent.any()  # its own pair only
        assert [a.tolist() for a in plan.task_anchors] == [[0]]

    def test_no_edges_no_cross(self):
        plan = enumerate_triplets(augment_graph(star(5)))
        np.testing.assert_array_equal(plan.independent, ~_same_source(10))

    def test_dependence_test(self):
        indep = enumerate_triplets(augment_graph(star_with_edges(4, [(0, 1)]))).independent
        assert not indep[0, 1]        # same pair
        assert not indep[0, 2]        # dependency edge
        assert not indep[1, 3]
        assert indep[0, 4]
        assert indep[2, 7]
