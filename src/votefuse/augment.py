"""Lifting ternary votes and the dependency graph into the binary model space.

Each source becomes a column pair: a vote of +1 maps to (1, -1), a vote of -1
to (-1, 1), and an abstain to (1, 1) or (-1, -1) with balanced frequency. The
abstain fill-in is keyed per column by the abstain's ordinal position, so
augmenting is deterministic, replayable, and order-independent across columns.

A row's pair encoding is its votes v and its abstain fills w (the +/-1 fill
where a source abstains, 0 where it votes): the pair of source i is
(v_i + w_i, w_i - v_i). One kernel, ``_fills``, computes the fills of a row
block from per-column start ordinals. Its abstain mask is padded to a
multiple of 8 columns, so each mask row is whole uint64 words with one byte
per source. An ``alternating`` fill depends on its ordinal's parity only, and
one XOR scan down the rows of those words gives every byte the parity of its
column's abstains so far; ``seeded-random`` visits only the columns that hold
abstains and draws each one's coins for its next ordinals.

``augment_matrix`` returns an ``AugmentedLabelMatrix``, which holds the votes
and the policy only: the statistics pass reads the votes and their fills
block by block (``vote_blocks``), and the n x 2m matrix is never built.
``augment_row`` encodes one stream row, each of its abstains taking its
column's next ordinal, and ``pair_votes`` decodes encoded rows back to votes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from .graph import DependencyGraph, LabelMatrix, _freeze

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer; deterministic across platforms (wraps mod 2^64)."""
    with np.errstate(over="ignore"):
        x = (x + _GOLDEN).astype(np.uint64)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


def _coin(seed: int, column, ordinals: np.ndarray) -> np.ndarray:
    """Fair +/-1 coins for the given abstain ordinals of ``column`` (one
    column index, or one per ordinal)."""
    base = _mix64(np.asarray([np.uint64(seed & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64))[0]
    key = _mix64(base + np.asarray(column, dtype=np.uint64))
    bits = _mix64(key + ordinals.astype(np.uint64))
    return np.where((bits >> np.uint64(63)).astype(bool), np.int8(1), np.int8(-1))


_ALTERNATE = np.array([1, -1], dtype=np.int8)  # the fill of even and odd ordinals


@dataclass(frozen=True)
class AbstainPolicy:
    """How abstain pairs are realized.

    ``alternating`` assigns (1,1) to even abstain ordinals and (-1,-1) to odd
    ones, per column in row order, so among k abstains exactly ceil(k/2) are
    (1,1). ``seeded-random`` draws a fair coin keyed by (seed, column, abstain
    ordinal). ``phase`` offsets the ordinals per column, which lets a batch
    augmentation reproduce the state of a stream mid-flight.
    """

    mode: str = "alternating"
    seed: int = 0
    phase: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.mode not in ("alternating", "seeded-random"):
            raise ValueError(f"unknown abstain policy mode {self.mode!r}")
        if self.phase is not None:
            object.__setattr__(self, "phase", tuple(int(p) for p in self.phase))

    def fill_values(self, column, ordinals: np.ndarray) -> np.ndarray:
        """The +/-1 value shared by both pair columns for each abstain ordinal
        of ``column`` (one column index, or one per ordinal)."""
        shifted = ordinals if self.phase is None else ordinals + np.asarray(self.phase)[column]
        if self.mode == "alternating":
            return _ALTERNATE.take(shifted & 1)
        return _coin(self.seed, column, shifted)


def _fills(votes: np.ndarray, policy: AbstainPolicy, ordinals: np.ndarray) -> np.ndarray:
    """The abstain fills of a block of vote rows: the +/-1 value both pair
    columns share where a source abstains, 0 where it votes, n x m int8.
    Column j's abstains take the ordinals ``ordinals[j]``,
    ``ordinals[j] + 1``, ... in row order; ``ordinals`` (int64) is advanced in
    place past them, so the next block continues the sequence."""
    n, m = votes.shape
    mask = np.zeros((n, -(-m // 8) * 8), dtype=bool)
    np.equal(votes, 0, out=mask[:, :m])
    words = mask.view(np.uint64)  # one byte per column, 0 or 1
    # each column's abstains: byte sums over at most 255 rows cannot carry
    counts = np.add.reduceat(words, np.arange(0, n, 255), axis=0).view(np.uint8)
    counts = counts.sum(axis=0, dtype=np.int64)[:m]
    if policy.mode == "alternating":
        # A byte of the XOR scan is the parity of its column's abstains up to
        # and including the row; XOR the parity of the column's first ordinal
        # and it is 1 exactly where the abstain's ordinal is even, fill +1.
        start = np.zeros(mask.shape[1], dtype=np.uint8)
        start[:m] = (ordinals if policy.phase is None else ordinals + policy.phase) & 1
        scan = np.bitwise_xor.accumulate(words, axis=0)
        scan ^= start.view(np.uint64)
        scan &= words  # 1 where the fill is +1
        words ^= scan  # 1 where it is -1
        words *= 0xFF  # the int8 byte of -1; 255 per byte cannot carry
        scan |= words
        fills = scan.view(np.int8)[:, :m]
    else:
        fills = np.zeros((n, m), dtype=np.int8)
        for j in counts.nonzero()[0].tolist():
            first = ordinals[j]
            fills[mask[:, j], j] = policy.fill_values(j, np.arange(first, first + counts[j]))
    ordinals += counts
    return fills


@dataclass(frozen=True)
class AugmentedLabelMatrix:
    """The n x 2m pair encoding of a label matrix under an abstain policy,
    held as the votes and the policy.

    ``vote_blocks`` reads the rows block by block as their votes and abstain
    fills, carrying each column's abstain ordinals across blocks, so the
    fills do not depend on the block size. The encoded columns are never
    built.
    """

    votes: np.ndarray  # n x m int8, as a LabelMatrix holds them
    policy: AbstainPolicy

    @property
    def n(self) -> int:
        return self.votes.shape[0]

    @property
    def m(self) -> int:
        return self.votes.shape[1]

    def vote_blocks(self, rows: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """The rows as consecutive blocks of at most ``rows`` rows, each as
        its votes and its abstain fills (``_fills``)."""
        ordinals = np.zeros(self.m, dtype=np.int64)
        for lo in range(0, self.n, rows):
            votes = self.votes[lo:lo + rows]
            yield votes, _fills(votes, self.policy, ordinals)


def augment_matrix(L: LabelMatrix, policy: AbstainPolicy = AbstainPolicy()) -> AugmentedLabelMatrix:
    """The pair encoding of ``L``, deterministic given (L, policy); rows are
    encoded when they are read."""
    return AugmentedLabelMatrix(L.votes, policy)


def augment_row(row: np.ndarray, policy: AbstainPolicy,
                abstain_counts: np.ndarray) -> np.ndarray:
    """Pair-encode a single vote row for streaming ingestion.

    ``abstain_counts[j]`` is the number of abstains already seen in column j;
    it is advanced in place so consecutive calls continue the per-column
    ordinal sequence. Every column's fill at its next ordinal is kept where
    the row abstains, so the row needs no index arrays.
    """
    votes = np.asarray(row, dtype=np.int8)
    abstains = votes == 0
    fills = policy.fill_values(np.arange(votes.size), abstain_counts)
    fills *= abstains
    abstain_counts += abstains
    out = np.empty(2 * votes.size, dtype=np.int8)
    np.add(votes, fills, out=out[0::2])
    np.subtract(fills, votes, out=out[1::2])
    return out


def pair_votes(pairs: np.ndarray) -> np.ndarray:
    """The votes of pair-encoded int8 rows, whose pair (x_2i, x_2i+1) is
    (v_i + w_i, w_i - v_i): v_i = (x_2i - x_2i+1) / 2."""
    return (pairs[..., 0::2] - pairs[..., 1::2]) >> 1


@dataclass(frozen=True)
class AugmentedGraph:
    """The dependency graph lifted to the paired observed-variable space,
    as the fit reads it: the components of the dependency-edge graph
    (``source_components``), the conditionally independent column pairs
    (``independent_columns``) and each task's vote-tracking columns
    (``task_anchors``), each built once per graph."""

    graph: DependencyGraph

    @property
    def n_tasks(self) -> int:
        return self.graph.n_tasks

    @property
    def n_columns(self) -> int:
        return 2 * self.graph.n_sources

    def task_of(self, col: int) -> int:
        return self.graph.assignment[col // 2]

    def source_components(self) -> Tuple[int, ...]:
        """Component id per source in the dependency-edge graph.

        A chain of dependency edges is an observed path between pairs that
        never touches a hidden vertex, so every source in a connected
        component is conditionally dependent on every other.
        """
        cached = self.__dict__.get("_comp_cache")
        if cached is None:
            m = self.graph.n_sources
            comp = list(range(m))

            def find(x):
                while comp[x] != x:
                    comp[x] = comp[comp[x]]
                    x = comp[x]
                return x

            for a, b in self.graph.source_edges:
                comp[find(a)] = find(b)
            cached = tuple(find(i) for i in range(m))
            self.__dict__["_comp_cache"] = cached
        return cached

    def independent_columns(self) -> np.ndarray:
        """Read-only 2m x 2m mask of the observed column pairs that are
        conditionally independent given the hidden layer: columns of sources
        in different components. Built once per graph."""
        cached = self.__dict__.get("_indep_cache")
        if cached is None:
            comp = np.asarray(self.source_components())[np.arange(self.n_columns) // 2]
            cached = self.__dict__["_indep_cache"] = _freeze(comp[:, None] != comp[None, :])
        return cached

    def task_anchors(self) -> Tuple[np.ndarray, ...]:
        """Per task, the vote-tracking (even) columns of its sources,
        ascending, as read-only arrays. Built once per graph."""
        cached = self.__dict__.get("_anchor_cache")
        if cached is None:
            evens = np.arange(0, self.n_columns, 2)
            task = np.asarray(self.graph.assignment, dtype=np.intp)
            cached = self.__dict__["_anchor_cache"] = tuple(
                _freeze(evens[task == d]) for d in range(self.n_tasks))
        return cached


def augment_graph(g: DependencyGraph) -> AugmentedGraph:
    """Lift a validated dependency graph into the paired observed space."""
    return AugmentedGraph(graph=g)
