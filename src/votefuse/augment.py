"""Lifting ternary votes and the dependency graph into the binary model space.

Each source becomes a column pair: a vote of +1 maps to (1, -1), a vote of -1
to (-1, 1), and an abstain to (1, 1) or (-1, -1) with balanced frequency. The
abstain fill-in is keyed per column by the abstain's ordinal position, so
augmenting is deterministic, replayable, and order-independent across columns.

One kernel, ``_encode``, pair-encodes a row block from per-column start
ordinals: it writes the votes and their negations, then visits only the
columns that hold abstains and fills each one's abstain rows with the next
ordinals of that column, so its working memory is the block and its abstain
mask, with no index array per abstain. ``augment_matrix`` returns the
encoding of a whole label matrix without computing it: its rows are encoded
block by block as the statistics pass reads them, so the n x 2m matrix
exists only if a caller asks for ``.data``. ``augment_row`` runs the kernel
on one stream row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from .graph import BLOCK_ROWS, AugmentedLabelMatrix, DependencyGraph, LabelMatrix, _freeze

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


def _encode(votes: np.ndarray, policy: AbstainPolicy, ordinals: np.ndarray) -> np.ndarray:
    """Pair-encode a block of vote rows. Column j's abstains take the ordinals
    ``ordinals[j]``, ``ordinals[j] + 1``, ... in row order; ``ordinals`` (int64)
    is advanced in place past them, so the next block continues the sequence.

    The n x 2m result is the transpose of a C-contiguous 2m x n array, in
    which each column is one contiguous row.
    """
    n, m = votes.shape
    out = np.empty((2 * m, n), dtype=np.int8)
    out[0::2] = votes.T
    np.negative(out[0::2], out=out[1::2])
    abstains = out[0::2] == 0
    # only the columns that hold abstains: their rows, in row order, take
    # the next ordinals of the column, one fill value for both pair columns
    for j in abstains.any(axis=1).nonzero()[0].tolist():
        rows = abstains[j].nonzero()[0]
        first = ordinals[j]
        vals = policy.fill_values(j, np.arange(first, first + rows.size))
        out[2 * j][rows] = vals
        out[2 * j + 1][rows] = vals
        ordinals[j] = first + rows.size
    return out.T


class EncodedLabelMatrix(AugmentedLabelMatrix):
    """The pair encoding of a label matrix under an abstain policy, computed
    on demand.

    It holds the votes and the policy. ``blocks`` encodes the rows block by
    block, carrying each column's abstain ordinals across blocks, so the
    result does not depend on the block size. ``data`` materialises the whole
    matrix on first use.
    """

    def __init__(self, L: LabelMatrix, policy: AbstainPolicy):
        object.__setattr__(self, "votes", L.votes)
        object.__setattr__(self, "policy", policy)

    @property
    def n(self) -> int:
        return self.votes.shape[0]

    @property
    def m(self) -> int:
        return self.votes.shape[1]

    def blocks(self, rows: int) -> Iterator[np.ndarray]:
        ordinals = np.zeros(self.m, dtype=np.int64)
        for lo in range(0, self.n, rows):
            yield _encode(self.votes[lo:lo + rows], self.policy, ordinals)

    @property
    def data(self) -> np.ndarray:
        data = self.__dict__.get("_data")
        if data is None:
            data = np.empty((self.n, 2 * self.m), dtype=np.int8)
            for lo, block in zip(range(0, self.n, BLOCK_ROWS), self.blocks(BLOCK_ROWS)):
                data[lo:lo + BLOCK_ROWS] = block
            data = self.__dict__["_data"] = _freeze(data)
        return data


def augment_matrix(L: LabelMatrix, policy: AbstainPolicy = AbstainPolicy()) -> AugmentedLabelMatrix:
    """The pair encoding of ``L``, deterministic given (L, policy); rows are
    encoded when they are read."""
    return EncodedLabelMatrix(L, policy)


def augment_row(row: np.ndarray, policy: AbstainPolicy,
                abstain_counts: np.ndarray) -> np.ndarray:
    """Pair-encode a single vote row for streaming ingestion.

    ``abstain_counts[j]`` is the number of abstains already seen in column j;
    it is advanced in place so consecutive calls continue the per-column
    ordinal sequence.
    """
    return _encode(np.asarray(row, dtype=np.int8).reshape(1, -1), policy, abstain_counts)[0]


@dataclass(frozen=True)
class AugmentedGraph:
    """The dependency graph lifted to the paired observed-variable space.

    Vertices are D hidden tasks plus 2m observed columns. Every column links
    to its source's task; each pair carries an internal abstain-rate edge; a
    dependency edge between two sources induces all four edges between their
    pairs.
    """

    graph: DependencyGraph

    @property
    def n_tasks(self) -> int:
        return self.graph.n_tasks

    @property
    def n_columns(self) -> int:
        return 2 * self.graph.n_sources

    @property
    def n_vertices(self) -> int:
        return self.n_tasks + self.n_columns

    def task_of(self, col: int) -> int:
        return self.graph.assignment[col // 2]

    def lift(self, source: int) -> Tuple[int, int]:
        return 2 * source, 2 * source + 1

    def accuracy_edges(self) -> Tuple[Tuple[int, int], ...]:
        """(column, task) edges."""
        return tuple((c, self.task_of(c)) for c in range(self.n_columns))

    def abstain_edges(self) -> Tuple[Tuple[int, int], ...]:
        return tuple((2 * i, 2 * i + 1) for i in range(self.graph.n_sources))

    def cross_edges(self) -> Tuple[Tuple[int, int], ...]:
        out = []
        for a, b in self.graph.source_edges:
            for ca in self.lift(a):
                for cb in self.lift(b):
                    out.append((ca, cb))
        return tuple(out)

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

    def columns_dependent(self, a: int, b: int) -> bool:
        """Conditional dependence test between observed columns given the
        hidden layer: same source's pair, or sources connected through
        dependency edges."""
        return not self.independent_columns()[a, b]


def augment_graph(g: DependencyGraph) -> AugmentedGraph:
    """Lift a validated dependency graph into the paired observed space."""
    return AugmentedGraph(graph=g)
