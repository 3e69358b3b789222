"""Observable moments and closed-form recovery of unobservable source accuracies.

The moments come from one pass over the rows: ``RunningStats`` folds the
rows [v | w | 1] (the votes, their abstain fills as ``augment`` computes
them, and ones) into an int64 Gram, one matrix product per fixed-size float32
operand, without pair-encoding them. A pair is (v_i + w_i, w_i - v_i), so a
fixed 0/+-1 matrix P maps that Gram G, once, to the Gram of the pair-encoded
rows with a ones column, P.T @ G @ P: pairwise products, first moments, the
vote counts and the row count, which ``to_moments`` divides by the count.
Neither the n x 2m matrix nor a block of it is held: the pass's memory is
one operand, its abstain mask and the Grams. The moments are fixed-shape
arrays: the tracked pairs' cross-tabs as one stack, and the
abstain-restricted moments as stacks with their row counts, NaN where too
few rows for a fit to read them.

The accuracy of observed column ``a`` is a_a = E[v_a Y(a)], the scaled
correlation with its hidden task. For columns a, j, k that are pairwise
conditionally independent, with j or k on a's task, every pairwise moment
M_xy = E[v_x v_y] factors into accuracies, so that

    M_aj * M_ak * M_jk = a_a^2 * M_jk^2.

One kernel, ``_pooled_magnitudes``, fits a_a^2 to this identity by least
squares over every valid partner pair of the anchor,

    a_a^2 = sum_{j != k} M_aj M_ak M_jk / sum_{j != k} M_jk^2,

which weights each triplet by M_jk^2, so a triplet with a small, noisy
denominator counts little. ``enumerate_triplets`` builds the partner masks
once per graph, and the batch fit and the abstain-conditioned accuracies
both call the kernel. Only the vote-tracking (even) columns are anchors; the
odd column of each pair mirrors its twin.

Signs are recovered separately: per task, either by picking the global flip
with a nonnegative accuracy sum, by propagating one anchored sign through the
pairwise products, or by agreeing with the first moments E[v] = a * E[Y].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .augment import AugmentedGraph, AugmentedLabelMatrix
from .config import RunConfig
from .errors import (
    InsufficientIndependence,
    NoUsableTriplet,
    PriorNearZero,
    AnchorUnreachable,
    TooFewAbstainRows,
)
from .graph import ClassPrior, DependencyGraph, _clip


# ---------------------------------------------------------------------------
# sufficient statistics (shared by the batch and streaming paths)
# ---------------------------------------------------------------------------

def tracked_statistics(g: DependencyGraph) -> Tuple[Tuple[Tuple[int, int], ...], Tuple[int, ...]]:
    """The source pairs whose vote cross-tabs, and the sources whose
    abstain-restricted moments, clique recovery needs: every dependency edge
    and every source on one."""
    edges = g.source_edges
    return edges, tuple(sorted({s for e in edges for s in e}))


# four times a source's (+1, abstain, -1) counts from its Gram entries n, d, e, o
_VOTE_COUNTS = np.array([[1, -1, 1, -1], [2, 2, 0, 0], [1, -1, -1, 1]])

# Bytes of the float32 operand each Gram is taken of: ~2,600 rows at m=100.
# Folding a Gram into the int64 totals costs O(m^2), so an operand is never
# smaller than that Gram (2(2m+1) rows): at m=1000, 262-row operands made the
# pass ~3x slower than 16,384-row ones, 4,002-row ones about as fast.
_OPERAND_BYTES = 1 << 21


class RunningStats:
    """Integer-exact sufficient statistics over a set of augmented rows.

    Holds everything parameter recovery consumes: pairwise products and first
    moments of the augmented columns, per-source vote histograms, vote
    cross-tabs for tracked source pairs, and abstain-restricted copies of the
    pairwise sums for tracked conditioning sources.

    The statistics are int64 Grams of the pair-encoded rows with a ones
    column, one per conditioning source over the rows where it abstains. A
    stream adds and removes one such row at a time (``_fold_row``). A batch
    (``from_matrix``) casts the votes v and fills w of as many rows as a
    float32 operand [v | w | 1] holds into it and folds the operand's Gram
    through ``_accumulate``, a partial Gram being an integer matrix float32
    holds exactly; the pass ends by mapping each Gram G to P.T @ G @ P, in
    float64, exact as every entry is an integer far below 2**53. One product
    of a row reads the tracked pairs' cross-tab cells and the conditioning
    sources' abstain flags off its votes. So a rolling window holds the same
    statistics the batch path computes, int64 for int64, and batch memory is
    bounded by one operand and its abstain mask, not by n or by m x block.
    """

    def __init__(self, m: int,
                 tracked_pairs: Iterable[Tuple[int, int]] = (),
                 cond_sources: Iterable[int] = ()):
        self.m = m
        width = 2 * m + 1
        self.cond_sources = tuple(sorted(set(cond_sources)))
        # the Gram of the rows [pair encoding | 1], then one per conditioning
        # source over the rows where it abstains; one array, so each Gram's
        # count sits at its [-1, -1]. No attribute is a view of another, so a
        # copy or a pickle holds the same statistics.
        self._grams = np.zeros((1 + len(self.cond_sources), width, width), dtype=np.int64)
        # x @ P is [pair encoding | 1]: columns 2i and 2i+1 of P take
        # v_i + w_i and w_i - v_i, and the last one keeps the ones. P's
        # columns are orthogonal with squared norm 2 (1 for the ones), so its
        # inverse is P.T / 2 with the ones kept.
        i = np.arange(m)
        self._to_pairs = np.zeros((width, width))
        self._to_pairs[i, 2 * i] = self._to_pairs[m + i, 2 * i] = self._to_pairs[m + i, 2 * i + 1] = 1
        self._to_pairs[i, 2 * i + 1] = -1
        self._to_pairs[-1, -1] = 1
        from_pairs = self._to_pairs.T / 2
        from_pairs[-1, -1] = 1
        self._row = np.ones(width, dtype=np.int64)  # [pair-encoded row | 1]
        # per source, the flat indices of the Gram entries n (rows),
        # d = sum x_2i x_2i+1 (abstains - votes), e = sum x_2i, o = sum x_2i+1
        self._vote_cells = np.stack([np.full(m, width * width - 1), 2 * i * (width + 1) + 1,
                                     2 * m * width + 2 * i, 2 * m * width + 2 * i + 1], axis=1)
        self.tracked_pairs = tuple(sorted({(min(a, b), max(a, b)) for a, b in tracked_pairs}))
        # the pair cross-tabs are one count vector, so a block updates all
        # of them with a single bincount
        k, kc = len(self.tracked_pairs), len(self.cond_sources)
        self._pair_cells = np.zeros(9 * k, dtype=np.int64)
        # One product with an operand row [v | w | 1] gives each tracked
        # pair's cell and then each conditioning source's vote, 0 where it
        # abstains. A pair (p, q) sits in cell 9k + 3 * state_p + state_q of its
        # 3 x 3 block, with state 1 - v (0, 1, 2 for +1, abstain, -1): in cell
        # 9k + 4 - 3 v_p - v_q. Every entry is an integer float32 holds exactly.
        self._row_map = np.zeros((width, k + kc), dtype=np.float32)
        pairs = np.array(self.tracked_pairs, dtype=np.intp).reshape(k, 2)
        self._row_map[pairs[:, 0], np.arange(k)] = -3
        self._row_map[pairs[:, 1], np.arange(k)] = -1
        self._row_map[-1, :k] = 9 * np.arange(k) + 4
        self._row_map[list(self.cond_sources), k + np.arange(kc)] = 1
        # twice that for a pair-encoded row, through P's inverse: integers
        self._pair_row_map = (2 * from_pairs @ self._row_map).astype(np.int64)

    @property
    def n(self) -> int:
        return int(self._grams[0, -1, -1])

    @property
    def cond_n(self) -> Dict[int, int]:
        return dict(zip(self.cond_sources, self._grams[1:, -1, -1].tolist()))

    @property
    def pair_counts(self) -> Dict[Tuple[int, int], np.ndarray]:
        """The 3 x 3 vote cross-tab of each tracked pair, rows indexed by the
        first source's state (+1, abstain, -1)."""
        return dict(zip(self.tracked_pairs, self._pair_cells.reshape(-1, 3, 3)))

    @property
    def vote_counts(self) -> np.ndarray:
        """(m, 3) counts of +1, abstain and -1 votes per source, read off the
        Gram (``_VOTE_COUNTS``)."""
        return (self._grams[0].take(self._vote_cells) @ _VOTE_COUNTS.T) >> 2

    @property
    def second(self) -> np.ndarray:
        return self._grams[0, :-1, :-1].copy()

    @property
    def first(self) -> np.ndarray:
        return self._grams[0, -1, :-1].copy()

    @property
    def cond_second(self) -> Dict[int, np.ndarray]:
        return dict(zip(self.cond_sources, self._grams[1:, :-1, :-1].copy()))

    @property
    def cond_first(self) -> Dict[int, np.ndarray]:
        return dict(zip(self.cond_sources, self._grams[1:, -1, :-1].copy()))

    def _accumulate(self, x: np.ndarray) -> None:
        """Add the rows of a float32 operand [v | w | 1] to Grams of such
        rows, which ``from_matrix`` maps to the pair encoding at its end."""
        # every partial sum is an integer no larger than the operand's rows,
        # fewer than 2**24 unless m is in the millions: float32 is exact
        gram = (x.T @ x).astype(np.int64)
        np.add(self._grams[0], gram, out=self._grams[0])
        per_row = x @ self._row_map
        k = len(self.tracked_pairs)
        if k:
            cells = per_row[:, :k].astype(np.intp).ravel()
            np.add(self._pair_cells, np.bincount(cells, minlength=self._pair_cells.size),
                   out=self._pair_cells)
        if self.cond_sources:
            abstains = per_row[:, k:] == 0
            counts = np.add.reduce(abstains, axis=0, dtype=np.intp)
            for t in counts.nonzero()[0].tolist():
                # an operand where every row abstains reuses its Gram
                rows = x if counts[t] == len(x) else x[abstains[:, t]]
                total = self._grams[1 + t]
                np.add(total, gram if rows is x else (rows.T @ rows).astype(np.int64), out=total)

    def _fold_row(self, aug_row: np.ndarray, sign: int) -> None:
        """Add (sign +1) or subtract (sign -1) one pair-encoded row's outer
        product, with the ones, to the Grams it counts in, and its cells."""
        update = np.add if sign > 0 else np.subtract
        row = self._row
        row[:-1] = aug_row
        gram = np.multiply.outer(row, row)
        grams = self._grams
        update(grams[0], gram, out=grams[0])
        per_row = (row @ self._pair_row_map).tolist()  # doubled
        k = len(self.tracked_pairs)
        for t, vote in enumerate(per_row[k:], 1):
            if vote == 0:
                update(grams[t], gram, out=grams[t])
        cells = self._pair_cells
        for cell in per_row[:k]:
            cells[cell >> 1] += sign

    def add(self, aug_row: np.ndarray) -> None:
        self._fold_row(aug_row, 1)

    def remove(self, aug_row: np.ndarray) -> None:
        self._fold_row(aug_row, -1)

    @classmethod
    def from_matrix(cls, A: AugmentedLabelMatrix,
                    tracked_pairs=(), cond_sources=()) -> "RunningStats":
        """The statistics of every row of ``A``, read one operand of rows at
        a time, as many as ``_OPERAND_BYTES`` holds, as their votes and
        fills (``A.vote_blocks``), which are cast into one reused operand."""
        st = cls(A.m, tracked_pairs, cond_sources)
        m, width = A.m, 2 * A.m + 1
        rows = max(_OPERAND_BYTES, 8 * width * width) // (4 * width)
        operand = np.ones((min(rows, A.n), width), dtype=np.float32)
        for votes, fills in A.vote_blocks(rows):
            x = operand[:len(votes)]
            x[:, :m] = votes
            x[:, m:-1] = fills
            st._accumulate(x)
        pairs = st._to_pairs  # to the pair encoding
        st._grams = (pairs.T @ st._grams.astype(np.float64) @ pairs).astype(np.int64)
        return st

    def to_moments(self, prior: ClassPrior) -> "MomentEstimates":
        """The averages of the statistics: each Gram divided by its count, or
        by NaN for a conditioning Gram over fewer than ``N_MIN_ABSTAIN`` rows,
        which no fit reads."""
        counts = self._grams[:, -1, -1].tolist()
        n = counts[0]
        if n < 1:
            raise ValueError("no rows accumulated")
        per = self._grams[:, -1:, -1:].astype(np.float64)
        for t, cn in enumerate(counts):
            if t and cn < N_MIN_ABSTAIN:
                per[t] = np.nan
        avg = self._grams[:, :, :-1] / per
        return MomentEstimates(
            n=n,
            M=avg[0, :-1],
            first_moments=avg[0, -1],
            vote_marginals=self.vote_counts / n,
            prior=prior,
            pairs=self.tracked_pairs,
            pair_cells=(self._pair_cells / n).reshape(-1, 3, 3),
            cond_sources=self.cond_sources,
            cond_n=tuple(counts[1:]),
            cond_M=avg[1:, :-1],
            cond_first=avg[1:, -1],  # row 2m of each average: first moments
        )


# ---------------------------------------------------------------------------
# moment estimates
# ---------------------------------------------------------------------------

@dataclass
class MomentEstimates:
    """First and second moments of the augmented columns plus vote statistics.

    ``M`` is the 2m x 2m matrix of pairwise products E[v_a v_b]; it is
    symmetric with unit diagonal. ``n`` is None for exact (enumerated)
    moments.

    Each tracked source pair ``pairs[q]`` = (i, j), i < j, ascending, has
    its 3 x 3 vote cross-tab P(lambda_i = a, lambda_j = b) in
    ``pair_cells[q]``, rows indexed by i's state (+1, abstain, -1). Each
    conditioning source ``cond_sources[t]`` has the moments restricted to
    the rows where it abstains in ``cond_M[t]`` and ``cond_first[t]``, over
    ``cond_n[t]`` rows (``cond_n`` is None when they are exact); sampled
    ones over fewer than ``N_MIN_ABSTAIN`` rows, which no fit reads, are
    NaN.
    """

    M: np.ndarray
    first_moments: np.ndarray
    vote_marginals: np.ndarray
    prior: ClassPrior
    n: Optional[int] = None
    pairs: Tuple[Tuple[int, int], ...] = ()
    pair_cells: np.ndarray = field(default_factory=lambda: np.zeros((0, 3, 3)))
    cond_sources: Tuple[int, ...] = ()
    cond_n: Optional[Tuple[int, ...]] = None
    cond_M: np.ndarray = field(default_factory=lambda: np.zeros((0, 0, 0)))
    cond_first: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    @property
    def n_columns(self) -> int:
        return self.M.shape[0]

    @property
    def m(self) -> int:
        return self.n_columns // 2

    @property
    def abstain_rates(self) -> np.ndarray:
        """P(lambda_i = 0) per source."""
        return self.vote_marginals[:, 1]


def estimate_moments(A: AugmentedLabelMatrix, prior: ClassPrior,
                     graph: Optional[AugmentedGraph] = None) -> MomentEstimates:
    """Empirical moments of an augmented matrix: M_ab = (1/n) sum_t A_ta A_tb.

    When the dependency graph is supplied, vote cross-tabs are kept for every
    dependent source pair and abstain-restricted moments for every source that
    appears in a dependency edge (both are needed to recover two-source clique
    marginals).
    """
    if A.n < 1:
        raise ValueError("need at least one sample")
    tracked, cond = tracked_statistics(graph.graph) if graph is not None else ((), ())
    stats = RunningStats.from_matrix(A, tracked, cond)
    return stats.to_moments(prior)


# ---------------------------------------------------------------------------
# the partner plan
# ---------------------------------------------------------------------------

@dataclass
class TripletPlan:
    """Which columns and column pairs the pooled accuracy fit uses; depends on
    the graph only.

    Accuracies are fitted on the vote-tracking (even) columns. A triplet
    (a, j, k) anchored at even column ``a`` is valid when the three sources
    lie in three distinct components of the dependency-edge graph, so the
    columns are pairwise conditionally independent given the hidden layer,
    and j or k votes on a's task, so all three pairwise moments factor into
    accuracy products against a's hidden variable.

    ``partners[a]`` lists the columns outside a's component and ``pairs[a]``
    counts a's valid unordered partner pairs, for every anchor with at least
    one; an even column with none is not a key. ``blocks`` holds one
    (anchors, P, K) entry per task: P (anchors x columns) is 1 on each
    anchor's partner columns, and K (columns x columns) is 1 on the pairs in
    distinct components with a member on the task. ``single[a]`` is anchor
    a's own block: its task's entry cut to a's row.
    """

    n_columns: int
    partners: Dict[int, np.ndarray]
    pairs: Dict[int, int]
    blocks: Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    single: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]]


def enumerate_triplets(G: AugmentedGraph, cfg: RunConfig = RunConfig()) -> TripletPlan:
    """The partner masks of every even column, built once per graph."""
    n_cols = G.n_columns
    task = np.asarray(G.graph.assignment)[np.arange(n_cols) // 2]
    comp = np.asarray(G.source_components(), dtype=np.intp)[np.arange(n_cols) // 2]
    apart = G.independent_columns()
    evens = np.arange(0, n_cols, 2)
    # An anchor's partner pairs join columns of two distinct components
    # other than its own, one of them on its task: with s_c columns in
    # component c, u_c of them off the task, and S, U their sums over those
    # components, there are (S^2 - sum s_c^2 - U^2 + sum u_c^2) / 2.
    s = np.bincount(comp, minlength=n_cols)
    anchors, counts, blocks = [], [], []
    for d in range(G.n_tasks):
        on = task == d
        K = (apart & (on[:, None] | on[None, :])).astype(np.float64)
        cand = evens[task[evens] == d]
        P = apart[cand].astype(np.float64)
        u = np.bincount(comp[~on], minlength=n_cols)
        own = comp[cand]
        S, U = s.sum() - s[own], u.sum() - u[own]
        n_pairs = (S * S - (s @ s - s[own] ** 2) - U * U + (u @ u - u[own] ** 2)) // 2
        ok = n_pairs > 0
        blocks.append((cand[ok], P[ok], K))
        anchors.append(cand[ok])
        counts.append(n_pairs[ok])
    anchors, counts = np.concatenate(anchors), np.concatenate(counts)
    if not anchors.size and not cfg.ratio_fallback:
        raise InsufficientIndependence(
            "no observed variable admits a conditionally independent triplet; "
            "enable the ratio fallback or revise the dependency graph"
        )
    rows, cols = np.nonzero(apart[anchors])
    partners = dict(zip(anchors.tolist(),
                        np.split(cols, np.searchsorted(rows, np.arange(1, anchors.size)))))
    return TripletPlan(n_columns=n_cols, partners=partners,
                       pairs=dict(zip(anchors.tolist(), counts.tolist())),
                       blocks=tuple(blocks),
                       single={a: (block[r:r + 1], P[r:r + 1], K) for block, P, K in blocks
                               for r, a in enumerate(block.tolist())})


# ---------------------------------------------------------------------------
# the pooled magnitude kernel
# ---------------------------------------------------------------------------

# Pairwise moments smaller than EPS_DEN carry no sign information. A column's
# triplet fit is numerically degenerate, and the column goes to the ratio
# fallback, when the squared partner moments it divides by sum to less than
# EPS_DEN**2.
EPS_DEN = 1e-4
# Floor for triplet-recovered accuracy magnitudes.
EPS_ACC = 1e-3
# Minimum |E[Y]| for the first-moment ratio fallback and the ratio-anchor sign.
EPS_PRIOR = 1e-2
# Fewest rows on which a source must abstain before accuracies conditioned on
# its abstaining are estimated.
N_MIN_ABSTAIN = 50


def _block_magnitudes(M: np.ndarray, anchors: np.ndarray, P: np.ndarray,
                      K: np.ndarray) -> np.ndarray:
    """Least-squares |a_a| of each anchor of one (anchors, P, K) block of the
    plan over all its valid triplets, clamped to [EPS_ACC, 1]: a_a^2 = sum
    M_aj M_ak M_jk / sum M_jk^2 over its partner pairs, as two masked matrix
    products. NaN where sum M_jk^2 is below EPS_DEN^2."""
    U = M.take(anchors, axis=0) * P
    MK = M * K
    einsum = np.einsum.__wrapped__  # without array-function dispatch: ndarrays only
    num = einsum("aj,aj->a", U @ MK, U)
    # K is 0 or 1, so MK * M is M * M * K bit for bit (+0.0 where K is 0)
    den = einsum("aj,aj->a", P @ (MK * M), P)
    # a degenerate anchor divides by NaN, which raises no warning
    ratio = np.maximum(num, 0.0) / np.where(den >= EPS_DEN ** 2, den, np.nan)
    return _clip(np.sqrt(ratio), EPS_ACC, 1.0)


def _pooled_magnitudes(M: np.ndarray, plan: TripletPlan) -> np.ndarray:
    """``_block_magnitudes`` of every anchor, one block per task, as one
    vector over the columns; NaN where a column has no estimate (not an
    anchor, or degenerate)."""
    out = np.empty(plan.n_columns)
    out.fill(np.nan)
    for anchors, P, K in plan.blocks:
        out[anchors] = _block_magnitudes(M, anchors, P, K)
    return out


# ---------------------------------------------------------------------------
# sign resolution
# ---------------------------------------------------------------------------

@dataclass
class Accuracies:
    """Signed accuracy per observed column; column 2i+1 mirrors column 2i.

    Triplet-recovered magnitudes are clamped to [EPS_ACC, 1]; ratio-fallback
    values may be any value in [-1, 1], including 0 for an uninformative
    source. ``diagnostics["ratio_fallback_sources"]`` lists the sources
    whose accuracy the ratio fallback gave.
    """

    values: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def per_source(self) -> np.ndarray:
        """a_i = E[lambda_i Y], read off the vote-tracking column of each pair."""
        return self.values[0::2]


def _sign_components(group: np.ndarray, rel: np.ndarray) -> Tuple[List[List[int]], np.ndarray]:
    """Connected components of the sign-constraint graph over one task group.

    ``rel`` holds, per column pair, the sign product an edge imposes (+-1)
    or no edge (+-0): edges join independent column pairs whose pairwise
    moment is usable (``resolve_signs``). Returns the components, each as
    ascending positions in ``group``, and the relative sign of every
    position, the lowest of each component positive.
    """
    rel = rel.take(group, axis=0).take(group, axis=1).tolist()
    sign = [1.0] * len(group)
    comps = []
    left = list(range(len(group)))  # not yet reached, ascending
    while left:
        c = left.pop(0)
        members = [c]
        stack = [c]
        while stack and left:
            u = stack.pop()
            row = rel[u]
            reached = [w for w in left if row[w]]  # new neighbours, ascending
            if reached:
                for w in reached:
                    sign[w] = sign[u] * row[w]
                stack += reached
                members += reached
                left = [w for w in left if not row[w]]
        members.sort()
        comps.append(members)
    return comps, np.array(sign)


def resolve_signs(mags: np.ndarray, M: np.ndarray, G: AugmentedGraph,
                  cfg: RunConfig = RunConfig(),
                  first_moments: Optional[np.ndarray] = None,
                  prior: Optional[ClassPrior] = None) -> Tuple[np.ndarray, np.ndarray, dict]:
    """Assign signs to the accuracy magnitudes ``mags``, one per column, NaN
    where a column has none; only the vote-tracking (even) columns are read,
    grouped per task. Relative signs inside a group come from the signs of
    the pairwise moments (two hops through a conditionally independent
    column relate a dependent pair), and the remaining global flip per
    component is fixed by the configured strategy. Returns the signed values
    (NaN where no magnitude), the signed columns in the order they were
    resolved (per task, per component, ascending) and the diagnostics."""
    diag = {"sign_ties": [], "ratio_anchor_fallbacks": []}
    anchor_col = None
    if cfg.sign_strategy == "anchor":
        cfg.check_sources(G.graph.n_sources)
        anchor_col = 2 * cfg.anchor_source
    # the sign product of each independent column pair whose pairwise moment
    # is usable, |M| >= EPS_DEN; +-0 for every other pair
    rel = np.copysign(G.independent_columns() & (np.abs(M) >= EPS_DEN), M)
    signed = np.empty(len(mags))
    signed.fill(np.nan)
    resolved = []
    for d, group in enumerate(G.task_anchors()):
        vals = mags.take(group)
        have = vals == vals  # not NaN
        if np.count_nonzero(have) < len(have):
            group, vals = group[have], vals[have]
        if not group.size:
            continue
        components, sign = _sign_components(group, rel)
        anchor = None
        if anchor_col is not None and anchor_col in group.tolist():
            anchor = group.tolist().index(anchor_col)
        if anchor is not None and len(components) > 1:
            reachable = next(p for p in components if anchor in p)
            missing = sorted(set(group.tolist()) - set(group.take(reachable).tolist()))
            raise AnchorUnreachable(
                f"sign propagation from source {cfg.anchor_source + 1} cannot "
                f"reach columns {missing}"
            )
        for members in components:
            cols, weights = group, sign * vals
            if len(members) < len(group):
                cols, weights = cols.take(members), weights.take(members)

            flip = None
            if anchor is not None:  # in the task's one component
                flip = cfg.anchor_sign * sign[anchor]
            elif cfg.sign_strategy == "ratio-anchor":
                ey = float(prior.means[d]) if prior is not None else 0.0
                if first_moments is not None and abs(ey) >= EPS_PRIOR:
                    score = float(np.add.reduce(weights * first_moments.take(cols)))
                    if score != 0.0:
                        flip = 1 if score * ey > 0 else -1
                if flip is None:
                    diag["ratio_anchor_fallbacks"].append(int(cols[0]))
            if flip is None:  # nonnegative-sum
                total = float(np.add.reduce(weights))
                if total == 0.0:
                    diag["sign_ties"].append(int(cols[0]))
                    flip = 1
                else:
                    flip = 1 if total > 0 else -1

            signed[cols] = flip * weights
            resolved.append(cols)
    order = np.concatenate(resolved) if len(resolved) > 1 else (
        resolved[0] if resolved else np.empty(0, dtype=np.intp))
    return signed, order, diag


# ---------------------------------------------------------------------------
# fallbacks
# ---------------------------------------------------------------------------

def ratio_accuracy(col: int, moments: MomentEstimates, G: AugmentedGraph) -> float:
    """First-moment fallback: a = E[v] / E[Y(col)], valid without triplets.

    Fails when the task mean is too close to zero and assumes no singleton
    potentials on the sources (a documented model assumption).
    """
    ey = moments.prior.task_mean(G.task_of(col))
    if abs(ey) < EPS_PRIOR:
        raise PriorNearZero(
            f"ratio fallback for column {col} needs |E[Y]| >= {EPS_PRIOR}, "
            f"got {ey:.3g}"
        )
    return float(np.clip(moments.first_moments[col] / ey, -1.0, 1.0))


def abstain_shortfall(cond: int, moments: MomentEstimates) -> Optional[str]:
    """Why no accuracy is fitted on the rows where source ``cond`` abstains
    (fewer than ``N_MIN_ABSTAIN`` of them, or none), or None."""
    held = cond in moments.cond_sources
    if held and moments.cond_n is None:
        return None
    have = moments.cond_n[moments.cond_sources.index(cond)] if held else 0
    return (None if have >= N_MIN_ABSTAIN else
            f"source {cond + 1} abstains on {have} rows; need {N_MIN_ABSTAIN}")


def conditional_accuracy_from_stats(target: int, cond: int,
                                    moments: MomentEstimates, plan: TripletPlan,
                                    G: AugmentedGraph, cfg: RunConfig,
                                    sign_hint: float) -> float:
    """E[lambda_target Y | lambda_cond = 0]: the pooled triplet fit on the
    moments restricted to the rows where ``cond`` abstains, on the target's
    own block of the plan. ``cond`` shares the target's component, so its
    columns are never partners. Raises TooFewAbstainRows with the reason of
    ``abstain_shortfall``.

    Sources without a usable restricted triplet fall back (when enabled) to
    the restricted first-moment ratio: the abstain indicator is independent of
    the task, so E[Y | lambda_cond = 0] is just the prior mean.
    """
    short = abstain_shortfall(cond, moments)
    if short is not None:
        raise TooFewAbstainRows(short)
    t = moments.cond_sources.index(cond)
    col = 2 * target
    block = plan.single.get(col)
    if block is not None:
        mag = float(_block_magnitudes(moments.cond_M[t], *block)[0])
        if mag == mag:  # not NaN
            sign = 1.0 if sign_hint >= 0 else -1.0
            return min(max(-1.0, sign * mag), 1.0)
        reason = f"abstain-restricted triplets for source {target + 1} are all degenerate"
    else:
        reason = f"no triplets available for column {col}"
    ey = moments.prior.task_mean(G.task_of(col))
    if cfg.ratio_fallback and abs(ey) >= EPS_PRIOR:
        return float(_clip(moments.cond_first[t, col] / ey, -1.0, 1.0))
    raise NoUsableTriplet(reason)


# ---------------------------------------------------------------------------
# full accuracy pipeline
# ---------------------------------------------------------------------------

def estimate_accuracies(moments: MomentEstimates, plan: TripletPlan,
                        G: AugmentedGraph, cfg: RunConfig = RunConfig()) -> Accuracies:
    """Triplet magnitudes, sign resolution, and ratio fallback, in one pass.
    Floored magnitudes and sign ties are recorded in the diagnostics
    (``floored_columns``, ``sign["sign_ties"]``), not warned of."""
    mags = _pooled_magnitudes(moments.M, plan)
    values, order, sign_diag = resolve_signs(
        mags, moments.M, G, cfg, moments.first_moments, moments.prior)
    # a signed magnitude is clamped to [EPS_ACC, 1], so it is floored when
    # its magnitude is (NaN compares false)
    floored = ([c for c in order.tolist() if mags[c] <= EPS_ACC]
               if np.count_nonzero(mags <= EPS_ACC) else [])

    fallback_used = []
    if len(order) < G.n_columns // 2:  # some even column has no signed magnitude
        for c in (np.flatnonzero(np.isnan(values[0::2])) * 2).tolist():
            if not cfg.ratio_fallback:
                raise NoUsableTriplet(
                    f"no triplet-recovered accuracy for column {c} and the ratio "
                    f"fallback is disabled"
                )
            values[c] = ratio_accuracy(c, moments, G)
            fallback_used.append(c // 2)
    np.negative(values[0::2], out=values[1::2])

    diag = {
        "partner_pairs": dict(plan.pairs),
        "sign": sign_diag,
        "ratio_fallback_sources": fallback_used,
        "floored_columns": floored,
    }
    return Accuracies(values=values, diagnostics=diag)
