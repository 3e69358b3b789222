"""Joint and posterior probabilities from recovered marginal tables.

The joint over (tasks, votes) is the junction-tree product: clique marginals
multiplied together, divided by each separator marginal raised to one less
than its adjacency degree. One kernel, ``_log_joint``, evaluates that product
in log space for a block of vote rows and all 2^D task configurations at once:

* it reads the parameters' ``log_table``: one log of the whole parameter
  vector, scaled per entry, ``log(clique)`` for a clique and
  ``-(deg - 1) * log(separator)`` for a separator, taken once per parameter
  set on first use;
* the factors are summed a group at a time (``graph.FactorGroup``: a run of
  consecutive factors over k <= 5 sources), in factor order, each broadcast
  over the task configurations; the groups' sums are then added, in order,
  into a ``(2,) * D + (n,)`` log-joint;
* a short block (the stream's one row) takes every factor's entry at every
  task configuration and row in one gather, at the layout's ``row_base``
  (every source abstaining) less its strides times the rows' votes, then sums
  each group's run of them; a longer block reads the parameters'
  ``group_tables``, each group's sum on its 3^k states, built once per
  parameter set, at each row's base-3 state, computed in uint8 from one
  contiguous sources x rows block. A block is short when its gathered
  terms, factors x 2^D x rows, number no more than the group tables'
  entries (``TableLayout.gather_rows``). The additions are the same either
  way, so a row's value does not depend on its block.

The factors, their slices, broadcast shapes, source indices, base-3 strides,
groups and the one-gather index are the junction tree's
``graph.TableLayout``, compiled once per tree, so a call only gathers and
adds.

Zero-factor rule: a zero entry in any clique or separator table makes the
joint of the configurations it touches exactly zero (``-inf`` in log space;
a zero separator never turns into a division by zero). A row whose every
task configuration has zero joint raises :class:`AllZeroLikelihood`.
Posteriors are normalized per row after a max-shift. ``predict_proba``,
``posterior`` and ``joint_probability`` are views of the kernel on row
blocks, one row and one entry; ``predict_proba`` holds one block's log-joint
at a time, so its working memory is bounded by the block, not by n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .config import RunConfig
from .errors import (
    AllZeroLikelihood,
    DegenerateClass,
    ShapeMismatch,
)
from .graph import (
    BLOCK_ROWS,
    ClassPrior,
    DependencyGraph,
    JunctionTree,
    LabelMatrix,
    LabelModelParameters,
    MAX_EXACT_TASKS,
    TASK_IDX,
    TASK_STATES,
)


@dataclass(frozen=True)
class PosteriorLabels:
    """Per-sample, per-task P(Y_d = 1 | vote row), usable as training labels."""

    probs: np.ndarray  # n x D in [0, 1]

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 2:
            raise ValueError("posterior probabilities must be n x D")
        object.__setattr__(self, "probs", p)

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    def thresholded(self) -> np.ndarray:
        """Hard +/-1 labels (ties resolve to +1)."""
        return np.where(self.probs >= 0.5, 1, -1).astype(np.int8)


def _log_joint(mu: LabelModelParameters, votes: np.ndarray) -> np.ndarray:
    """log P(Y = y, votes = row) for every task configuration y and row of the
    n x m int8 ``votes``, shape (2,)*D + (n,); zero joints read ``-inf``.
    The layout of ``mu``'s tree (``mu.jtree``) holds the tables."""
    D, m = mu.graph.n_tasks, mu.graph.n_sources
    if votes.shape[1] != m:
        raise ShapeMismatch(f"matrix has {votes.shape[1]} sources, model expects {m}")
    if D > MAX_EXACT_TASKS:
        raise ShapeMismatch(f"exact enumeration caps at {MAX_EXACT_TASKS} tasks")
    layout = mu.jtree.layout
    n = votes.shape[0]
    if n <= layout.gather_rows:
        # every factor at every configuration and row in one gather, then
        # each group's sum and the sum of the groups, in order
        shift = layout.row_weights @ votes.T  # exact integer products
        terms = mu.log_table.take(layout.row_base[..., np.newaxis] - shift[:, np.newaxis])
        out = np.zeros(terms.shape[1:])
        for group in layout.groups:
            out += np.add.accumulate(terms[group.span], axis=0)[-1]
        return out.reshape((2,) * D + (n,))
    # per source and row: +1 -> 0, 0 -> 1, -1 -> 2 (a transposing copy, then
    # the subtraction in place, is faster than one ufunc on the transpose)
    states = votes.T.copy()
    states = np.subtract(1, states, out=states).view(np.uint8)
    out = np.zeros((2,) * D + (n,))
    for group, table in zip(layout.groups, mu.group_tables):
        if group.sources:
            index = states[group.sources[0]].copy()  # uint8: 3^5 - 1 fits
            for i in group.sources[1:]:
                index *= 3
                index += states[i]
            table = table.take(index, axis=-1)
        out += table
    return out


def _normalized(mu: LabelModelParameters, prior: ClassPrior, votes: np.ndarray,
                first_row: Optional[int] = 0) -> np.ndarray:
    """P(Y | row) for every row of ``votes``, shape (2,)*D + (n,). Errors
    number the rows from ``first_row``, or name only the votes when it is
    None."""
    if prior.n_tasks != mu.graph.n_tasks:
        raise ShapeMismatch(
            f"prior covers {prior.n_tasks} tasks, model has {mu.graph.n_tasks}")
    log_joint = _log_joint(mu, votes)
    flat = log_joint.reshape(2 ** mu.graph.n_tasks, votes.shape[0])
    peak = np.maximum.reduce(flat, axis=0)
    alive = np.isfinite(peak)
    if np.count_nonzero(alive) < alive.size:
        r = int(np.argmin(alive))
        row = f"votes {tuple(int(v) for v in votes[r])}"
        raise AllZeroLikelihood(
            "every task configuration has zero probability for "
            + (row if first_row is None else f"row {first_row + r} ({row})"))
    w = np.exp(flat - peak)
    w /= _sum_rows(w)
    return w.reshape(log_joint.shape)


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=0), added in row order for any number of columns. numpy
    sums eight or more rows pairwise when ``a`` has one column, so a row's
    posterior would depend on the size of its block."""
    return np.add.accumulate(a, axis=0)[-1]


def _positives(w: np.ndarray) -> np.ndarray:
    """n x D matrix of P(Y_d = 1) from posteriors shaped (2,)*D + (n,)."""
    D, n = w.ndim - 1, w.shape[-1]
    out = np.empty((n, D))
    for d in range(D):
        out[:, d] = _sum_rows(w.take(0, axis=d).reshape(2 ** (D - 1), n))
    return out


def _row(lam) -> np.ndarray:
    """One vote row as a checked 1 x m block; a LabelMatrix is checked
    already."""
    L = lam if isinstance(lam, LabelMatrix) else LabelMatrix(np.reshape(lam, (1, -1)))
    if L.n != 1:
        raise ShapeMismatch(f"expected one vote row, got {L.n}")
    return L.votes


def joint_probability(mu: LabelModelParameters, jt: JunctionTree,
                      y: Sequence[int], lam: Sequence[int]) -> float:
    """P(Y = y, votes = lam) via the junction-tree product; ``lam`` is one
    vote row or a one-row LabelMatrix.

    Zero when any clique or separator factor of (y, lam) is zero. ``y``
    holds one +1 or -1 per task. ``jt`` must equal ``mu.jtree``.
    """
    if jt is not mu.jtree and jt != mu.jtree:  # mu's tables are laid out by mu.jtree
        raise ShapeMismatch("jt is not the junction tree the parameters were fitted on")
    D, y = mu.graph.n_tasks, np.asarray(y)
    if y.shape != (D,):
        raise ShapeMismatch(f"y has shape {y.shape}, the model has {D} tasks")
    if not np.isin(y, TASK_STATES).all():
        raise ValueError(f"task states are +1 or -1, got y = {y.tolist()}")
    y_idx = tuple(TASK_IDX[int(v)] for v in y)
    return float(np.exp(_log_joint(mu, _row(lam))[y_idx + (0,)]))


def posterior(mu: LabelModelParameters, jt: JunctionTree, prior: ClassPrior,
              lam: Sequence[int]) -> np.ndarray:
    """P(Y | votes) over {-1,+1}^D, returned as a table with axes (2,)*D;
    ``lam`` is one vote row or a one-row LabelMatrix.

    Exact enumeration over task configurations; the result sums to one. The
    prior argument is kept for interface symmetry (the tables already embed
    it) and only checked for shape; ``jt`` must equal ``mu.jtree``.
    """
    if jt is not mu.jtree and jt != mu.jtree:  # mu's tables are laid out by mu.jtree
        raise ShapeMismatch("jt is not the junction tree the parameters were fitted on")
    return _normalized(mu, prior, _row(lam), first_row=None)[..., 0]


def marginal_positives(post_table: np.ndarray) -> np.ndarray:
    """P(Y_d = 1) per task from a posterior table."""
    return _positives(post_table[..., np.newaxis])[0]


def predict_proba(L: LabelMatrix, mu: LabelModelParameters, jt: JunctionTree,
                  prior: ClassPrior) -> PosteriorLabels:
    """Row-wise posterior marginals P(Y_d = 1 | row); deterministic.

    One kernel pass per block of ``BLOCK_ROWS`` rows: cost scales with the
    number of factor groups times 2^D * n, plus 3^k states per group of k
    sources, with no per-row Python work, and working memory with the block.
    Each row's arithmetic does not depend on the block, so the result is the
    same for any block size. ``jt`` must equal ``mu.jtree``.
    """
    if jt is not mu.jtree and jt != mu.jtree:  # mu's tables are laid out by mu.jtree
        raise ShapeMismatch("jt is not the junction tree the parameters were fitted on")
    probs = np.empty((L.n, mu.graph.n_tasks))
    # an empty matrix still takes one (empty) pass, which checks its shape
    for lo in range(0, max(L.n, 1), BLOCK_ROWS):
        w = _normalized(mu, prior, L.votes[lo:lo + BLOCK_ROWS], first_row=lo)
        probs[lo:lo + BLOCK_ROWS] = _positives(w)
    return PosteriorLabels(probs)


def majority_vote(L: LabelMatrix) -> np.ndarray:
    """Baseline +/-1 labels from the vote sums (ties and all-abstain go to +1)."""
    s = L.votes.sum(axis=1)
    return np.where(s >= 0, 1, -1).astype(np.int8)


# ---------------------------------------------------------------------------
# one-vs-all multiclass reduction
# ---------------------------------------------------------------------------

@dataclass
class OneVsAllResult:
    models: List[LabelModelParameters]
    jtree: JunctionTree
    class_probs: np.ndarray  # n x k, rows sum to 1

    def argmax_class(self) -> np.ndarray:
        """Most probable class per row, 1-based."""
        return np.argmax(self.class_probs, axis=1) + 1


def reduce_one_vs_rest(votes_multi: np.ndarray, cls: int) -> LabelMatrix:
    """Map class ``cls`` votes to +1, other class votes to -1, abstains stay 0."""
    v = np.asarray(votes_multi)
    out = np.where(v == cls, 1, np.where(v == 0, 0, -1)).astype(np.int8)
    return LabelMatrix(out)


def one_vs_all(votes_multi: np.ndarray, g: DependencyGraph,
               class_priors: Sequence[float],
               cfg: RunConfig = RunConfig()) -> OneVsAllResult:
    """k binary fits, one class against the rest, fused by renormalizing the
    per-class positive posteriors across classes.

    ``votes_multi`` holds integer class votes 1..k with 0 meaning abstain;
    only single-task graphs are supported. The per-row renormalization is a
    pragmatic fusion choice, not the only possible one.
    """
    from .recovery import recover_parameters  # deferred to avoid an import cycle

    if g.n_tasks != 1:
        raise ShapeMismatch("the one-vs-all reduction supports a single task")
    v = np.asarray(votes_multi)
    k = len(class_priors)
    if k < 2:
        raise ValueError("need at least two classes")
    present = set(np.unique(v)) - {0}
    if not present <= set(range(1, k + 1)):
        raise ValueError(f"votes contain labels outside 1..{k}")
    for c in range(1, k + 1):
        if c not in present:
            raise DegenerateClass(f"class {c} never receives a vote")

    priors = np.asarray(class_priors, dtype=np.float64)
    models = []
    cols = []
    jtree = None
    for c in range(1, k + 1):
        Lc = reduce_one_vs_rest(v, c)
        prior_c = ClassPrior.from_balance(float(priors[c - 1]))
        mu = recover_parameters(Lc, g, prior_c, cfg)
        jtree = mu.jtree
        post = predict_proba(Lc, mu, jtree, prior_c)
        models.append(mu)
        cols.append(post.probs[:, 0])
    raw = np.stack(cols, axis=1)
    totals = raw.sum(axis=1, keepdims=True)
    flat = totals[:, 0] <= 0.0
    if np.any(flat):
        raw[flat] = priors
        totals[flat] = priors.sum()
    return OneVsAllResult(models=models, jtree=jtree, class_probs=raw / totals)
