"""Joint and posterior probabilities from recovered marginal tables.

The joint over (tasks, votes) is the junction-tree product: clique marginals
multiplied together, divided by each separator marginal raised to one less
than its adjacency degree. One kernel, ``_log_joint``, evaluates that product
in log space for a block of vote rows and all 2^D task configurations at once:

* each call turns every factor into a log table, ``log(clique)`` for a clique
  and ``-(deg - 1) * log(separator)`` for a separator;
* each factor's source axes are indexed by the rows' vote states
  (``1 - vote``), and the gathered values are added into a
  ``(2,) * D + (n,)`` log-joint, broadcast over the factor's task axes.

Zero-factor rule: a zero entry in any clique or separator table makes the
joint of the configurations it touches exactly zero (``-inf`` in log space;
a zero separator never turns into a division by zero). A row whose every
task configuration has zero joint raises :class:`AllZeroLikelihood`.
Posteriors are normalized per row after a max-shift. ``predict_proba``,
``posterior`` and ``joint_probability`` are views of the kernel on n rows,
one row and one entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .config import RunConfig
from .errors import (
    AllZeroLikelihood,
    DegenerateClass,
    ShapeMismatch,
)
from .graph import (
    ClassPrior,
    DependencyGraph,
    JunctionTree,
    LabelMatrix,
    LabelModelParameters,
    MAX_EXACT_TASKS,
    TASK_IDX,
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


def _log_joint(mu: LabelModelParameters, jt: JunctionTree,
               votes: np.ndarray) -> np.ndarray:
    """log P(Y = y, votes = row) for every task configuration y and row of the
    n x m int8 ``votes``, shape (2,)*D + (n,); zero joints read ``-inf``."""
    D, m = mu.graph.n_tasks, mu.graph.n_sources
    if votes.shape[1] != m:
        raise ShapeMismatch(f"matrix has {votes.shape[1]} sources, model expects {m}")
    if D > MAX_EXACT_TASKS:
        raise ShapeMismatch(f"exact enumeration caps at {MAX_EXACT_TASKS} tasks")
    with np.errstate(divide="ignore"):
        factors = [(vs, np.log(mu.cliques[vs])) for vs in jt.cliques]
        for sep, deg in jt.separators:
            tbl = mu.separators[sep]
            factors.append((sep, np.where(tbl > 0, (1 - deg) * np.log(tbl), -np.inf)))
    n = votes.shape[0]
    out = np.zeros((2,) * D + (n,))
    for vs, log_tbl in factors:
        # task axes broadcast into the log-joint; the source axes flatten to
        # one axis indexed by the rows' base-3 vote states
        log_tbl = log_tbl.reshape(
            tuple(2 if d in vs.tasks else 1 for d in range(D)) + (-1,))
        state = np.zeros(1, dtype=np.intp)
        for i in vs.sources:
            state = 3 * state + (1 - votes[:, i])
        out += np.take(log_tbl, state, axis=-1)
    return out


def _normalized(mu: LabelModelParameters, jt: JunctionTree, prior: ClassPrior,
                votes: np.ndarray) -> np.ndarray:
    """P(Y | row) for every row of ``votes``, shape (2,)*D + (n,)."""
    if prior.n_tasks != mu.graph.n_tasks:
        raise ShapeMismatch(
            f"prior covers {prior.n_tasks} tasks, model has {mu.graph.n_tasks}")
    log_joint = _log_joint(mu, jt, votes)
    flat = log_joint.reshape(2 ** mu.graph.n_tasks, votes.shape[0])
    peak = flat.max(axis=0)
    dead = ~np.isfinite(peak)
    if np.any(dead):
        r = int(np.argmax(dead))
        raise AllZeroLikelihood(
            f"every task configuration has zero probability for row {r} "
            f"(votes {tuple(int(v) for v in votes[r])})"
        )
    w = np.exp(flat - peak)
    w /= w.sum(axis=0)
    return w.reshape(log_joint.shape)


def _positives(w: np.ndarray) -> np.ndarray:
    """n x D matrix of P(Y_d = 1) from posteriors shaped (2,)*D + (n,)."""
    D, n = w.ndim - 1, w.shape[-1]
    return np.stack([w.take(0, axis=d).reshape(2 ** (D - 1), n).sum(axis=0)
                     for d in range(D)], axis=1)


def _row(lam: Sequence[int]) -> np.ndarray:
    return LabelMatrix(np.reshape(lam, (1, -1))).votes


def joint_probability(mu: LabelModelParameters, jt: JunctionTree,
                      y: Sequence[int], lam: Sequence[int]) -> float:
    """P(Y = y, votes = lam) via the junction-tree product.

    Zero when any clique or separator factor of (y, lam) is zero.
    """
    y_idx = tuple(TASK_IDX[int(v)] for v in y)
    return float(np.exp(_log_joint(mu, jt, _row(lam))[y_idx + (0,)]))


def posterior(mu: LabelModelParameters, jt: JunctionTree, prior: ClassPrior,
              lam: Sequence[int]) -> np.ndarray:
    """P(Y | votes) over {-1,+1}^D, returned as a table with axes (2,)*D.

    Exact enumeration over task configurations; the result sums to one. The
    prior argument is kept for interface symmetry (the tables already embed
    it) and only checked for shape.
    """
    return _normalized(mu, jt, prior, _row(lam))[..., 0]


def marginal_positives(post_table: np.ndarray) -> np.ndarray:
    """P(Y_d = 1) per task from a posterior table."""
    return _positives(post_table[..., np.newaxis])[0]


def predict_proba(L: LabelMatrix, mu: LabelModelParameters, jt: JunctionTree,
                  prior: ClassPrior) -> PosteriorLabels:
    """Row-wise posterior marginals P(Y_d = 1 | row); deterministic.

    One kernel pass over all rows: cost scales with the number of cliques
    and separators times 2^D * n, with no per-row Python work.
    """
    return PosteriorLabels(_positives(_normalized(mu, jt, prior, L.votes)))


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
