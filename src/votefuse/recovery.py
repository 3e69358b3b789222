"""From accuracies and observable statistics to marginal probability tables.

Each clique of one task and s sources yields a 2*3^s linear system A_s mu = r:
mu is the clique marginal in a fixed positional order (task alternates
fastest with states +1,-1; the i-th source alternates among vote +1, 0, -1 in
blocks of 2*3^(i-1)), and r collects probabilities of product events,
r(U, Z) = P(prod_{z in Z} z = 1, z_j = 0 for z_j in U), in the matching
order (per source: absent, then in Z, then in U; the task alternates between
absent and in Z). A_s and the companion B_s (same events with product = -1)
are built by a Kronecker recursion from 2x2 bases, and A_s is invertible, so
the marginal is a single solve.

What depends on the junction tree alone is compiled once per tree by
``compile_cliques`` and cached on it: the source cliques grouped by source
count, with the columns, vote marginals and cross-tabs each one reads, the
source pairs whose abstain-conditioned accuracies they need, and each
separator's host clique. A fit is then a batched solve: per clique size, one
right-hand-side matrix with a row per clique, one clamp into [0, 1], one
product with A_s^{-1} and one clip-and-renormalise, with no Python per
clique.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .augment import AugmentedGraph, augment_graph, augment_matrix
from .config import RunConfig
from .errors import EstimationWarning, NoUsableTriplet, NumericalInstability, TooFewAbstainRows
from .graph import (
    ClassPrior,
    DependencyGraph,
    JunctionTree,
    LabelMatrix,
    LabelModelParameters,
    VarSet,
    build_junction_tree,
    marginalize_table,
    validate_graph,
)
from .moments import (
    Accuracies,
    MomentEstimates,
    TripletPlan,
    conditional_accuracy_from_stats,
    enumerate_triplets,
    estimate_accuracies,
    estimate_moments,
)

# ---------------------------------------------------------------------------
# the linear transform
# ---------------------------------------------------------------------------

A0 = np.array([[1.0, 1.0],
               [1.0, 0.0]])
B0 = np.array([[0.0, 0.0],
               [0.0, 1.0]])
DBLOCK = np.array([[1.0, 1.0, 1.0],
                   [1.0, 0.0, 0.0],
                   [0.0, 1.0, 0.0]])
EBLOCK = np.array([[0.0, 0.0, 0.0],
                   [0.0, 0.0, 1.0],
                   [0.0, 0.0, 0.0]])


@dataclass(frozen=True)
class TransformPair:
    """A_s and B_s for cliques of s sources, with A_s factor cached."""

    s: int
    A: np.ndarray
    B: np.ndarray
    A_inv: np.ndarray


_transform_cache: Dict[int, TransformPair] = {}


def build_transform(s: int) -> TransformPair:
    """Kronecker recursion A_s = D (x) A_{s-1} + E (x) B_{s-1} (B_s mirrored)."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    if s in _transform_cache:
        return _transform_cache[s]
    A, B = A0, B0
    for _ in range(s):
        A, B = (np.kron(DBLOCK, A) + np.kron(EBLOCK, B),
                np.kron(EBLOCK, A) + np.kron(DBLOCK, B))
    pair = TransformPair(s=s, A=A, B=B, A_inv=np.linalg.inv(A))
    _transform_cache[s] = pair
    return pair


def mu_flatten(table: np.ndarray) -> np.ndarray:
    """Clique table (axes task, src_1, ..., src_s) -> transform-order vector."""
    order = tuple(range(table.ndim - 1, -1, -1))
    return np.ascontiguousarray(np.transpose(table, order)).reshape(-1)


def mu_unflatten(flat: np.ndarray, s: int) -> np.ndarray:
    """Transform-order vectors (the last axis) -> clique tables; leading axes
    are kept, so a stack of vectors becomes a stack of tables."""
    lead = flat.ndim - 1
    arr = flat.reshape(flat.shape[:-1] + (3,) * s + (2,))
    order = tuple(range(lead)) + tuple(range(arr.ndim - 1, lead - 1, -1))
    return np.ascontiguousarray(np.transpose(arr, order))


# ---------------------------------------------------------------------------
# the compiled junction tree
# ---------------------------------------------------------------------------

# a raw solution outside [-INSTABILITY, 1 + INSTABILITY] is rejected
INSTABILITY = 0.05


@dataclass(frozen=True)
class CliqueGroup:
    """The source cliques with ``T.s`` sources, in junction-tree order:
    ``tasks[k]`` is clique k's task, ``cols[t, k]`` the vote-tracking column
    of its t-th source (ascending) and, for two sources, ``pairs[k]`` its
    cross-tab key."""

    T: TransformPair
    cliques: Tuple[VarSet, ...]
    tasks: np.ndarray
    cols: np.ndarray
    pairs: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class CompiledCliques:
    """The part of clique recovery that depends on the junction tree only.

    ``groups`` holds the source cliques by source count; ``cliques`` and
    ``labels`` list them in tree order, and ``order[k]`` is the position of
    the k-th of them in the groups' concatenation. ``cond_pairs`` lists the
    (target, conditioning source) pairs whose abstain-conditioned accuracy
    the two-source cliques need, (j, i) then (i, j) for each, and
    ``separators`` pairs every separator with the clique it is marginalised
    from (None for task-only separators).
    """

    groups: Tuple[CliqueGroup, ...]
    cliques: Tuple[VarSet, ...]
    labels: Tuple[str, ...]
    order: np.ndarray
    cond_pairs: Tuple[Tuple[int, int], ...]
    separators: Tuple[Tuple[VarSet, Optional[VarSet]], ...]


def compile_cliques(jtree: JunctionTree) -> CompiledCliques:
    """Compile the clique recovery of ``jtree`` and cache it on the tree.
    Its source cliques have one or two sources: ``build_junction_tree``
    rejects any other shape."""
    source = jtree.source_cliques()
    groups = []
    for s in (1, 2):
        members = tuple(c for c in source if len(c.sources) == s)
        if members:
            groups.append(CliqueGroup(
                T=build_transform(s), cliques=members,
                tasks=np.array([c.tasks[0] for c in members]),
                cols=2 * np.array([c.sources for c in members]).T,
                pairs=tuple(c.sources for c in members) if s == 2 else ()))
    position = {c: k for k, c in enumerate(c for grp in groups for c in grp.cliques)}
    pairs = [c.sources for c in source if len(c.sources) == 2]
    compiled = CompiledCliques(
        groups=tuple(groups),
        cliques=source,
        labels=tuple(c.label() for c in source),
        order=np.array([position[c] for c in source], dtype=np.intp),
        cond_pairs=tuple(p for i, j in pairs for p in ((j, i), (i, j))),
        separators=tuple(
            (sep, next(c for c in jtree.cliques if sep <= c and c.sources)
             if sep.sources else None)
            for sep, _deg in jtree.separators),
    )
    jtree.__dict__["_compiled_cliques"] = compiled
    return compiled


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def clique_expectations(grp: CliqueGroup, acc: np.ndarray, M: np.ndarray,
                        means: np.ndarray) -> np.ndarray:
    """E[vote * task] for each source of ``grp``'s cliques, one row per
    source: its accuracy, from ``acc`` per column. For two sources a third
    row holds E[v_i v_j * task], which splits as E[v_i v_j] * E[Y] by the
    even-parity independence of the pair product from the task; ``means[d]``
    is E[Y_d]. Clipped to [-1, 1]."""
    value = acc[grp.cols]
    if grp.T.s == 2:
        value = np.vstack([value, M[grp.cols[0], grp.cols[1]] * means[grp.tasks]])
    return np.clip(value, -1.0, 1.0)


def clique_rhs(grp: CliqueGroup, acc: np.ndarray, moments: MomentEstimates,
               cond: np.ndarray, means: np.ndarray) -> np.ndarray:
    """The right-hand sides r_C of ``grp``'s cliques before clamping, one
    column per clique.

    Unobservable entries decompose into clique expectations, abstain rates,
    the prior, and (for pairs) the accuracies ``cond`` conditioned on the
    partner abstaining, ordered as ``CompiledCliques.cond_pairs``;
    everything else is read straight off the vote statistics.
    """
    p_y = 0.5 * (1.0 + means[grp.tasks])
    p_vote, z = moments.vote_marginals.T[:2, grp.cols // 2]   # P(+1), P(abstain)
    zero = z                                                   # P(product = 0)
    if grp.T.s == 2:
        # (i's state, j's state, clique)
        pair = np.array([moments.pair_tables[p] for p in grp.pairs]).transpose(1, 2, 0)
        z_ij = pair[1, 1]
        zero = np.vstack([z, z[0] + z[1] - z_ij])
    # P(product * task = 1) for each source and, in row 2, the pair
    p_one = 0.5 * (clique_expectations(grp, acc, moments.M, means) + 1.0 - zero)
    rows = [np.ones_like(p_y), p_y, p_vote[0], p_one[0], z[0], z[0] * p_y]
    if grp.T.s == 2:
        e_j, e_i = cond.reshape(-1, 2).T                       # E[j Y | i = 0], E[i Y | j = 0]
        rows += [
            p_vote[1], p_one[1], pair[0, 0] + pair[2, 2], p_one[2],
            pair[1, 0], 0.5 * (z[0] + e_j * z[0] - z_ij),      # P(i = 0, j = +1), ...
            z[1], z[1] * p_y,
            pair[0, 1], 0.5 * (z[1] + e_i * z[1] - z_ij),      # P(i = +1, j = 0), ...
            z_ij, z_ij * p_y,
        ]
    return np.array(rows)


# ---------------------------------------------------------------------------
# marginal solve
# ---------------------------------------------------------------------------

def solve_cliques(compiled: CompiledCliques, rhs) -> Tuple[
        Dict[VarSet, np.ndarray], Dict[str, float], Dict[str, float]]:
    """Solve every source clique from its right-hand side, one matrix per
    group of ``compiled`` with a column per clique: clamp r into [0, 1],
    mu = A_s^{-1} r, clip negative entries and renormalise.

    Returns the tables, then the largest clip of each raw solution and the
    largest clamp of each r by clique label, all in tree order. Raises
    NumericalInstability naming the first clique in tree order whose raw
    solution leaves [-INSTABILITY, 1 + INSTABILITY] or has no mass.
    """
    if not compiled.groups:
        return {}, {}, {}
    sols, lo, hi, total, clamp = [], [], [], [], []
    for grp, R in zip(compiled.groups, rhs):
        clamped = np.clip(R, 0.0, 1.0)
        clamp.append(np.abs(R - clamped).max(axis=0))
        mu = grp.T.A_inv @ clamped
        lo.append(mu.min(axis=0))
        hi.append(mu.max(axis=0))
        np.maximum(mu, 0.0, out=mu)
        total.append(mu.sum(axis=0))
        sols.append(mu)
    order = compiled.order
    lo, hi, clamp = (np.concatenate(x)[order] for x in (lo, hi, clamp))
    in_range = (lo >= -INSTABILITY) & (hi <= 1.0 + INSTABILITY)
    if not in_range.all() or min(t.min() for t in total) <= 0.0:
        k = int(np.argmax(~in_range | (np.concatenate(total)[order] <= 0.0)))
        label = compiled.labels[k]
        what = ("has no mass" if in_range[k]
                else f"solved to range [{lo[k]:.4f}, {hi[k]:.4f}]")
        raise NumericalInstability(f"marginal for {label} {what} (clique {label})")
    tables = []
    for grp, mu, t in zip(compiled.groups, sols, total):
        mu /= t
        tables.extend(mu_unflatten(mu.T, grp.T.s))
    clip = np.maximum(0.0, np.maximum(-lo, hi - 1.0))
    return ({c: tables[k] for c, k in zip(compiled.cliques, order.tolist())},
            dict(zip(compiled.labels, clip.tolist())),
            dict(zip(compiled.labels, clamp.tolist())))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

@dataclass
class RecoveryDiagnostics:
    partner_pairs: Dict[int, int] = field(default_factory=dict)
    sign: dict = field(default_factory=dict)
    ratio_fallback_sources: list = field(default_factory=list)
    floored_columns: list = field(default_factory=list)
    conditional_substitutions: list = field(default_factory=list)
    clip_magnitudes: Dict[str, float] = field(default_factory=dict)
    rhs_clamps: Dict[str, float] = field(default_factory=dict)
    stale: bool = False

    def max_clip(self) -> float:
        return max(self.clip_magnitudes.values(), default=0.0)

    def report(self) -> str:
        lines = ["recovery diagnostics"]
        pairs = list(self.partner_pairs.values())
        if pairs:
            lines.append(f"  valid partner pairs per column: min {min(pairs)}, "
                         f"max {max(pairs)}, columns {len(pairs)}")
        if self.ratio_fallback_sources:
            lines.append(f"  ratio fallback for sources: "
                         f"{[s + 1 for s in self.ratio_fallback_sources]}")
        if self.floored_columns:
            lines.append(f"  accuracy floor hit for columns: {self.floored_columns}")
        if self.sign.get("sign_ties"):
            lines.append(f"  sign ties: {self.sign['sign_ties']}")
        if self.conditional_substitutions:
            lines.append(f"  conditional accuracies substituted: "
                         f"{self.conditional_substitutions}")
        lines.append(f"  max marginal clip magnitude: {self.max_clip():.3g}")
        big = {k: v for k, v in self.rhs_clamps.items() if v > 0}
        if big:
            lines.append(f"  right-hand-side clamps: {big}")
        if self.stale:
            lines.append("  parameters are stale (reused from a previous step)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# full recovery
# ---------------------------------------------------------------------------

def _conditional_accuracies(pairs: Tuple[Tuple[int, int], ...],
                            moments: MomentEstimates, plan: TripletPlan,
                            G: AugmentedGraph, acc: Accuracies, cfg: RunConfig,
                            diag: RecoveryDiagnostics) -> np.ndarray:
    """E[lambda_t Y | lambda_c = 0] for every (t, c) in ``pairs``;
    substitutes the unconditional accuracy when the restricted estimate is
    unavailable."""
    out = np.empty(len(pairs))
    for k, (target, cond) in enumerate(pairs):
        hint = float(acc.values[2 * target])
        if moments.abstain_rates[cond] == 0.0:
            # every entry using this value carries a P(cond abstains) = 0
            # factor, so the substitution is exact and not worth a warning
            out[k] = hint
            continue
        try:
            out[k] = conditional_accuracy_from_stats(
                target, cond, moments, plan, G, cfg, sign_hint=hint)
        except (TooFewAbstainRows, NoUsableTriplet) as exc:
            out[k] = hint
            diag.conditional_substitutions.append(
                {"target": target + 1, "cond": cond + 1, "reason": str(exc)})
            warnings.warn(
                f"substituting the unconditional accuracy of source "
                f"{target + 1} for its abstain-conditioned value: {exc}",
                EstimationWarning,
            )
    return out


def recover_from_moments(moments: MomentEstimates, g: DependencyGraph,
                         cfg: RunConfig = RunConfig(),
                         jtree: Optional[JunctionTree] = None,
                         G: Optional[AugmentedGraph] = None,
                         plan: Optional[TripletPlan] = None,
                         acc: Optional[Accuracies] = None) -> LabelModelParameters:
    """Recover every clique and separator table from moment estimates.

    This is the shared back half of the pipeline: the batch entry point feeds
    it empirical moments, the streaming estimator feeds it windowed moments,
    and the closure tests feed it exact enumerated moments.
    """
    prior = moments.prior
    if jtree is None:
        jtree = build_junction_tree(g)
    if G is None:
        G = augment_graph(g)
    if plan is None:
        plan = enumerate_triplets(G, cfg)
    if acc is None:
        acc = estimate_accuracies(moments, plan, G, cfg)
    compiled = jtree.__dict__.get("_compiled_cliques") or compile_cliques(jtree)

    diag = RecoveryDiagnostics(
        partner_pairs=acc.diagnostics.get("partner_pairs", {}),
        sign=acc.diagnostics.get("sign", {}),
        ratio_fallback_sources=acc.diagnostics.get("ratio_fallback_sources", []),
        floored_columns=acc.diagnostics.get("floored_columns", []),
    )

    cond = _conditional_accuracies(compiled.cond_pairs, moments, plan, G, acc, cfg, diag)
    means = np.array([prior.task_mean(d) for d in range(g.n_tasks)])
    rhs = [clique_rhs(grp, acc.values, moments, cond, means) for grp in compiled.groups]
    tables, diag.clip_magnitudes, diag.rhs_clamps = solve_cliques(compiled, rhs)

    cliques = {c: tables[c] if c.sources else prior.table(c.tasks) for c in jtree.cliques}
    separators = {sep: prior.table(sep.tasks) if host is None
                  else marginalize_table(host, cliques[host], sep)
                  for sep, host in compiled.separators}
    return LabelModelParameters(graph=g, jtree=jtree, cliques=cliques,
                                separators=separators, diagnostics=diag)


def recover_parameters(L: LabelMatrix, g: DependencyGraph, prior: ClassPrior,
                       cfg: RunConfig = RunConfig()) -> LabelModelParameters:
    """End-to-end batch fit: augment, estimate moments, recover accuracies,
    and solve every clique and separator marginal."""
    L.require_fit_shape(allow_small=cfg.ratio_fallback)
    g = validate_graph(g)
    jtree = build_junction_tree(g)
    G = augment_graph(g)
    A = augment_matrix(L, cfg.policy)
    moments = estimate_moments(A, prior, G)
    return recover_from_moments(moments, g, cfg, jtree=jtree, G=G)
