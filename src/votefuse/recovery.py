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
count, the source pairs whose abstain-conditioned accuracies they need, and
the gather indices. A fit is then one pass over every clique size at once.
``clique_rhs`` computes each right-hand-side quantity once per source or
source pair, as a vector, and gathers the flat right-hand side of all cliques
from them in one step; ``solve_cliques`` clamps it into [0, 1] at once, takes
one product with A_s^{-1} per clique size, and gathers every renormalised
table into the parameter vector in one step; only its range check reads
each clique's extremes in Python. One more gather sums the separators.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .augment import augment_graph, augment_matrix
from .config import RunConfig
from .errors import EstimationWarning, NoUsableTriplet, NumericalInstability
from .graph import (
    ClassPrior,
    DependencyGraph,
    JunctionTree,
    LabelMatrix,
    LabelModelParameters,
    TableLayout,
    VarSet,
    _clip,
    _freeze,
    build_junction_tree,
    validate_graph,
)
from .moments import (
    EPS_ACC,
    Accuracies,
    MomentEstimates,
    TripletPlan,
    abstain_shortfall,
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

# Every right-hand-side entry is read from one vector of per-source and
# per-pair quantities: a leading 1, then one block of m entries per
# _SOURCE_COLUMNS name, then one block per _PAIR_COLUMNS name with an entry
# per two-source clique. Per source i: P(Y = 1), P(i = +1), P(i * Y = 1),
# P(i = 0) and P(i = 0) * P(Y = 1); per pair (i, j): P(i = j != 0),
# P(i * j * Y = 1), P(i = 0, j = +1), P(i = 0, j * Y = 1), P(i = +1, j = 0),
# P(j = 0, i * Y = 1), P(i = j = 0) and P(i = j = 0) * P(Y = 1).
_SOURCE_COLUMNS = ("p_y", "p_vote", "p_one", "z", "z_p_y")
_PAIR_COLUMNS = ("agree", "p_one", "z0_pos", "z0_cond", "pos_z0", "cond_z0",
                 "z", "z_p_y")
# r_C per clique size: entry "1", or (member, column) with member 0 or 1 the
# clique's first or second source and "pair" its pair entry
_RHS_ROWS = {
    1: ("1", (0, "p_y"), (0, "p_vote"), (0, "p_one"), (0, "z"), (0, "z_p_y")),
    2: ("1", (0, "p_y"), (0, "p_vote"), (0, "p_one"), (0, "z"), (0, "z_p_y"),
        (1, "p_vote"), (1, "p_one"), ("pair", "agree"), ("pair", "p_one"),
        ("pair", "z0_pos"), ("pair", "z0_cond"), (1, "z"), (1, "z_p_y"),
        ("pair", "pos_z0"), ("pair", "cond_z0"), ("pair", "z"), ("pair", "z_p_y")),
}
_ONE = np.ones(1)


@dataclass(frozen=True)
class CliqueGroup:
    """The source cliques with ``T.s`` sources, in junction-tree order. Their
    right-hand sides, and their solutions, are the ``span`` of the flat
    vector: a (2 * 3^s) x k block, one column per clique, row-major; they are
    the ``cols`` of the per-clique summaries."""

    T: TransformPair
    span: slice
    cols: slice


@dataclass(frozen=True)
class CompiledCliques:
    """The part of clique recovery that depends on the junction tree only.

    ``groups`` holds the source cliques by source count; ``cliques`` and
    ``labels`` list them in tree order, and ``order[k]`` is the position of
    the k-th of them in the groups' concatenation. ``task[i]`` is source i's
    task. ``pairs`` lists the two-source cliques' sources in group order
    (``pair_sources`` as a 2 x k array, ``pair_task`` their tasks and
    ``pair_moments`` the flat index of each one's E[v_i v_j] in the 2m x 2m
    moments) and ``cond_pairs`` the (target, conditioning source) pairs whose
    abstain-conditioned accuracy they need, (j, i) then (i, j) for each.
    ``rhs_index`` gathers the flat right-hand side from the quantity vector
    of ``clique_rhs``; ``table_index`` gathers every clique's table, in tree
    order and table axis order, from the flat solution, into the entries
    ``slots`` of the tree's ``layout``; ``owner`` names each one's clique by
    its position in the groups, and each clique's entries start at ``starts``.
    ``priors`` lists the (span, tasks) of every table without sources: the
    prior's marginal over those tasks.
    """

    groups: Tuple[CliqueGroup, ...]
    cliques: Tuple[VarSet, ...]
    labels: Tuple[str, ...]
    order: Tuple[int, ...]
    task: np.ndarray
    pairs: Tuple[Tuple[int, int], ...]
    pair_sources: np.ndarray
    pair_task: np.ndarray
    pair_moments: np.ndarray
    cond_pairs: Tuple[Tuple[int, int], ...]
    rhs_index: np.ndarray
    table_index: np.ndarray
    slots: np.ndarray
    owner: np.ndarray
    starts: np.ndarray
    priors: Tuple[Tuple[slice, Tuple[int, ...]], ...]
    layout: TableLayout


def compile_cliques(jtree: JunctionTree) -> CompiledCliques:
    """Compile the clique recovery of ``jtree`` and cache it on the tree.
    Its source cliques have one or two sources: ``build_junction_tree``
    rejects any other shape, and every source lies in one of them."""
    source = jtree.source_cliques()
    m = 1 + max((i for c in source for i in c.sources), default=-1)
    task = np.zeros(m, dtype=np.intp)
    for c in source:
        task[list(c.sources)] = c.tasks[0]
    members = {s: tuple(c for c in source if len(c.sources) == s) for s in (1, 2)}
    pairs = tuple(c.sources for c in members[2])
    pair_row = {p: q for q, p in enumerate(pairs)}

    def entry(clique, spec):
        if spec == "1":
            return 0
        who, column = spec
        if who == "pair":
            return (1 + len(_SOURCE_COLUMNS) * m
                    + len(pairs) * _PAIR_COLUMNS.index(column) + pair_row[clique.sources])
        return 1 + m * _SOURCE_COLUMNS.index(column) + clique.sources[who]

    groups, rhs_index, position, table_index = [], [], {}, {}
    size = 0
    for s, cliques in members.items():
        if not cliques:
            continue
        T = build_transform(s)
        k, rows = len(cliques), len(T.A)
        groups.append(CliqueGroup(T=T, span=slice(size, size + rows * k),
                                  cols=slice(len(position), len(position) + k)))
        rhs_index += [entry(c, spec) for spec in _RHS_ROWS[s] for c in cliques]
        # entry e of a table is row row_of[e] of its clique's solution column
        row_of = mu_unflatten(np.arange(rows), s)
        for p, c in enumerate(cliques):
            position[c] = len(position)
            table_index[c] = size + row_of * k + p
        size += rows * k
    pair_sources = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    layout = jtree.layout
    spans = [f.span for f in layout.factors[:layout.n_cliques] if f.vs.sources]
    sizes = [sp.stop - sp.start for sp in spans]
    compiled = CompiledCliques(
        groups=tuple(groups),
        cliques=source,
        labels=tuple(c.label() for c in source),
        order=tuple(position[c] for c in source),
        task=task,
        pairs=pairs,
        pair_sources=pair_sources,
        pair_task=task.take(pair_sources[0]),
        pair_moments=2 * pair_sources[0] * 2 * m + 2 * pair_sources[1],
        cond_pairs=tuple(p for i, j in pairs for p in ((j, i), (i, j))),
        rhs_index=np.array(rhs_index, dtype=np.intp),
        table_index=np.array([e for c in source for e in table_index[c].ravel().tolist()],
                             dtype=np.intp),
        slots=np.array([e for sp in spans for e in range(sp.start, sp.stop)], dtype=np.intp),
        owner=np.repeat(np.array([position[c] for c in source], dtype=np.intp), sizes),
        starts=np.cumsum([0] + sizes, dtype=np.intp)[:-1],
        priors=tuple((f.span, f.vs.tasks) for f in layout.factors if not f.vs.sources),
        layout=layout,
    )
    jtree.__dict__["_compiled_cliques"] = compiled
    return compiled


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def clique_expectations(compiled: CompiledCliques, acc: np.ndarray, M: np.ndarray,
                        means: np.ndarray) -> np.ndarray:
    """E[vote * task] for every source, its accuracy read from ``acc`` per
    column, then for every two-source clique (in ``compiled.pairs`` order)
    E[v_i v_j * task], which splits as E[v_i v_j] * E[Y] by the even-parity
    independence of the pair product from the task; ``means[d]`` is E[Y_d].
    Clipped to [-1, 1]."""
    pair = M.take(compiled.pair_moments) * means.take(compiled.pair_task)
    return _clip(np.concatenate((acc[0::2], pair)), -1.0, 1.0)


@functools.lru_cache(maxsize=None)
def _pair_cells(tracked: Tuple[Tuple[int, int], ...], wanted: Tuple[Tuple[int, int], ...]):
    """The flat index of each ``wanted`` pair's nine cross-tab cells among
    the ``tracked`` pairs'; an untracked pair is a KeyError."""
    rows = dict(zip(tracked, range(len(tracked))))
    rows = 9 * np.array([rows[p] for p in wanted], dtype=np.intp)
    return _freeze(np.add.outer(rows, np.arange(9)))


def clique_rhs(compiled: CompiledCliques, acc: np.ndarray, moments: MomentEstimates,
               cond: np.ndarray, means: np.ndarray) -> np.ndarray:
    """The right-hand sides r_C of every source clique before clamping, as
    the flat vector of ``CompiledCliques``: each group's block holds a
    column per clique.

    Unobservable entries decompose into clique expectations, abstain rates,
    the prior, and (for pairs) the accuracies ``cond`` conditioned on the
    partner abstaining, ordered as ``CompiledCliques.cond_pairs``;
    everything else is read straight off the vote statistics. Each quantity
    is computed once per source or pair, as a vector, and gathered.
    """
    m = len(compiled.task)
    p_y = (0.5 * (1.0 + means))[compiled.task]
    p_vote, z = moments.vote_marginals.T[:2]                   # P(+1), P(abstain)
    # each pair's cross-tab; a pair the moments do not track is a KeyError
    pair = moments.pair_cells.take(_pair_cells(moments.pairs, compiled.pairs))
    z_pair, z_ij = z[compiled.pair_sources], pair[:, 4]        # cell 3a + b: a = i's state
    # P(product * task = 1) for each source, then each pair: from its
    # expectation and P(product = 0), the abstain rate, or for a pair
    # P(either abstains)
    p_one = clique_expectations(compiled, acc, moments.M, means) + 1.0
    p_one -= np.concatenate((z, z_pair[0] + z_pair[1] - z_ij))
    p_one *= 0.5
    # P(i = 0, j * Y = 1) and P(j = 0, i * Y = 1) per pair, from
    # E[j Y | i = 0] and E[i Y | j = 0]
    z0_cond, cond_z0 = 0.5 * (z_pair + cond.reshape(-1, 2).T * z_pair - z_ij)
    # in _SOURCE_COLUMNS, then _PAIR_COLUMNS order
    return np.concatenate((
        _ONE, p_y, p_vote, p_one[:m], z, z * p_y,
        pair[:, 0] + pair[:, 8], p_one[m:], pair[:, 3], z0_cond, pair[:, 1], cond_z0,
        z_ij, z_ij * p_y[compiled.pair_sources[0]],
    )).take(compiled.rhs_index)


# ---------------------------------------------------------------------------
# marginal solve
# ---------------------------------------------------------------------------

def solve_cliques(compiled: CompiledCliques, rhs: np.ndarray) -> Tuple[
        np.ndarray, Dict[str, float], Dict[str, float]]:
    """Solve every source clique from the flat right-hand side ``rhs``: clamp
    r into [0, 1], mu = A_s^{-1} r with one product per group, clip negative
    entries and renormalise.

    Returns a parameter vector holding the source tables (other entries
    unset), then the largest clip of each raw solution and the largest clamp
    of each r by clique label, in tree order. Raises
    NumericalInstability naming the first clique in tree order whose raw
    solution leaves [-INSTABILITY, 1 + INSTABILITY] or has no mass.
    """
    clamped = _clip(rhs, 0.0, 1.0)
    # rows: mu, -mu and each r's clamp; one gather and one maximum per clique
    work = np.empty((3, len(rhs)))
    mu = work[0]
    total = np.empty(len(compiled.cliques))  # in group order
    for grp in compiled.groups:
        shape = (len(grp.T.A), -1)
        sol = mu[grp.span].reshape(shape)
        np.matmul(grp.T.A_inv, clamped[grp.span].reshape(shape), out=sol)
        np.add.reduce(np.maximum(sol, 0.0), axis=0, out=total[grp.cols])
    np.negative(mu, out=work[1])
    np.abs(np.subtract(rhs, clamped, out=work[2]), out=work[2])
    entries = work.take(compiled.table_index, axis=1)  # in tree order
    hi, neg_lo, clamp = np.maximum.reduceat(entries, compiled.starts, axis=1).tolist()
    mass, clip = total.tolist(), {}
    for label, top, low, k in zip(compiled.labels, hi, neg_lo, compiled.order):
        # a NaN total comes with NaN extremes, so a clique with either fails
        in_range = low <= INSTABILITY and top <= 1.0 + INSTABILITY
        if not (in_range and mass[k] > 0.0):
            what = "has no mass" if in_range else f"solved to range [{-low:.4f}, {top:.4f}]"
            raise NumericalInstability(f"marginal for {label} {what} (clique {label})")
        # max(0, -min, max - 1), as np.maximum picks
        worst = low if low >= top - 1.0 else top - 1.0
        clip[label] = worst if worst > 0.0 else 0.0
    table = np.empty(compiled.layout.size)
    table[compiled.slots] = np.maximum(entries[0], 0.0) / total.take(compiled.owner)
    return table, clip, dict(zip(compiled.labels, clamp))


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
                            acc: Accuracies, cfg: RunConfig,
                            diag: RecoveryDiagnostics) -> np.ndarray:
    """E[lambda_t Y | lambda_c = 0] for every (t, c) in ``pairs``; the
    unconditional accuracy stands in, recorded in ``diag``, where c abstains
    on too few rows (by count, before any fit) or no triplet is usable."""
    hints = acc.values.tolist()
    abstain_rates = moments.abstain_rates.tolist()
    out = []
    for target, cond in pairs:
        hint = hints[2 * target]
        if abstain_rates[cond] == 0.0:
            # every entry using this value carries a P(cond abstains) = 0
            # factor, so the substitution is exact and not worth recording
            out.append(hint)
            continue
        reason = abstain_shortfall(cond, moments)
        if reason is None:
            try:
                out.append(conditional_accuracy_from_stats(
                    target, cond, moments, plan, cfg, sign_hint=hint))
                continue
            except NoUsableTriplet as exc:
                reason = str(exc)
        out.append(hint)
        diag.conditional_substitutions.append(
            {"target": target + 1, "cond": cond + 1, "reason": reason})
    return np.array(out)


def recover_from_moments(moments: MomentEstimates, g: DependencyGraph,
                         cfg: RunConfig = RunConfig(),
                         jtree: Optional[JunctionTree] = None,
                         plan: Optional[TripletPlan] = None,
                         acc: Optional[Accuracies] = None) -> LabelModelParameters:
    """Recover every clique and separator table from moment estimates.

    This is the shared back half of the pipeline: the batch entry point feeds
    it empirical moments, the streaming estimator feeds it windowed moments,
    and the closure tests feed it exact enumerated moments. Substituted
    abstain-conditioned accuracies are recorded in the diagnostics
    (``conditional_substitutions``), as are floored accuracies and sign
    ties; ``recover_parameters`` also warns of each.
    """
    prior = moments.prior
    if jtree is None:
        jtree = build_junction_tree(g)
    if plan is None:
        plan = enumerate_triplets(augment_graph(g), cfg)
    if acc is None:
        acc = estimate_accuracies(moments, plan, cfg)
    compiled = jtree.__dict__.get("_compiled_cliques") or compile_cliques(jtree)

    diag = RecoveryDiagnostics(
        partner_pairs=acc.diagnostics.get("partner_pairs", {}),
        sign=acc.diagnostics.get("sign", {}),
        ratio_fallback_sources=acc.diagnostics.get("ratio_fallback_sources", []),
        floored_columns=acc.diagnostics.get("floored_columns", []),
    )

    cond = _conditional_accuracies(compiled.cond_pairs, moments, plan, acc, cfg, diag)
    rhs = clique_rhs(compiled, acc.values, moments, cond, prior.means)
    table, diag.clip_magnitudes, diag.rhs_clamps = solve_cliques(compiled, rhs)
    for span, tasks in compiled.priors:
        table[span] = prior.table(tasks).reshape(-1)
    layout = compiled.layout
    if layout.host.size:
        table[layout.host] = np.add.reduce(table[layout.marginal], axis=1)
    return LabelModelParameters(graph=g, jtree=jtree, table=table, diagnostics=diag)


def recover_parameters(L: LabelMatrix, g: DependencyGraph, prior: ClassPrior,
                       cfg: RunConfig = RunConfig()) -> LabelModelParameters:
    """End-to-end batch fit: augment, estimate moments, recover accuracies,
    and solve every clique and separator marginal. Warns (EstimationWarning)
    of what the diagnostics record: each sign tie, the floored accuracies
    and each abstain-conditioned accuracy it had to substitute. The triplet
    plan is built first, so a graph without a triplet fails before any row
    is read."""
    L.require_fit_shape(allow_small=cfg.ratio_fallback)
    g = validate_graph(g)
    cfg.check_sources(g.n_sources)
    jtree = build_junction_tree(g)
    G = augment_graph(g)
    plan = enumerate_triplets(G, cfg)
    moments = estimate_moments(augment_matrix(L, cfg.policy), prior, G)
    mu = recover_from_moments(moments, g, cfg, jtree=jtree, plan=plan)
    diag = mu.diagnostics
    for col in diag.sign.get("sign_ties", []):
        warnings.warn(
            f"sign tie for task {g.assignment[col // 2] + 1}: accuracy sum is zero "
            f"under both flips; defaulting to positive",
            EstimationWarning,
        )
    if diag.floored_columns:
        warnings.warn(
            f"accuracy magnitude clamped to the {EPS_ACC} floor for columns "
            f"{diag.floored_columns}; these sources look uninformative",
            EstimationWarning,
        )
    for sub in diag.conditional_substitutions:
        warnings.warn(
            f"substituting the unconditional accuracy of source {sub['target']} "
            f"for its abstain-conditioned value: {sub['reason']}",
            EstimationWarning,
        )
    return mu
