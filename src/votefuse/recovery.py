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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .augment import AugmentedGraph, augment_graph, augment_matrix
from .config import RunConfig
from .errors import (
    EstimationWarning,
    NoUsableTriplet,
    NumericalInstability,
    TooFewAbstainRows,
    UnsupportedCliqueSize,
)
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

    @property
    def size(self) -> int:
        return 2 * 3 ** self.s


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
    arr = flat.reshape((3,) * s + (2,))
    order = tuple(range(arr.ndim - 1, -1, -1))
    return np.ascontiguousarray(np.transpose(arr, order))


# ---------------------------------------------------------------------------
# clique expectations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliqueExpectation:
    """E[prod of member votes * task] for a clique of one or two sources."""

    clique: VarSet
    value: float

    def __post_init__(self):
        if abs(self.value) > 1 + 1e-9:
            raise ValueError("clique expectation must lie in [-1, 1]")


def clique_expectation(clique: VarSet, acc: Accuracies, M: MomentEstimates,
                       prior: ClassPrior) -> CliqueExpectation:
    """Single sources pass their accuracy through; a pair's product with the
    task splits as E[v_i v_j] * E[Y] by the even-parity independence of the
    pair product from the task."""
    srcs = clique.sources
    if len(srcs) == 1:
        value = float(acc.values[2 * srcs[0]])
    elif len(srcs) == 2:
        i, j = srcs
        value = float(M.M[2 * i, 2 * j] * prior.task_mean(clique.tasks[0]))
    else:
        raise UnsupportedCliqueSize(
            f"clique {clique.label()} has {len(srcs)} sources; supported sizes "
            f"are 1 and 2"
        )
    return CliqueExpectation(clique=clique, value=float(np.clip(value, -1.0, 1.0)))


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

@dataclass
class RhsVector:
    """Right-hand side r_C in the transform's positional order."""

    clique: VarSet
    entries: np.ndarray
    clamped: float = 0.0  # largest amount any entry was pulled back into [0, 1]

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.float64)
        lo, hi = float(np.min(e)), float(np.max(e))
        clamp = max(0.0, -lo, hi - 1.0)
        if clamp > 0:
            e = np.clip(e, 0.0, 1.0)
        self.entries = e
        self.clamped = clamp


def _p_vote_product_one(exp_value: float, p_zero: float) -> float:
    """P(product of votes * task = 1) from E[product * task] and P(product = 0)."""
    return 0.5 * (exp_value + 1.0 - p_zero)


def assemble_rhs(clique: VarSet, exps: Dict[VarSet, CliqueExpectation],
                 moments: MomentEstimates,
                 cond_acc: Dict[Tuple[int, int], float],
                 prior: ClassPrior) -> RhsVector:
    """Fill r_C for a clique of one task and one or two sources.

    Unobservable entries decompose into clique expectations, abstain rates,
    the prior, and (for pairs) accuracies conditioned on the partner
    abstaining; everything else is read straight off the vote statistics.
    """
    d = clique.tasks[0]
    p_y = prior.p_pos(d)
    srcs = clique.sources
    if len(srcs) == 1:
        i = srcs[0]
        z = float(moments.abstain_rates[i])
        a_i = exps[VarSet((d,), (i,))].value
        r = np.array([
            1.0,
            p_y,
            moments.p_vote(i, 1),
            _p_vote_product_one(a_i, z),
            z,
            z * p_y,
        ])
        return RhsVector(clique=clique, entries=r)

    if len(srcs) != 2:
        raise UnsupportedCliqueSize(
            f"cannot assemble a right-hand side for {clique.label()}"
        )
    i, j = srcs
    z_i = float(moments.abstain_rates[i])
    z_j = float(moments.abstain_rates[j])
    pair = moments.pair_table(i, j)  # rows: i in {+1,0,-1}, cols: j
    z_ij = float(pair[1, 1])
    a_i = exps[VarSet((d,), (i,))].value
    a_j = exps[VarSet((d,), (j,))].value
    a_ij = exps[VarSet((d,), (i, j))].value
    p_prod_pos = float(pair[0, 0] + pair[2, 2])      # P(lambda_i lambda_j = 1)
    p_prod_zero = z_i + z_j - z_ij                   # P(lambda_i lambda_j = 0)
    e_j_cond_i = cond_acc[(j, i)]
    e_i_cond_j = cond_acc[(i, j)]
    r = np.array([
        1.0,
        p_y,
        moments.p_vote(i, 1),
        _p_vote_product_one(a_i, z_i),
        z_i,
        z_i * p_y,
        moments.p_vote(j, 1),
        _p_vote_product_one(a_j, z_j),
        p_prod_pos,
        _p_vote_product_one(a_ij, p_prod_zero),
        float(pair[1, 0]),                            # P(i = 0, j = +1)
        0.5 * (z_i + e_j_cond_i * z_i - z_ij),
        z_j,
        z_j * p_y,
        float(pair[0, 1]),                            # P(i = +1, j = 0)
        0.5 * (z_j + e_i_cond_j * z_j - z_ij),
        z_ij,
        z_ij * p_y,
    ])
    return RhsVector(clique=clique, entries=r)


# ---------------------------------------------------------------------------
# marginal solve
# ---------------------------------------------------------------------------

def solve_marginal(T: TransformPair, r: RhsVector,
                   instability: float = 0.05) -> Tuple[np.ndarray, float]:
    """mu = A_s^{-1} r, clipped to [0, 1] and renormalized.

    Returns the clique table plus the largest clip magnitude; raises when the
    raw solution leaves [-instability, 1 + instability].
    """
    mu = T.A_inv @ r.entries
    lo, hi = float(mu.min()), float(mu.max())
    if lo < -instability or hi > 1.0 + instability:
        raise NumericalInstability(
            f"marginal for {r.clique.label()} solved to range "
            f"[{lo:.4f}, {hi:.4f}]"
        )
    clip = max(0.0, -lo, hi - 1.0)
    mu = np.clip(mu, 0.0, None)
    total = float(mu.sum())
    if total <= 0.0:
        raise NumericalInstability(f"marginal for {r.clique.label()} has no mass")
    mu /= total
    return mu_unflatten(mu, len(r.clique.sources)), clip


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

def _conditional_accuracies(jtree: JunctionTree, moments: MomentEstimates,
                            plan: TripletPlan, G: AugmentedGraph,
                            acc: Accuracies, cfg: RunConfig,
                            diag: RecoveryDiagnostics) -> Dict[Tuple[int, int], float]:
    """E[lambda_t Y | lambda_c = 0] for both orientations of every source pair
    appearing in a clique; substitutes the unconditional accuracy when the
    restricted estimate is unavailable."""
    out: Dict[Tuple[int, int], float] = {}
    for clique in jtree.source_cliques():
        if len(clique.sources) != 2:
            continue
        i, j = clique.sources
        for target, cond in ((j, i), (i, j)):
            if (target, cond) in out:
                continue
            hint = float(acc.values[2 * target])
            if moments.abstain_rates[cond] == 0.0:
                # every entry using this value carries a P(cond abstains) = 0
                # factor, so the substitution is exact and not worth a warning
                out[(target, cond)] = hint
                continue
            try:
                val = conditional_accuracy_from_stats(
                    target, cond, moments, plan, G, cfg, sign_hint=hint)
            except (TooFewAbstainRows, NoUsableTriplet) as exc:
                val = hint
                diag.conditional_substitutions.append(
                    {"target": target + 1, "cond": cond + 1, "reason": str(exc)})
                warnings.warn(
                    f"substituting the unconditional accuracy of source "
                    f"{target + 1} for its abstain-conditioned value: {exc}",
                    EstimationWarning,
                )
            out[(target, cond)] = val
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

    diag = RecoveryDiagnostics(
        partner_pairs=acc.diagnostics.get("partner_pairs", {}),
        sign=acc.diagnostics.get("sign", {}),
        ratio_fallback_sources=acc.diagnostics.get("ratio_fallback_sources", []),
        floored_columns=acc.diagnostics.get("floored_columns", []),
    )

    cond_acc = _conditional_accuracies(jtree, moments, plan, G, acc, cfg, diag)

    exps: Dict[VarSet, CliqueExpectation] = {}
    for clique in jtree.source_cliques():
        d = clique.tasks[0]
        for i in clique.sources:
            single = VarSet((d,), (i,))
            if single not in exps:
                exps[single] = clique_expectation(single, acc, moments, prior)
        if len(clique.sources) == 2:
            exps[clique] = clique_expectation(clique, acc, moments, prior)

    cliques: Dict[VarSet, np.ndarray] = {}
    for clique in jtree.cliques:
        if not clique.sources:
            cliques[clique] = prior.table(clique.tasks)
            continue
        try:
            r = assemble_rhs(clique, exps, moments, cond_acc, prior)
            T = build_transform(len(clique.sources))
            table, clip = solve_marginal(T, r)
        except NumericalInstability as exc:
            raise NumericalInstability(f"{exc} (clique {clique.label()})") from exc
        cliques[clique] = table
        diag.clip_magnitudes[clique.label()] = clip
        diag.rhs_clamps[clique.label()] = r.clamped

    separators: Dict[VarSet, np.ndarray] = {}
    for sep, _deg in jtree.separators:
        if not sep.sources:
            separators[sep] = prior.table(sep.tasks)
            continue
        host = next(c for c in jtree.cliques if sep <= c and c.sources)
        separators[sep] = marginalize_table(host, cliques[host], sep)

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
