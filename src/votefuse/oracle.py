"""Exact brute-force enumerator, sampler, and ground-truth computer.

Enumerates the full binary model over hidden tasks and paired observed
columns, so every moment, accuracy, marginal table, and posterior can be
integrated exactly. This is the independent reference the estimation pipeline
is tested against; hidden labels produced here never feed the fitting code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .augment import AugmentedGraph
from .errors import TooLarge
from .graph import (
    ClassPrior,
    DependencyGraph,
    JunctionTree,
    LabelMatrix,
    LabelModelParameters,
    VarSet,
    build_junction_tree,
    validate_graph,
)
from .moments import CondStats, MomentEstimates

MAX_ENUM_VARS = 22

VOTE_VALUE = np.array([1.0, 0.0, -1.0])  # state index -> vote value
TASK_VALUE = np.array([1.0, -1.0])


# ---------------------------------------------------------------------------
# canonical parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalParameters:
    """Exponential-family weights of the binary model.

    ``theta_acc[i]`` couples source i's pair difference to its task,
    ``theta_abstain[i]`` is the internal pair edge controlling the abstain
    rate, and ``theta_dep[(i, j)]`` weights the four cross-pair edges of a
    dependency edge. With ``abstaining=False`` the pairs collapse to single
    binary votes and the abstain weights must be zero.
    """

    graph: DependencyGraph
    theta_task: Tuple[float, ...]
    theta_acc: Tuple[float, ...]
    theta_abstain: Tuple[float, ...] = ()
    theta_task_edge: Dict[Tuple[int, int], float] = field(default_factory=dict)
    theta_dep: Dict[Tuple[int, int], float] = field(default_factory=dict)
    abstaining: bool = True

    def __post_init__(self):
        g = self.graph
        object.__setattr__(self, "theta_task", tuple(float(x) for x in self.theta_task))
        object.__setattr__(self, "theta_acc", tuple(float(x) for x in self.theta_acc))
        ab = self.theta_abstain or (0.0,) * g.n_sources
        object.__setattr__(self, "theta_abstain", tuple(float(x) for x in ab))
        if len(self.theta_task) != g.n_tasks or len(self.theta_acc) != g.n_sources:
            raise ValueError("theta vectors must match the graph dimensions")
        if len(self.theta_abstain) != g.n_sources:
            raise ValueError("theta_abstain must have one entry per source")
        if not self.abstaining and any(t != 0.0 for t in self.theta_abstain):
            raise ValueError("non-abstaining models take no abstain weights")
        te = {(min(a, b), max(a, b)): float(v) for (a, b), v in self.theta_task_edge.items()}
        td = {(min(a, b), max(a, b)): float(v) for (a, b), v in self.theta_dep.items()}
        object.__setattr__(self, "theta_task_edge", te)
        object.__setattr__(self, "theta_dep", td)


def random_model(g: DependencyGraph, seed: int, abstaining: bool = True) -> CanonicalParameters:
    """Seeded model with weights in ranges that keep accuracies bounded away
    from zero and triplets non-degenerate."""
    rng = np.random.default_rng(seed)
    return CanonicalParameters(
        graph=g,
        theta_task=tuple(rng.uniform(-0.3, 0.3, g.n_tasks)),
        theta_acc=tuple(rng.uniform(0.1, 1.0, g.n_sources)),
        theta_abstain=tuple(rng.uniform(-0.5, 0.5, g.n_sources)) if abstaining else (0.0,) * g.n_sources,
        theta_task_edge={e: float(rng.uniform(-0.3, 0.3)) for e in g.task_edges},
        theta_dep={e: float(rng.uniform(-0.3, 0.3)) for e in g.source_edges},
        abstaining=abstaining,
    )


# ---------------------------------------------------------------------------
# exact joint
# ---------------------------------------------------------------------------

@dataclass
class ExactJoint:
    """Normalized joint over (tasks, observed columns), plus a view collapsed
    to (tasks, ternary votes).

    ``p_full`` runs over the 2^N sign configurations of the full binary model
    (bit order: tasks, then columns; bit 0 means value +1). ``collapsed`` has
    axes (2,)*D + (3,)*m with vote states indexed +1, 0, -1.
    """

    params: CanonicalParameters
    p_full: np.ndarray
    collapsed: np.ndarray

    @property
    def graph(self) -> DependencyGraph:
        return self.params.graph

    @property
    def D(self) -> int:
        return self.graph.n_tasks

    @property
    def m(self) -> int:
        return self.graph.n_sources

    # -- raw value decoding over the full space --------------------------------

    def full_value(self, var_bit: int) -> np.ndarray:
        """+/-1 value of one binary variable across all full configurations."""
        idx = np.arange(self.p_full.size, dtype=np.int64)
        return 1.0 - 2.0 * ((idx >> var_bit) & 1)

    def column_value(self, col: int) -> np.ndarray:
        """+/-1 value of augmented column ``col`` across the full space."""
        if self.params.abstaining:
            return self.full_value(self.D + col)
        lam = self.full_value(self.D + col // 2)
        return lam if col % 2 == 0 else -lam

    def task_value(self, d: int) -> np.ndarray:
        return self.full_value(d)

    def lambda_value(self, i: int) -> np.ndarray:
        """Ternary vote value of source i across the full space."""
        a = self.column_value(2 * i)
        b = self.column_value(2 * i + 1)
        return np.where(a == b, 0.0, a)

    # -- collapsed-space helpers ------------------------------------------------

    def _flat(self) -> np.ndarray:
        return self.collapsed.reshape(-1)

    def _vote_vectors(self) -> np.ndarray:
        """(m, n_states) vote values over the flattened collapsed table."""
        shape = self.collapsed.shape
        out = np.empty((self.m, self.collapsed.size))
        for i in range(self.m):
            ax = self.D + i
            v = VOTE_VALUE.reshape((1,) * ax + (3,) + (1,) * (len(shape) - ax - 1))
            out[i] = np.broadcast_to(v, shape).reshape(-1)
        return out

    def _task_vectors(self) -> np.ndarray:
        shape = self.collapsed.shape
        out = np.empty((self.D, self.collapsed.size))
        for d in range(self.D):
            v = TASK_VALUE.reshape((1,) * d + (2,) + (1,) * (len(shape) - d - 1))
            out[d] = np.broadcast_to(v, shape).reshape(-1)
        return out

    # -- exact statistics --------------------------------------------------------

    def prior(self) -> ClassPrior:
        axes = tuple(range(self.D, self.D + self.m))
        table = self.collapsed.sum(axis=axes) if axes else self.collapsed
        return ClassPrior(n_tasks=self.D, joint=table)

    def vote_marginals(self) -> np.ndarray:
        out = np.empty((self.m, 3))
        for i in range(self.m):
            axes = tuple(a for a in range(self.collapsed.ndim) if a != self.D + i)
            out[i] = self.collapsed.sum(axis=axes)
        return out

    def accuracies(self) -> np.ndarray:
        """True a_i = E[lambda_i Y_dep(i)] per source."""
        p = self._flat()
        V = self._vote_vectors()
        T = self._task_vectors()
        return np.array([
            float(np.dot(V[i] * T[self.graph.assignment[i]], p))
            for i in range(self.m)
        ])

    def column_accuracies(self) -> np.ndarray:
        """True E[v_c Y(c)] for every augmented column."""
        a = self.accuracies()
        out = np.empty(2 * self.m)
        out[0::2] = a
        out[1::2] = -a
        return out

    def _moment_arrays(self, weights: np.ndarray):
        V = self._vote_vectors()
        Vw = V * weights
        S = Vw @ V.T                      # E[s_i s_j]
        first_lam = V @ weights
        z = np.empty(self.m)              # abstain probabilities
        for i in range(self.m):
            axes = tuple(a for a in range(self.collapsed.ndim) if a != self.D + i)
            z[i] = (weights.reshape(self.collapsed.shape).sum(axis=axes))[1]
        c = 2 * self.m
        M = np.empty((c, c))
        sgn = np.array([1.0, -1.0])
        for i in range(self.m):
            for j in range(self.m):
                block = S[i, j] * np.outer(sgn, sgn)
                M[2 * i:2 * i + 2, 2 * j:2 * j + 2] = block
        for i in range(self.m):
            M[2 * i, 2 * i] = M[2 * i + 1, 2 * i + 1] = 1.0
            M[2 * i, 2 * i + 1] = M[2 * i + 1, 2 * i] = 2.0 * z[i] - 1.0
        first = np.empty(c)
        first[0::2] = first_lam
        first[1::2] = -first_lam
        return M, first

    def restricted_moments(self, cond: int) -> CondStats:
        """Exact moments restricted to the event that source ``cond`` abstains."""
        p = self._flat()
        vals = self._vote_vectors()[cond]
        mask = vals == 0.0
        pz = float(p[mask].sum())
        if pz <= 0.0:
            raise ValueError(f"source {cond} never abstains")
        w = np.where(mask, p, 0.0) / pz
        Mc, firstc = self._moment_arrays(w)
        return CondStats(M=Mc, first=firstc, n_rows=None)

    def moment_estimates(self, track_graph: bool = True) -> MomentEstimates:
        """Exact moments packaged the way the estimation pipeline consumes them."""
        p = self._flat()
        M, first = self._moment_arrays(p)
        marg = self.vote_marginals()
        pairs, cond = (), ()
        if track_graph:
            pairs = self.graph.source_edges
            cond = tuple(s for s in sorted({x for e in pairs for x in e})
                         if float(marg[s, 1]) > 0.0)
        cells = []
        for (i, j) in pairs:
            axes = tuple(a for a in range(self.collapsed.ndim)
                         if a not in (self.D + i, self.D + j))
            cells.append(self.collapsed.sum(axis=axes))
        restricted = [self.restricted_moments(s) for s in cond]
        c = M.shape[0]
        return MomentEstimates(
            M=M,
            first_moments=first,
            vote_marginals=marg,
            prior=self.prior(),
            n=None,
            pairs=pairs,
            pair_cells=np.array(cells).reshape(len(pairs), 3, 3),
            cond_sources=cond,
            cond_M=np.array([r.M for r in restricted]).reshape(len(cond), c, c),
            cond_first=np.array([r.first for r in restricted]).reshape(len(cond), c),
        )

    def clique_table(self, vs: VarSet) -> np.ndarray:
        keep = set(vs.tasks) | {self.D + i for i in vs.sources}
        axes = tuple(a for a in range(self.collapsed.ndim) if a not in keep)
        return self.collapsed.sum(axis=axes) if axes else self.collapsed.copy()

    def true_parameters(self, jtree: Optional[JunctionTree] = None) -> LabelModelParameters:
        if jtree is None:
            jtree = build_junction_tree(self.graph)
        return LabelModelParameters.from_tables(
            self.graph, jtree, {c: self.clique_table(c) for c in jtree.cliques},
            {s: self.clique_table(s) for s, _ in jtree.separators})

    def posterior_table(self) -> np.ndarray:
        """P(Y config | lambda config): shape (3^m, 2^D); rows with zero vote
        probability are left as zeros."""
        flat = self.collapsed.reshape((2 ** self.D, 3 ** self.m))
        pl = flat.sum(axis=0)
        out = np.zeros((3 ** self.m, 2 ** self.D))
        nz = pl > 0
        out[nz] = (flat[:, nz] / pl[nz]).T
        return out

    def conditional_accuracy(self, target: int, cond: int) -> float:
        """Exact E[lambda_target Y | lambda_cond = 0]."""
        p = self._flat()
        V = self._vote_vectors()
        T = self._task_vectors()
        mask = np.isclose(V[cond], 0.0)
        pz = float(p[mask].sum())
        if pz <= 0:
            raise ValueError(f"source {cond} never abstains")
        w = np.where(mask, p, 0.0) / pz
        return float(np.dot(V[target] * T[self.graph.assignment[target]], w))


def enumerate_joint(theta: CanonicalParameters,
                    G: Optional[AugmentedGraph] = None) -> ExactJoint:
    """Exponentiate every configuration's potential and normalize.

    The abstain split is balanced by construction: both equal-sign pair states
    share identical potentials, so they carry equal mass for every
    configuration of the remaining variables.
    """
    g = theta.graph
    if G is not None and G.graph is not g and G.graph != g:
        raise ValueError("augmented graph does not match the parameters' graph")
    D, m = g.n_tasks, g.n_sources
    n_bits = D + (2 * m if theta.abstaining else m)
    if n_bits > MAX_ENUM_VARS:
        raise TooLarge(f"{n_bits} binary variables exceed the {MAX_ENUM_VARS}-bit cap")

    idx = np.arange(1 << n_bits, dtype=np.int64)

    def val(bit: int) -> np.ndarray:
        return 1.0 - 2.0 * ((idx >> bit) & 1)

    energy = np.zeros(idx.size)
    tasks = [val(d) for d in range(D)]
    for d in range(D):
        if theta.theta_task[d]:
            energy += theta.theta_task[d] * tasks[d]
    for (d, e), w in sorted(theta.theta_task_edge.items()):
        if w:
            energy += w * tasks[d] * tasks[e]

    if theta.abstaining:
        cols = [val(D + c) for c in range(2 * m)]
        diffs = [cols[2 * i] - cols[2 * i + 1] for i in range(m)]
        for i in range(m):
            if theta.theta_acc[i]:
                energy += theta.theta_acc[i] * diffs[i] * tasks[g.assignment[i]]
            if theta.theta_abstain[i]:
                energy += theta.theta_abstain[i] * cols[2 * i] * cols[2 * i + 1]
        for (i, j), w in sorted(theta.theta_dep.items()):
            if w:
                energy += w * diffs[i] * diffs[j]
    else:
        lams = [val(D + i) for i in range(m)]
        for i in range(m):
            if theta.theta_acc[i]:
                energy += theta.theta_acc[i] * lams[i] * tasks[g.assignment[i]]
        for (i, j), w in sorted(theta.theta_dep.items()):
            if w:
                energy += w * lams[i] * lams[j]

    energy -= energy.max()
    p = np.exp(energy)
    p /= p.sum()

    # collapse to (tasks, ternary votes)
    coll_idx = np.zeros(idx.size, dtype=np.int64)
    for d in range(D):
        coll_idx = coll_idx * 2 + ((idx >> d) & 1)
    if theta.abstaining:
        for i in range(m):
            b1 = (idx >> (D + 2 * i)) & 1
            b2 = (idx >> (D + 2 * i + 1)) & 1
            state = np.where(b1 == b2, 1, np.where(b1 == 0, 0, 2))
            coll_idx = coll_idx * 3 + state
    else:
        for i in range(m):
            b = (idx >> (D + i)) & 1
            coll_idx = coll_idx * 3 + 2 * b
    collapsed = np.bincount(coll_idx, weights=p, minlength=(2 ** D) * (3 ** m))
    collapsed = collapsed.reshape((2,) * D + (3,) * m)
    return ExactJoint(params=theta, p_full=p, collapsed=collapsed)


def exact_statistics(joint: ExactJoint, g: Optional[DependencyGraph] = None):
    """(true moments, true column accuracies, true label model parameters)."""
    if g is None:
        g = joint.graph
    jtree = build_junction_tree(validate_graph(g))
    return joint.moment_estimates(), joint.column_accuracies(), joint.true_parameters(jtree)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample(joint: ExactJoint, n: int, seed: int) -> Tuple[LabelMatrix, np.ndarray]:
    """n i.i.d. draws by inverse CDF over the flattened joint.

    Returns the ternary vote matrix and the hidden task rows (n x D in +/-1);
    the latter is for evaluation only and must never reach fitting code.
    """
    flat = joint.collapsed.reshape(-1)
    cum = np.cumsum(flat)
    cum[-1] = 1.0
    rng = np.random.default_rng(seed)
    draws = rng.random(n)
    pos = np.searchsorted(cum, draws, side="right")
    states = np.unravel_index(pos, joint.collapsed.shape)
    D, m = joint.D, joint.m
    Y = np.empty((n, D), dtype=np.int8)
    for d in range(D):
        Y[:, d] = np.where(states[d] == 0, 1, -1)
    votes = np.empty((n, m), dtype=np.int8)
    lookup = np.array([1, 0, -1], dtype=np.int8)
    for i in range(m):
        votes[:, i] = lookup[states[D + i]]
    return LabelMatrix(votes), Y


def star_graph(m: int) -> DependencyGraph:
    """Single task, m conditionally independent sources."""
    return DependencyGraph(n_tasks=1, n_sources=m, assignment=(0,) * m)


def sample_symmetric_star(accuracies, abstain_rates, balance_pos: float,
                          n: int, seed: int) -> Tuple[LabelMatrix, np.ndarray]:
    """Fast direct sampler for a single-task model of symmetric channels.

    Source i votes with P(lambda = y | Y = y) = (1 - r_i + a_i) / 2 and
    abstains with probability r_i, so E[lambda_i Y] = a_i. Useful above the
    enumeration cap (for example wide source sets in timing runs).
    """
    a = np.asarray(accuracies, dtype=np.float64)
    r = np.asarray(abstain_rates, dtype=np.float64)
    if np.any(a < 0) or np.any(a > 1 - r + 1e-12):
        raise ValueError("need 0 <= a_i <= 1 - r_i")
    m = a.size
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < balance_pos, 1, -1).astype(np.int8)
    q_correct = (1.0 - r + a) / 2.0
    u = rng.random((n, m))
    votes = np.zeros((n, m), dtype=np.int8)
    correct = u < q_correct
    wrong = u >= (q_correct + r)
    votes[correct] = 1
    votes[wrong] = -1
    votes *= y[:, None]
    return LabelMatrix(votes), y.reshape(-1, 1)


# ---------------------------------------------------------------------------
# drifting streams
# ---------------------------------------------------------------------------

@dataclass
class DriftStream:
    """Oracle-backed vote stream whose source accuracies flip sign periodically.

    ``flip_period`` of None means a stationary stream. Rows, per-step regime
    ids, exact per-regime posteriors, and exact per-regime parameters are all
    precomputed so streaming estimators can be scored against the truth.
    """

    base: CanonicalParameters
    n_steps: int
    seed: int
    flip_period: Optional[int] = None

    def __post_init__(self):
        if self.n_steps < 0 or (self.flip_period is not None and self.flip_period < 1):
            raise ValueError(f"bad n_steps={self.n_steps} or flip_period={self.flip_period}")
        flipped = CanonicalParameters(
            graph=self.base.graph,
            theta_task=self.base.theta_task,
            theta_acc=tuple(-t for t in self.base.theta_acc),
            theta_abstain=self.base.theta_abstain,
            theta_task_edge=self.base.theta_task_edge,
            theta_dep=self.base.theta_dep,
            abstaining=self.base.abstaining,
        )
        self.joints = [enumerate_joint(self.base), enumerate_joint(flipped)]
        self.posteriors = [j.posterior_table() for j in self.joints]
        jt = build_junction_tree(validate_graph(self.base.graph))
        self.true_params = [j.true_parameters(jt) for j in self.joints]

        self.regime = np.zeros(self.n_steps, dtype=np.intp)
        if self.flip_period is not None:
            self.regime = (np.arange(self.n_steps) // self.flip_period) % 2

        m = self.base.graph.n_sources
        self.rows = np.empty((self.n_steps, m), dtype=np.int8)
        self._lam_flat = np.empty(self.n_steps, dtype=np.int64)
        for r in (0, 1):
            step_ids = np.nonzero(self.regime == r)[0]
            if step_ids.size == 0:
                continue
            L, _ = sample(self.joints[r], step_ids.size, self.seed + r)
            self.rows[step_ids] = L.votes
            state = (1 - L.votes).astype(np.int64)  # vote -> state index
            flat = np.zeros(step_ids.size, dtype=np.int64)
            for i in range(m):
                flat = flat * 3 + state[:, i]
            self._lam_flat[step_ids] = flat

    def true_posterior_pos(self, t: int) -> np.ndarray:
        """Exact P(Y_d = 1 | row_t) under the regime active at step t."""
        table = self.posteriors[self.regime[t]][self._lam_flat[t]]
        D = self.base.graph.n_tasks
        cfgs = table.reshape((2,) * D)
        return np.array([
            cfgs.take(0, axis=d).sum() for d in range(D)
        ])

    def true_parameters_at(self, t: int) -> LabelModelParameters:
        return self.true_params[self.regime[t]]
