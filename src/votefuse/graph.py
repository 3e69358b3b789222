"""Domain types shared by all pipeline stages.

Conventions used across the package:

* Tasks and sources are 0-indexed in code (text file formats are 1-indexed).
* Task states are +1/-1, encoded as axis indices 0/1.
* Vote states are +1/0/-1 (0 = abstain), encoded as axis indices 0/1/2.
* Source ``i`` lifts to the observed column pair ``(2i, 2i+1)``; column ``2i``
  tracks the vote and ``2i+1`` mirrors it.
* Probability tables over a clique use axes ``(task..., source...)`` with
  member indices ascending.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import (
    AssignmentMissing,
    NotTriangulated,
    SelfEdge,
    UnsupportedCliqueSize,
)

TASK_IDX = {1: 0, -1: 1}
VOTE_IDX = {1: 0, 0: 1, -1: 2}
TASK_STATES = (1, -1)
VOTE_STATES = (1, 0, -1)

MAX_EXACT_TASKS = 20


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# label matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabelMatrix:
    """n x m matrix of ternary votes, the sole training input.

    Entries live in {-1, 0, +1} with 0 meaning the source abstained.
    Estimation requires n >= 1 and m >= 3 unless the ratio fallback is
    explicitly enabled; an empty matrix is allowed for prediction calls.
    """

    votes: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.votes, dtype=np.int8)
        if v.ndim != 2:
            raise ValueError("votes must be a 2-d array")
        bad = np.argwhere((v < -1) | (v > 1))
        if bad.size:
            r, c = bad[0]
            raise ValueError(f"vote out of {{-1,0,+1}} at row {r}, column {c}")
        object.__setattr__(self, "votes", _freeze(v))

    @property
    def n(self) -> int:
        return self.votes.shape[0]

    @property
    def m(self) -> int:
        return self.votes.shape[1]

    def require_fit_shape(self, allow_small: bool = False) -> None:
        if self.n < 1:
            raise ValueError("need at least one sample to fit")
        if self.m < 3 and not allow_small:
            raise ValueError(
                "need at least 3 sources unless the ratio fallback is enabled"
            )


@dataclass(frozen=True)
class AugmentedLabelMatrix:
    """Binary n x 2m matrix produced by splitting each source into a column pair.

    Pair encoding per row: vote +1 -> (1, -1); vote -1 -> (-1, 1); abstain ->
    (1, 1) or (-1, -1), balanced by the abstain policy.
    """

    data: np.ndarray  # n x 2m, entries in {-1, +1}

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.int8)
        if d.ndim != 2 or d.shape[1] % 2:
            raise ValueError("augmented matrix must be n x 2m")
        if d.size and not np.all(np.abs(d) == 1):
            raise ValueError("augmented entries must be +/-1")
        object.__setattr__(self, "data", _freeze(d))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def m(self) -> int:
        return self.data.shape[1] // 2

    def collapse(self) -> LabelMatrix:
        """Invert the pair encoding back to ternary votes (exact round trip)."""
        pri = self.data[:, 0::2].astype(np.int8)
        mir = self.data[:, 1::2]
        votes = np.where(pri == mir, 0, pri).astype(np.int8)
        return LabelMatrix(votes)


# ---------------------------------------------------------------------------
# dependency graph
# ---------------------------------------------------------------------------

def _norm_edges(edges, what: str) -> Tuple[Tuple[int, int], ...]:
    out = set()
    for a, b in edges:
        a, b = int(a), int(b)
        if a == b:
            raise SelfEdge(f"{what} edge ({a}, {b}) is a self-edge")
        out.add((min(a, b), max(a, b)))
    return tuple(sorted(out))


@dataclass(frozen=True)
class DependencyGraph:
    """Conditional-dependence structure over tasks and the sources voting on them.

    ``assignment[i]`` is the task that source ``i`` votes on. An absent edge
    means conditional independence given a separating set.
    """

    n_tasks: int
    n_sources: int
    assignment: Tuple[int, ...]
    task_edges: Tuple[Tuple[int, int], ...] = ()
    source_edges: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(int(t) for t in self.assignment))
        object.__setattr__(self, "task_edges", _norm_edges(self.task_edges, "task"))
        object.__setattr__(self, "source_edges", _norm_edges(self.source_edges, "source"))
        if self.n_tasks < 1:
            raise ValueError("need at least one task")
        if len(self.assignment) != self.n_sources:
            raise AssignmentMissing(
                f"{self.n_sources} sources but {len(self.assignment)} assignments"
            )
        for i, t in enumerate(self.assignment):
            if not 0 <= t < self.n_tasks:
                raise AssignmentMissing(f"source {i} assigned to unknown task {t}")
        for a, b in self.task_edges:
            if not 0 <= a < self.n_tasks or not 0 <= b < self.n_tasks:
                raise ValueError(f"task edge ({a},{b}) out of range")
        for a, b in self.source_edges:
            if not 0 <= a < self.n_sources or not 0 <= b < self.n_sources:
                raise ValueError(f"source edge ({a},{b}) out of range")

    @property
    def n_vertices(self) -> int:
        return self.n_tasks + self.n_sources

    def adjacency(self) -> Dict[int, set]:
        """Adjacency over combined vertices: tasks 0..D-1, sources D..D+m-1."""
        adj: Dict[int, set] = {v: set() for v in range(self.n_vertices)}
        D = self.n_tasks

        def link(a, b):
            adj[a].add(b)
            adj[b].add(a)

        for a, b in self.task_edges:
            link(a, b)
        for i, t in enumerate(self.assignment):
            link(D + i, t)
        for a, b in self.source_edges:
            link(D + a, D + b)
        return adj

    def sources_of_task(self, d: int) -> Tuple[int, ...]:
        return tuple(i for i, t in enumerate(self.assignment) if t == d)


# ---------------------------------------------------------------------------
# chordality, triangulation, junction tree
# ---------------------------------------------------------------------------

def _mcs_order(adj: Dict[int, set]) -> list:
    """Maximum cardinality search order; ties broken by lowest vertex index."""
    n = len(adj)
    weight = {v: 0 for v in adj}
    order, seen = [], set()
    for _ in range(n):
        v = max(sorted(weight), key=lambda u: weight[u])
        # max() over the sorted keys keeps the lowest index among ties
        order.append(v)
        seen.add(v)
        del weight[v]
        for u in adj[v]:
            if u not in seen:
                weight[u] += 1
    return order


def _is_chordal(adj: Dict[int, set]) -> bool:
    order = _mcs_order(adj)
    pos = {v: k for k, v in enumerate(order)}
    for v in order:
        earlier = {u for u in adj[v] if pos[u] < pos[v]}
        if not earlier:
            continue
        parent = max(earlier, key=lambda u: pos[u])
        if not (earlier - {parent}) <= adj[parent]:
            return False
    return True


def _min_degree_fill(adj: Dict[int, set]) -> set:
    """Fill edges from min-degree elimination; ties broken by vertex index."""
    work = {v: set(nb) for v, nb in adj.items()}
    fill = set()
    remaining = sorted(work)
    while remaining:
        v = min(remaining, key=lambda u: (len(work[u]), u))
        nbs = sorted(work[v])
        for ai in range(len(nbs)):
            for bi in range(ai + 1, len(nbs)):
                a, b = nbs[ai], nbs[bi]
                if b not in work[a]:
                    work[a].add(b)
                    work[b].add(a)
                    fill.add((min(a, b), max(a, b)))
        for u in nbs:
            work[u].discard(v)
        del work[v]
        remaining.remove(v)
    return fill


def _chordal_maximal_cliques(adj: Dict[int, set]) -> list:
    order = _mcs_order(adj)
    pos = {v: k for k, v in enumerate(order)}
    candidates = []
    for v in order:
        earlier = {u for u in adj[v] if pos[u] < pos[v]}
        candidates.append(frozenset(earlier | {v}))
    maximal = [
        c for c in candidates
        if not any(c < other for other in candidates)
    ]
    return sorted(set(maximal), key=lambda c: tuple(sorted(c)))


@dataclass(frozen=True)
class VarSet:
    """An ordered set of task and source indices naming a clique or separator."""

    tasks: Tuple[int, ...]
    sources: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(sorted(set(self.tasks))))
        object.__setattr__(self, "sources", tuple(sorted(set(self.sources))))

    def __le__(self, other: "VarSet") -> bool:
        return set(self.tasks) <= set(other.tasks) and set(self.sources) <= set(other.sources)

    def label(self) -> str:
        parts = [f"Y{d + 1}" for d in self.tasks] + [f"L{i + 1}" for i in self.sources]
        return "{" + ",".join(parts) + "}"

    @property
    def size(self) -> int:
        return len(self.tasks) + len(self.sources)


def _to_varset(vertices, n_tasks: int) -> VarSet:
    tasks = tuple(v for v in vertices if v < n_tasks)
    sources = tuple(v - n_tasks for v in vertices if v >= n_tasks)
    return VarSet(tasks, sources)


@dataclass(frozen=True)
class JunctionTree:
    """Maximal cliques and separator sets of a triangulated dependency graph.

    ``edges`` are (clique index, clique index, separator VarSet) triples of the
    spanning forest; ``separators`` groups equal separator sets with their
    adjacency degree d(S) (number of adjacent maximal cliques, i.e. one more
    than the number of forest edges carrying that separator).
    """

    cliques: Tuple[VarSet, ...]
    edges: Tuple[Tuple[int, int, VarSet], ...]
    separators: Tuple[Tuple[VarSet, int], ...]

    def source_cliques(self) -> Tuple[VarSet, ...]:
        return tuple(c for c in self.cliques if c.sources)

    def task_cliques(self) -> Tuple[VarSet, ...]:
        return tuple(c for c in self.cliques if not c.sources)

    def running_intersection_holds(self) -> bool:
        # For every pair of cliques, their intersection must be contained in
        # every clique on the path between them.
        n = len(self.cliques)
        adj = {i: [] for i in range(n)}
        for a, b, _ in self.edges:
            adj[a].append(b)
            adj[b].append(a)

        def path(a, b):
            prev = {a: None}
            stack = [a]
            while stack:
                u = stack.pop()
                if u == b:
                    break
                for w in adj[u]:
                    if w not in prev:
                        prev[w] = u
                        stack.append(w)
            if b not in prev:
                return None
            out, u = [], b
            while u is not None:
                out.append(u)
                u = prev[u]
            return out

        for a in range(n):
            for b in range(a + 1, n):
                inter_t = set(self.cliques[a].tasks) & set(self.cliques[b].tasks)
                inter_s = set(self.cliques[a].sources) & set(self.cliques[b].sources)
                if not inter_t and not inter_s:
                    continue
                p = path(a, b)
                if p is None:
                    return False
                for u in p:
                    if not (inter_t <= set(self.cliques[u].tasks)
                            and inter_s <= set(self.cliques[u].sources)):
                        return False
        return True


def _check_clique_shapes(cliques, g: DependencyGraph) -> None:
    for c in cliques:
        vs = _to_varset(c, g.n_tasks)
        if not vs.sources:
            continue  # all-task cliques are handled by the prior
        if len(vs.tasks) != 1 or len(vs.sources) > 2:
            raise UnsupportedCliqueSize(
                f"clique {vs.label()} is not one task with at most two sources"
            )
        d = vs.tasks[0]
        for i in vs.sources:
            if g.assignment[i] != d:
                raise UnsupportedCliqueSize(
                    f"clique {vs.label()} mixes source {i + 1} with a task it "
                    f"does not vote on"
                )


def validate_graph(g: DependencyGraph) -> DependencyGraph:
    """Check structure and return a triangulated copy of ``g``.

    Already-chordal graphs are returned unchanged, so validation is
    idempotent. Fill edges come from a minimum-degree elimination order with
    ties broken by vertex index. Triangulations that would require a
    task-source fill edge, or that create cliques beyond one task plus two
    same-task sources, are rejected.
    """
    adj = g.adjacency()
    if _is_chordal(adj):
        _check_clique_shapes(_chordal_maximal_cliques(adj), g)
        return g

    fill = _min_degree_fill(adj)
    D = g.n_tasks
    task_edges = list(g.task_edges)
    source_edges = list(g.source_edges)
    for a, b in sorted(fill):
        if a < D and b < D:
            task_edges.append((a, b))
        elif a >= D and b >= D:
            source_edges.append((a - D, b - D))
        else:
            raise UnsupportedCliqueSize(
                f"triangulation requires a task-source edge "
                f"(Y{a + 1}, L{b - D + 1}); restructure the dependency graph"
            )
    out = DependencyGraph(
        n_tasks=g.n_tasks,
        n_sources=g.n_sources,
        assignment=g.assignment,
        task_edges=tuple(task_edges),
        source_edges=tuple(source_edges),
    )
    _check_clique_shapes(_chordal_maximal_cliques(out.adjacency()), out)
    return out


def build_junction_tree(g: DependencyGraph) -> JunctionTree:
    """Clique/separator decomposition of a triangulated dependency graph.

    The spanning forest over maximal cliques maximizes separator sizes
    (Kruskal, deterministic tie-break by clique order), which guarantees the
    running intersection property on chordal graphs.
    """
    adj = g.adjacency()
    if not _is_chordal(adj):
        raise NotTriangulated("graph is not triangulated; run validate_graph first")
    raw = _chordal_maximal_cliques(adj)
    _check_clique_shapes(raw, g)
    cliques = tuple(_to_varset(c, g.n_tasks) for c in raw)

    cand = []
    for a in range(len(raw)):
        for b in range(a + 1, len(raw)):
            w = len(raw[a] & raw[b])
            if w > 0:
                cand.append((-w, a, b))
    cand.sort()

    parent = list(range(len(raw)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = []
    for negw, a, b in cand:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            edges.append((a, b, _to_varset(raw[a] & raw[b], g.n_tasks)))

    counts: Dict[VarSet, int] = {}
    for _, _, sep in edges:
        counts[sep] = counts.get(sep, 0) + 1
    separators = tuple(
        (sep, c + 1) for sep, c in sorted(counts.items(), key=lambda kv: (kv[0].tasks, kv[0].sources))
    )
    return JunctionTree(cliques=cliques, edges=tuple(edges), separators=separators)


# ---------------------------------------------------------------------------
# class prior
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassPrior:
    """User-provided distribution of the hidden task vector.

    Either an exact joint table over {-1,+1}^D (axes indexed 0 -> +1, 1 -> -1;
    D <= 20), or factorized per-task means plus pairwise means for task edges.
    The factorized form only supports task cliques of at most two tasks.
    """

    n_tasks: int
    joint: Optional[np.ndarray] = None
    task_means: Optional[np.ndarray] = None
    pair_means: Optional[Dict[Tuple[int, int], float]] = None

    def __post_init__(self):
        if self.joint is not None:
            j = np.asarray(self.joint, dtype=np.float64)
            if j.shape != (2,) * self.n_tasks:
                raise ValueError(f"joint must have shape {(2,) * self.n_tasks}")
            if np.any(j < 0):
                raise ValueError("joint entries must be nonnegative")
            if abs(float(j.sum()) - 1.0) > 1e-12:
                raise ValueError("joint must sum to 1 within 1e-12")
            object.__setattr__(self, "joint", _freeze(j))
        else:
            if self.task_means is None:
                raise ValueError("need a joint table or task means")
            tm = np.asarray(self.task_means, dtype=np.float64)
            if tm.shape != (self.n_tasks,):
                raise ValueError("task_means must have one entry per task")
            if np.any(np.abs(tm) > 1):
                raise ValueError("task means must lie in [-1, 1]")
            pm = dict(self.pair_means or {})
            for (a, b), v in pm.items():
                if abs(v) > 1:
                    raise ValueError("pairwise means must lie in [-1, 1]")
            object.__setattr__(self, "task_means", _freeze(tm))
            object.__setattr__(self, "pair_means",
                               {(min(a, b), max(a, b)): float(v) for (a, b), v in pm.items()})

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_balance(cls, p_pos: float) -> "ClassPrior":
        """Single-task prior from P(Y = 1)."""
        if not 0.0 <= p_pos <= 1.0:
            raise ValueError("class balance must lie in [0, 1]")
        return cls(n_tasks=1, joint=np.array([p_pos, 1.0 - p_pos]))

    @classmethod
    def uniform(cls, n_tasks: int) -> "ClassPrior":
        if n_tasks > MAX_EXACT_TASKS:
            return cls(n_tasks=n_tasks, task_means=np.zeros(n_tasks), pair_means={})
        table = np.full((2,) * n_tasks, 0.5 ** n_tasks)
        return cls(n_tasks=n_tasks, joint=table)

    # -- queries ---------------------------------------------------------------

    def task_mean(self, d: int) -> float:
        """E[Y_d]."""
        if self.joint is not None:
            axes = tuple(a for a in range(self.n_tasks) if a != d)
            marg = self.joint.sum(axis=axes) if axes else self.joint
            return float(marg[0] - marg[1])
        return float(self.task_means[d])

    def p_pos(self, d: int) -> float:
        """P(Y_d = 1)."""
        return 0.5 * (1.0 + self.task_mean(d))

    def pair_mean(self, d: int, e: int) -> float:
        """E[Y_d Y_e]."""
        if d == e:
            return 1.0
        if self.joint is not None:
            key = tuple(sorted((d, e)))
            axes = tuple(a for a in range(self.n_tasks) if a not in key)
            marg = self.joint.sum(axis=axes) if axes else self.joint
            return float(marg[0, 0] - marg[0, 1] - marg[1, 0] + marg[1, 1])
        key = (min(d, e), max(d, e))
        if key not in self.pair_means:
            raise ValueError(f"no pairwise mean recorded for tasks {key}")
        return float(self.pair_means[key])

    def table(self, tasks: Tuple[int, ...]) -> np.ndarray:
        """Marginal joint over the given tasks, axes in ascending task order."""
        tasks = tuple(sorted(tasks))
        if self.joint is not None:
            axes = tuple(a for a in range(self.n_tasks) if a not in tasks)
            return self.joint.sum(axis=axes) if axes else self.joint.copy()
        if len(tasks) == 1:
            p = self.p_pos(tasks[0])
            return np.array([p, 1.0 - p])
        if len(tasks) == 2:
            d, e = tasks
            md, me, mde = self.task_mean(d), self.task_mean(e), self.pair_mean(d, e)
            out = np.empty((2, 2))
            for yi, y in enumerate(TASK_STATES):
                for zi, z in enumerate(TASK_STATES):
                    out[yi, zi] = 0.25 * (1.0 + y * md + z * me + y * z * mde)
            return out
        raise ValueError(
            "factorized prior cannot produce joints over 3 or more tasks; "
            "provide an exact joint table"
        )


# ---------------------------------------------------------------------------
# label model parameters
# ---------------------------------------------------------------------------

def clique_table_shape(vs: VarSet) -> Tuple[int, ...]:
    return (2,) * len(vs.tasks) + (3,) * len(vs.sources)


@dataclass
class LabelModelParameters:
    """Marginal probability tables over every maximal clique and separator.

    Tables follow the package axis convention: task axes first (states +1,-1),
    then source axes (states +1,0,-1), member indices ascending.
    """

    graph: DependencyGraph
    jtree: JunctionTree
    cliques: Dict[VarSet, np.ndarray]
    separators: Dict[VarSet, np.ndarray]
    diagnostics: object = None

    def __post_init__(self):
        for store in (self.cliques, self.separators):
            for vs, tbl in store.items():
                tbl = np.asarray(tbl, dtype=np.float64)
                if tbl.shape != clique_table_shape(vs):
                    raise ValueError(f"table for {vs.label()} has shape {tbl.shape}")
                store[vs] = _freeze(tbl)

    def validate(self, tol_sum: float = 1e-9, tol_sep: float = 1e-6) -> None:
        """Assert the probability-table invariants; raises ValueError on failure."""
        for vs, tbl in list(self.cliques.items()) + list(self.separators.items()):
            if np.any(tbl < 0):
                raise ValueError(f"negative entry in table {vs.label()}")
            if abs(float(tbl.sum()) - 1.0) > tol_sum:
                raise ValueError(f"table {vs.label()} sums to {tbl.sum()}")
        for sep, _deg in self.jtree.separators:
            for cl in self.jtree.cliques:
                if sep <= cl and cl in self.cliques and sep in self.separators:
                    marg = marginalize_table(cl, self.cliques[cl], sep)
                    if np.max(np.abs(marg - self.separators[sep])) > tol_sep:
                        raise ValueError(
                            f"clique {cl.label()} does not marginalize onto "
                            f"separator {sep.label()}"
                        )


def marginalize_table(clique: VarSet, table: np.ndarray, target: VarSet) -> np.ndarray:
    """Sum a clique table down to the axes of a contained VarSet."""
    if not target <= clique:
        raise ValueError(f"{target.label()} is not contained in {clique.label()}")
    keep = []
    for k, d in enumerate(clique.tasks):
        if d in target.tasks:
            keep.append(k)
    off = len(clique.tasks)
    for k, i in enumerate(clique.sources):
        if i in target.sources:
            keep.append(off + k)
    drop = tuple(a for a in range(table.ndim) if a not in keep)
    return table.sum(axis=drop) if drop else table.copy()
