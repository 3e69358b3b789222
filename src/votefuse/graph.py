"""Domain types shared by all pipeline stages.

Conventions used across the package:

* Tasks and sources are 0-indexed in code (text file formats are 1-indexed).
* Task states are +1/-1, encoded as axis indices 0/1.
* Vote states are +1/0/-1 (0 = abstain), encoded as axis indices 0/1/2.
* Source ``i`` lifts to the observed column pair ``(2i, 2i+1)``; column ``2i``
  tracks the vote and ``2i+1`` mirrors it. The pair encoding of votes lives
  in ``augment``, whose ``AugmentedLabelMatrix`` computes it lazily.
* Probability tables over a clique use axes ``(task..., source...)`` with
  member indices ascending.

The fitted parameters (``LabelModelParameters``) store every clique and
separator table in one read-only float64 vector. Where each table lives is
decided here only, by the ``TableLayout`` that ``compile_layout`` builds once
per junction tree and caches on it (``jtree.layout``): recovery writes into
the vector, inference takes its log, ``validate()`` checks it, and the
``cliques``/``separators`` mappings are read-only views of it.
``LabelModelParameters.from_tables`` is the way in for per-table arrays.

The graph layer is one maximum cardinality search (``_clique_forest``),
linear in vertices plus edges: it tests chordality and, on a chordal graph,
yields the maximal cliques and a clique forest joining them.
``validate_graph`` and ``build_junction_tree`` both run it; only a graph that
is not chordal also pays for the minimum-degree fill.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

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

# Rows per call of the block kernels: posteriors in ``inference`` and the
# CSV writers in ``fileio``. Working memory scales with the block, not with n.
BLOCK_ROWS = 1 << 14

# Most sources in one ``FactorGroup``: a row's base-3 state over them,
# below 3^5 = 243, fits a uint8.
GROUP_SOURCES = 5


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _clip(x, lo: float, hi: float):
    """np.clip(x, lo, hi), bit for bit (signed zeros and NaN included),
    without the Python-level wrapper that costs more than the arithmetic on
    a stream step's small arrays."""
    return np.minimum(np.maximum(lo, x), hi)


# ---------------------------------------------------------------------------
# label matrix
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
        raw = np.asarray(self.votes)
        if raw.ndim != 2:
            raise ValueError("votes must be a 2-d array")
        # check the given values before narrowing, so 257 or 1.7 cannot wrap
        # or truncate into range; an integer array needs only its extremes
        if raw.size and not (raw.dtype.kind in "biu" and np.minimum.reduce(raw, axis=None) >= -1
                             and np.maximum.reduce(raw, axis=None) <= 1):
            bad = np.argwhere((raw != -1) & (raw != 0) & (raw != 1))
            if bad.size:
                r, c = bad[0]
                raise ValueError(f"vote out of {{-1,0,+1}} at row {r}, column {c}")
        object.__setattr__(self, "votes", _freeze(raw.astype(np.int8, copy=False)))

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


# ---------------------------------------------------------------------------
# dependency graph
# ---------------------------------------------------------------------------

def _norm_edges(edges, what: str, name: str) -> Tuple[Tuple[int, int], ...]:
    out = set()
    for a, b in edges:
        a, b = int(a), int(b)
        if a == b:
            raise SelfEdge(f"{what} edge ({name}{a + 1}, {name}{b + 1}) is a self-edge")
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
        object.__setattr__(self, "task_edges", _norm_edges(self.task_edges, "task", "Y"))
        object.__setattr__(self, "source_edges", _norm_edges(self.source_edges, "source", "L"))
        if self.n_tasks < 1:
            raise ValueError("need at least one task")
        if len(self.assignment) != self.n_sources:
            raise AssignmentMissing(
                f"{self.n_sources} sources but {len(self.assignment)} assignments"
            )
        for i, t in enumerate(self.assignment):
            if not 0 <= t < self.n_tasks:
                raise AssignmentMissing(f"source L{i + 1} assigned to unknown task Y{t + 1}")
        for a, b in self.task_edges:
            if not 0 <= a < self.n_tasks or not 0 <= b < self.n_tasks:
                raise ValueError(f"task edge (Y{a + 1}, Y{b + 1}) out of range")
        for a, b in self.source_edges:
            if not 0 <= a < self.n_sources or not 0 <= b < self.n_sources:
                raise ValueError(f"source edge (L{a + 1}, L{b + 1}) out of range")

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


# ---------------------------------------------------------------------------
# chordality, triangulation, junction tree
# ---------------------------------------------------------------------------

def _clique_forest(adj: Dict[int, set]) -> Optional[Tuple[list, list]]:
    """One maximum cardinality search over ``adj``, in O(vertices + edges).

    Returns None when the graph is not chordal: each vertex's visited
    neighbours, bar the last one visited, must all be adjacent to that last
    one (Tarjan & Yannakakis, 1984). Otherwise returns the maximal cliques,
    sorted, and the ``(clique, clique, separator)`` edges of a clique forest
    over them (Blair & Peyton, 1993): a vertex with no more visited
    neighbours than the vertex before it starts a new clique, itself plus
    those neighbours; the clique's parent is the clique of the last-visited
    neighbour, and the neighbours are the separator.
    """
    visited: Dict[int, int] = {}  # vertex -> position in the search
    clique_of: Dict[int, int] = {}
    weight = dict.fromkeys(adj, 0)
    # buckets[w] lists each vertex once per weight it reaches; a popped entry
    # is stale when its vertex was visited or has moved to a heavier bucket
    buckets = [sorted(adj, reverse=True)] + [[] for _ in adj]
    top = prev = 0
    cliques, links = [], []
    for pos in range(len(adj)):
        while True:
            while not buckets[top]:
                top -= 1
            v = buckets[top].pop()
            if v not in visited and weight[v] == top:
                break
        earlier = [u for u in adj[v] if u in visited]
        if earlier:
            last = max(earlier, key=visited.__getitem__)
            if not all(u == last or u in adj[last] for u in earlier):
                return None
        if len(earlier) <= prev:
            if earlier:
                links.append((clique_of[last], len(cliques), frozenset(earlier)))
            cliques.append(set(earlier))
        cliques[-1].add(v)
        clique_of[v] = len(cliques) - 1
        visited[v] = pos
        prev = len(earlier)
        for u in adj[v]:
            if u not in visited:
                weight[u] += 1
                buckets[weight[u]].append(u)
        top += 1  # a neighbour of v may now outweigh v by one
    order = sorted(range(len(cliques)), key=lambda k: tuple(sorted(cliques[k])))
    rank = {k: r for r, k in enumerate(order)}
    return ([frozenset(cliques[k]) for k in order],
            [(rank[a], rank[b], sep) for a, b, sep in links])


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

    ``edges`` are (clique index, clique index, separator VarSet) triples of a
    clique forest; ``separators`` groups equal separator sets with their
    adjacency degree d(S) (number of adjacent maximal cliques, i.e. one more
    than the number of forest edges carrying that separator). Every clique
    forest of a chordal graph has the same separators, so only ``edges``
    depends on which one the search builds.
    """

    cliques: Tuple[VarSet, ...]
    edges: Tuple[Tuple[int, int, VarSet], ...]
    separators: Tuple[Tuple[VarSet, int], ...]

    @property
    def layout(self) -> "TableLayout":
        """The tree's table layout, compiled on first use."""
        return self.__dict__.get("_layout") or compile_layout(self)

    def source_cliques(self) -> Tuple[VarSet, ...]:
        return tuple(c for c in self.cliques if c.sources)

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


def _check_clique_shapes(cliques: Tuple[VarSet, ...], g: DependencyGraph) -> None:
    for vs in cliques:
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

    One maximum cardinality search (``_clique_forest``) tests chordality and
    yields the maximal cliques. Already-chordal graphs are returned
    unchanged, so validation is idempotent. Fill edges come from a
    minimum-degree elimination order with ties broken by vertex index.
    Triangulations that would require a task-source fill edge, or that create
    cliques beyond one task plus two same-task sources, are rejected.
    """
    adj = g.adjacency()
    forest = _clique_forest(adj)
    if forest is not None:
        _check_clique_shapes(tuple(_to_varset(c, g.n_tasks) for c in forest[0]), g)
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
    _check_clique_shapes(
        tuple(_to_varset(c, D) for c in _clique_forest(out.adjacency())[0]), out)
    return out


def build_junction_tree(g: DependencyGraph) -> JunctionTree:
    """Clique/separator decomposition of a triangulated dependency graph.

    The maximal cliques and the clique forest joining them both come from
    the one maximum cardinality search that also tests chordality
    (``_clique_forest``); a clique forest has the running intersection
    property by construction.
    """
    forest = _clique_forest(g.adjacency())
    if forest is None:
        raise NotTriangulated("graph is not triangulated; run validate_graph first")
    raw, links = forest
    cliques = tuple(_to_varset(c, g.n_tasks) for c in raw)
    _check_clique_shapes(cliques, g)
    edges = tuple((a, b, _to_varset(sep, g.n_tasks)) for a, b, sep in links)

    counts: Dict[VarSet, int] = {}
    for _, _, sep in edges:
        counts[sep] = counts.get(sep, 0) + 1
    separators = tuple(
        (sep, c + 1) for sep, c in sorted(counts.items(), key=lambda kv: (kv[0].tasks, kv[0].sources))
    )
    return JunctionTree(cliques=cliques, edges=edges, separators=separators)


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

    @property
    def means(self) -> np.ndarray:
        """E[Y_d] of every task as one read-only vector, computed on first
        use."""
        means = self.__dict__.get("_means")
        if means is None:
            means = np.array([self.task_mean(d) for d in range(self.n_tasks)])
            self.__dict__["_means"] = means = _freeze(means)
        return means

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
        """Marginal joint over the given tasks (axes ascending), read-only."""
        tasks = tuple(sorted(tasks))
        tables = self.__dict__.setdefault("_tables", {})
        if tasks not in tables:
            tables[tasks] = _freeze(self._table(tasks))
        return tables[tasks]

    def _table(self, tasks: Tuple[int, ...]) -> np.ndarray:
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


@dataclass(frozen=True)
class TableFactor:
    """One clique (``degree`` 0) or separator table of the junction-tree
    product: entries ``span`` of the parameter vector, row-major with
    ``shape``. Inference reshapes its log table to ``bcast``, 2 or 1 per
    task then one axis over the base-3 states of its sources; a row's state
    is ``strides`` dotted with the vote states of ``sources``."""

    vs: VarSet
    degree: int
    span: slice
    shape: Tuple[int, ...]
    bcast: Tuple[int, ...]
    sources: np.ndarray
    strides: np.ndarray


@dataclass(frozen=True)
class FactorGroup:
    """A run of consecutive factors of a ``TableLayout`` over at most
    ``GROUP_SOURCES`` distinct ``sources``, first seen first. A row's group
    state is its vote states over ``sources`` read as base-3 digits, the
    first the most significant; ``cells[f]`` holds factor f's state at each
    of the 3^len(sources) group states. ``span`` is the factors' slice of
    the layout's."""

    factors: Tuple[TableFactor, ...]
    sources: Tuple[int, ...]
    cells: Tuple[np.ndarray, ...]
    span: slice


def _factor_groups(factors) -> Tuple[FactorGroup, ...]:
    """``factors`` cut, in order, into the longest runs over at most
    ``GROUP_SOURCES`` sources; a task-only table joins the current run."""
    runs, run, sources = [], [], []
    for f in factors:
        new = [i for i in f.vs.sources if i not in sources]
        if len(sources) + len(new) > GROUP_SOURCES:
            runs.append((run, sources))
            run, sources, new = [], [], list(f.vs.sources)
        run.append(f)
        sources += new
    runs.append((run, sources))
    # the digits of every group state, one row per source, for each k
    digits = [np.indices((3,) * k, dtype=np.intp).reshape(k, 3 ** k)
              for k in range(GROUP_SOURCES + 1)]
    groups, lo = [], 0
    for run, sources in runs:
        weights = np.zeros((len(run), len(sources)), dtype=np.intp)
        for r, f in enumerate(run):
            for i, stride in zip(f.vs.sources, f.strides.tolist()):
                weights[r, sources.index(i)] = stride
        groups.append(FactorGroup(tuple(run), tuple(sources), tuple(weights @ digits[len(sources)]),
                                  slice(lo, lo + len(run))))
        lo += len(run)
    return tuple(groups)


@dataclass(frozen=True)
class TableLayout:
    """Where each table of a junction tree lives in the parameter vector:
    ``factors``, the ``n_cliques`` cliques in tree order then the separators,
    start at ``starts``; ``scale`` is each entry's exponent in the product.
    Separator entries ``host`` are ``marginal`` summed over axis 1, a (k, 3)
    gather from the first clique in tree order that contains them. Over
    ``pairs``, each (clique, separator it contains) by separator then clique,
    clique entry ``pair_entry[e]`` sums into slot ``pair_slot[e]``; slots
    match separator entries ``pair_sep``, and pair p's start at
    ``pair_starts[p]``. ``groups`` cuts ``factors`` into the runs that
    inference sums before it gathers.

    ``row_base`` and ``row_weights`` index every factor's log table at
    every task configuration for any vote row at once: factor f's entry for
    configuration y (C order over (2,)*D) and a row of votes v is
    ``row_base[f, y] - row_weights[f] @ v``, its entry where every source
    abstains moved by each source's stride (0 off the factor) per vote,
    as a vote v has state 1 - v. Inference takes
    that gather for a block of at most ``gather_rows`` rows, whose F x 2^D
    terms per row then number no more than the groups' tables on their 3^k
    states, which a longer block reads instead. ``row_base`` is None when
    ``gather_rows`` is 0."""

    factors: Tuple[TableFactor, ...]
    n_cliques: int
    size: int
    starts: np.ndarray
    scale: np.ndarray
    host: np.ndarray
    marginal: np.ndarray
    pairs: Tuple[Tuple[VarSet, VarSet], ...]
    pair_entry: np.ndarray
    pair_slot: np.ndarray
    pair_sep: np.ndarray
    pair_starts: np.ndarray
    groups: Tuple[FactorGroup, ...]
    gather_rows: int
    row_base: Optional[np.ndarray]
    row_weights: np.ndarray

    def views(self, table: np.ndarray) -> Tuple[Mapping[VarSet, np.ndarray], ...]:
        """Read-only VarSet -> table mappings over ``table``: the cliques,
        then the separators, in tree order."""
        n = self.n_cliques
        return (MappingProxyType({f.vs: table[f.span].reshape(f.shape) for f in self.factors[:n]}),
                MappingProxyType({f.vs: table[f.span].reshape(f.shape) for f in self.factors[n:]}))


def _entries(f: TableFactor) -> np.ndarray:
    return np.arange(f.span.start, f.span.stop)


def _concat(parts: list) -> np.ndarray:
    return np.concatenate([np.empty(0, dtype=np.intp)] + parts)


def _onto(clique: TableFactor, sep: TableFactor) -> np.ndarray:
    """The entry of ``sep`` that each entry of ``clique`` marginalises onto."""
    kept = [v in sep.vs.tasks for v in clique.vs.tasks] + [
        v in sep.vs.sources for v in clique.vs.sources]
    axes = [n if keep else 1 for n, keep in zip(clique.shape, kept)]
    return np.broadcast_to(np.arange(math.prod(axes)).reshape(axes), clique.shape).ravel()


def compile_layout(jt: JunctionTree) -> TableLayout:
    """The table layout of ``jt``, cached on the tree as ``jt.layout``."""
    n_tasks = 1 + max(d for c in jt.cliques for d in c.tasks)  # every table has a task
    factors, size = [], 0
    for vs, degree in [(c, 0) for c in jt.cliques] + list(jt.separators):
        shape, s = clique_table_shape(vs), len(vs.sources)
        factors.append(TableFactor(
            vs, degree, slice(size, size + math.prod(shape)), shape,
            tuple(2 if d in vs.tasks else 1 for d in range(n_tasks)) + (-1,),
            np.array(vs.sources, dtype=np.intp), 3 ** np.arange(s - 1, -1, -1, dtype=np.intp)))
        size = factors[-1].span.stop
    cliques = factors[:len(jt.cliques)]
    pairs = [(c, sep) for sep in factors[len(cliques):] for c in cliques if sep.vs <= c.vs]
    onto = [_onto(c, sep) for c, sep in pairs]
    offsets = np.cumsum([0] + [math.prod(sep.shape) for _, sep in pairs], dtype=np.intp)
    hosts = {}
    for k, (_, sep) in enumerate(pairs):
        if sep.vs.sources:
            hosts.setdefault(sep.vs, k)
    groups = _factor_groups(factors)
    # the entries of the group tables: each group's task axes by its 3^k states
    grid = sum(math.prod(np.broadcast_shapes(*(f.bcast[:-1] for f in group.factors)))
               * 3 ** len(group.sources) for group in groups)
    gather_rows = grid // (len(factors) << n_tasks)
    layout = jt.__dict__["_layout"] = TableLayout(
        factors=tuple(factors), n_cliques=len(cliques), size=size,
        starts=np.array([f.span.start for f in factors], dtype=np.intp),
        scale=np.repeat([1.0 - f.degree for f in factors],
                        [f.span.stop - f.span.start for f in factors]),
        host=_concat([_entries(pairs[k][1]) for k in hosts.values()]),
        marginal=_concat([pairs[k][0].span.start + np.argsort(onto[k], kind="stable")
                          for k in hosts.values()]).reshape(-1, 3),
        pairs=tuple((c.vs, sep.vs) for c, sep in pairs),
        pair_entry=_concat([_entries(c) for c, _ in pairs]),
        pair_slot=_concat([start + o for start, o in zip(offsets.tolist(), onto)]),
        pair_sep=_concat([_entries(sep) for _, sep in pairs]), pair_starts=offsets[:-1],
        groups=groups, gather_rows=gather_rows,
        row_base=_row_base(factors, n_tasks) if gather_rows else None,
        row_weights=_row_weights(factors))
    return layout


def _row_base(factors, n_tasks: int) -> np.ndarray:
    """Per factor, the entry of its table at each task configuration (C
    order over (2,)*n_tasks) where every source abstains (state 1)."""
    # the entry of a configuration is its index over the factor's own task
    # axes, scaled by the 3^s source states each task state spans
    weights = np.zeros((len(factors), n_tasks), dtype=np.intp)
    for r, f in enumerate(factors):
        s = len(f.vs.sources)
        for k, d in enumerate(f.vs.tasks):
            weights[r, d] = 3 ** s << (len(f.vs.tasks) - 1 - k)
    configs = np.indices((2,) * n_tasks, dtype=np.intp).reshape(n_tasks, -1)
    starts = np.array([f.span.start + int(f.strides.sum()) for f in factors], dtype=np.intp)
    return _freeze(starts[:, None] + weights @ configs)


def _row_weights(factors) -> np.ndarray:
    """Each factor's source strides as a row over all sources, 0 elsewhere;
    int8, as a table's at most two sources shift a row's entry by at most 4."""
    m = 1 + max((int(f.sources.max()) for f in factors if f.sources.size), default=-1)
    out = np.zeros((len(factors), m), dtype=np.int8)
    for r, f in enumerate(factors):
        out[r, f.sources] = f.strides
    return _freeze(out)


@dataclass
class LabelModelParameters:
    """Marginal probability tables over every maximal clique and separator,
    stored in ``table``, one read-only float64 vector laid out by
    ``jtree.layout``. Each table is row-major with task axes first (states
    +1,-1), then source axes (states +1,0,-1), member indices ascending.
    ``cliques`` and ``separators`` map each VarSet to a read-only view of its
    table, in tree order; ``from_tables`` builds parameters from such maps.
    The maps, ``log_table`` and ``group_tables`` are built on first use."""

    graph: DependencyGraph
    jtree: JunctionTree
    table: np.ndarray
    diagnostics: object = None

    def __post_init__(self):
        layout = self.jtree.layout
        self.table = np.ascontiguousarray(self.table, dtype=np.float64)
        if self.table.shape != (layout.size,):
            raise ValueError(f"the tables take {layout.size} entries, not {self.table.shape}")
        self.table.flags.writeable = False

    def __getstate__(self) -> dict:
        # the view maps (mapping proxies, which cannot be pickled), the log
        # table and the group tables are rebuilt on first use
        return {k: v for k, v in self.__dict__.items()
                if k not in ("_view_maps", "_log_table", "_group_tables")}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.table.flags.writeable = False  # a copied array is writeable

    def _views(self) -> Tuple[Mapping[VarSet, np.ndarray], Mapping[VarSet, np.ndarray]]:
        views = self.__dict__.get("_view_maps")
        if views is None:
            views = self.__dict__["_view_maps"] = self.jtree.layout.views(self.table)
        return views

    @property
    def cliques(self) -> Mapping[VarSet, np.ndarray]:
        return self._views()[0]

    @property
    def separators(self) -> Mapping[VarSet, np.ndarray]:
        return self._views()[1]

    @property
    def log_table(self) -> np.ndarray:
        """Each entry's log times its exponent in the junction-tree product
        (``layout.scale``): log(clique entry), -(deg - 1) * log(separator
        entry); -inf where an entry is zero. Read-only."""
        out = self.__dict__.get("_log_table")
        if out is None:
            positive = self.table > 0
            out = np.empty(self.table.shape)
            out.fill(-np.inf)
            np.log(self.table, out=out, where=positive)
            np.multiply(self.jtree.layout.scale, out, out=out, where=positive)
            self.__dict__["_log_table"] = out = _freeze(out)
        return out

    @property
    def group_tables(self) -> Tuple[np.ndarray, ...]:
        """Per ``FactorGroup`` of the layout, its factors' ``log_table``
        entries summed, in factor order, at each of its 3^k group states: an
        array with the factors' broadcast task axes and one axis of 3^k
        states (1 when the group has no sources). Read-only."""
        out = self.__dict__.get("_group_tables")
        if out is None:
            log_table, tables = self.log_table, []
            for group in self.jtree.layout.groups:
                acc = None
                for f, cells in zip(group.factors, group.cells):
                    term = log_table[f.span].reshape(f.bcast)
                    if len(f.sources):
                        term = term.take(cells, axis=-1)
                    acc = term if acc is None else acc + term
                tables.append(_freeze(acc))
            self.__dict__["_group_tables"] = out = tuple(tables)
        return out

    @classmethod
    def from_tables(cls, graph: DependencyGraph, jtree: JunctionTree,
                    cliques: Mapping[VarSet, np.ndarray],
                    separators: Mapping[VarSet, np.ndarray]) -> "LabelModelParameters":
        """Parameters from one table per clique and per separator of
        ``jtree``; raises ValueError on a missing or extra table or a table
        of the wrong shape."""
        table = np.empty(jtree.layout.size)
        for kind, given, slots in zip(("clique", "separator"), (cliques, separators),
                                      jtree.layout.views(table)):
            extra = [vs for vs in given if vs not in slots]
            if extra:
                raise ValueError(f"{extra[0].label()} is not a {kind} of the junction tree")
            for vs, slot in slots.items():
                if vs not in given:
                    raise ValueError(f"no table for {kind} {vs.label()}")
                tbl = np.asarray(given[vs], dtype=np.float64)
                if tbl.shape != slot.shape:
                    raise ValueError(f"table for {vs.label()} has shape {tbl.shape}")
                slot[...] = tbl
        return cls(graph, jtree, table)

    def validate(self, tol_sum: float = 1e-9, tol_sep: float = 1e-6) -> None:
        """Assert the probability-table invariants; raises ValueError naming
        the first table, in layout order, with a negative entry or a sum off
        1 by more than ``tol_sum``, else the first pair of ``layout.pairs``
        whose clique marginal is off the separator by more than ``tol_sep``."""
        layout, table = self.jtree.layout, self.table
        # the verdict sums in entry order; the message quotes the table's own sum
        bad = np.logical_or.reduceat(table < 0, layout.starts) | (
            np.abs(np.add.reduceat(table, layout.starts) - 1.0) > tol_sum)
        if bad.any():
            f = layout.factors[int(np.argmax(bad))]
            tbl = table[f.span].reshape(f.shape)
            raise ValueError(f"negative entry in table {f.vs.label()}" if np.any(tbl < 0)
                             else f"table {f.vs.label()} sums to {tbl.sum()}")
        onto = np.bincount(layout.pair_slot, weights=table[layout.pair_entry])
        gap = np.maximum.reduceat(np.abs(onto - table[layout.pair_sep]), layout.pair_starts)
        if np.any(gap > tol_sep):
            cl, sep = layout.pairs[int(np.argmax(gap > tol_sep))]
            raise ValueError(f"clique {cl.label()} does not marginalize onto "
                             f"separator {sep.label()}")


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
