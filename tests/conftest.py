"""Shared fixtures: the oracle-backed model grid used across the suite."""

import os
from collections import namedtuple
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from votefuse.errors import (NoUsableTriplet, NotTriangulated, NumericalInstability,
                             TooFewAbstainRows, UnsupportedCliqueSize)
from votefuse.graph import (
    BLOCK_ROWS,
    DependencyGraph,
    JunctionTree,
    VarSet,
    _check_clique_shapes,
    _min_degree_fill,
    _to_varset,
    marginalize_table,
)
from votefuse.moments import EPS_ACC, EPS_DEN
from votefuse.recovery import build_transform, mu_unflatten

# The moments restricted to the rows where one source abstains, over n_rows
# rows, in the former dict form of the reference statistics.
CondStats = namedtuple("CondStats", "M first n_rows")


def child_env() -> dict:
    """This environment with the package's ``src`` directory first on
    PYTHONPATH, so child interpreters import the checkout under test."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def reference_augment(votes, policy):
    """The former per-column pair encoding loop, kept as the reference for the
    lazy matrix's fills and the stream's rows."""
    n, m = votes.shape
    out = np.empty((n, 2 * m), dtype=np.int8)
    out[:, 0::2] = votes
    out[:, 1::2] = -votes
    for j in range(m):
        rows = np.nonzero(votes[:, j] == 0)[0]
        if rows.size == 0:
            continue
        vals = policy.fill_values(j, np.arange(rows.size, dtype=np.int64))
        out[rows, 2 * j] = vals
        out[rows, 2 * j + 1] = vals
    return out


def reference_encode(votes, policy, ordinals):
    """The former block encoder: the votes and their negations interleaved,
    then each column that holds abstains filled with its next ordinals in a
    per-column loop; ``ordinals`` is advanced in place. Kept as the reference
    for the parity scan of ``augment._fills``."""
    n, m = votes.shape
    out = np.empty((2 * m, n), dtype=np.int8)
    out[0::2] = votes.T
    np.negative(out[0::2], out=out[1::2])
    abstains = out[0::2] == 0
    for j in abstains.any(axis=1).nonzero()[0].tolist():
        rows = abstains[j].nonzero()[0]
        first = ordinals[j]
        vals = policy.fill_values(j, np.arange(first, first + rows.size))
        out[2 * j][rows] = vals
        out[2 * j + 1][rows] = vals
        ordinals[j] = first + rows.size
    return out.T


def reference_fills(votes, policy, ordinals=None):
    """The abstain fills of the reference encoding: its even column where a
    source abstains, 0 where it votes. With ``ordinals`` the encoding is
    ``reference_encode``'s, which advances them in place; otherwise
    ``reference_augment``'s."""
    pairs = (reference_augment(votes, policy) if ordinals is None
             else reference_encode(votes, policy, ordinals))
    return np.where(votes == 0, pairs[:, 0::2], 0).astype(np.int8)


class ReferenceStats:
    """The former statistics pass, kept as the reference for
    ``moments.RunningStats``: it encodes ``BLOCK_ROWS`` rows at a time with
    ``reference_encode``, copies each slice of ``rows`` of a block,
    transposed and with a ones column, into float32, and folds the slice's
    (2m+1) x (2m+1) Gram of pair-encoded rows into int64 totals. One more
    product per slice gives each row's tracked pair cells and each
    conditioning source's even minus odd column, 0 where it abstains."""

    def __init__(self, m, tracked_pairs=(), cond_sources=()):
        self.m = m
        c = 2 * m
        self.cond_sources = tuple(sorted(set(cond_sources)))
        self._grams = np.zeros((1 + len(self.cond_sources), c + 1, c + 1), dtype=np.int64)
        self.second = self._grams[0, :c, :c]
        self.first = self._grams[0, c, :c]
        self.tracked_pairs = tuple(sorted({(min(a, b), max(a, b)) for a, b in tracked_pairs}))
        k, kc = len(self.tracked_pairs), len(self.cond_sources)
        self._pair_cells = np.zeros(9 * k, dtype=np.int64)
        self.pair_counts = dict(zip(self.tracked_pairs, self._pair_cells.reshape(k, 3, 3)))
        self._row_map = np.zeros((k + kc, c + 1), dtype=np.float32)
        cols = 2 * np.array(self.tracked_pairs, dtype=np.intp).reshape(k, 2)[:, [0, 0, 1, 1]]
        self._row_map[np.arange(k)[:, None], cols + [0, 1, 0, 1]] = np.array([-3, 3, -1, 1]) / 2
        self._row_map[:k, c] = 9 * np.arange(k) + 4
        cond = 2 * np.array(self.cond_sources, dtype=np.intp)
        self._row_map[k + np.arange(kc), cond] = 1
        self._row_map[k + np.arange(kc), cond + 1] = -1
        self.cond_second = {i: g[:c, :c] for i, g in zip(self.cond_sources, self._grams[1:])}
        self.cond_first = {i: g[c, :c] for i, g in zip(self.cond_sources, self._grams[1:])}

    @property
    def n(self):
        return int(self._grams[0, -1, -1])

    @property
    def cond_n(self):
        return dict(zip(self.cond_sources, self._grams[1:, -1, -1].tolist()))

    @property
    def vote_counts(self):
        """From the pair columns' products d, column sums e and o, and n:
        four times the counts are (n - d + e - o, 2n + 2d, n - d - e + o)."""
        g, evens = self._grams[0], np.arange(0, 2 * self.m, 2)
        d, e, o = g[evens, evens + 1], g[-1, evens], g[-1, evens + 1]
        return np.stack([self.n - d + e - o, 2 * self.n + 2 * d, self.n - d - e + o]).T >> 2

    def _accumulate(self, aug, sign):
        n, c = aug.shape
        xt = np.empty((c + 1, n), dtype=np.float32)
        xt[:c] = aug.T
        xt[c] = 1
        update = np.add if sign > 0 else np.subtract
        gram = (xt @ xt.T).astype(np.int64)
        update(self._grams[0], gram, out=self._grams[0])
        per_row = self._row_map @ xt
        k = len(self.tracked_pairs)
        if k:
            cells = per_row[:k].astype(np.intp).ravel()
            update(self._pair_cells, np.bincount(cells, minlength=self._pair_cells.size),
                   out=self._pair_cells)
        for t, abstains in enumerate(per_row[k:] == 0):
            if abstains.any():
                sub = xt[:, abstains]
                update(self._grams[1 + t], (sub @ sub.T).astype(np.int64), out=self._grams[1 + t])

    def add(self, aug_row):
        self._accumulate(aug_row.reshape(1, -1), 1)

    def remove(self, aug_row):
        self._accumulate(aug_row.reshape(1, -1), -1)

    @classmethod
    def from_matrix(cls, votes, policy, rows, tracked_pairs=(), cond_sources=()):
        st = cls(votes.shape[1], tracked_pairs, cond_sources)
        ordinals = np.zeros(votes.shape[1], dtype=np.int64)
        for lo in range(0, votes.shape[0], BLOCK_ROWS):
            block = reference_encode(votes[lo:lo + BLOCK_ROWS], policy, ordinals)
            for start in range(0, len(block), rows):
                st._accumulate(block[start:start + rows], 1)
        return st

    def to_moments(self, prior):
        """The moments in the former dict form (``reference_to_moments``)."""
        counts = self._grams[:, -1, -1]
        n, c = int(counts[0]), 2 * self.m
        per = np.maximum(counts, 1).reshape(-1, 1, 1)
        M, first = self._grams[:, :c, :c] / per, self._grams[:, c, :c] / per[:, 0]
        k = len(self.tracked_pairs)
        return SimpleNamespace(
            n=n, M=M[0], first_moments=first[0], vote_marginals=self.vote_counts / n,
            prior=prior,
            pair_tables=dict(zip(self.tracked_pairs, (self._pair_cells / n).reshape(k, 3, 3))),
            conditional={i: CondStats(n_rows=cn, M=M[t], first=first[t]) for t, (i, cn)
                         in enumerate(zip(self.cond_sources, counts[1:].tolist()), 1) if cn > 0})


def reference_to_moments(stats, prior):
    """The former dict form of ``moments.RunningStats.to_moments``, from the
    integer statistics: every Gram divided by its count, the tracked pairs'
    cross-tabs as a dict and a ``CondStats`` for each conditioning source
    with at least one row. Kept as the reference for the array form, which
    divides only the Grams a fit reads by their counts."""
    n = stats.n
    vote_counts = stats.vote_counts
    return SimpleNamespace(
        n=n, M=stats.second / n, first_moments=stats.first / n,
        vote_marginals=vote_counts / n, prior=prior,
        pair_tables={p: cells / n for p, cells in stats.pair_counts.items()},
        conditional={i: CondStats(n_rows=cn, M=stats.cond_second[i] / cn,
                                  first=stats.cond_first[i] / cn)
                     for i, cn in stats.cond_n.items() if cn > 0})


def assert_moments_match_dict_form(got, want):
    """``got`` (a ``MomentEstimates``) holds the moments of ``want`` (the dict
    form of ``reference_to_moments``) byte for byte: every restricted moment
    over at least ``moments.N_MIN_ABSTAIN`` rows, the row count and NaN for
    the others."""
    from votefuse import moments

    assert got.n == want.n
    for name in ("M", "first_moments", "vote_marginals"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.pairs == tuple(want.pair_tables)
    for q, tbl in enumerate(want.pair_tables.values()):
        assert got.pair_cells[q].tobytes() == tbl.tobytes()
    for t, i in enumerate(got.cond_sources):
        ref = want.conditional.get(i)
        assert got.cond_n[t] == (0 if ref is None else ref.n_rows)
        if ref is not None and ref.n_rows >= moments.N_MIN_ABSTAIN:
            assert got.cond_M[t].tobytes() == ref.M.tobytes()
            assert got.cond_first[t].tobytes() == ref.first.tobytes()
        else:
            assert np.isnan(got.cond_M[t]).all() and np.isnan(got.cond_first[t]).all()
    assert set(want.conditional) <= set(got.cond_sources)


def reference_independent_columns(g):
    """The 2m x 2m mask of the column pairs of sources that no chain of
    source edges joins, by Warshall's transitive closure of the source-edge
    relation: the reference for ``TripletPlan.independent``."""
    reach = np.eye(g.n_sources, dtype=bool)
    for a, b in g.source_edges:
        reach[a, b] = reach[b, a] = True
    for k in range(g.n_sources):
        reach |= reach[:, k:k + 1] & reach[k:k + 1, :]
    return ~np.kron(reach, np.ones((2, 2), dtype=bool))


def reference_partner_pairs(g):
    """The former count of each anchor's valid partner pairs: per task, half
    the diagonal of P K P^T for the dense anchor-by-column partner mask P and
    the column-by-column mask K of the pairs in distinct components with a
    member on the task. Kept as the reference for the per-component counts
    of ``moments.enumerate_triplets``; the anchors with none are left out."""
    n_cols = 2 * g.n_sources
    task = np.asarray(g.assignment)[np.arange(n_cols) // 2]
    apart = reference_independent_columns(g)
    out = {}
    for d in range(g.n_tasks):
        on = task == d
        K = (apart & (on[:, None] | on[None, :])).astype(np.float64)
        cand = np.arange(0, n_cols, 2)[task[0::2] == d]
        P = apart[cand].astype(np.float64)
        counts = np.rint(np.einsum("aj,aj->a", P @ K, P) / 2).astype(np.int64)
        out.update((a, c) for a, c in zip(cand.tolist(), counts.tolist()) if c > 0)
    return out


def reference_log_joint(mu, votes, absolute=False):
    """The former per-factor log-joint loop over the cliques and separators
    of ``mu.jtree`` (log tables, base-3 states and broadcast shapes rebuilt
    on every call), kept as the reference for the parameter vector's one log
    and the grouped kernel over the layout ``graph.compile_layout`` builds and
    ``JunctionTree.layout`` caches on the tree. With ``absolute`` it sums the
    factors' absolute values (the scale of a summation error bound)."""
    D, jt = mu.graph.n_tasks, mu.jtree
    with np.errstate(divide="ignore"):
        factors = [(vs, np.log(mu.cliques[vs])) for vs in jt.cliques]
        for sep, deg in jt.separators:
            tbl = mu.separators[sep]
            factors.append((sep, np.where(tbl > 0, (1 - deg) * np.log(tbl), -np.inf)))
    n = votes.shape[0]
    out = np.zeros((2,) * D + (n,))
    for vs, log_tbl in factors:
        log_tbl = log_tbl.reshape(
            tuple(2 if d in vs.tasks else 1 for d in range(D)) + (-1,))
        state = np.zeros(1, dtype=np.intp)
        for i in vs.sources:
            state = 3 * state + (1 - votes[:, i])
        term = np.take(log_tbl, state, axis=-1)
        out += np.abs(term) if absolute else term
    return out


def reference_pooled_magnitudes(M, plan, columns):
    """The former per-call block selection of ``moments._pooled_magnitudes``
    for named anchors (each call cut their rows out of their task's block of
    ``plan.blocks``), kept as the reference for the one-anchor blocks
    ``TripletPlan.single`` holds."""
    out = np.full(plan.n_columns, np.nan)
    for anchors, P, K in plan.blocks:
        keep = [r for r, a in enumerate(anchors.tolist()) if a in columns]
        if not keep:
            continue
        anchors, P = anchors.take(keep), P.take(keep, axis=0)
        U = M[anchors] * P
        num = np.einsum("aj,aj->a", U @ (M * K), U)
        den = np.einsum("aj,aj->a", P @ (M * M * K), P)
        with np.errstate(divide="ignore", invalid="ignore"):
            mag = np.clip(np.sqrt(np.maximum(num, 0.0) / den), EPS_ACC, 1.0)
        out[anchors] = np.where(den >= EPS_DEN ** 2, mag, np.nan)
    return out


def reference_conditional_accuracies(pairs, moments, plan, acc, cfg):
    """The former raise-and-catch form of ``recovery._conditional_accuracies``:
    each (target, cond) pair's fit raised TooFewAbstainRows (too few rows on
    which ``cond`` abstains) or NoUsableTriplet, and the unconditional
    accuracy stood in, recorded with the exception's text. Returns the values
    and the records; kept as the reference for the substitutions decided by
    count."""
    from votefuse import moments as mod

    out, records = [], []
    for target, cond in pairs:
        hint = float(acc.values[2 * target])
        if moments.abstain_rates[cond] == 0.0:
            out.append(hint)
            continue
        col = 2 * target
        try:
            t = moments.cond_sources.index(cond) if cond in moments.cond_sources else None
            n_rows = 0  # not held
            if t is not None:
                n_rows = None if moments.cond_n is None else moments.cond_n[t]  # None: exact
            if n_rows is not None and n_rows < mod.N_MIN_ABSTAIN:
                raise TooFewAbstainRows(
                    f"source {cond + 1} abstains on {n_rows} rows; need {mod.N_MIN_ABSTAIN}")
            mag = (reference_pooled_magnitudes(moments.cond_M[t], plan, [col])[col]
                   if col in plan.pairs else None)
            if mag is not None and mag == mag:
                sign = 1.0 if hint >= 0 else -1.0
                out.append(min(max(-1.0, sign * float(mag)), 1.0))
                continue
            ey = moments.prior.task_mean(plan.task[col])
            if not (cfg.ratio_fallback and abs(ey) >= mod.EPS_PRIOR):
                raise NoUsableTriplet(
                    f"no triplets available for column {col}" if mag is None else
                    f"abstain-restricted triplets for source {target + 1} are all degenerate")
            out.append(float(np.clip(moments.cond_first[t, col] / ey, -1.0, 1.0)))
        except (TooFewAbstainRows, NoUsableTriplet) as exc:
            out.append(hint)
            records.append({"target": target + 1, "cond": cond + 1, "reason": str(exc)})
    return np.array(out), records


def reference_validate(mu, tol_sum=1e-9, tol_sep=1e-6):
    """The former per-table and per-(separator, clique) loops of
    ``LabelModelParameters.validate``, kept as the reference for the
    vectorised checks."""
    for vs, tbl in list(mu.cliques.items()) + list(mu.separators.items()):
        if np.any(tbl < 0):
            raise ValueError(f"negative entry in table {vs.label()}")
        if abs(float(tbl.sum()) - 1.0) > tol_sum:
            raise ValueError(f"table {vs.label()} sums to {tbl.sum()}")
    for sep, _deg in mu.jtree.separators:
        for cl in mu.jtree.cliques:
            if sep <= cl:
                marg = marginalize_table(cl, mu.cliques[cl], sep)
                if np.max(np.abs(marg - mu.separators[sep])) > tol_sep:
                    raise ValueError(f"clique {cl.label()} does not marginalize onto "
                                     f"separator {sep.label()}")


def _reference_mcs_order(adj):
    """Maximum cardinality search order; ties broken by lowest vertex index."""
    weight = {v: 0 for v in adj}
    order, seen = [], set()
    for _ in range(len(adj)):
        v = max(sorted(weight), key=lambda u: weight[u])
        order.append(v)
        seen.add(v)
        del weight[v]
        for u in adj[v]:
            if u not in seen:
                weight[u] += 1
    return order


def reference_is_chordal(adj):
    order = _reference_mcs_order(adj)
    pos = {v: k for k, v in enumerate(order)}
    for v in order:
        earlier = {u for u in adj[v] if pos[u] < pos[v]}
        if not earlier:
            continue
        parent = max(earlier, key=lambda u: pos[u])
        if not (earlier - {parent}) <= adj[parent]:
            return False
    return True


def _reference_maximal_cliques(adj):
    order = _reference_mcs_order(adj)
    pos = {v: k for k, v in enumerate(order)}
    candidates = [frozenset({u for u in adj[v] if pos[u] < pos[v]} | {v}) for v in order]
    maximal = [c for c in candidates if not any(c < other for other in candidates)]
    return sorted(set(maximal), key=lambda c: tuple(sorted(c)))


def reference_validate_graph(g):
    """The former ``validate_graph``: separate chordality test and clique
    search, each with its own quadratic maximum cardinality search, kept as
    the reference for the one linear search ``graph._clique_forest``."""
    adj, D = g.adjacency(), g.n_tasks
    if reference_is_chordal(adj):
        _check_clique_shapes([_to_varset(c, D) for c in _reference_maximal_cliques(adj)], g)
        return g
    task_edges, source_edges = list(g.task_edges), list(g.source_edges)
    for a, b in sorted(_min_degree_fill(adj)):
        if a < D and b < D:
            task_edges.append((a, b))
        elif a >= D and b >= D:
            source_edges.append((a - D, b - D))
        else:
            raise UnsupportedCliqueSize(
                f"triangulation requires a task-source edge "
                f"(Y{a + 1}, L{b - D + 1}); restructure the dependency graph")
    out = DependencyGraph(n_tasks=g.n_tasks, n_sources=g.n_sources,
                          assignment=g.assignment, task_edges=tuple(task_edges),
                          source_edges=tuple(source_edges))
    _check_clique_shapes(
        [_to_varset(c, D) for c in _reference_maximal_cliques(out.adjacency())], out)
    return out


def reference_junction_tree(g):
    """The former ``build_junction_tree``: the maximal cliques by an
    all-pairs subset filter, joined by an all-pairs Kruskal spanning forest
    of maximum separator size."""
    adj = g.adjacency()
    if not reference_is_chordal(adj):
        raise NotTriangulated("graph is not triangulated; run validate_graph first")
    raw = _reference_maximal_cliques(adj)
    _check_clique_shapes([_to_varset(c, g.n_tasks) for c in raw], g)
    cand = sorted((-len(raw[a] & raw[b]), a, b)
                  for a in range(len(raw)) for b in range(a + 1, len(raw))
                  if raw[a] & raw[b])
    parent = list(range(len(raw)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = []
    for _, a, b in cand:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            edges.append((a, b, _to_varset(raw[a] & raw[b], g.n_tasks)))
    counts = {}
    for _, _, sep in edges:
        counts[sep] = counts.get(sep, 0) + 1
    separators = tuple((sep, c + 1) for sep, c in
                       sorted(counts.items(), key=lambda kv: (kv[0].tasks, kv[0].sources)))
    return JunctionTree(cliques=tuple(_to_varset(c, g.n_tasks) for c in raw),
                        edges=tuple(edges), separators=separators)


def _reference_expectation(clique, acc, M, prior):
    """E[prod of member votes * task]: a single source's accuracy, or
    E[v_i v_j] * E[Y] for a pair; clipped to [-1, 1]."""
    srcs = clique.sources
    if len(srcs) == 1:
        value = float(acc[2 * srcs[0]])
    else:
        i, j = srcs
        value = float(M[2 * i, 2 * j] * prior.task_mean(clique.tasks[0]))
    return float(np.clip(value, -1.0, 1.0))


def _reference_rhs(clique, acc, moments, cond_acc, prior):
    """r_C for one clique, clamped into [0, 1], and the clamp magnitude."""
    d = clique.tasks[0]
    p_y = prior.p_pos(d)
    srcs = clique.sources

    def p_one(exp_value, p_zero):
        return 0.5 * (exp_value + 1.0 - p_zero)

    def exp(*members):
        return _reference_expectation(VarSet((d,), members), acc, moments.M, prior)

    i = srcs[0]
    z_i = float(moments.abstain_rates[i])
    r = [1.0, p_y, float(moments.vote_marginals[i, 0]), p_one(exp(i), z_i), z_i, z_i * p_y]
    if len(srcs) == 2:
        j = srcs[1]
        z_j = float(moments.abstain_rates[j])
        pair = moments.pair_cells[moments.pairs.index((i, j))]
        z_ij = float(pair[1, 1])
        r += [
            float(moments.vote_marginals[j, 0]),
            p_one(exp(j), z_j),
            float(pair[0, 0] + pair[2, 2]),
            p_one(exp(i, j), z_i + z_j - z_ij),
            float(pair[1, 0]),
            0.5 * (z_i + cond_acc[(j, i)] * z_i - z_ij),
            z_j,
            z_j * p_y,
            float(pair[0, 1]),
            0.5 * (z_j + cond_acc[(i, j)] * z_j - z_ij),
            z_ij,
            z_ij * p_y,
        ]
    e = np.array(r)
    clamp = max(0.0, -float(e.min()), float(e.max()) - 1.0)
    return (np.clip(e, 0.0, 1.0) if clamp > 0 else e), clamp


def reference_clique_tables(jtree, acc, moments, cond_acc, prior, instability=0.05):
    """The former per-clique recovery loop (expectation, right-hand side,
    solve, one clique at a time), kept as the reference for the batched
    solve. ``acc`` holds the accuracy per column and ``cond_acc`` maps
    (target, cond) to E[l_target Y | l_cond = 0]. Returns the source-clique
    tables and the clip and clamp magnitudes by label; raises
    NumericalInstability for the first offending clique in tree order."""
    tables, clips, clamps = {}, {}, {}
    for clique in jtree.source_cliques():
        label = clique.label()
        r, clamp = _reference_rhs(clique, acc, moments, cond_acc, prior)
        mu = build_transform(len(clique.sources)).A_inv @ r
        lo, hi = float(mu.min()), float(mu.max())
        if lo < -instability or hi > 1.0 + instability:
            raise NumericalInstability(
                f"marginal for {label} solved to range [{lo:.4f}, {hi:.4f}] (clique {label})")
        mu = np.clip(mu, 0.0, None)
        total = float(mu.sum())
        if total <= 0.0:
            raise NumericalInstability(f"marginal for {label} has no mass (clique {label})")
        tables[clique] = mu_unflatten(mu / total, len(clique.sources))
        clips[label] = max(0.0, -lo, hi - 1.0)
        clamps[label] = clamp
    return tables, clips, clamps


def star(m: int) -> DependencyGraph:
    return DependencyGraph(n_tasks=1, n_sources=m, assignment=(0,) * m)


def star_with_edges(m: int, edges) -> DependencyGraph:
    return DependencyGraph(n_tasks=1, n_sources=m, assignment=(0,) * m,
                           source_edges=tuple(edges))


def chain3() -> DependencyGraph:
    """Three chained tasks with three conditionally independent sources each."""
    return DependencyGraph(
        n_tasks=3, n_sources=9,
        assignment=(0, 0, 0, 1, 1, 1, 2, 2, 2),
        task_edges=((0, 1), (1, 2)),
    )


def acceptance_grid():
    """The 12 (graph, seed, abstaining) models used by the closure criteria."""
    return [
        (star(3), 11, True),
        (star(3), 12, False),
        (star(5), 21, True),
        (star(5), 22, False),
        (star_with_edges(5, [(0, 1)]), 23, True),
        (star_with_edges(5, [(0, 1)]), 24, False),
        (star(8), 31, True),
        (star_with_edges(8, [(1, 2)]), 32, True),
        (star_with_edges(8, [(1, 2)]), 33, False),
        (star_with_edges(8, [(0, 1), (4, 5)]), 34, True),
        (star_with_edges(8, [(0, 1), (4, 5)]), 35, False),
        (chain3(), 41, True),
    ]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)
