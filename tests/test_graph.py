import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votefuse import graph
from votefuse.errors import (
    AssignmentMissing,
    GraphError,
    NotTriangulated,
    SelfEdge,
    UnsupportedCliqueSize,
)
from votefuse.graph import (
    ClassPrior,
    DependencyGraph,
    LabelMatrix,
    LabelModelParameters,
    VarSet,
    build_junction_tree,
    marginalize_table,
    validate_graph,
)

from votefuse.oracle import enumerate_joint, random_model

from conftest import (
    chain3,
    reference_is_chordal,
    reference_junction_tree,
    reference_validate,
    reference_validate_graph,
    star,
    star_with_edges,
)


class TestLabelMatrix:
    def test_entries_validated(self):
        with pytest.raises(ValueError, match="row 1, column 2"):
            LabelMatrix(np.array([[0, 0, 0], [1, 0, 2]]))

    @pytest.mark.parametrize("votes", [
        np.array([[1, 0], [257, -1]]),
        np.array([[1, 0], [255, -1]]),
        np.array([[1, 0], [1.7, -1]]),
        np.array([[1, 0], [2 ** 32 + 1, -1]]),
        np.array([[1, 0], [255, 1]], dtype=np.uint8),
    ])
    def test_values_checked_before_narrowing(self, votes):
        # each bad entry used to narrow to int8 first and pass as 1 or -1
        with pytest.raises(ValueError, match="row 1, column 0"):
            LabelMatrix(votes)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint8, np.float64, bool])
    def test_valid_values_of_any_dtype_accepted(self, dtype):
        votes = np.array([[1, 0], [0, 1]], dtype=dtype)
        L = LabelMatrix(votes)
        assert L.votes.dtype == np.int8
        np.testing.assert_array_equal(L.votes, votes)

    def test_fit_shape_requirements(self):
        L = LabelMatrix(np.array([[1, -1]]))
        with pytest.raises(ValueError, match="at least 3 sources"):
            L.require_fit_shape()
        L.require_fit_shape(allow_small=True)
        empty = LabelMatrix(np.zeros((0, 3), dtype=np.int8))
        with pytest.raises(ValueError, match="at least one sample"):
            empty.require_fit_shape()

    def test_votes_frozen(self):
        L = LabelMatrix(np.array([[1, 0, -1]]))
        with pytest.raises(ValueError):
            L.votes[0, 0] = 0


class TestValidateGraph:
    def test_star_unchanged(self):
        g = star(3)
        assert validate_graph(g) is g

    def test_four_cycle_gets_one_chord(self):
        g = DependencyGraph(n_tasks=4, n_sources=0, assignment=(),
                            task_edges=((0, 1), (1, 2), (2, 3), (0, 3)))
        out = validate_graph(g)
        assert len(out.task_edges) == 5

    def test_chain_of_tasks_unchanged(self):
        g = chain3()
        assert validate_graph(g) is g

    def test_idempotent(self):
        g = DependencyGraph(n_tasks=4, n_sources=0, assignment=(),
                            task_edges=((0, 1), (1, 2), (2, 3), (0, 3)))
        once = validate_graph(g)
        assert validate_graph(once) is once

    def test_self_edge_rejected(self):
        with pytest.raises(SelfEdge):
            DependencyGraph(n_tasks=1, n_sources=3, assignment=(0, 0, 0),
                            source_edges=((1, 1),))

    def test_missing_assignment_rejected(self):
        with pytest.raises(AssignmentMissing):
            DependencyGraph(n_tasks=1, n_sources=3, assignment=(0, 0))

    def test_three_source_clique_rejected(self):
        g = star_with_edges(4, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(UnsupportedCliqueSize):
            validate_graph(g)

    def test_cross_task_source_edge_rejected(self):
        g = DependencyGraph(n_tasks=2, n_sources=4, assignment=(0, 0, 1, 1),
                            task_edges=((0, 1),), source_edges=((1, 2),))
        with pytest.raises(UnsupportedCliqueSize):
            validate_graph(g)


class TestJunctionTree:
    def test_star_decomposition(self):
        jt = build_junction_tree(star(3))
        labels = {c.label() for c in jt.cliques}
        assert labels == {"{Y1,L1}", "{Y1,L2}", "{Y1,L3}"}
        assert len(jt.separators) == 1
        sep, deg = jt.separators[0]
        assert sep == VarSet((0,), ()) and deg == 3

    def test_dependent_pair_clique(self):
        jt = build_junction_tree(star_with_edges(4, [(0, 1)]))
        labels = {c.label() for c in jt.cliques}
        assert "{Y1,L1,L2}" in labels
        assert "{Y1,L3}" in labels and "{Y1,L4}" in labels

    def test_chain_separators(self):
        jt = build_junction_tree(chain3())
        assert jt.running_intersection_holds()
        degs = {s.label(): d for s, d in jt.separators}
        assert degs == {"{Y1}": 4, "{Y2}": 5, "{Y3}": 4}

    def test_requires_triangulated(self):
        g = DependencyGraph(n_tasks=4, n_sources=0, assignment=(),
                            task_edges=((0, 1), (1, 2), (2, 3), (0, 3)))
        with pytest.raises(NotTriangulated):
            build_junction_tree(g)

    def test_every_edge_in_some_clique(self):
        g = validate_graph(star_with_edges(6, [(0, 1), (3, 4)]))
        jt = build_junction_tree(g)
        for a, b in g.source_edges:
            assert any(a in c.sources and b in c.sources for c in jt.cliques)
        for i, d in enumerate(g.assignment):
            assert any(i in c.sources and d in c.tasks for c in jt.cliques)

    def test_separator_degree_identity(self):
        # sum over separators of (d(S) - 1) = #cliques - 1 for connected graphs
        for g in (star(4), star_with_edges(5, [(1, 2)]), chain3()):
            jt = build_junction_tree(validate_graph(g))
            assert sum(d - 1 for _, d in jt.separators) == len(jt.cliques) - 1


@st.composite
def small_graphs(draw):
    D = draw(st.integers(1, 3))
    m = draw(st.integers(0, 5))
    assignment = tuple(draw(st.integers(0, D - 1)) for _ in range(m))
    tedges = []
    for a in range(D):
        for b in range(a + 1, D):
            if draw(st.booleans()):
                tedges.append((a, b))
    sedges = []
    for a in range(m):
        for b in range(a + 1, m):
            if assignment[a] == assignment[b] and draw(st.integers(0, 3)) == 0:
                sedges.append((a, b))
    return DependencyGraph(n_tasks=D, n_sources=m, assignment=assignment,
                           task_edges=tuple(tedges), source_edges=tuple(sedges))


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_triangulation_idempotent_and_tree_consistent(g):
    try:
        v = validate_graph(g)
    except UnsupportedCliqueSize:
        return
    assert validate_graph(v) is v
    jt = build_junction_tree(v)
    assert jt.running_intersection_holds()
    # every validated edge sits inside some maximal clique
    for a, b in v.task_edges:
        assert any(a in c.tasks and b in c.tasks for c in jt.cliques)
    for a, b in v.source_edges:
        assert any(a in c.sources and b in c.sources for c in jt.cliques)


@st.composite
def any_graphs(draw):
    """Any assignment and any task and source edges: cross-task source
    edges, source cliques of three and more, and chordless cycles."""
    D = draw(st.integers(1, 4))
    m = draw(st.integers(1, 9))
    assignment = tuple(draw(st.integers(0, D - 1)) for _ in range(m))

    def some(pairs, most):
        return draw(st.sets(st.sampled_from(pairs), max_size=most)) if pairs else set()

    task_edges = some([(a, b) for a in range(D) for b in range(a + 1, D)], 6)
    if D == 4 and draw(st.booleans()):
        # a chordless task 4-cycle triangulates into supported cliques;
        # random edges seldom draw one
        task_edges |= {(0, 1), (1, 2), (2, 3), (0, 3)}
    return DependencyGraph(
        n_tasks=D, n_sources=m, assignment=assignment, task_edges=tuple(task_edges),
        source_edges=tuple(some([(a, b) for a in range(m) for b in range(a + 1, m)], 8)))


def _outcome(fn, g):
    try:
        return fn(g), None
    except GraphError as exc:
        return None, (type(exc), str(exc))


def _components(adj):
    seen, count = set(), 0
    for v in adj:
        if v in seen:
            continue
        count += 1
        stack = [v]
        seen.add(v)
        while stack:
            for u in adj[stack.pop()] - seen:
                seen.add(u)
                stack.append(u)
    return count


@settings(max_examples=400, deadline=None)
@given(any_graphs())
def test_one_search_matches_the_reference(g):
    adj = g.adjacency()
    assert (graph._clique_forest(adj) is not None) == reference_is_chordal(adj)
    got, err = _outcome(validate_graph, g)
    want, want_err = _outcome(reference_validate_graph, g)
    assert err == want_err
    assert got == want and (got is g) == (want is g)
    for h in (g,) if want is None else (g, want):
        jt, err = _outcome(build_junction_tree, h)
        ref, ref_err = _outcome(reference_junction_tree, h)
        assert err == ref_err
        if ref is None:
            continue
        assert jt.cliques == ref.cliques
        assert jt.separators == ref.separators
        assert jt.running_intersection_holds()
        assert len(jt.edges) == len(jt.cliques) - _components(h.adjacency())


class TestClassPrior:
    def test_joint_must_normalize(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ClassPrior(n_tasks=1, joint=np.array([0.6, 0.5]))

    def test_balance_round_trip(self):
        p = ClassPrior.from_balance(0.3)
        assert p.p_pos(0) == pytest.approx(0.3, abs=1e-15)
        assert p.task_mean(0) == pytest.approx(-0.4, abs=1e-15)

    def test_factorized_pair_table(self):
        p = ClassPrior(n_tasks=2, task_means=np.array([0.2, -0.1]),
                       pair_means={(0, 1): 0.3})
        tbl = p.table((0, 1))
        assert tbl.sum() == pytest.approx(1.0, abs=1e-12)
        assert tbl[0, 0] - tbl[0, 1] - tbl[1, 0] + tbl[1, 1] == pytest.approx(0.3)
        with pytest.raises(ValueError, match="3 or more"):
            ClassPrior(n_tasks=3, task_means=np.zeros(3), pair_means={}).table((0, 1, 2))

    def test_joint_marginals(self):
        table = np.array([[[0.1, 0.2], [0.05, 0.15]], [[0.2, 0.1], [0.12, 0.08]]])
        p = ClassPrior(n_tasks=3, joint=table)
        assert p.task_mean(0) == pytest.approx(float(table[0].sum() - table[1].sum()))
        sub = p.table((0, 2))
        assert sub.shape == (2, 2)
        assert sub.sum() == pytest.approx(1.0)


def test_marginalize_table_axes():
    vs = VarSet((0,), (1, 4))
    tbl = np.random.default_rng(1).random((2, 3, 3))
    tbl /= tbl.sum()
    onto = marginalize_table(vs, tbl, VarSet((0,), (4,)))
    assert onto.shape == (2, 3)
    np.testing.assert_allclose(onto, tbl.sum(axis=1))


# ---------------------------------------------------------------------------
# label model parameters
# ---------------------------------------------------------------------------

def _exact_parameters(g, seed=3):
    g = validate_graph(g)
    return enumerate_joint(random_model(g, seed=seed)).true_parameters(build_junction_tree(g))


def _shifted(mu, vs, moves):
    """``mu`` with entries of clique ``vs`` moved by (index, delta) pairs."""
    tbl = mu.cliques[vs].copy()
    for idx, delta in moves:
        tbl[idx] += delta
    return LabelModelParameters.from_tables(mu.graph, mu.jtree, {**mu.cliques, vs: tbl},
                                            mu.separators)


# On star(4) with sources 1-2 and 2-3 coupled, whose cliques are {Y1,L1,L2},
# {Y1,L2,L3} and {Y1,L4} and whose separators are {Y1} and {Y1,L2}: one
# corruption per kind of validate() failure, and the message it gives.
_CORRUPTIONS = {
    "negative": ((VarSet((0,), (3,)), [((0, 0), -1.0)]),
                 "negative entry in table {Y1,L4}"),
    "sum": ((VarSet((0,), (3,)), [((0, 0), 1e-6)]), "table {Y1,L4} sums to 1.000001"),
    # mass moved between L2's states: only the {Y1,L2} marginal changes
    "source separator": ((VarSet((0,), (1, 2)), [((0, 0, 0), 1e-4), ((0, 1, 1), -1e-4)]),
                         "clique {Y1,L2,L3} does not marginalize onto separator {Y1,L2}"),
    # mass moved between the task's states
    "task separator": ((VarSet((0,), (3,)), [((0, 0), 1e-4), ((1, 0), -1e-4)]),
                       "clique {Y1,L4} does not marginalize onto separator {Y1}"),
}


class TestLabelModelParameters:
    def test_exact_tables_validate(self):
        for g in (star_with_edges(4, [(0, 1), (1, 2)]), chain3()):
            mu = _exact_parameters(g)
            mu.validate(tol_sum=1e-12, tol_sep=1e-12)
            reference_validate(mu, tol_sum=1e-12, tol_sep=1e-12)

    @pytest.mark.parametrize("kinds", [[k] for k in _CORRUPTIONS] + [
        ["task separator", "source separator"], ["source separator", "sum"],
        list(_CORRUPTIONS)])
    def test_validate_failures_match_the_reference(self, kinds):
        mu = _exact_parameters(star_with_edges(4, [(0, 1), (1, 2)]))
        for kind in kinds:
            mu = _shifted(mu, *_CORRUPTIONS[kind][0])
        with pytest.raises(ValueError) as want:
            reference_validate(mu)
        if len(kinds) == 1:
            assert str(want.value).startswith(_CORRUPTIONS[kinds[0]][1])
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            mu.validate()

    def test_tables_are_read_only(self):
        mu = _exact_parameters(star_with_edges(3, [(0, 1)]))
        clique, (sep, _deg) = mu.jtree.cliques[0], mu.jtree.separators[0]
        with pytest.raises(TypeError):
            mu.cliques[clique] = mu.cliques[clique] * 0.5
        with pytest.raises(TypeError):
            mu.separators[sep] = mu.separators[sep] * 0.5
        for array in (mu.table, mu.cliques[clique], mu.separators[sep]):
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0.5

    def test_from_tables_takes_exactly_the_trees_tables(self):
        mu = _exact_parameters(star(3))
        vs = VarSet((0,), (0,))
        others = {k: v for k, v in mu.cliques.items() if k != vs}
        cases = [
            (others, mu.separators, r"^no table for clique \{Y1,L1\}$"),
            ({**mu.cliques, VarSet((0,), (0, 1)): np.zeros((2, 3, 3))}, mu.separators,
             r"^\{Y1,L1,L2\} is not a clique of the junction tree$"),
            ({**others, vs: np.zeros(6)}, mu.separators,
             r"^table for \{Y1,L1\} has shape \(6,\)$"),
            (mu.cliques, {}, r"^no table for separator \{Y1\}$"),
        ]
        for cliques, separators, message in cases:
            with pytest.raises(ValueError, match=message):
                LabelModelParameters.from_tables(mu.graph, mu.jtree, cliques, separators)
